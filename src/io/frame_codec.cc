#include "io/frame_codec.h"

#include <stdexcept>

namespace itask::io {

namespace {

// Local varint helpers: the codec parses frames from const buffers without
// touching their read cursor, so it cannot reuse serde::Reader.
void AppendVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t ReadVarint(const std::uint8_t* data, std::size_t size, std::size_t* pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*pos >= size || shift > 63) {
      throw std::runtime_error("FrameCodec: truncated varint");
    }
    const std::uint8_t byte = data[(*pos)++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

}  // namespace

std::uint64_t FrameCodec::Checksum(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 1099511628211ULL;
  }
  return h;
}

FrameInfo FrameCodec::Encode(const common::ByteBuffer& raw, common::ByteBuffer* out) {
  const std::uint8_t* data = raw.data();
  const std::size_t n = raw.size();
  const std::uint64_t checksum = Checksum(data, n);

  std::vector<std::uint8_t> frame;
  frame.reserve(n + 24);
  frame.push_back(kMagic0);
  frame.push_back(kMagic1);
  frame.push_back(kVersion);
  frame.push_back(kFlagRaw);
  AppendVarint(frame, n);  // Raw size.
  AppendVarint(frame, n);  // Payload size: the same, as the payload is verbatim.
  for (int shift = 0; shift < 64; shift += 8) {
    frame.push_back(static_cast<std::uint8_t>(checksum >> shift));
  }
  frame.insert(frame.end(), data, data + n);

  FrameInfo info;
  info.raw_bytes = n;
  info.framed_bytes = frame.size();
  *out = common::ByteBuffer(std::move(frame));
  return info;
}

FrameInfo FrameCodec::Decode(const common::ByteBuffer& framed, common::ByteBuffer* out) {
  const std::uint8_t* data = framed.data();
  const std::size_t size = framed.size();
  if (size < 12 || data[0] != kMagic0 || data[1] != kMagic1) {
    throw std::runtime_error("FrameCodec: bad magic");
  }
  if (data[2] != kVersion) {
    throw std::runtime_error("FrameCodec: unsupported version " + std::to_string(data[2]));
  }
  if (data[3] != kFlagRaw) {
    throw std::runtime_error("FrameCodec: unknown flags");
  }
  std::size_t pos = 4;
  const std::uint64_t raw_size = ReadVarint(data, size, &pos);
  const std::uint64_t payload_size = ReadVarint(data, size, &pos);
  if (pos + 8 > size) {
    throw std::runtime_error("FrameCodec: truncated header");
  }
  std::uint64_t checksum = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    checksum |= static_cast<std::uint64_t>(data[pos++]) << shift;
  }
  if (pos + payload_size != size) {
    throw std::runtime_error("FrameCodec: payload size mismatch");
  }
  if (payload_size != raw_size) {
    throw std::runtime_error("FrameCodec: raw frame size mismatch");
  }
  if (Checksum(data + pos, payload_size) != checksum) {
    throw std::runtime_error("FrameCodec: checksum mismatch");
  }

  FrameInfo info;
  info.raw_bytes = payload_size;
  info.framed_bytes = size;
  *out = common::ByteBuffer(std::vector<std::uint8_t>(data + pos, data + size));
  return info;
}

}  // namespace itask::io
