// FrameCodec: the self-contained block format every spill travels in.
//
// A frame wraps one serialized partition payload with a fixed header — magic,
// version, flags, varint raw/payload sizes and an FNV-1a checksum of the raw
// bytes — so a truncated, bit-flipped or mis-framed file is detected at load
// time instead of deserializing garbage into a partition. The payload is
// stored verbatim; the only valid flags byte is kFlagRaw. No external
// dependencies.
#ifndef ITASK_IO_FRAME_CODEC_H_
#define ITASK_IO_FRAME_CODEC_H_

#include <cstdint>

#include "common/byte_buffer.h"

namespace itask::io {

struct FrameInfo {
  std::uint64_t raw_bytes = 0;     // Payload size before framing.
  std::uint64_t framed_bytes = 0;  // On-disk size (header + payload).
};

class FrameCodec {
 public:
  static constexpr std::uint8_t kMagic0 = 0xF5;
  static constexpr std::uint8_t kMagic1 = 0x1C;
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::uint8_t kFlagRaw = 0x0;  // Payload stored verbatim.

  // Frames |raw| into |out| (overwritten). Returns the frame sizes for the
  // caller's raw/framed byte accounting.
  static FrameInfo Encode(const common::ByteBuffer& raw, common::ByteBuffer* out);

  // Unframes |framed| into |out| (overwritten). Throws std::runtime_error on
  // bad magic/version, unknown flags, size mismatch or checksum mismatch.
  static FrameInfo Decode(const common::ByteBuffer& framed, common::ByteBuffer* out);

  // FNV-1a 64 over the raw payload, the end-to-end integrity check.
  static std::uint64_t Checksum(const std::uint8_t* data, std::size_t n);
};

}  // namespace itask::io

#endif  // ITASK_IO_FRAME_CODEC_H_
