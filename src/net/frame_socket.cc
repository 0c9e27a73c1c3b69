#include "net/frame_socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "io/frame_codec.h"

namespace itask::net {

void FrameReader::Feed(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

bool FrameReader::Next(common::ByteBuffer* out) {
  // Compact once consumed frames dominate the buffer, so a long-lived
  // connection does not grow its receive buffer without bound.
  if (consumed_ > 0 && consumed_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) {
    return false;
  }
  std::uint32_t frame_len = 0;
  std::memcpy(&frame_len, buf_.data() + consumed_, 4);
  if (frame_len == 0 || frame_len > kMaxFrameBytes) {
    throw std::runtime_error("net: invalid frame length prefix");
  }
  if (avail < 4 + static_cast<std::size_t>(frame_len)) {
    return false;
  }
  common::ByteBuffer framed;
  framed.bytes().assign(buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4),
                        buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + frame_len));
  io::FrameCodec::Decode(framed, out);  // Throws on corruption.
  consumed_ += 4 + frame_len;
  return true;
}

FrameSocket& FrameSocket::operator=(FrameSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
    wire_bytes_sent_ = other.wire_bytes_sent_;
    wire_bytes_received_ = other.wire_bytes_received_;
  }
  return *this;
}

void FrameSocket::Shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void FrameSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

// Writes all |n| bytes, riding out EINTR and short writes. MSG_NOSIGNAL keeps
// a dead peer as an EPIPE errno instead of a process-killing SIGPIPE.
bool WriteAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool FrameSocket::SendFrame(const common::ByteBuffer& payload) {
  if (fd_ < 0) {
    return false;
  }
  common::ByteBuffer framed;
  io::FrameCodec::Encode(payload, &framed);
  if (framed.size() > kMaxFrameBytes) {
    LOG_WARN() << "net: refusing to send oversized frame (" << framed.size() << " bytes)";
    return false;
  }
  const auto frame_len = static_cast<std::uint32_t>(framed.size());
  std::uint8_t prefix[4];
  std::memcpy(prefix, &frame_len, 4);
  if (!WriteAll(fd_, prefix, 4) || !WriteAll(fd_, framed.data(), framed.size())) {
    return false;
  }
  wire_bytes_sent_ += 4 + framed.size();
  return true;
}

bool FrameSocket::EncodeWire(const common::ByteBuffer& payload, std::vector<std::uint8_t>* wire) {
  common::ByteBuffer framed;
  io::FrameCodec::Encode(payload, &framed);
  if (framed.size() > kMaxFrameBytes) {
    LOG_WARN() << "net: refusing to encode oversized frame (" << framed.size() << " bytes)";
    return false;
  }
  const auto frame_len = static_cast<std::uint32_t>(framed.size());
  wire->resize(4 + framed.size());
  std::memcpy(wire->data(), &frame_len, 4);
  std::memcpy(wire->data() + 4, framed.data(), framed.size());
  return true;
}

bool FrameSocket::SendRaw(const std::uint8_t* data, std::size_t n) {
  if (fd_ < 0) {
    return false;
  }
  if (!WriteAll(fd_, data, n)) {
    return false;
  }
  wire_bytes_sent_ += n;
  return true;
}

bool FrameSocket::RecvFrame(common::ByteBuffer* out) {
  if (fd_ < 0) {
    return false;
  }
  if (reader_.Next(out)) {
    return true;
  }
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;  // ECONNRESET and friends: treat as peer-gone.
    }
    if (r == 0) {
      return false;  // Clean EOF.
    }
    wire_bytes_received_ += static_cast<std::uint64_t>(r);
    reader_.Feed(chunk, static_cast<std::size_t>(r));
    if (reader_.Next(out)) {
      return true;
    }
  }
}

bool ConnectWithTimeout(int fd, const void* addr, std::uint32_t addr_len,
                        int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return false;
  }
  bool connected = false;
  const int rc = ::connect(fd, static_cast<const sockaddr*>(addr),
                           static_cast<socklen_t>(addr_len));
  if (rc == 0) {
    connected = true;
  } else if (errno == EINPROGRESS || errno == EINTR) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto left = deadline - std::chrono::steady_clock::now();
      const auto left_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
      if (left_ms <= 0) {
        break;  // Deadline: a black-holed SYN stops here, not at the kernel's.
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms));
      if (ready < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      if (ready == 0) {
        break;  // poll timeout — loop recomputes and exits on the deadline.
      }
      int so_error = 0;
      socklen_t err_len = sizeof(so_error);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &err_len) == 0 &&
          so_error == 0) {
        connected = true;
      }
      break;
    }
  }
  // Restore blocking mode; the frame I/O paths rely on it.
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return false;
  }
  return connected;
}

}  // namespace itask::net
