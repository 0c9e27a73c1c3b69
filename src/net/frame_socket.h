// Framing over a byte stream: [u32 LE frame length][io::FrameCodec frame].
//
// TCP delivers a byte stream with arbitrary read boundaries, so the receive
// path is an incremental FrameReader: feed it whatever recv() returned — half
// a length prefix, three frames and a tail, one byte at a time — and it emits
// each complete decoded payload exactly once. The FrameCodec layer inside the
// frame carries the payload checksum, so a bit flip on the wire (or a framing
// bug) surfaces as a decode error, never as silent payload corruption.
//
// FrameSocket is the blocking convenience wrapper both the TCP transport and
// the control plane use: one fd, SendFrame/RecvFrame, EINTR-safe partial-write
// loops. It owns the fd and closes it on destruction.
#ifndef ITASK_NET_FRAME_SOCKET_H_
#define ITASK_NET_FRAME_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"

namespace itask::net {

// Hard ceiling on one frame's wire size. A corrupt or hostile length prefix
// must not make the reader allocate unbounded memory.
inline constexpr std::uint32_t kMaxFrameBytes = 256u << 20;  // 256 MiB

// Incremental decoder for a [u32 length][frame] stream. No fd involvement —
// unit-testable with byte slices split at every boundary.
class FrameReader {
 public:
  // Appends |n| raw stream bytes to the internal buffer.
  void Feed(const void* data, std::size_t n);

  // If a complete frame is buffered, decodes its payload into |out|
  // (overwritten), consumes it, and returns true. Returns false when more
  // bytes are needed. Throws std::runtime_error on an oversized length
  // prefix or a corrupt frame (bad magic/checksum/size); the stream is
  // unrecoverable after a throw.
  bool Next(common::ByteBuffer* out);

  std::size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // Prefix of buf_ already emitted as frames.
};

// Blocking frame I/O over an owned fd (TCP or Unix-domain stream socket).
class FrameSocket {
 public:
  FrameSocket() = default;
  explicit FrameSocket(int fd) : fd_(fd) {}
  ~FrameSocket() { Close(); }

  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;
  FrameSocket(FrameSocket&& other) noexcept { *this = std::move(other); }
  FrameSocket& operator=(FrameSocket&& other) noexcept;

  // Encodes |payload| as one frame and writes it fully (length prefix +
  // frame). Returns false if the peer is gone (EPIPE/ECONNRESET) or the fd is
  // closed; other I/O errors also report false after logging.
  bool SendFrame(const common::ByteBuffer& payload);

  // Produces the exact wire image SendFrame would write (length prefix +
  // checksummed frame) without sending it. The fault engine mutates this
  // image — post-framing, so an injected bit flip is always caught by the
  // frame checksum at the receiver, never decoded as silently-wrong payload.
  static bool EncodeWire(const common::ByteBuffer& payload, std::vector<std::uint8_t>* wire);

  // Writes |n| pre-framed wire bytes as-is (EINTR-safe, MSG_NOSIGNAL). Same
  // return contract as SendFrame.
  bool SendRaw(const std::uint8_t* data, std::size_t n);

  // Blocks until one full frame arrives and decodes its payload into |out|.
  // Returns false on clean EOF or peer reset. Throws on a corrupt frame.
  bool RecvFrame(common::ByteBuffer* out);

  // Sent/received payload accounting for TransportStats.
  std::uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  std::uint64_t wire_bytes_received() const { return wire_bytes_received_; }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  // Wakes threads blocked in recv/send on this socket (they see EOF or an
  // error) and leaves the descriptor open, so its number cannot be reused
  // under them. Safe while other threads use the socket; call Close() only
  // once they are done (close() alone wakes no blocked recv on Linux).
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  FrameReader reader_;
  std::uint64_t wire_bytes_sent_ = 0;
  std::uint64_t wire_bytes_received_ = 0;
};

// Ceiling on one dial attempt (shuffle peers, ctrl join, daemon dial).
inline constexpr int kConnectTimeoutMs = 1000;

// Connects |fd| to |addr| without ever blocking the caller past
// |timeout_ms|: non-blocking connect, poll for writability with a deadline,
// then SO_ERROR check. On success the fd is back in blocking mode. A
// black-holed peer (SYN into a partition) costs the timeout, not forever.
bool ConnectWithTimeout(int fd, const void* addr, std::uint32_t addr_len,
                        int timeout_ms);

}  // namespace itask::net

#endif  // ITASK_NET_FRAME_SOCKET_H_
