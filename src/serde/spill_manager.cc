#include "serde/spill_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "common/logging.h"
#include "common/spin.h"
#include "io/frame_codec.h"

namespace itask::serde {

namespace {

// Runs |op| (::pread or ::pwrite) until all |n| bytes at |offset| moved,
// resuming after short transfers and EINTR. Returns false with errno set on
// failure; a transfer that makes no progress (a read past the end of the
// file) fails with EIO.
template <typename Op, typename Byte>
bool TransferAll(Op op, int fd, Byte* data, std::size_t n, std::uint64_t offset) {
  while (n > 0) {
    const ssize_t done = op(fd, data, n, static_cast<off_t>(offset));
    if (done < 0 && errno == EINTR) {
      continue;
    }
    if (done <= 0) {
      if (done == 0) {
        errno = EIO;
      }
      return false;
    }
    data += done;
    n -= static_cast<std::size_t>(done);
    offset += static_cast<std::uint64_t>(done);
  }
  return true;
}

}  // namespace

SpillManager::Segment::~Segment() { ::close(fd); }

SpillManager::SpillManager(const std::filesystem::path& root, const std::string& node_name,
                           int pool_size)
    : executor_(pool_size) {
  dir_ = root / ("itask-spill-" + node_name + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir_);
}

SpillManager::~SpillManager() {
  Drain();
  {
    std::lock_guard lock(mu_);
    segments_.clear();  // Closes every segment file.
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  if (ec) {
    LOG_WARN() << "failed to remove spill dir " << dir_.string() << ": " << ec.message();
  }
}

void SpillManager::SetTracer(obs::Tracer* tracer, int node_id) {
  tracer_ = tracer;
  trace_node_ = static_cast<std::uint16_t>(node_id);
  executor_.SetTracer(tracer, node_id);
}

std::filesystem::path SpillManager::SegmentPath(std::uint32_t segment) const {
  return dir_ / ("segment-" + std::to_string(segment) + ".bin");
}

void SpillManager::SetFaults(const chaos::SpillFaults& faults, std::uint64_t seed) {
  std::lock_guard lock(mu_);
  faults_ = faults;
  inject_ops_.store(0, std::memory_order_relaxed);
  inject_rng_.store(seed != 0 ? seed : 0x5eedf00dULL, std::memory_order_relaxed);
}

void SpillManager::MaybeInjectFailure(bool is_write) {
  chaos::SpillFaults faults;
  {
    std::lock_guard lock(mu_);
    faults = faults_;
  }
  if (!faults.active()) {
    return;
  }
  bool fail = false;
  if (faults.every_nth > 0) {
    const std::uint64_t op = inject_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
    fail = (op % static_cast<std::uint64_t>(faults.every_nth)) == 0;
  }
  const double prob = is_write ? faults.write_p : faults.read_p;
  if (!fail && prob > 0.0) {
    // Private xorshift64* stream: deterministic for a fixed seed and op order.
    std::uint64_t x = inject_rng_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = x;
      next ^= next >> 12;
      next ^= next << 25;
      next ^= next >> 27;
    } while (!inject_rng_.compare_exchange_weak(x, next, std::memory_order_relaxed));
    const double draw =
        static_cast<double>((next * 0x2545F4914F6CDD1DULL) >> 11) / static_cast<double>(1ULL << 53);
    fail = draw < prob;
  }
  if (fail) {
    {
      std::lock_guard lock(mu_);
      ++stats_.injected_failures;
    }
    throw std::runtime_error(std::string("SpillManager: injected ") +
                             (is_write ? "write" : "read") + " failure");
  }
}

SpillManager::SpillId SpillManager::Spill(common::ByteBuffer buffer, int priority) {
  buffer.ResetCursor();
  SpillId id;
  {
    std::lock_guard lock(mu_);
    id = next_id_++;
    Entry entry;
    entry.raw_size = buffer.size();
    entry.raw = std::move(buffer);
    stats_.spilled_bytes += entry.raw_size;
    ++stats_.spill_count;
    entries_.emplace(id, std::move(entry));
  }
  const io::IoExecutor::JobId job =
      executor_.Submit(io::IoClass::kWrite, priority, [this, id] { RunWrite(id); });
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      // Claimed (loaded or removed) between insert and submit: the job body
      // no-ops on a missing entry, but pull it out of the queue if it is
      // still there so it never occupies a worker.
      executor_.TryCancel(job);
    } else if (it->second.job == 0) {
      it->second.job = job;
    }
  }
  return id;
}

SpillManager::Extent SpillManager::WriteFrame(const common::ByteBuffer& framed) {
  common::Stopwatch watch;
  MaybeInjectFailure(/*is_write=*/true);  // Before any reservation.
  Extent extent;
  int fd = -1;
  {
    std::lock_guard lock(mu_);
    if (active_ == 0) {
      const std::filesystem::path path = SegmentPath(next_segment_);
      const int opened = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
      if (opened < 0) {
        const int err = errno;
        throw std::system_error(err, std::generic_category(),
                                "SpillManager: cannot open " + path.string());
      }
      active_ = next_segment_++;
      segments_.try_emplace(active_, opened);
    }
    Segment& seg = segments_.at(active_);
    extent = {active_, seg.end};
    fd = seg.fd;
    seg.end += framed.size();
    ++seg.frames;
    if (seg.end >= kSegmentBytes) {
      active_ = 0;  // Sealed: the next write opens a new segment.
    }
  }
  if (!TransferAll(::pwrite, fd, framed.data(), framed.size(), extent.offset)) {
    const int err = errno;
    ReleaseFrame(extent.segment);
    throw std::system_error(err, std::generic_category(),
                            "SpillManager: write failed in " +
                                SegmentPath(extent.segment).string());
  }
  const double write_ms = watch.ElapsedMs();
  {
    std::lock_guard lock(mu_);
    stats_.write_ms += write_ms;
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kSpillWrite, trace_node_, framed.size());
  }
  return extent;
}

void SpillManager::ReleaseFrame(std::uint32_t segment) {
  std::unordered_map<std::uint32_t, Segment>::node_type drained;
  {
    std::lock_guard lock(mu_);
    auto it = segments_.find(segment);
    if (--it->second.frames > 0) {
      return;
    }
    if (segment == active_) {
      // Truncate under mu_: a writer that reserves offset 0 next must not
      // have its frame cut off.
      it->second.end = 0;
      if (::ftruncate(it->second.fd, 0) != 0) {
        LOG_WARN() << "failed to truncate spill segment " << SegmentPath(segment).string();
      }
      return;
    }
    drained = segments_.extract(it);
  }
  // No frame refers to |drained| any more: unlink it, and close it on return.
  std::error_code ec;
  std::filesystem::remove(SegmentPath(segment), ec);
}

void SpillManager::RunWrite(SpillId id) {
  common::ByteBuffer raw;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.state != State::kQueued) {
      return;  // Cancelled or removed while queued.
    }
    it->second.state = State::kWriting;
    raw = std::move(it->second.raw);
  }
  // Claimed (kWriting) but not yet durable: the window a concurrent Load or
  // Remove must handle via the epilogue, not by cancellation.
  CHAOS_POINT("io.write.claimed");

  io::FrameInfo info{};
  Extent extent;
  std::exception_ptr error;
  try {
    common::ByteBuffer framed;
    info = io::FrameCodec::Encode(raw, &framed);
    extent = WriteFrame(framed);
  } catch (...) {
    error = std::current_exception();
  }

  // The frame is durable (or the write failed) but the entry still says
  // kWriting until the commit below.
  CHAOS_POINT("io.write.commit");
  bool orphaned = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      orphaned = true;  // Removed while writing; release the frame below.
    } else if (error != nullptr) {
      it->second.state = State::kFailed;
      it->second.error = error;
      it->second.raw = std::move(raw);  // Back into the cache: nothing is lost.
      ++stats_.write_failures;
    } else {
      it->second.state = State::kDurable;
      it->second.framed_size = info.framed_bytes;
      it->second.extent = extent;
    }
    if (error == nullptr) {
      stats_.raw_bytes += info.raw_bytes;
      stats_.framed_bytes += info.framed_bytes;
    }
  }
  state_cv_.notify_all();
  if (error != nullptr) {
    return;
  }
  if (orphaned) {
    ReleaseFrame(extent.segment);
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kIoCodec, trace_node_, info.raw_bytes, info.framed_bytes);
  }
}

common::ByteBuffer SpillManager::ReadFrame(int fd, std::uint64_t offset, std::uint64_t bytes) {
  common::Stopwatch watch;
  // Injected read failures fire before the segment is touched, so the spill
  // stays loadable on retry.
  MaybeInjectFailure(/*is_write=*/false);
  std::vector<std::uint8_t> data(bytes);
  if (!TransferAll(::pread, fd, data.data(), data.size(), offset)) {
    throw std::system_error(errno, std::generic_category(), "SpillManager: read failed");
  }
  const double read_ms = watch.ElapsedMs();
  {
    std::lock_guard lock(mu_);
    stats_.read_ms += read_ms;
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kSpillRead, trace_node_, bytes);
  }
  return common::ByteBuffer(std::move(data));
}

common::ByteBuffer SpillManager::LoadInternal(SpillId id, obs::IoLoadSource* source) {
  std::unique_lock lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::runtime_error("SpillManager: unknown spill id " + std::to_string(id));
  }

  if (it->second.state == State::kQueued) {
    // job == 0 means Spill() has not finished submitting yet; claiming the
    // entry here makes the eventual job body a no-op.
    const bool cancelled = it->second.job == 0 || executor_.TryCancel(it->second.job);
    if (cancelled) {
      common::ByteBuffer raw = std::move(it->second.raw);
      const std::uint64_t bytes = it->second.raw_size;
      entries_.erase(it);
      ++stats_.cancelled_writes;
      stats_.cancelled_write_bytes += bytes;
      ++stats_.loads_from_cache;
      stats_.loaded_bytes += bytes;
      ++stats_.load_count;
      *source = obs::IoLoadSource::kPendingCache;
      lock.unlock();
      if (tracer_ != nullptr) {
        tracer_->Emit(obs::EventKind::kIoWriteCancelled, trace_node_, bytes);
      }
      return raw;
    }
    // A worker already dequeued the write; fall through and wait it out.
  }

  bool waited = false;
  while (true) {
    it = entries_.find(id);
    if (it == entries_.end()) {
      throw std::runtime_error("SpillManager: spill id " + std::to_string(id) +
                               " removed while loading");
    }
    const State state = it->second.state;
    if (state == State::kDurable) {
      break;
    }
    if (state == State::kFailed) {
      if (it->second.error != nullptr) {
        // Surface the write failure exactly once; the entry (and its cached
        // payload) survives, so a retry succeeds from memory.
        std::exception_ptr error = std::exchange(it->second.error, nullptr);
        std::rethrow_exception(error);
      }
      common::ByteBuffer raw = std::move(it->second.raw);
      const std::uint64_t bytes = it->second.raw_size;
      entries_.erase(it);
      ++stats_.loads_from_cache;
      stats_.loaded_bytes += bytes;
      ++stats_.load_count;
      *source = obs::IoLoadSource::kPendingCache;
      return raw;
    }
    waited = true;
    state_cv_.wait(lock);
  }

  // Durable: claim the entry, read outside the lock, reinsert on failure so
  // a read fault leaves the spill loadable. The entry's frame holds its
  // segment open until it is released.
  Entry entry = std::move(it->second);
  entries_.erase(it);
  const int fd = segments_.at(entry.extent.segment).fd;
  lock.unlock();
  common::ByteBuffer framed;
  try {
    framed = ReadFrame(fd, entry.extent.offset, entry.framed_size);
  } catch (...) {
    std::lock_guard relock(mu_);
    entries_.emplace(id, std::move(entry));
    throw;
  }
  ReleaseFrame(entry.extent.segment);
  common::ByteBuffer raw;
  io::FrameCodec::Decode(framed, &raw);
  {
    std::lock_guard relock(mu_);
    if (waited) {
      ++stats_.loads_inflight_wait;
    } else {
      ++stats_.loads_from_disk;
    }
    stats_.loaded_bytes += raw.size();
    ++stats_.load_count;
  }
  *source = waited ? obs::IoLoadSource::kInflightWait : obs::IoLoadSource::kDisk;
  return raw;
}

common::ByteBuffer SpillManager::LoadAndRemove(SpillId id) {
  common::Stopwatch watch;
  obs::IoLoadSource source = obs::IoLoadSource::kDisk;
  common::ByteBuffer raw = LoadInternal(id, &source);
  RecordStall(static_cast<std::uint64_t>(watch.Elapsed().count()), raw.size(), source);
  return raw;
}

std::future<common::ByteBuffer> SpillManager::LoadAsync(SpillId id, int priority) {
  auto promise = std::make_shared<std::promise<common::ByteBuffer>>();
  std::future<common::ByteBuffer> future = promise->get_future();
  executor_.Submit(io::IoClass::kLoad, priority, [this, id, promise] {
    try {
      obs::IoLoadSource source = obs::IoLoadSource::kDisk;
      promise->set_value(LoadInternal(id, &source));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

void SpillManager::NotePrefetchWait(std::uint64_t wait_ns, std::uint64_t bytes) {
  RecordStall(wait_ns, bytes, obs::IoLoadSource::kPrefetched);
}

void SpillManager::RecordStall(std::uint64_t stall_ns, std::uint64_t bytes,
                               obs::IoLoadSource source) {
  read_stall_.Observe(stall_ns);
  {
    std::lock_guard lock(mu_);
    stats_.read_stall_ns += stall_ns;
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kIoReadStall, trace_node_, stall_ns, bytes,
                  static_cast<std::uint32_t>(source));
  }
}

void SpillManager::Remove(SpillId id) {
  std::uint32_t durable_segment = 0;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      return;
    }
    Entry& entry = it->second;
    if (entry.state == State::kQueued && entry.job != 0) {
      executor_.TryCancel(entry.job);  // Best effort; the body no-ops anyway.
    }
    // kWriting: the write's epilogue sees the entry gone and releases the
    // frame it just made durable.
    if (entry.state == State::kDurable) {
      durable_segment = entry.extent.segment;
    }
    entries_.erase(it);
  }
  if (durable_segment != 0) {
    ReleaseFrame(durable_segment);
  }
}

SpillStats SpillManager::Stats() const {
  std::lock_guard lock(mu_);
  SpillStats stats = stats_;
  stats.load_retries = load_retries_.load(std::memory_order_relaxed);
  stats.live_spills = entries_.size();
  for (const auto& [id, entry] : entries_) {
    stats.live_bytes += entry.raw_size;
  }
  stats.read_stall = read_stall_.snapshot();
  return stats;
}

}  // namespace itask::serde
