#include "serde/spill_manager.h"

#include <unistd.h>

#include <fstream>
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

SpillManager::SpillManager(const std::filesystem::path& root, const std::string& node_name,
                           int pool_size)
    : executor_(pool_size) {
  dir_ = root / ("itask-spill-" + node_name + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir_);
}

SpillManager::~SpillManager() {
  Drain();
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

std::filesystem::path SpillManager::PathFor(SpillId id) const {
  return dir_ / ("part-" + std::to_string(id) + ".bin");
}

void SpillManager::SetFailureInjection(const SpillFailureInjection& injection) {
  std::lock_guard lock(mu_);
  inject_ = injection;
  inject_ops_.store(0, std::memory_order_relaxed);
  inject_rng_.store(injection.seed != 0 ? injection.seed : 0x5eedf00dULL,
                    std::memory_order_relaxed);
}

void SpillManager::MaybeInjectFailure(bool is_write) {
  SpillFailureInjection inject;
  {
    std::lock_guard lock(mu_);
    inject = inject_;
  }
  if (!inject.enabled()) {
    return;
  }
  bool fail = false;
  if (inject.every_nth != 0) {
    const std::uint64_t op = inject_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
    fail = (op % inject.every_nth) == 0;
  }
  const double prob = is_write ? inject.write_probability : inject.read_probability;
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

void SpillManager::WriteFile(SpillId id, const common::ByteBuffer& framed) {
  common::Stopwatch watch;
  const auto path = PathFor(id);
  try {
    MaybeInjectFailure(/*is_write=*/true);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("SpillManager: cannot open " + path.string());
    }
    out.write(reinterpret_cast<const char*>(framed.data()),
              static_cast<std::streamsize>(framed.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("SpillManager: write failed for " + path.string());
    }
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw;
  }
  const double write_ms = watch.ElapsedMs();
  {
    std::lock_guard lock(mu_);
    stats_.write_ms += write_ms;
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kSpillWrite, trace_node_, framed.size());
  }
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
  std::exception_ptr error;
  try {
    common::ByteBuffer framed;
    info = io::FrameCodec::Encode(raw, &framed);
    WriteFile(id, framed);
  } catch (...) {
    error = std::current_exception();
  }

  // The file is durable (or the write failed) but the entry still says
  // kWriting until the commit below.
  CHAOS_POINT("io.write.commit");
  bool orphaned = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      orphaned = true;  // Removed while writing; drop the file below.
    } else if (error != nullptr) {
      it->second.state = State::kFailed;
      it->second.error = error;
      it->second.raw = std::move(raw);  // Back into the cache: nothing is lost.
      ++stats_.write_failures;
    } else {
      it->second.state = State::kDurable;
      it->second.framed_size = info.framed_bytes;
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
    std::error_code ec;
    std::filesystem::remove(PathFor(id), ec);
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kIoCodec, trace_node_, info.raw_bytes, info.framed_bytes);
  }
}

common::ByteBuffer SpillManager::ReadFile(SpillId id, std::uint64_t bytes) {
  common::Stopwatch watch;
  // Injected read failures fire before the file is touched, so the spill
  // stays loadable on retry.
  MaybeInjectFailure(/*is_write=*/false);
  const auto path = PathFor(id);
  std::vector<std::uint8_t> data(bytes);
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("SpillManager: cannot open " + path.string());
    }
    in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(bytes));
    if (static_cast<std::uint64_t>(in.gcount()) != bytes) {
      throw std::runtime_error("SpillManager: short read from " + path.string());
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
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
  // a read fault leaves the spill loadable.
  Entry entry = std::move(it->second);
  entries_.erase(it);
  lock.unlock();
  common::ByteBuffer framed;
  try {
    framed = ReadFile(id, entry.framed_size);
  } catch (...) {
    std::lock_guard relock(mu_);
    entries_.emplace(id, std::move(entry));
    throw;
  }
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
  bool durable = false;
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
    // kWriting: the write's epilogue sees the entry gone and removes the
    // file it just made durable.
    durable = entry.state == State::kDurable;
    entries_.erase(it);
  }
  if (durable) {
    std::error_code ec;
    std::filesystem::remove(PathFor(id), ec);
  }
}

SpillStats SpillManager::Stats() const {
  std::lock_guard lock(mu_);
  SpillStats stats = stats_;
  stats.load_retries = load_retries_.load(std::memory_order_relaxed);
  stats.live_files = entries_.size();
  for (const auto& [id, entry] : entries_) {
    stats.live_file_bytes += entry.raw_size;
  }
  stats.read_stall = read_stall_.snapshot();
  return stats;
}

}  // namespace itask::serde
