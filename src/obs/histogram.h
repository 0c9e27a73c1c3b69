// Fixed-bucket histograms (header-only so plain metric structs can embed
// snapshots without linking the obs library).
#ifndef ITASK_OBS_HISTOGRAM_H_
#define ITASK_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace itask::obs {

// Immutable copy of a histogram's state. Bucket i counts observations
// <= bounds[i]; the final bucket (counts.size() == bounds.size() + 1) is the
// +inf overflow. Snapshots with identical bounds merge bucket-wise, which is
// how per-node GC-pause distributions aggregate into a job-level one.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  bool empty() const { return count == 0; }

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  void Merge(const HistogramSnapshot& other) {
    if (other.count == 0) {
      return;
    }
    if (counts.empty()) {
      *this = other;
      return;
    }
    if (bounds == other.bounds) {
      for (std::size_t i = 0; i < counts.size(); ++i) {
        counts[i] += other.counts[i];
      }
    } else {
      // Incompatible bucketing: keep scalar stats exact, drop bucket detail.
      bounds.clear();
      counts.clear();
    }
    count += other.count;
    sum += other.sum;
    max = max > other.max ? max : other.max;
  }

  // Quantile estimate by linear interpolation inside the covering bucket.
  // The overflow bucket reports `max` (the best upper estimate available).
  double Quantile(double q) const {
    if (count == 0) {
      return 0.0;
    }
    if (counts.empty()) {
      return static_cast<double>(max);
    }
    q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    const double rank = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) {
        continue;
      }
      const std::uint64_t next = seen + counts[i];
      if (static_cast<double>(next) >= rank) {
        if (i >= bounds.size()) {
          return static_cast<double>(max);
        }
        const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
        const double hi = static_cast<double>(bounds[i]);
        const double frac =
            (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]);
        return lo + (hi - lo) * frac;
      }
      seen = next;
    }
    return static_cast<double>(max);
  }
};

// Thread-safe fixed-bucket histogram. Observe() is a handful of relaxed
// atomic ops; bounds are immutable after construction.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds)
      : bounds_(std::move(bounds)),
        counts_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1)) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
  }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(std::uint64_t value) {
    std::size_t lo = 0;
    std::size_t hi = bounds_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (value <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    counts_[lo].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev && !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
  }

  // Folds a snapshot from another histogram (a remote node's shipped metrics,
  // a bench shard) into this live one. Bucket-exact only: returns false — and
  // changes nothing — when the bucket ladders differ, because silently
  // misbinning a peer's counts would corrupt every quantile read afterwards.
  // Concurrent Observe() calls stay safe; the merge is per-bucket relaxed
  // adds, same as the observe path.
  bool Merge(const HistogramSnapshot& other) {
    if (other.count == 0) {
      return true;
    }
    if (other.bounds != bounds_ || other.counts.size() != bounds_.size() + 1) {
      return false;
    }
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      counts_[i].fetch_add(other.counts[i], std::memory_order_relaxed);
    }
    count_.fetch_add(other.count, std::memory_order_relaxed);
    sum_.fetch_add(other.sum, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (other.max > prev &&
           !max_.compare_exchange_weak(prev, other.max, std::memory_order_relaxed)) {
    }
    return true;
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot snap;
    snap.bounds = bounds_;
    snap.counts.resize(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    }
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
    return snap;
  }

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

 private:
  const std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// Default bucket ladders (nanoseconds). GC pauses in the simulated heaps run
// tens of microseconds to tens of milliseconds; interrupt latencies (victim
// request -> scale-loop exit) are bounded by per-tuple Process time.
inline std::vector<std::uint64_t> GcPauseBoundsNs() {
  return {10'000,     25'000,     50'000,      100'000,    250'000,    500'000,
          1'000'000,  2'500'000,  5'000'000,   10'000'000, 25'000'000, 50'000'000,
          100'000'000};
}

inline std::vector<std::uint64_t> InterruptLatencyBoundsNs() {
  return {10'000,    50'000,     100'000,    250'000,    500'000,     1'000'000,
          5'000'000, 10'000'000, 50'000'000, 100'000'000, 500'000'000};
}

// Read-stall ladder (§6.2): the time a consumer blocks waiting for a spilled
// partition. Pending-cache hits land in the sub-10µs buckets, prefetched loads
// in the tens of µs, cold demand reads in the ms range.
inline std::vector<std::uint64_t> ReadStallBoundsNs() {
  return {1'000,      5'000,      10'000,     50'000,      100'000,     500'000,
          1'000'000,  5'000'000,  10'000'000, 50'000'000,  100'000'000, 500'000'000,
          1'000'000'000};
}

}  // namespace itask::obs

#endif  // ITASK_OBS_HISTOGRAM_H_
