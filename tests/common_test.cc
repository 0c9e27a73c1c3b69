#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "common/backoff.h"
#include "common/blocking_queue.h"
#include "common/byte_buffer.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/spin.h"
#include "common/table_printer.h"

namespace itask::common {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SamplesWithinUniverse) {
  Rng rng(17);
  ZipfSampler zipf(1000, 1.0);
  for (int i = 0; i < 10'000; ++i) {
    const auto k = zipf.Sample(rng);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 1000u);
  }
}

TEST(ZipfTest, RankOneDominates) {
  Rng rng(17);
  ZipfSampler zipf(10'000, 1.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100'000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Rank 1 should be the most frequent, and much more frequent than rank 100.
  int max_count = 0;
  std::uint64_t max_rank = 0;
  for (const auto& [rank, count] : counts) {
    if (count > max_count) {
      max_count = count;
      max_rank = rank;
    }
  }
  EXPECT_EQ(max_rank, 1u);
  EXPECT_GT(counts[1], 10 * counts[100]);
}

class ZipfThetaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfThetaTest, DistributionIsMonotoneInRankBuckets) {
  Rng rng(3);
  ZipfSampler zipf(1'000, GetParam());
  std::vector<int> bucket(3, 0);
  for (int i = 0; i < 50'000; ++i) {
    const auto k = zipf.Sample(rng);
    if (k <= 10) {
      ++bucket[0];
    } else if (k <= 100) {
      ++bucket[1];
    } else {
      ++bucket[2];
    }
  }
  // Per-rank density must decrease across buckets.
  const double d0 = bucket[0] / 10.0;
  const double d1 = bucket[1] / 90.0;
  const double d2 = bucket[2] / 900.0;
  EXPECT_GT(d0, d1);
  EXPECT_GT(d1, d2);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfThetaTest, ::testing::Values(0.8, 0.99, 1.0, 1.2));

TEST(ByteBufferTest, AppendRead) {
  ByteBuffer buf;
  const int x = 42;
  const double y = 3.5;
  buf.Append(&x, sizeof(x));
  buf.Append(&y, sizeof(y));
  int rx = 0;
  double ry = 0;
  buf.Read(&rx, sizeof(rx));
  buf.Read(&ry, sizeof(ry));
  EXPECT_EQ(rx, 42);
  EXPECT_EQ(ry, 3.5);
  EXPECT_TRUE(buf.AtEnd());
}

TEST(ByteBufferTest, ReadPastEndThrows) {
  ByteBuffer buf;
  char c = 'a';
  buf.Append(&c, 1);
  char out[2];
  EXPECT_THROW(buf.Read(out, 2), std::out_of_range);
}

TEST(ByteBufferTest, ResetCursorAllowsRereading) {
  ByteBuffer buf;
  int x = 7;
  buf.Append(&x, sizeof(x));
  int out = 0;
  buf.Read(&out, sizeof(out));
  buf.ResetCursor();
  out = 0;
  buf.Read(&out, sizeof(out));
  EXPECT_EQ(out, 7);
}

TEST(BlockingQueueTest, PushPopOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BlockingQueueTest, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  q.Push(5);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 5);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.Push(6));
}

TEST(BlockingQueueTest, MultiThreadedTransfersAllItems) {
  BlockingQueue<int> q;
  constexpr int kItems = 10'000;
  std::set<int> received;
  std::mutex mu;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        std::lock_guard lock(mu);
        received.insert(*item);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = p; i < kItems; i += 2) {
        q.Push(i);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kItems));
}

TEST(SpinTest, SpinsForApproximateDuration) {
  Stopwatch watch;
  SpinFor(std::chrono::milliseconds(5));
  EXPECT_GE(watch.ElapsedMs(), 4.9);
  EXPECT_LT(watch.ElapsedMs(), 50.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Name", "Value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatMs(1500.0), "1.50s");
  EXPECT_EQ(FormatMs(12.3), "12.3ms");
  EXPECT_EQ(FormatPct(0.5), "50.0%");
  EXPECT_EQ(FormatRatio(2.0), "2.00x");
}

// ---- Strict env parsing (common/env.h) ----

TEST(EnvParseTest, ParseIntAcceptsWholeValuesOnly) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt("  13  "), 13);
  EXPECT_FALSE(ParseInt(nullptr).has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("two").has_value());
  EXPECT_FALSE(ParseInt("12abc").has_value());  // atoi would read 12.
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("99999999999999999999999").has_value());  // ERANGE
}

TEST(EnvParseTest, ParseDoubleAcceptsWholeValuesOnly) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" 2e3 ").value(), 2000.0);
  EXPECT_FALSE(ParseDouble("fast").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(EnvParseTest, ParseBoolAcceptsCommonSpellings) {
  EXPECT_EQ(ParseBool("1"), true);
  EXPECT_EQ(ParseBool("true"), true);
  EXPECT_EQ(ParseBool("ON"), true);
  EXPECT_EQ(ParseBool("Yes"), true);
  EXPECT_EQ(ParseBool("0"), false);
  EXPECT_EQ(ParseBool("false"), false);
  EXPECT_EQ(ParseBool("off"), false);
  EXPECT_EQ(ParseBool("no"), false);
  EXPECT_FALSE(ParseBool("maybe").has_value());
  EXPECT_FALSE(ParseBool("2").has_value());
}

TEST(EnvParseTest, EnvHelpersFallBackOnGarbageAndUnset) {
  unsetenv("ITASK_TEST_ENV_KNOB");
  EXPECT_EQ(EnvInt("ITASK_TEST_ENV_KNOB", 5), 5);
  EXPECT_DOUBLE_EQ(EnvDouble("ITASK_TEST_ENV_KNOB", 2.5), 2.5);
  EXPECT_EQ(EnvBool("ITASK_TEST_ENV_KNOB", true), true);

  setenv("ITASK_TEST_ENV_KNOB", "not-a-number", 1);
  EXPECT_EQ(EnvInt("ITASK_TEST_ENV_KNOB", 5), 5);
  EXPECT_DOUBLE_EQ(EnvDouble("ITASK_TEST_ENV_KNOB", 2.5), 2.5);
  EXPECT_EQ(EnvU64("ITASK_TEST_ENV_KNOB", 9u), 9u);

  setenv("ITASK_TEST_ENV_KNOB", "17", 1);
  EXPECT_EQ(EnvInt("ITASK_TEST_ENV_KNOB", 5), 17);
  EXPECT_EQ(EnvU64("ITASK_TEST_ENV_KNOB", 9u), 17u);

  setenv("ITASK_TEST_ENV_KNOB", "-3", 1);
  // EnvU64 rejects negatives; EnvInt passes them through.
  EXPECT_EQ(EnvU64("ITASK_TEST_ENV_KNOB", 9u), 9u);
  EXPECT_EQ(EnvInt("ITASK_TEST_ENV_KNOB", 5), -3);

  setenv("ITASK_TEST_ENV_KNOB", "0", 1);
  // EnvPositiveDouble rejects non-positive values.
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("ITASK_TEST_ENV_KNOB", 4.0), 4.0);
  setenv("ITASK_TEST_ENV_KNOB", "0.5", 1);
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("ITASK_TEST_ENV_KNOB", 4.0), 0.5);

  setenv("ITASK_TEST_ENV_KNOB", "  ", 1);  // Whitespace-only = unset.
  EXPECT_EQ(EnvInt("ITASK_TEST_ENV_KNOB", 5), 5);
  unsetenv("ITASK_TEST_ENV_KNOB");
}

// ---- Unified retry/deadline policy (common/backoff.h) ----

TEST(BackoffTest, DelayIsDeterministicAndWithinJitterBounds) {
  BackoffPolicy policy;
  policy.base_ms = 2.0;
  policy.cap_ms = 64.0;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double ms = BackoffDelayMs(policy, attempt, /*salt=*/42);
    // Pure function: same (policy, attempt, salt) -> same delay.
    EXPECT_DOUBLE_EQ(ms, BackoffDelayMs(policy, attempt, 42)) << attempt;
    // Within +/- jitter of the capped exponential.
    double nominal = policy.base_ms;
    for (int i = 1; i < attempt; ++i) {
      nominal = std::min(nominal * policy.multiplier, policy.cap_ms);
    }
    EXPECT_GE(ms, nominal * (1.0 - policy.jitter)) << attempt;
    EXPECT_LE(ms, nominal * (1.0 + policy.jitter)) << attempt;
  }
  // Late attempts saturate at the cap (modulo jitter), never beyond.
  EXPECT_LE(BackoffDelayMs(policy, 50, 42), policy.cap_ms * (1.0 + policy.jitter));
}

TEST(BackoffTest, ZeroJitterFollowsExactExponential) {
  BackoffPolicy policy;
  policy.base_ms = 1.0;
  policy.cap_ms = 8.0;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 2, 0), 2.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 3, 0), 4.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 4, 0), 8.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(policy, 9, 0), 8.0);  // Capped.
}

TEST(BackoffTest, SaltsDecorrelateJitterStreams) {
  BackoffPolicy policy;  // Default 25% jitter.
  int differing = 0;
  for (int attempt = 1; attempt <= 20; ++attempt) {
    if (BackoffDelayMs(policy, attempt, 1) != BackoffDelayMs(policy, attempt, 2)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);  // Two salts share at most a few collisions.
}

TEST(BackoffTest, SessionExhaustsAfterMaxAttemptsWithSingleGiveup) {
  const auto use = static_cast<int>(BackoffUse::kSendRetry);
  const BackoffRegistry::Snapshot before = BackoffRegistry::Instance().snapshot();
  BackoffPolicy policy;
  policy.base_ms = 0.01;
  policy.cap_ms = 0.02;
  policy.jitter = 0.0;
  policy.max_attempts = 3;
  Backoff session(BackoffUse::kSendRetry, policy, /*salt=*/7);
  double ms = 0.0;
  EXPECT_TRUE(session.Next(&ms));
  EXPECT_TRUE(session.Next(&ms));
  EXPECT_TRUE(session.Next(&ms));
  EXPECT_EQ(session.attempts(), 3);
  // Exhausted: false now and forever, but the giveup is counted exactly once.
  EXPECT_FALSE(session.Next(&ms));
  EXPECT_FALSE(session.Next(&ms));
  const BackoffRegistry::Snapshot after = BackoffRegistry::Instance().snapshot();
  EXPECT_EQ(after.retries[use] - before.retries[use], 3u);
  EXPECT_EQ(after.giveups[use] - before.giveups[use], 1u);
  EXPECT_GE(after.total_retries(), before.total_retries() + 3);
}

TEST(BackoffTest, DeadlineBudgetExpiresAndEndsTheSession) {
  const Deadline unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_FALSE(unlimited.Expired());

  Deadline tight(3.0);
  EXPECT_FALSE(tight.unlimited());
  EXPECT_LE(tight.RemainingMs(), 3.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tight.Expired());
  EXPECT_DOUBLE_EQ(tight.RemainingMs(), 0.0);

  // A session under a blown deadline gives up even with unlimited attempts.
  BackoffPolicy policy;
  policy.base_ms = 0.01;
  policy.max_attempts = -1;
  policy.deadline_ms = 2.0;
  Backoff session(BackoffUse::kLoadRetry, policy, /*salt=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(4));
  double ms = 0.0;
  EXPECT_FALSE(session.Next(&ms));
}

TEST(BackoffTest, PolicyFromEnvOverridesEachKnob) {
  setenv("ITASK_TEST_BACKOFF_BASE_MS", "9.5", 1);
  setenv("ITASK_TEST_BACKOFF_CAP_MS", "77", 1);
  setenv("ITASK_TEST_BACKOFF_ATTEMPTS", "11", 1);
  setenv("ITASK_TEST_BACKOFF_DEADLINE_MS", "1234", 1);
  const BackoffPolicy p = BackoffPolicy::FromEnv("ITASK_TEST_BACKOFF", BackoffPolicy{});
  EXPECT_DOUBLE_EQ(p.base_ms, 9.5);
  EXPECT_DOUBLE_EQ(p.cap_ms, 77.0);
  EXPECT_EQ(p.max_attempts, 11);
  EXPECT_DOUBLE_EQ(p.deadline_ms, 1234.0);
  unsetenv("ITASK_TEST_BACKOFF_BASE_MS");
  unsetenv("ITASK_TEST_BACKOFF_CAP_MS");
  unsetenv("ITASK_TEST_BACKOFF_ATTEMPTS");
  unsetenv("ITASK_TEST_BACKOFF_DEADLINE_MS");
  // Absent env: the base policy passes through untouched.
  const BackoffPolicy untouched =
      BackoffPolicy::FromEnv("ITASK_TEST_BACKOFF", BackoffPolicy{});
  EXPECT_DOUBLE_EQ(untouched.base_ms, BackoffPolicy{}.base_ms);
  EXPECT_EQ(untouched.max_attempts, BackoffPolicy{}.max_attempts);
}

// ---- RunMetrics: one field list, one Merge ----

TEST(RunMetricsTest, MergeFoldsEveryFieldByItsRule) {
  // |big| holds every field above |small|. Merging in both orders must give
  // the same rule-specific result, which rules out "keep" and "overwrite".
  RunMetrics big;
  RunMetrics small;
  std::uint64_t n = 0;
  RunMetrics::ForEachField([&](const char*, auto field, auto) {
    ++n;
    auto& hi = big.*field;
    auto& lo = small.*field;
    using T = std::decay_t<decltype(hi)>;
    if constexpr (std::is_same_v<T, bool>) {
      hi = true;
      lo = false;
    } else if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
      obs::Histogram a(obs::GcPauseBoundsNs());
      obs::Histogram b(obs::GcPauseBoundsNs());
      a.Observe(n * 40'000);
      a.Observe(n * 90'000);
      b.Observe(n * 3'000'000);
      hi = a.snapshot();
      lo = b.snapshot();
    } else {
      hi = static_cast<T>(100 * n + 7);
      lo = static_cast<T>(n);
    }
  });
  RunMetrics big_then_small = big;
  big_then_small.Merge(small);
  RunMetrics small_then_big = small;
  small_then_big.Merge(big);

  std::set<std::string> rules;
  RunMetrics::ForEachField([&](const char* name, auto field, auto rule) {
    using Rule = decltype(rule);
    rules.insert(typeid(Rule).name());
    const auto& hi = big.*field;
    const auto& lo = small.*field;
    for (const RunMetrics* merged : {&big_then_small, &small_then_big}) {
      const auto& got = merged->*field;
      if constexpr (std::is_same_v<Rule, fold::Sum>) {
        EXPECT_EQ(got, hi + lo) << name;
      } else if constexpr (std::is_same_v<Rule, fold::Max>) {
        EXPECT_EQ(got, hi) << name;
      } else if constexpr (std::is_same_v<Rule, fold::And>) {
        EXPECT_FALSE(got) << name;
      } else if constexpr (std::is_same_v<Rule, fold::Or>) {
        EXPECT_TRUE(got) << name;
      } else if constexpr (std::is_same_v<Rule, fold::Xor>) {
        EXPECT_EQ(got, hi ^ lo) << name;
      } else {
        static_assert(std::is_same_v<Rule, fold::Hist>);
        // Bucket-exact: same ladder, per-bucket sums, exact scalars.
        ASSERT_EQ(got.bounds, hi.bounds) << name;
        ASSERT_EQ(got.counts.size(), hi.counts.size()) << name;
        for (std::size_t i = 0; i < got.counts.size(); ++i) {
          EXPECT_EQ(got.counts[i], hi.counts[i] + lo.counts[i]) << name << " bucket " << i;
        }
        EXPECT_EQ(got.count, hi.count + lo.count) << name;
        EXPECT_EQ(got.sum, hi.sum + lo.sum) << name;
        EXPECT_EQ(got.max, std::max(hi.max, lo.max)) << name;
      }
    }
  });
  EXPECT_EQ(rules.size(), 6u);  // Sum, Max, And, Or, Xor and Hist all appear.
}

}  // namespace
}  // namespace itask::common
