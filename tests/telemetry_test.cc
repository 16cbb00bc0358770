// Telemetry core tests (src/telemetry/): log2 bucket boundaries, snapshot
// merge/delta algebra, percentile monotonicity (property-style over seeded
// random histograms), concurrent recording on both platforms (simulator
// fibers and real threads -- the latter is what the TSan CI leg exercises),
// trace-ring wraparound, and exporter output validated by a miniature JSON
// parser.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "core/pthread_api.h"
#include "locks/cna.h"
#include "locks/cna_rwlock.h"
#include "locktable/lock_table.h"
#include "locktable/rw_lock_table.h"
#include "platform/real_platform.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna {
namespace {

using telemetry::BucketLowerBound;
using telemetry::BucketOf;
using telemetry::BucketUpperBound;
using telemetry::kHistBuckets;

// ---------------------------------------------------------------------------
// Miniature JSON syntax validator (recursive descent).  Not a full parser --
// just enough to prove exporter output is well-formed JSON, which is the
// schema property the Chrome trace and JSON exporters must uphold.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) {
      return false;
    }
    pos_ += l.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Bucket boundaries
// ---------------------------------------------------------------------------

TEST(TelemetryBuckets, ExactBoundaries) {
  EXPECT_EQ(BucketOf(0), 0);
  EXPECT_EQ(BucketUpperBound(0), 0u);
  // Bucket i >= 1 holds [2^(i-1), 2^i - 1]; check both edges and the first
  // value past the top for every non-saturating bucket.
  for (int i = 1; i < kHistBuckets - 1; ++i) {
    const std::uint64_t lo = BucketLowerBound(i);
    const std::uint64_t hi = BucketUpperBound(i);
    EXPECT_EQ(lo, std::uint64_t{1} << (i - 1));
    EXPECT_EQ(hi, (std::uint64_t{1} << i) - 1);
    EXPECT_EQ(BucketOf(lo), i) << "lower edge of bucket " << i;
    EXPECT_EQ(BucketOf(hi), i) << "upper edge of bucket " << i;
    EXPECT_EQ(BucketOf(hi + 1), i + 1) << "first value past bucket " << i;
  }
}

TEST(TelemetryBuckets, LastBucketSaturates) {
  EXPECT_EQ(BucketOf(~std::uint64_t{0}), kHistBuckets - 1);
  EXPECT_EQ(BucketOf(std::uint64_t{1} << 63), kHistBuckets - 1);
  EXPECT_EQ(BucketOf(BucketLowerBound(kHistBuckets - 1)), kHistBuckets - 1);
}

// ---------------------------------------------------------------------------
// Snapshot algebra (property tests over seeded random snapshots)
// ---------------------------------------------------------------------------

telemetry::HistogramSnapshot RandomSnapshot(XorShift64& rng, int max_count) {
  telemetry::HistogramSnapshot s;
  const int n = static_cast<int>(rng.NextBelow(
      static_cast<std::uint64_t>(max_count)));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.Next() >> (rng.NextBelow(64));
    s.buckets[static_cast<std::size_t>(BucketOf(v))]++;
    s.count++;
    s.sum += v;
  }
  return s;
}

TEST(TelemetrySnapshot, MergeIsAssociativeAndCommutative) {
  XorShift64 rng = XorShift64::FromSeed(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomSnapshot(rng, 200);
    const auto b = RandomSnapshot(rng, 200);
    const auto c = RandomSnapshot(rng, 200);
    telemetry::HistogramSnapshot ab_c = a;
    ab_c.Merge(b);
    ab_c.Merge(c);
    telemetry::HistogramSnapshot bc = b;
    bc.Merge(c);
    telemetry::HistogramSnapshot a_bc = a;
    a_bc.Merge(bc);
    telemetry::HistogramSnapshot ba = b;
    ba.Merge(a);
    telemetry::HistogramSnapshot ab = a;
    ab.Merge(b);
    EXPECT_EQ(ab_c.buckets, a_bc.buckets);
    EXPECT_EQ(ab_c.count, a_bc.count);
    EXPECT_EQ(ab_c.sum, a_bc.sum);
    EXPECT_EQ(ab.buckets, ba.buckets);
    EXPECT_EQ(ab.count, ba.count);
  }
}

TEST(TelemetrySnapshot, DeltaInvertsMerge) {
  XorShift64 rng = XorShift64::FromSeed(0xdead);
  for (int trial = 0; trial < 50; ++trial) {
    const auto before = RandomSnapshot(rng, 300);
    const auto extra = RandomSnapshot(rng, 300);
    telemetry::HistogramSnapshot after = before;
    after.Merge(extra);
    const auto delta = after - before;
    EXPECT_EQ(delta.buckets, extra.buckets);
    EXPECT_EQ(delta.count, extra.count);
    EXPECT_EQ(delta.sum, extra.sum);
  }
}

TEST(TelemetrySnapshot, PercentilesAreMonotone) {
  XorShift64 rng = XorShift64::FromSeed(0xfeed);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = RandomSnapshot(rng, 500);
    const std::uint64_t p50 = s.P50();
    const std::uint64_t p90 = s.P90();
    const std::uint64_t p99 = s.P99();
    const std::uint64_t p999 = s.P999();
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, s.Percentile(1.0));
    if (s.count > 0) {
      // The maximum percentile is the upper bound of some non-empty bucket.
      const std::uint64_t top = s.Percentile(1.0);
      bool found = false;
      for (int i = 0; i < kHistBuckets; ++i) {
        if (s.buckets[static_cast<std::size_t>(i)] != 0 &&
            BucketUpperBound(i) == top) {
          found = true;
        }
      }
      EXPECT_TRUE(found);
    } else {
      EXPECT_EQ(p999, 0u);
    }
  }
}

TEST(TelemetrySnapshot, PercentileIsBucketUpperBound) {
  telemetry::HistogramSnapshot s;
  // Ten values of 5 (bucket 3: [4,7]) and one of 100 (bucket 7: [64,127]).
  s.buckets[static_cast<std::size_t>(BucketOf(5))] = 10;
  s.buckets[static_cast<std::size_t>(BucketOf(100))] = 1;
  s.count = 11;
  s.sum = 150;
  EXPECT_EQ(s.P50(), BucketUpperBound(BucketOf(5)));
  // Ceiling-rank semantics: p999 of 11 samples is the ceil(0.999 * 11) =
  // 11th value -- the outlier.  (Rank truncation used to round this down to
  // the 10th and report the bulk bucket, hiding exactly the tail sample a
  // p999 exists to surface.)
  EXPECT_EQ(s.P999(), BucketUpperBound(BucketOf(100)));
  EXPECT_EQ(s.Percentile(1.0), BucketUpperBound(BucketOf(100)));
}

TEST(TelemetrySnapshot, PercentileRankBoundaries) {
  // Ten values in ten distinct buckets: value 2^i lands in bucket i for the
  // small-bucket range, so rank k maps to bucket k - 1 and every boundary is
  // exactly checkable.
  telemetry::HistogramSnapshot s;
  for (int i = 0; i < 10; ++i) {
    s.buckets[static_cast<std::size_t>(i)] = 1;
  }
  s.count = 10;
  // p99 of 10 samples is the ceil(9.9) = 10th (largest) value, not the 9th
  // that rank truncation produced.
  EXPECT_EQ(s.P99(), BucketUpperBound(9));
  // Exact multiples stay exact: ceil(0.5 * 10) = 5th value.
  EXPECT_EQ(s.P50(), BucketUpperBound(4));
  EXPECT_EQ(s.P90(), BucketUpperBound(8));  // ceil(9.0) = 9th
  // The extremes clamp to the first and last samples.
  EXPECT_EQ(s.Percentile(0.0), BucketUpperBound(0));
  EXPECT_EQ(s.Percentile(1.0), BucketUpperBound(9));
}

// ---------------------------------------------------------------------------
// Histogram / Counter recording
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, RecordsPerSocket) {
  telemetry::Histogram h;
  for (int i = 0; i < 10; ++i) {
    h.RecordAt(/*socket=*/0, /*shard=*/i, 10);
    h.RecordAt(/*socket=*/1, /*shard=*/i, 1000);
  }
  const auto s0 = h.SocketSnapshot(0);
  const auto s1 = h.SocketSnapshot(1);
  EXPECT_EQ(s0.count, 10u);
  EXPECT_EQ(s0.sum, 100u);
  EXPECT_EQ(s1.count, 10u);
  EXPECT_EQ(s1.sum, 10000u);
  const auto total = h.Snapshot();
  EXPECT_EQ(total.count, 20u);
  EXPECT_EQ(total.sum, 10100u);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(TelemetryCounter, ShardsSumAndReset) {
  telemetry::Counter c;
  for (int shard = 0; shard < 100; ++shard) {
    c.AddAt(shard, 3);
  }
  EXPECT_EQ(c.Value(), 300u);
  c.StoreTotal(42);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(TelemetryRegistry, StableAddressesAndSortedSnapshot) {
  telemetry::Registry reg;
  telemetry::Counter& a = reg.GetCounter("zz.last");
  telemetry::Counter& b = reg.GetCounter("aa.first");
  EXPECT_EQ(&a, &reg.GetCounter("zz.last"));
  a.Add(2);
  b.Add(1);
  (void)reg.GetHistogram("mm.hist");
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aa.first");
  EXPECT_EQ(snap.counters[1].name, "zz.last");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "mm.hist");
  reg.ResetAll();
  EXPECT_EQ(reg.Snapshot().counters[0].value, 0u);
}

// Hold-time telemetry pairs every release with its own acquisition through
// the context's held-lock entry: exactly one hold sample per timed
// acquisition, whatever the release order and however deep the nesting.
TEST(TelemetryHoldTime, ExactlyOneSamplePerAcquisition) {
  using Table =
      locktable::LockTable<RealPlatform, locks::CnaLock<RealPlatform>>;
  using RwTable = locktable::RwLockTable<
      RealPlatform,
      locks::CnaRwLock<RealPlatform, locks::CnaRwCompactConfig>>;
  telemetry::SetEnabled(true);
  telemetry::Histogram& hold =
      telemetry::Registry::Global().GetHistogram("locktable.hold_ns");
  telemetry::Histogram& write_hold =
      telemetry::Registry::Global().GetHistogram("rwtable.write_hold_ns");
  const std::uint64_t hold0 = hold.Snapshot().count;
  const std::uint64_t write_hold0 = write_hold.Snapshot().count;

  Table table({.stripes = 1024, .collect_latency = true});
  RwTable rw({.stripes = 1024, .collect_latency = true});
  // Twenty keys on twenty distinct stripes (both tables hash alike).
  std::uint64_t keys[20];
  for (std::uint64_t k = 0, n = 0; n < 20; ++k) {
    bool fresh = true;
    for (std::uint64_t i = 0; i < n; ++i) {
      fresh = fresh && table.StripeOf(keys[i]) != table.StripeOf(k);
    }
    if (fresh) {
      keys[n++] = k;
    }
  }
  std::uint64_t acquisitions = 0;
  std::uint64_t write_acquisitions = 0;

  // Release out of acquisition order: a, b, c taken, a released first.
  table.Lock(keys[0]);
  ASSERT_TRUE(table.TryLock(keys[1]));
  table.Lock(keys[2]);
  table.Unlock(keys[0]);
  table.Unlock(keys[2]);
  table.Unlock(keys[1]);
  acquisitions += 3;

  // A single-key hold that outlives a 20-key MultiGuard nested inside it,
  // and a transaction deeper than any fixed per-context table.
  table.Lock(keys[19]);
  {
    Table::MultiGuard g(table, keys, 19);
    acquisitions += g.size();
    table.Unlock(keys[19]);  // the outer hold ends inside the transaction
  }
  acquisitions += 1;
  {
    RwTable::MultiGuard g(rw, keys, 20);
    write_acquisitions += g.size();
  }
  rw.LockExclusive(keys[0]);
  ASSERT_TRUE(rw.TryLockExclusive(keys[1]));
  rw.LockShared(keys[2]);  // shared holds have no hold histogram
  rw.UnlockExclusive(keys[0]);
  rw.UnlockShared(keys[2]);
  rw.Unlock(keys[1]);
  write_acquisitions += 2;
  telemetry::SetEnabled(false);

  EXPECT_GT(acquisitions, 20u);
  EXPECT_EQ(hold.Snapshot().count - hold0, acquisitions);
  EXPECT_EQ(write_hold.Snapshot().count - write_hold0, write_acquisitions);
  EXPECT_EQ(table.HeldByThisContext(), 0u);
  EXPECT_EQ(rw.ExclusiveHeldByThisContext(), 0u);
}

// Concurrent recording, real threads: every record lands in exactly one
// shard, so the merged count is exact.  This is the TSan CI leg's target.
TEST(TelemetryConcurrency, RealThreadsRecordExactCounts) {
  telemetry::Histogram h;
  telemetry::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.RecordAt(t % telemetry::kMaxSockets, t,
                   static_cast<std::uint64_t>(i % 1024));
        c.AddAt(t);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(h.Snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// Concurrent recording under the simulator: fibers share one OS thread, so
// this checks the P::CpuId()-indexed shard discipline (thread_local would
// alias every fiber).
TEST(TelemetryConcurrency, SimFibersRecordExactCounts) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, 8);
  sim::Machine m(cfg);
  telemetry::Histogram h;
  constexpr int kFibers = 12;
  constexpr int kPerFiber = 500;
  for (int f = 0; f < kFibers; ++f) {
    m.Spawn([&h] {
      for (int i = 0; i < kPerFiber; ++i) {
        h.RecordAt(SimPlatform::CurrentSocket(), SimPlatform::CpuId(),
                   static_cast<std::uint64_t>(i));
        if (i % 64 == 0) {
          sim::Machine::Active()->AdvanceLocalWork(10);
        }
      }
    });
  }
  m.Run();
  EXPECT_EQ(h.Snapshot().count,
            static_cast<std::uint64_t>(kFibers) * kPerFiber);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TelemetryTrace, RingWrapsOverwritingOldest) {
  telemetry::TraceRing ring;
  const std::size_t total = telemetry::TraceRing::kCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    ring.Emit(telemetry::TraceEventType::kLockSlowPath, /*socket=*/0,
              /*tid=*/1, /*arg=*/i, /*dur_ns=*/0, /*ts_ns=*/i + 1);
  }
  std::vector<telemetry::TraceRecord> out;
  ring.Collect(&out);
  ASSERT_EQ(out.size(), telemetry::TraceRing::kCapacity);
  // Oldest-first: the first collected record is the first un-overwritten
  // emit, and timestamps ascend.
  EXPECT_EQ(out.front().arg, 100u);
  EXPECT_EQ(out.back().arg, total - 1);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].ts_ns, out[i].ts_ns);
  }
  EXPECT_EQ(ring.emitted(), total);
  ring.Clear();
  out.clear();
  ring.Collect(&out);
  EXPECT_TRUE(out.empty());
}

TEST(TelemetryTrace, WrappedRingExportsValidChromeTrace) {
  telemetry::TraceRing ring;
  for (std::size_t i = 0; i < telemetry::TraceRing::kCapacity + 50; ++i) {
    const bool timed = i % 3 == 0;
    ring.Emit(static_cast<telemetry::TraceEventType>(i % 12),
              static_cast<int>(i % 4), static_cast<int>(i % 16),
              /*arg=*/i, /*dur_ns=*/timed ? 500 : 0, /*ts_ns=*/1000 + i);
  }
  std::vector<telemetry::TraceRecord> out;
  ring.Collect(&out);
  const std::string json = telemetry::ToChromeTraceJson(out);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("lock.slow_path"), std::string::npos);
}

TEST(TelemetryTrace, ParkUnparkEventsRoundTripThroughChromeTrace) {
  telemetry::TraceRing ring;
  // A park with a measured duration exports as a complete event ("ph":"X");
  // the unpark that ended it is instantaneous ("ph":"i").
  ring.Emit(telemetry::TraceEventType::kPark, /*socket=*/1, /*tid=*/7,
            /*arg=*/0xabc, /*dur_ns=*/25'000, /*ts_ns=*/5'000);
  ring.Emit(telemetry::TraceEventType::kUnpark, /*socket=*/0, /*tid=*/3,
            /*arg=*/0xabc, /*dur_ns=*/0, /*ts_ns=*/30'000);
  std::vector<telemetry::TraceRecord> out;
  ring.Collect(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(static_cast<telemetry::TraceEventType>(out[0].type),
            telemetry::TraceEventType::kPark);
  EXPECT_EQ(static_cast<telemetry::TraceEventType>(out[1].type),
            telemetry::TraceEventType::kUnpark);

  const std::string json = telemetry::ToChromeTraceJson(out);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  const std::size_t park_pos = json.find("\"parking.park\"");
  const std::size_t unpark_pos = json.find("\"parking.unpark\"");
  ASSERT_NE(park_pos, std::string::npos) << json;
  ASSERT_NE(unpark_pos, std::string::npos) << json;
  // The timed park renders as a complete event, the unpark as an instant,
  // and each phase tag sits in the same event object as its name.
  EXPECT_NE(json.find("\"ph\":\"X\"", park_pos), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\"", unpark_pos), std::string::npos);
  EXPECT_LT(json.find("\"ph\":\"X\"", park_pos), unpark_pos);
}

TEST(TelemetryTrace, EmitRespectsFlagAndCollects) {
  telemetry::ClearTrace();
  telemetry::SetTraceEnabled(false);
  telemetry::TraceEmit(telemetry::TraceEventType::kEpochAdvance, 0, 0, 1);
  telemetry::SetTraceEnabled(true);
  telemetry::TraceEmit(telemetry::TraceEventType::kEpochAdvance, 0, 0, 2);
  telemetry::SetTraceEnabled(false);
  const auto records = telemetry::CollectTrace();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].arg, 2u);
  telemetry::ClearTrace();
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(TelemetryExport, AllRegistryFormatsAreWellFormed) {
  telemetry::Registry::Global().GetCounter("test.export.counter").Add(7);
  telemetry::Registry::Global()
      .GetHistogram("test.export.hist")
      .RecordAt(0, 0, 123);
  const auto snap = telemetry::SnapshotAll();

  const std::string text = telemetry::ToLockStatText(snap);
  EXPECT_NE(text.find("test.export.counter"), std::string::npos);
  EXPECT_NE(text.find("test.export.hist"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);

  const std::string json = telemetry::ToJson(snap);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"test.export.counter\""), std::string::npos);

  const std::string prom = telemetry::ToPrometheus(snap);
  EXPECT_NE(prom.find("# TYPE cna_test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("cna_test_export_hist_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("_count"), std::string::npos);
}

TEST(TelemetryExport, CApiRoundTrip) {
  cna_telemetry_enable(1);
  EXPECT_EQ(cna_telemetry_enabled(), 1);
  telemetry::Registry::Global().GetCounter("test.capi.counter").Add(11);
  for (const int format :
       {CNA_TELEMETRY_FORMAT_TEXT, CNA_TELEMETRY_FORMAT_JSON,
        CNA_TELEMETRY_FORMAT_PROMETHEUS, CNA_TELEMETRY_FORMAT_CHROME}) {
    char* out = cna_telemetry_export(format);
    ASSERT_NE(out, nullptr) << "format " << format;
    EXPECT_GT(std::string(out).size(), 0u);
    if (format == CNA_TELEMETRY_FORMAT_JSON ||
        format == CNA_TELEMETRY_FORMAT_CHROME) {
      const std::string s(out);
      EXPECT_TRUE(JsonChecker(s).Valid()) << s.substr(0, 200);
    }
    cna_telemetry_free(out);
  }
  EXPECT_EQ(cna_telemetry_export(999), nullptr);
  cna_telemetry_free(nullptr);  // must be a safe no-op
  cna_telemetry_reset();
  EXPECT_EQ(telemetry::Registry::Global().GetCounter("test.capi.counter")
                .Value(),
            0u);
  cna_telemetry_enable(0);
  EXPECT_EQ(cna_telemetry_enabled(), 0);
}

}  // namespace
}  // namespace cna
