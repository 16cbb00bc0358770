// kv-uniform and kv-skewed-rw: a key-value store whose 1 Mi int64 values are
// guarded by a lock table through the public C API (cna_locktable_*,
// cna_rwlocktable_*).  See ../README.md for why each workload exists.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/pthread_api.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kKeys = 1u << 20;
constexpr std::uint64_t kKeyMask = kKeys - 1;
constexpr double kWarmupSeconds = 0.5;
// One traced op in kKvTraceStride keeps a traced run's spans within the
// per-worker span buffer.
constexpr std::uint64_t kKvTraceStride = 4096;

// Per-worker tallies, each on its own cache line.
struct alignas(64) WorkerTally {
  std::uint64_t attempted = 0;
  std::uint64_t nonzero = 0;
  std::uint64_t writes = 0;  // increments applied
  std::uint64_t hot = 0;     // ops on a hot key (kv-skewed-rw)
  std::int64_t sink = 0;     // folds the values read
};

WorkerTally Sum(const std::vector<WorkerTally>& tallies) {
  WorkerTally t;
  for (const WorkerTally& w : tallies) {
    t.attempted += w.attempted;
    t.nonzero += w.nonzero;
    t.writes += w.writes;
    t.hot += w.hot;
    t.sink += w.sink;
  }
  return t;
}

std::int64_t SumValues(const std::vector<std::int64_t>& values) {
  std::int64_t sum = 0;
  for (std::int64_t v : values) {
    sum += v;
  }
  return sum;
}

// Keeps the values read by get operations observable.
volatile std::int64_t g_sink = 0;

// ---------------------------------------------------------------------------
// kv-uniform
// ---------------------------------------------------------------------------

constexpr std::size_t kUniformStripes = 4096;

struct UniformState {
  explicit UniformState(std::uint64_t seed)
      : table(cna_locktable_create("cna", kUniformStripes)), values(kKeys) {
    KeyGen gen(StreamSeed(seed, 1000));
    for (std::int64_t& v : values) {
      v = static_cast<std::int64_t>(gen.Below(1000));
    }
    initial_sum = SumValues(values);
  }
  ~UniformState() { cna_locktable_destroy(table); }
  UniformState(const UniformState&) = delete;
  UniformState& operator=(const UniformState&) = delete;

  cna_locktable_t* table;
  std::vector<std::int64_t> values;
  std::int64_t initial_sum = 0;
};

}  // namespace

void RunKvUniform(const Options& options, Report& report) {
  auto state = TimedSetUp(
      report, [&] { return std::make_unique<UniformState>(options.seed); });
  report.Check(state->table != nullptr, "cna_locktable_create returned null");
  if (state->table == nullptr) {
    return;
  }
  report.Add("lock_state_bytes",
             static_cast<double>(cna_locktable_state_bytes(state->table)), "B");

  cna_locktable_t* table = state->table;
  std::int64_t* values = state->values.data();
  std::vector<WorkerTally> tallies(kWorkers);

  auto make_op = [&](int t) {
    WorkerTally& w = tallies[static_cast<std::size_t>(t)];
    return [&w, table, values, gen = KeyGen(StreamSeed(options.seed, t))](
               std::uint64_t id, SpanBuffer* spans) mutable {
      const std::uint64_t kind = gen.Below(100);  // 70 get, 20 inc, 10 xfer
      const std::uint64_t k1 = gen.Next() & kKeyMask;
      ++w.attempted;
      if (kind < 90) {
        const std::uint64_t t0 = Stamp(spans);
        const int rc = cna_locktable_lock(table, k1);
        const std::uint64_t t1 = Stamp(spans);
        if (rc != 0) {
          ++w.nonzero;
          return;
        }
        if (kind < 70) {
          w.sink += values[k1];
        } else {
          ++values[k1];
          ++w.writes;
        }
        const std::uint64_t t2 = Stamp(spans);
        w.nonzero += cna_locktable_unlock(table, k1) != 0 ? 1 : 0;
        if (spans != nullptr) {
          const std::uint64_t t3 = WallNs();
          spans->Record("op", id, t0, t3);
          spans->Record("cna_locktable_lock", id, t0, t1);
          spans->Record("cs", id, t1, t2);
          spans->Record("cna_locktable_unlock", id, t2, t3);
        }
        return;
      }
      std::uint64_t keys[2] = {k1, gen.Next() & kKeyMask};
      if (keys[1] == k1) {
        keys[1] = (k1 + 1) & kKeyMask;
      }
      const std::uint64_t t0 = Stamp(spans);
      const int rc = cna_locktable_lock_many(table, keys, 2);
      const std::uint64_t t1 = Stamp(spans);
      if (rc != 0) {
        ++w.nonzero;
        return;
      }
      --values[keys[0]];
      ++values[keys[1]];
      const std::uint64_t t2 = Stamp(spans);
      w.nonzero += cna_locktable_unlock_many(table, keys, 2) != 0 ? 1 : 0;
      if (spans != nullptr) {
        const std::uint64_t t3 = WallNs();
        spans->Record("op", id, t0, t3);
        spans->Record("cna_locktable_lock_many", id, t0, t1);
        spans->Record("cs", id, t1, t2);
        spans->Record("cna_locktable_unlock_many", id, t2, t3);
      }
    };
  };
  LoopResult loop = RunClosedLoop(options, kWarmupSeconds, kKvTraceStride,
                                  /*virtual_sockets=*/0, make_op);

  const WorkerTally totals = Sum(tallies);
  g_sink = totals.sink;
  report.CountOps(totals.attempted, totals.nonzero);
  if (options.corrupt) {
    ++state->values[0];
  }
  report.Check(SumValues(state->values) ==
                   state->initial_sum + static_cast<std::int64_t>(totals.writes),
               "kv-uniform: value sum != initial sum + increments "
               "(lost update or non-conserving transfer)");
  ReportClosedLoop(report, options, loop,
                   {"cna_locktable_lock", "cna_locktable_lock_many"},
                   {"cna_locktable_unlock", "cna_locktable_unlock_many"});
  if (options.trace) {
    // Transfers are the slowest ops: printed, not a BENCHMARK.json metric.
    AddSpanPercentiles(report, loop.spans, {"cna_locktable_lock_many"},
                       "locktable.lock_many_ns", true);
  }
}

// ---------------------------------------------------------------------------
// kv-skewed-rw
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kSkewedStripes = 64;
constexpr std::size_t kHotKeys = 16;

struct SkewedState {
  explicit SkewedState(std::uint64_t seed)
      : table(cna_rwlocktable_create("cna-rw", kSkewedStripes)),
        values(kKeys, 0) {
    KeyGen gen(StreamSeed(seed, 2000));
    while (hot.size() < kHotKeys) {
      const std::uint64_t k = gen.Next() & kKeyMask;
      if (std::find(hot.begin(), hot.end(), k) == hot.end()) {
        hot.push_back(k);
      }
    }
  }
  ~SkewedState() { cna_rwlocktable_destroy(table); }
  SkewedState(const SkewedState&) = delete;
  SkewedState& operator=(const SkewedState&) = delete;

  cna_rwlocktable_t* table;
  std::vector<std::int64_t> values;  // all zero: the sum counts the writes
  std::vector<std::uint64_t> hot;
};

}  // namespace

void RunKvSkewedRw(const Options& options, Report& report) {
  auto state = TimedSetUp(
      report, [&] { return std::make_unique<SkewedState>(options.seed); });
  report.Check(state->table != nullptr, "cna_rwlocktable_create returned null");
  if (state->table == nullptr) {
    return;
  }
  report.Add("lock_state_bytes",
             static_cast<double>(cna_rwlocktable_state_bytes(state->table)),
             "B");

  cna_rwlocktable_t* table = state->table;
  std::int64_t* values = state->values.data();
  const std::uint64_t* hot = state->hot.data();
  std::vector<WorkerTally> tallies(kWorkers);

  auto make_op = [&](int t) {
    WorkerTally& w = tallies[static_cast<std::size_t>(t)];
    return [&w, table, values, hot, gen = KeyGen(StreamSeed(options.seed, t))](
               std::uint64_t id, SpanBuffer* spans) mutable {
      const bool is_hot = gen.Below(100) < 90;
      const std::uint64_t key =
          is_hot ? hot[gen.Below(kHotKeys)] : gen.Next() & kKeyMask;
      const bool read = gen.Below(100) < 95;
      ++w.attempted;
      w.hot += is_hot ? 1 : 0;
      const std::uint64_t t0 = Stamp(spans);
      const int rc = read ? cna_rwlocktable_rdlock(table, key)
                          : cna_rwlocktable_wrlock(table, key);
      const std::uint64_t t1 = Stamp(spans);
      if (rc != 0) {
        ++w.nonzero;
        return;
      }
      if (read) {
        w.sink += values[key];
      } else {
        ++values[key];
        ++w.writes;
      }
      const std::uint64_t t2 = Stamp(spans);
      w.nonzero += cna_rwlocktable_unlock(table, key) != 0 ? 1 : 0;
      if (spans != nullptr) {
        const std::uint64_t t3 = WallNs();
        spans->Record("op", id, t0, t3);
        spans->Record(read ? "cna_rwlocktable_rdlock" : "cna_rwlocktable_wrlock",
                      id, t0, t1);
        spans->Record("cs", id, t1, t2);
        spans->Record("cna_rwlocktable_unlock", id, t2, t3);
      }
    };
  };
  LoopResult loop = RunClosedLoop(options, kWarmupSeconds, kKvTraceStride,
                                  /*virtual_sockets=*/0, make_op);

  const WorkerTally totals = Sum(tallies);
  g_sink = totals.sink;
  report.CountOps(totals.attempted, totals.nonzero);
  if (options.corrupt) {
    ++state->values[state->hot[0]];
  }
  report.Check(SumValues(state->values) ==
                   static_cast<std::int64_t>(totals.writes),
               "kv-skewed-rw: value sum != number of writes (lost update)");
  ReportClosedLoop(report, options, loop,
                   {"cna_rwlocktable_rdlock", "cna_rwlocktable_wrlock"},
                   {"cna_rwlocktable_unlock"});
  if (options.trace) {
    // Printed, not BENCHMARK.json metrics: the write path alone, and the
    // generator's hot-key share (about 0.9).
    AddSpanPercentiles(report, loop.spans, {"cna_rwlocktable_wrlock"},
                       "locktable.wrlock_ns", true);
    report.Add("harness.hot_share",
               static_cast<double>(totals.hot) /
                   static_cast<double>(std::max<std::uint64_t>(
                       totals.attempted, 1)),
               "ratio", totals.attempted);
  }
}

}  // namespace perfbench
