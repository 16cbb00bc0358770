// numa-sim: the hot-lock map and mix under the shipped CNA lock (registry
// kind "cna": CnaLock with the default config) on the simulated 2-socket
// machine, 32 fibers.  The only workload on which CNA's socket-local handoff
// can win or lose: the reference host has one socket.
//
// Each window is deterministic in its seed, so simulated throughput repeats
// exactly.  An untraced run checks that by running window 0 twice; a traced
// run checks that the stats-collecting CNA config matches the shipped one.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/avl_map.h"
#include "base/stats.h"
#include "common.h"
#include "locks/cna.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace perfbench {
namespace {

constexpr std::int64_t kKeyRange = 1024;
constexpr int kFibers = 32;
// Instruction time of one map operation, charged inside the critical
// section (as in the repository's Figure 6 sweep).
constexpr std::uint64_t kCsComputeNs = 100;
constexpr std::uint64_t kWindowNs = 50'000'000;  // 50 simulated ms
// Simulated windows per wall-clock second of --seconds.
constexpr double kWindowsPerSecond = 1.0;

struct StatsConfig : cna::locks::CnaDefaultConfig {
  static constexpr bool kCollectStats = true;
};
using ShippedCna = cna::locks::CnaLock<cna::SimPlatform>;
using CountingCna = cna::locks::CnaLock<cna::SimPlatform, StatsConfig>;
using Map = cna::apps::AvlMap<cna::SimPlatform>;

// One window's machine, lock and map.
template <typename Lock>
struct SimState {
  explicit SimState(std::uint64_t seed) : machine(Config(seed)) {
    KeyGen gen(StreamSeed(seed, 4000));
    for (std::int64_t k = 0; k < kKeyRange; ++k) {
      if ((gen.Next() & 1) != 0) {
        map.Insert(k, k);
      }
    }
    prefill = map.Size();
  }
  static cna::sim::MachineConfig Config(std::uint64_t seed) {
    cna::sim::MachineConfig cfg = cna::sim::MachineConfig::TwoSocket();
    cfg.seed = seed;
    return cfg;
  }

  cna::sim::Machine machine;
  Lock lock;
  Map map;
  std::size_t prefill = 0;
};

// Simulated durations (ns) of one operation and of its parts.
struct OpTimes {
  std::uint32_t op;
  std::uint32_t acquire;  // CnaLock::Lock
  std::uint32_t cs;       // critical-section body
  std::uint32_t release;  // CnaLock::Unlock
};

struct WindowResult {
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> per_fiber_ops;
  std::vector<OpTimes> times;  // every op
  cna::sim::CacheStats cache;
  bool map_ok = false;
};

template <typename Lock>
WindowResult RunWindow(std::unique_ptr<SimState<Lock>> s, std::uint64_t seed,
                       bool corrupt) {
  WindowResult r;
  r.per_fiber_ops.assign(kFibers, 0);
  std::vector<std::uint64_t> inserts(kFibers, 0);
  std::vector<std::uint64_t> erases(kFibers, 0);
  std::vector<std::vector<OpTimes>> times(kFibers);
  cna::sim::Machine& m = s->machine;
  for (int f = 0; f < kFibers; ++f) {
    m.Spawn([&, f] {
      KeyGen gen(StreamSeed(seed, static_cast<std::uint64_t>(f)));
      const auto fi = static_cast<std::size_t>(f);
      while (m.NowNs() < kWindowNs) {
        const auto key = static_cast<std::int64_t>(gen.Below(kKeyRange));
        const std::uint64_t kind = gen.Below(100);
        const std::uint64_t t0 = m.NowNs();
        typename Lock::Handle h;
        s->lock.Lock(h);
        const std::uint64_t t1 = m.NowNs();
        cna::SimPlatform::ExternalWork(kCsComputeNs);
        if (kind < 80) {
          (void)s->map.Lookup(key);
        } else if (kind < 90) {
          inserts[fi] += s->map.Insert(key, key) ? 1 : 0;
        } else {
          erases[fi] += s->map.Erase(key) ? 1 : 0;
        }
        const std::uint64_t t2 = m.NowNs();
        s->lock.Unlock(h);
        const std::uint64_t t3 = m.NowNs();
        times[fi].push_back({static_cast<std::uint32_t>(t3 - t0),
                             static_cast<std::uint32_t>(t1 - t0),
                             static_cast<std::uint32_t>(t2 - t1),
                             static_cast<std::uint32_t>(t3 - t2)});
        ++r.per_fiber_ops[fi];
      }
    });
  }
  m.Run();
  std::uint64_t ins = 0;
  std::uint64_t del = 0;
  for (int f = 0; f < kFibers; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    r.ops += r.per_fiber_ops[fi];
    ins += inserts[fi];
    del += erases[fi];
    r.times.insert(r.times.end(), times[fi].begin(), times[fi].end());
  }
  r.cache = m.TotalStats();
  if (corrupt) {
    s->map.Insert(kKeyRange, kKeyRange);  // an insert nobody counted
  }
  r.map_ok = s->map.CheckInvariants() && s->map.Size() == s->prefill + ins - del;
  return r;
}

double Mops(std::uint64_t ops, std::size_t windows) {
  return static_cast<double>(ops) * 1e3 /
         (static_cast<double>(kWindowNs) * static_cast<double>(windows));
}

// Percentile q of one field of every op's times.
double TimesPercentile(const std::vector<OpTimes>& times,
                       std::uint32_t OpTimes::*field, double q) {
  std::vector<std::uint32_t> xs;
  xs.reserve(times.size());
  for (const OpTimes& t : times) {
    xs.push_back(t.*field);
  }
  return Percentile(xs, q);
}

}  // namespace

void RunNumaSim(const Options& options, Report& report) {
  const int windows = std::max(1, static_cast<int>(options.seconds *
                                                   kWindowsPerSecond));
  auto window_seed = [&](int w) {
    return StreamSeed(options.seed, 5000 + static_cast<std::uint64_t>(w));
  };
  auto first = TimedSetUp(report, [&] {
    return std::make_unique<SimState<ShippedCna>>(window_seed(0));
  });
  report.Add("lock_state_bytes", static_cast<double>(ShippedCna::kStateBytes),
             "B");

  // Measured windows (shipped config).
  std::vector<std::uint64_t> window_ops;
  std::vector<std::uint64_t> first_per_fiber;
  std::uint64_t ops = 0;
  std::vector<double> window_p50_ns;
  std::vector<double> window_p99_ns;
  std::vector<std::uint64_t> per_fiber(kFibers, 0);
  const double cpu_start = ProcessCpuSeconds();
  for (int w = 0; w < windows; ++w) {
    auto state = w == 0 ? std::move(first)
                        : std::make_unique<SimState<ShippedCna>>(window_seed(w));
    const WindowResult r = RunWindow(std::move(state), window_seed(w),
                                     options.corrupt && w == windows - 1);
    window_ops.push_back(r.ops);
    if (w == 0) {
      first_per_fiber = r.per_fiber_ops;
    }
    ops += r.ops;
    window_p50_ns.push_back(TimesPercentile(r.times, &OpTimes::op, 0.50));
    window_p99_ns.push_back(TimesPercentile(r.times, &OpTimes::op, 0.99));
    for (int f = 0; f < kFibers; ++f) {
      per_fiber[static_cast<std::size_t>(f)] +=
          r.per_fiber_ops[static_cast<std::size_t>(f)];
    }
    report.Check(r.map_ok, "numa-sim window " + std::to_string(w) +
                               ": AvlMap invariants or size check failed");
  }
  const double host_cpu_ns_per_op =
      (ProcessCpuSeconds() - cpu_start) * 1e9 / static_cast<double>(ops);
  report.CountOps(ops, 0);

  // The latency of one op on the simulated clock, as the median over the
  // windows of each window's p50.  Every fiber keeps its simulated CPU busy
  // for the whole window (working or spinning, like the real-thread workers
  // getrusage sees), so the CPU time per op is fibers x window / ops.
  report.Add("op_p50_us", Median(window_p50_ns) * 1e-3, "us", ops);
  report.Add("cpu_ns_per_op",
             static_cast<double>(kFibers) * static_cast<double>(kWindowNs) *
                 static_cast<double>(window_ops.size()) /
                 static_cast<double>(ops),
             "ns", ops);

  if (!options.trace) {
    // Determinism: the same seed, run again, completes the same ops.
    const WindowResult again = RunWindow(
        std::make_unique<SimState<ShippedCna>>(window_seed(0)), window_seed(0),
        false);
    report.Check(again.per_fiber_ops == first_per_fiber,
                 "numa-sim: same seed run twice gave different throughput");
    return;
  }
  report.Add("harness.throughput_mops", Mops(ops, window_ops.size()), "ops/us",
             ops);
  report.Add("harness.op_p99_us", Median(window_p99_ns) * 1e-3, "us",
             ops);
  report.Add("harness.fairness", cna::FairnessFactor(per_fiber), "ratio");

  // Traced run: the same windows under the stats-collecting config.  The
  // counters are plain atomics the simulator never charges, so simulated
  // throughput must come out identical.
  auto& counters = cna::locks::GlobalCnaCounters();
  counters.Reset();
  cna::sim::CacheStats cache;
  std::uint64_t stats_ops = 0;
  std::vector<OpTimes> times;
  const double traced_cpu_start = ProcessCpuSeconds();
  for (int w = 0; w < windows; ++w) {
    const WindowResult r = RunWindow(
        std::make_unique<SimState<CountingCna>>(window_seed(w)),
        window_seed(w), false);
    report.Check(r.ops == window_ops[static_cast<std::size_t>(w)],
                 "numa-sim: stats-collecting CNA changed simulated throughput");
    stats_ops += r.ops;
    times.insert(times.end(), r.times.begin(), r.times.end());
    cache.loads += r.cache.loads;
    cache.stores += r.cache.stores;
    cache.rmws += r.cache.rmws;
    cache.socket_transfers += r.cache.socket_transfers;
    cache.remote_misses += r.cache.remote_misses;
  }
  const double n = static_cast<double>(stats_ops);
  report.Add("harness.trace_overhead_ns_per_op",
             (ProcessCpuSeconds() - traced_cpu_start) * 1e9 / n -
                 host_cpu_ns_per_op,
             "ns", stats_ops);

  // The per-layer metrics every workload reports, on the simulated clock.
  report.Add("locks.acquire_ns.p50",
             TimesPercentile(times, &OpTimes::acquire, 0.50), "ns",
             times.size());
  report.Add("locks.acquire_ns.p99",
             TimesPercentile(times, &OpTimes::acquire, 0.99), "ns",
             times.size());
  double op_ns = 0.0;
  double acquire_ns = 0.0;
  double release_ns = 0.0;
  double cs_ns = 0.0;
  for (const OpTimes& t : times) {
    op_ns += t.op;
    acquire_ns += t.acquire;
    release_ns += t.release;
    cs_ns += t.cs;
  }
  const double samples = static_cast<double>(std::max<std::size_t>(
      times.size(), 1));
  report.Add("locks.release_ns.mean", release_ns / samples, "ns",
             times.size());
  report.Add("apps.cs_ns.mean", cs_ns / samples, "ns", times.size());
  report.Add("locks.time_share",
             op_ns > 0 ? (acquire_ns + release_ns) / op_ns : 0.0, "ratio");

  // Printed, not BENCHMARK.json metrics (the real-thread workloads cannot
  // produce them): the machine model's cache traffic and CNA's counters.
  const cna::locks::CnaCountersSnapshot c = cna::locks::SnapshotCnaCounters();
  report.Add("sim.traced_throughput_mops", Mops(stats_ops, window_ops.size()),
             "ops/us", stats_ops);
  report.Add("sim.remote_misses_per_op",
             static_cast<double>(cache.remote_misses) / n, "count", stats_ops);
  report.Add("sim.socket_transfers_per_op",
             static_cast<double>(cache.socket_transfers) / n, "count",
             stats_ops);
  report.Add("sim.remote_miss_rate", cache.RemoteMissRate(), "ratio",
             cache.Accesses());
  const double handovers = static_cast<double>(
      c.local_handovers + c.secondary_flushes + c.fifo_handovers);
  report.Add("locks.local_handover_ratio",
             handovers > 0 ? static_cast<double>(c.local_handovers) / handovers
                           : 0.0,
             "ratio", static_cast<std::uint64_t>(handovers));
  report.Add("locks.secondary_flushes_per_kop",
             static_cast<double>(c.secondary_flushes) * 1e3 / n, "count",
             stats_ops);
  report.Add("locks.queue_alterations_per_kop",
             static_cast<double>(c.queue_alterations) * 1e3 / n, "count",
             stats_ops);
}

}  // namespace perfbench
