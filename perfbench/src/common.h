// Shared pieces of the repository benchmark: options, the seeded key
// generator, the metric report, the closed-loop real-thread runner and the
// in-memory span recorder used by traced runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanBuffer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Self-test hook: damage the final state before the correctness check, so
  // the benchmark's own test can prove the checker rejects it.
  bool corrupt = false;
  // Where a traced run writes its spans (empty: keep them in memory only).
  std::string trace_out;
};

// SplitMix64: the benchmark's own generator.  Every key stream and op mix is
// drawn from it, seeded from --seed, so the library only sees generated keys.
class KeyGen {
 public:
  explicit KeyGen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

// Seed of stream `stream` (a worker, a window) under run seed `seed`.
inline std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  KeyGen g(seed * 0x100000001b3ull + stream);
  return g.Next();
}

inline std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process CPU time (user + system, all threads).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Percentile q (in [0, 1]) of integer-valued samples, as the mean of the
// order statistics within +-0.05% of n around rank q*n: unlike a single
// nearest-rank sample it is not pinned to the clock's tick, so repeated runs
// show their true spread instead of a few tied values.  Reorders `xs`.
template <typename T>
double Percentile(std::vector<T>& xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  const std::size_t n = xs.size();
  const std::size_t rank =
      std::min(static_cast<std::size_t>(q * static_cast<double>(n)), n - 1);
  const std::size_t half = n / 2000;
  const std::size_t lo = rank > half ? rank - half : 0;
  const std::size_t hi = std::min(rank + half, n - 1);
  const auto at = [&](std::size_t i) {
    return xs.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::nth_element(xs.begin(), at(lo), xs.end());
  std::nth_element(at(lo), at(hi), xs.end());
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    sum += static_cast<double>(xs[i]);
  }
  return sum / static_cast<double>(hi - lo + 1);
}

double Median(std::vector<double> xs);

// Metrics and correctness outcome of one run.  Printed as one JSON line that
// run.py turns into the benchmark's result.
class Report {
 public:
  // `samples` > 0 marks a percentile or a per-op mean and is printed with it.
  void Add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  // A failed check counts once in `failed` and is listed by name.
  void Check(bool ok, const std::string& what);
  // Operations attempted, and the number of them whose cna_* call returned
  // nonzero.
  void CountOps(std::uint64_t attempted, std::uint64_t nonzero_returns);

  bool correct() const {
    return attempted_ > 0 && failures_.empty() && nonzero_returns_ == 0;
  }
  void Print(const Options& options) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t nonzero_returns_ = 0;
};

inline constexpr int kSetupReps = 51;

// Builds the workload's state kSetupReps times with `make` (returning a
// std::unique_ptr), reports the median build time as setup_s, and returns the
// last build.  Each earlier build is torn down before the next starts, outside
// the timed region.
template <typename Make>
auto TimedSetUp(Report& report, Make&& make) {
  decltype(make()) state;
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    state.reset();
    const std::uint64_t t0 = WallNs();
    state = make();
    times.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
  }
  report.Add("setup_s", Median(times), "s", times.size());
  return state;
}

// Timestamp for a span boundary; 0 (and no clock read) when not tracing.
inline std::uint64_t Stamp(const SpanBuffer* spans) {
  return spans != nullptr ? WallNs() : 0;
}

// ---------------------------------------------------------------------------
// Spans (traced runs).  A span covers one cna_* call, one critical-section
// body, or a whole operation; all spans of one operation share its op id, and
// the "op" span is their parent.
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t op_id;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  const char* name;  // string literal
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }
  void Record(const char* name, std::uint64_t op_id, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({op_id, start_ns, end_ns, name});
    } else {
      ++dropped_;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

using SpanNames = std::vector<std::string>;

// Durations of every span called one of `names`, across all buffers.
std::vector<std::uint64_t> SpanDurations(const std::vector<SpanBuffer>& bufs,
                                         const SpanNames& names);
// Adds <metric>.p50 (and .p99 when asked) in ns for the spans called one of
// `names`.
void AddSpanPercentiles(Report& report, const std::vector<SpanBuffer>& bufs,
                        const SpanNames& names, const std::string& metric,
                        bool with_p99);
// Adds the per-layer metrics every workload reports from its traced
// operations: locks.acquire_ns.p50/.p99 over the `acquire` spans,
// locks.release_ns.mean over the `release` spans, apps.cs_ns.mean over the
// critical sections, and locks.time_share, the share of op time spent in the
// acquire and release calls.  Short spans take the mean rather than the
// median: a median of a few simulated or 1 ns-tick durations would read the
// same on every run.
void AddLayerMetrics(Report& report, const std::vector<SpanBuffer>& bufs,
                     const SpanNames& acquire, const SpanNames& release);
// Writes every span as an "op_id(hex) worker name start_ns end_ns" line.
bool WriteSpans(const std::string& path, const std::vector<SpanBuffer>& bufs);

// Pins the calling worker to a virtual socket.
void PinVirtualSocket(int socket);

// ---------------------------------------------------------------------------
// Closed-loop runner: kWorkers workers each run their next operation as soon
// as the previous one returns.  A warm-up phase comes first; then the
// measured phase.  A traced run splits the measured time into an untraced
// half and a traced half, so the same process gives the tracing overhead.
// ---------------------------------------------------------------------------

inline constexpr int kWorkers = 4;          // = nproc of the reference host
inline constexpr std::uint64_t kSampleStride = 64;  // latency sample stride
inline constexpr std::size_t kMinWindowSamples = 1000;
inline constexpr std::size_t kSpanCapacity = 1u << 18;  // per worker

// One sampled operation: when it started, in ms since the measured phase
// began, and how long it took.
struct LatencySample {
  std::uint32_t start_ms;
  std::uint32_t ns;
};

// One measured (or traced) phase, split into one-second windows.
struct PhaseResult {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::uint64_t> per_worker_ops;
  std::vector<double> window_cpu_ns_per_op;
  std::vector<double> window_wall_mops;
};

struct LoopResult {
  PhaseResult measured;  // untraced
  PhaseResult traced;    // traced runs only
  std::vector<LatencySample> latency;  // sampled, untraced phase
  std::vector<SpanBuffer> spans;       // traced runs only
};

enum Phase : int { kWarmup = 0, kMeasured = 1, kTraced = 2, kStop = 3 };

// Per-worker state, one cache line apart so workers never false-share.  Only
// the owner writes `ops`; the main thread reads it at window boundaries.
struct alignas(64) WorkerSlot {
  std::array<std::atomic<std::uint64_t>, 3> ops{};  // per phase but kStop
  std::vector<LatencySample> latency;
};

// Runs `seconds` of phase `ph` as one-second windows, recording the process
// CPU time and op count of each.
PhaseResult RunPhase(std::atomic<int>& phase, Phase ph, double seconds,
                     std::vector<WorkerSlot>& slots);

// MakeOp: int worker -> callable void(std::uint64_t op_id, SpanBuffer* spans);
// spans is non-null only for the operations a traced run records.  Workers
// are placed round-robin on `virtual_sockets` sockets (0: host topology).
template <typename MakeOp>
LoopResult RunClosedLoop(const Options& options, double warmup_s,
                         std::uint64_t trace_stride, int virtual_sockets,
                         MakeOp&& make_op) {
  std::atomic<int> phase{kWarmup};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> measured_start_ns{0};
  std::vector<WorkerSlot> slots(kWorkers);
  LoopResult result;
  if (options.trace) {
    result.spans.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
      result.spans.emplace_back(kSpanCapacity);
    }
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      if (virtual_sockets > 0) {
        PinVirtualSocket(t % virtual_sockets);
      }
      auto op = make_op(t);
      WorkerSlot& slot = slots[static_cast<std::size_t>(t)];
      SpanBuffer* spans =
          options.trace ? &result.spans[static_cast<std::size_t>(t)] : nullptr;
      const std::uint64_t id_base = static_cast<std::uint64_t>(t) << 48;
      ready.fetch_add(1);
      for (std::uint64_t n = 0;; ++n) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) {
          break;
        }
        const std::uint64_t id = id_base | n;
        if (ph == kMeasured && n % kSampleStride == 0) {
          const std::uint64_t t0 = WallNs();
          op(id, nullptr);
          const std::uint64_t t1 = WallNs();
          const std::uint64_t start = measured_start_ns.load(
              std::memory_order_relaxed);
          slot.latency.push_back(
              {static_cast<std::uint32_t>((t0 - std::min(t0, start)) /
                                          1'000'000),
               static_cast<std::uint32_t>(
                   std::min<std::uint64_t>(t1 - t0, UINT32_MAX))});
        } else if (ph == kTraced && n % trace_stride == 0) {
          op(id, spans);
        } else {
          op(id, nullptr);
        }
        auto& count = slot.ops[static_cast<std::size_t>(ph)];
        count.store(count.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      }
    });
  }
  while (ready.load() < kWorkers) {
    std::this_thread::yield();
  }

  RunPhase(phase, kWarmup, warmup_s, slots);
  const double measured_s = options.trace ? options.seconds / 2.0
                                          : static_cast<double>(options.seconds);
  measured_start_ns.store(WallNs(), std::memory_order_relaxed);
  result.measured = RunPhase(phase, kMeasured, measured_s, slots);
  if (options.trace) {
    result.traced = RunPhase(phase, kTraced, measured_s, slots);
  }
  phase.store(kStop);
  for (auto& w : workers) {
    w.join();
  }
  for (WorkerSlot& slot : slots) {
    result.latency.insert(result.latency.end(), slot.latency.begin(),
                          slot.latency.end());
  }
  return result;
}

// Reports the end-to-end metrics of a real-thread workload and, for a traced
// run, the harness metrics and AddLayerMetrics over its spans.
void ReportClosedLoop(Report& report, const Options& options,
                      const LoopResult& loop, const SpanNames& acquire,
                      const SpanNames& release);

// Entry points, one per workload.
void RunKvUniform(const Options& options, Report& report);
void RunKvSkewedRw(const Options& options, Report& report);
void RunHotLock(const Options& options, Report& report);
void RunNumaSim(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
