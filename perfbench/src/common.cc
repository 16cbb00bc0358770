#include "common.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "base/stats.h"
#include "platform/thread_context.h"

namespace perfbench {

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    return;
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

void Report::CountOps(std::uint64_t attempted,
                      std::uint64_t nonzero_returns) {
  attempted_ += attempted;
  nonzero_returns_ += nonzero_returns;
}

void Report::Print(const Options& options) const {
  const std::uint64_t failed = nonzero_returns_ + failures_.size();
  const double error_rate =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed) /
                            static_cast<double>(attempted_);
  std::printf("workload %s seed %" PRIu64 " seconds %d trace %d\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-36s %14.6f %-6s (samples=%" PRIu64 ")\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  %-36s %14.6f ratio (%" PRIu64 " nonzero cna_* returns + %zu "
              "failed checks over %" PRIu64 " ops)\n",
              "error_rate", error_rate, nonzero_returns_, failures_.size(),
              attempted_);
  for (const std::string& f : failures_) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<std::uint64_t> SpanDurations(const std::vector<SpanBuffer>& bufs,
                                         const SpanNames& names) {
  std::vector<std::uint64_t> out;
  for (const SpanBuffer& b : bufs) {
    for (const Span& s : b.spans()) {
      if (std::find(names.begin(), names.end(), s.name) != names.end()) {
        out.push_back(s.end_ns - s.start_ns);
      }
    }
  }
  return out;
}

void AddSpanPercentiles(Report& report, const std::vector<SpanBuffer>& bufs,
                        const SpanNames& names, const std::string& metric,
                        bool with_p99) {
  std::vector<std::uint64_t> d = SpanDurations(bufs, names);
  report.Check(!d.empty(), "traced run recorded no " + names.front() +
                               " spans");
  if (d.empty()) {
    return;
  }
  report.Add(metric + ".p50", Percentile(d, 0.50), "ns", d.size());
  if (with_p99) {
    report.Add(metric + ".p99", Percentile(d, 0.99), "ns", d.size());
  }
}

namespace {

double Sum(const std::vector<std::uint64_t>& xs) {
  double sum = 0.0;
  for (const std::uint64_t x : xs) {
    sum += static_cast<double>(x);
  }
  return sum;
}

// Adds <metric>.mean in ns for the spans called one of `names`.
void AddSpanMean(Report& report, const std::vector<SpanBuffer>& bufs,
                 const SpanNames& names, const std::string& metric) {
  const std::vector<std::uint64_t> d = SpanDurations(bufs, names);
  report.Check(!d.empty(), "traced run recorded no " + names.front() +
                               " spans");
  if (!d.empty()) {
    report.Add(metric + ".mean", Sum(d) / static_cast<double>(d.size()), "ns",
               d.size());
  }
}

}  // namespace

void AddLayerMetrics(Report& report, const std::vector<SpanBuffer>& bufs,
                     const SpanNames& acquire, const SpanNames& release) {
  AddSpanPercentiles(report, bufs, acquire, "locks.acquire_ns", true);
  AddSpanMean(report, bufs, release, "locks.release_ns");
  AddSpanMean(report, bufs, {"cs"}, "apps.cs_ns");
  const double op_ns = Sum(SpanDurations(bufs, {"op"}));
  report.Check(op_ns > 0, "traced run recorded no op spans");
  if (op_ns > 0) {
    report.Add("locks.time_share",
               (Sum(SpanDurations(bufs, acquire)) +
                Sum(SpanDurations(bufs, release))) / op_ns,
               "ratio");
  }
}

bool WriteSpans(const std::string& path, const std::vector<SpanBuffer>& bufs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# op_id(hex) worker name start_ns end_ns\n");
  for (std::size_t t = 0; t < bufs.size(); ++t) {
    for (const Span& s : bufs[t].spans()) {
      std::fprintf(f, "%" PRIx64 " %zu %s %" PRIu64 " %" PRIu64 "\n", s.op_id,
                   t, s.name, s.start_ns, s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

PhaseResult RunPhase(std::atomic<int>& phase, Phase ph, double seconds,
                     std::vector<WorkerSlot>& slots) {
  const auto p = static_cast<std::size_t>(ph);
  auto ops_now = [&] {
    std::uint64_t sum = 0;
    for (const WorkerSlot& s : slots) {
      sum += s.ops[p].load(std::memory_order_relaxed);
    }
    return sum;
  };
  PhaseResult r;
  const double cpu_start = ProcessCpuSeconds();
  const std::uint64_t wall_start = WallNs();
  phase.store(ph, std::memory_order_release);
  double cpu = cpu_start;
  std::uint64_t wall = wall_start;
  std::uint64_t ops = 0;
  for (double left = seconds; left > 0.0; left -= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(left, 1.0)));
    const double cpu_next = ProcessCpuSeconds();
    const std::uint64_t wall_next = WallNs();
    const std::uint64_t ops_next = ops_now();
    if (left >= 1.0 && ops_next > ops) {  // whole windows only
      const auto n = static_cast<double>(ops_next - ops);
      r.window_cpu_ns_per_op.push_back((cpu_next - cpu) * 1e9 / n);
      r.window_wall_mops.push_back(
          n / (static_cast<double>(wall_next - wall) * 1e-3));
    }
    cpu = cpu_next;
    wall = wall_next;
    ops = ops_next;
  }
  r.wall_s = static_cast<double>(wall - wall_start) * 1e-9;
  r.cpu_s = cpu - cpu_start;
  // Ops a worker starts before it sees the next phase count here; across a
  // window of millions of ops that is noise.
  r.ops = ops;
  for (const WorkerSlot& s : slots) {
    r.per_worker_ops.push_back(s.ops[p].load(std::memory_order_relaxed));
  }
  return r;
}

void PinVirtualSocket(int socket) {
  cna::platform::ThreadContext::Current().SetVirtualSocket(socket);
}

namespace {

// Median of the per-window values, or the whole-phase value when the phase
// was shorter than one window.
double CpuNsPerOp(const PhaseResult& p) {
  return p.window_cpu_ns_per_op.empty()
             ? p.cpu_s * 1e9 / static_cast<double>(p.ops)
             : Median(p.window_cpu_ns_per_op);
}

// Median over the one-second windows of percentile q of the op latencies
// sampled in each (windows with too few samples are skipped; with none left,
// q over every sample).
double WindowedPercentile(const std::vector<LatencySample>& samples, double q) {
  std::vector<std::vector<std::uint32_t>> windows;
  std::vector<std::uint32_t> all;
  for (const LatencySample& s : samples) {
    const std::size_t w = s.start_ms / 1000;
    if (w >= windows.size()) {
      windows.resize(w + 1);
    }
    windows[w].push_back(s.ns);
    all.push_back(s.ns);
  }
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (w.size() >= kMinWindowSamples) {
      per_window.push_back(Percentile(w, q));
    }
  }
  return per_window.empty() ? Percentile(all, q) : Median(per_window);
}

}  // namespace

void ReportClosedLoop(Report& report, const Options& options,
                      const LoopResult& loop, const SpanNames& acquire,
                      const SpanNames& release) {
  const PhaseResult& m = loop.measured;
  report.Check(m.ops > 0 && !loop.latency.empty(),
               "no operation completed in the measured phase");
  if (m.ops == 0 || loop.latency.empty()) {
    return;
  }
  // Latency percentiles and CPU cost are medians over the measured phase's
  // one-second windows, so a burst of host noise moves one window, not the
  // run.
  const std::uint64_t samples = loop.latency.size();
  report.Add("op_p50_us", WindowedPercentile(loop.latency, 0.50) * 1e-3, "us",
             samples);
  const double cpu_ns_per_op = CpuNsPerOp(m);
  report.Add("cpu_ns_per_op", cpu_ns_per_op, "ns", m.ops);
  if (!options.trace) {
    return;
  }
  // Wall-clock throughput depends on how much CPU the host grants the
  // workers, and p99 is bimodal on hot-lock, so both are per-layer figures.
  report.Add("harness.throughput_mops",
             m.window_wall_mops.empty()
                 ? static_cast<double>(m.ops) / (m.wall_s * 1e6)
                 : Median(m.window_wall_mops),
             "ops/us", m.ops);
  report.Add("harness.op_p99_us", WindowedPercentile(loop.latency, 0.99) * 1e-3,
             "us", samples);
  report.Add("harness.fairness", cna::FairnessFactor(m.per_worker_ops), "ratio");
  const PhaseResult& t = loop.traced;
  report.Check(t.ops > 0, "no operation completed in the traced phase");
  if (t.ops > 0) {
    report.Add("harness.trace_overhead_ns_per_op",
               CpuNsPerOp(t) - cpu_ns_per_op, "ns", t.ops);
  }
  std::uint64_t dropped = 0;
  for (const SpanBuffer& b : loop.spans) {
    dropped += b.dropped();
  }
  // Nonzero only when a run outlasts the span buffers; the per-layer metrics
  // then come from the spans recorded before they filled.
  report.Add("harness.spans_dropped", static_cast<double>(dropped), "count");
  AddLayerMetrics(report, loop.spans, acquire, release);
  if (!options.trace_out.empty()) {
    report.Check(WriteSpans(options.trace_out, loop.spans),
                 "could not write spans to " + options.trace_out);
  }
}

}  // namespace perfbench
