// cna_perfbench: the repository benchmark binary.
//
//   cna_perfbench --workload <kv-uniform|kv-skewed-rw|hot-lock|numa-sim>
//                 --seed <n> --seconds <n> --trace <0|1>
//                 [--trace-out <file>] [--corrupt]
//
// Prints one line per metric (name, value, unit, sample count), then one JSON
// object with the correctness outcome and every metric.  Exits 1 when a
// correctness check failed or a cna_* call returned nonzero, 2 on bad usage.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: cna_perfbench --workload "
               "<kv-uniform|kv-skewed-rw|hot-lock|numa-sim> --seed <n> "
               "--seconds <n> --trace <0|1> [--trace-out <file>] "
               "[--corrupt]\n");
}

bool ParseUnsigned(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (arg == "--corrupt") {
      options.corrupt = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--seed" && has_value && ParseUnsigned(argv[++i], &v)) {
      options.seed = v;
    } else if (arg == "--seconds" && has_value &&
               ParseUnsigned(argv[++i], &v) && v >= 1 && v <= 120) {
      options.seconds = static_cast<int>(v);
    } else if (arg == "--trace" && has_value && ParseUnsigned(argv[++i], &v) &&
               v <= 1) {
      options.trace = v == 1;
    } else {
      Usage();
      return 2;
    }
  }

  perfbench::Report report;
  if (options.workload == "kv-uniform") {
    perfbench::RunKvUniform(options, report);
  } else if (options.workload == "kv-skewed-rw") {
    perfbench::RunKvSkewedRw(options, report);
  } else if (options.workload == "hot-lock") {
    perfbench::RunHotLock(options, report);
  } else if (options.workload == "numa-sim") {
    perfbench::RunNumaSim(options, report);
  } else {
    Usage();
    return 2;
  }
  report.Print(options);
  return report.correct() ? 0 : 1;
}
