// Latency sinks for the lock-table flavors.
//
// Each struct bundles the telemetry histograms a table flavor records into
// (registered by name in the global registry, src/telemetry/metrics.h); the
// acquire stamp a hold time starts from lives in the context's held-lock
// entry (locks/held_locks.h).  A table allocates its sink
// only when its options request latency collection, so the default table
// carries no timing state and no timing code on the lock path; with the sink
// allocated, recording is still gated on the process-global
// telemetry::Enabled() flag.
#ifndef CNA_LOCKTABLE_TABLE_LATENCY_H_
#define CNA_LOCKTABLE_TABLE_LATENCY_H_

#include <string>

#include "telemetry/metrics.h"

namespace cna::locktable {

// LockTable: acquisition latency (entry to ownership) and hold time.
struct TableLatency {
  explicit TableLatency(const char* prefix)
      : wait(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                        ".wait_ns")),
        hold(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                        ".hold_ns")) {}
  telemetry::Histogram& wait;
  telemetry::Histogram& hold;
};

// RwLockTable: read- and write-side acquisition latency, write hold time.
struct RwTableLatency {
  explicit RwTableLatency(const char* prefix)
      : read_wait(telemetry::Registry::Global().GetHistogram(
            std::string(prefix) + ".read_wait_ns")),
        write_wait(telemetry::Registry::Global().GetHistogram(
            std::string(prefix) + ".write_wait_ns")),
        write_hold(telemetry::Registry::Global().GetHistogram(
            std::string(prefix) + ".write_hold_ns")) {}
  telemetry::Histogram& read_wait;
  telemetry::Histogram& write_wait;
  telemetry::Histogram& write_hold;
};

// CombiningTable: operation latency (submit to completion) and the size of
// each combining batch -- the distribution behind CombiningStatsSummary's
// MeanBatchSize().
struct CombiningLatency {
  explicit CombiningLatency(const char* prefix)
      : wait(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                        ".wait_ns")),
        batch(telemetry::Registry::Global().GetHistogram(std::string(prefix) +
                                                         ".batch_size")) {}
  telemetry::Histogram& wait;
  telemetry::Histogram& batch;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_TABLE_LATENCY_H_
