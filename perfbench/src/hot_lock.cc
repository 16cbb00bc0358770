// hot-lock: the paper's Section 7.1.1 key-value map on real threads.  One
// cna_mutex_create("cna") guards a 1024-key AvlMap prefilled to half; 80%
// lookups, 20% updates (half inserts, half erases).  Every acquisition goes
// through the CNA queue, so this is the real-thread workload of the lock
// layer itself.
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/avl_map.h"
#include "common.h"
#include "core/pthread_api.h"
#include "platform/real_platform.h"

namespace perfbench {
namespace {

constexpr std::int64_t kKeyRange = 1024;
constexpr int kVirtualSockets = 2;
constexpr double kWarmupSeconds = 0.5;
constexpr std::uint64_t kHotLockTraceStride = 256;

using Map = cna::apps::AvlMap<cna::RealPlatform>;

struct HotLockState {
  explicit HotLockState(std::uint64_t seed)
      : mutex(cna_mutex_create("cna")) {
    KeyGen gen(StreamSeed(seed, 3000));
    for (std::int64_t k = 0; k < kKeyRange; ++k) {
      if ((gen.Next() & 1) != 0) {
        map.Insert(k, k);
      }
    }
    prefill = map.Size();
  }
  ~HotLockState() { cna_mutex_destroy(mutex); }
  HotLockState(const HotLockState&) = delete;
  HotLockState& operator=(const HotLockState&) = delete;

  cna_mutex_t* mutex;
  Map map;
  std::size_t prefill = 0;
};

struct alignas(64) WorkerTally {
  std::uint64_t attempted = 0;
  std::uint64_t nonzero = 0;
  std::uint64_t inserts = 0;  // inserts that added a key
  std::uint64_t erases = 0;   // erases that removed a key
  std::uint64_t bad_lookups = 0;  // lookups returning a value != key
};

}  // namespace

void RunHotLock(const Options& options, Report& report) {
  auto state = TimedSetUp(
      report, [&] { return std::make_unique<HotLockState>(options.seed); });
  report.Check(state->mutex != nullptr, "cna_mutex_create returned null");
  if (state->mutex == nullptr) {
    return;
  }
  report.Add("lock_state_bytes",
             static_cast<double>(cna_mutex_state_bytes(state->mutex)), "B");

  cna_mutex_t* mutex = state->mutex;
  Map* map = &state->map;
  std::vector<WorkerTally> tallies(kWorkers);

  auto make_op = [&](int t) {
    WorkerTally& w = tallies[static_cast<std::size_t>(t)];
    return [&w, mutex, map, gen = KeyGen(StreamSeed(options.seed, t))](
               std::uint64_t id, SpanBuffer* spans) mutable {
      const auto key = static_cast<std::int64_t>(gen.Below(kKeyRange));
      const std::uint64_t kind = gen.Below(100);  // 80 lookup, 10 ins, 10 del
      ++w.attempted;
      const std::uint64_t t0 = Stamp(spans);
      if (cna_mutex_lock(mutex) != 0) {
        ++w.nonzero;
        return;
      }
      const std::uint64_t t1 = Stamp(spans);
      if (kind < 80) {
        const auto v = map->Lookup(key);
        w.bad_lookups += v.has_value() && *v != key ? 1 : 0;
      } else if (kind < 90) {
        w.inserts += map->Insert(key, key) ? 1 : 0;
      } else {
        w.erases += map->Erase(key) ? 1 : 0;
      }
      const std::uint64_t t2 = Stamp(spans);
      w.nonzero += cna_mutex_unlock(mutex) != 0 ? 1 : 0;
      if (spans != nullptr) {
        const std::uint64_t t3 = WallNs();
        spans->Record("op", id, t0, t3);
        spans->Record("cna_mutex_lock", id, t0, t1);
        spans->Record("cs", id, t1, t2);
        spans->Record("cna_mutex_unlock", id, t2, t3);
      }
    };
  };
  LoopResult loop = RunClosedLoop(options, kWarmupSeconds, kHotLockTraceStride,
                                  kVirtualSockets, make_op);

  std::uint64_t attempted = 0;
  std::uint64_t nonzero = 0;
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t bad_lookups = 0;
  for (const WorkerTally& w : tallies) {
    attempted += w.attempted;
    nonzero += w.nonzero;
    inserts += w.inserts;
    erases += w.erases;
    bad_lookups += w.bad_lookups;
  }
  report.CountOps(attempted, nonzero);
  if (options.corrupt) {
    state->map.Insert(kKeyRange, kKeyRange);  // an insert nobody counted
  }
  report.Check(bad_lookups == 0, "hot-lock: lookup returned a foreign value");
  report.Check(state->map.CheckInvariants(),
               "hot-lock: AvlMap invariants violated");
  report.Check(state->map.Size() == state->prefill + inserts - erases,
               "hot-lock: map size != prefill + inserts - erases");
  ReportClosedLoop(report, options, loop, {"cna_mutex_lock"},
                   {"cna_mutex_unlock"});
}

}  // namespace perfbench
