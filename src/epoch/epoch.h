// Epoch-based reclamation (EBR): the quiescence scheme behind dynamically
// resized lock namespaces.
//
// The lock-table subsystem finally needs what every RCU-style structure
// needs: a way to free memory that lock-free readers may still be traversing.
// The concrete customer is resizable_lock_table.h -- a resize publishes a new
// stripe array through an atomic pointer and must eventually free the old one
// while late readers may still be hashing through it -- but the subsystem is
// standalone: any P::Atomic-published immutable snapshot can be retired
// through it.
//
// The scheme is classic three-epoch EBR (Fraser), with the state laid out the
// way this codebase lays out every hot distributed indicator (cf. CnaRwLock's
// reader counters):
//  * A global epoch counter, advanced by TryAdvance() -- any thread may be
//    the tryer; there is no dedicated background thread, which keeps the
//    subsystem runnable under the deterministic simulator.
//  * Per-context pin slots, one cache line each (the padded distributed
//    layout of the CNA reader counters): a context pins by publishing the
//    global epoch into its slot (store, then re-validate -- the classic
//    fence pairing that makes the advance scan sound), and unpins with one
//    RMW.  Slots are indexed by the stable per-context id, so a pin taken
//    in one call can be dropped in a later one, and two live contexts can
//    alias a slot only past kSlots contexts; a packed (epoch, depth) word
//    handles aliasing -- and nested pinning -- by CAS.
//  * Per-slot retire lists holding {ptr, deleter, retire_epoch}.  An item
//    retired at epoch R is reclaimable once the global epoch reaches R + 2:
//    the advance E -> E+1 requires every pinned slot to sit at E, so two
//    advances past R prove that every context that could have observed the
//    item un-retired has since unpinned.  Lists are swept opportunistically
//    on Retire() and explicitly via ReclaimQuiesced()/DrainAll().
//
// All epoch state lives in P::Atomic cells: on the simulator every pin,
// advance scan, and validation is charged to the coherence model and explored
// across schedules exactly like lock words are.  The bookkeeping counters
// (retired/reclaimed/advances) are plain std::atomic diagnostics, following
// the cna_stats.h convention.
#ifndef CNA_EPOCH_EPOCH_H_
#define CNA_EPOCH_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/cacheline.h"
#include "base/spin_hint.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::epoch {

// Aggregate view of a domain's reclamation progress; "retired - reclaimed"
// items are waiting for quiescence.  Plain diagnostics (see header comment).
struct DomainStatsSummary {
  std::uint64_t global_epoch = 0;
  std::uint64_t advances = 0;         // successful TryAdvance() transitions
  std::uint64_t retired = 0;          // Retire() calls accepted
  std::uint64_t reclaimed = 0;        // deleters actually run
  std::uint64_t pending() const { return retired - reclaimed; }
};

template <typename P>
class Domain {
 public:
  using Deleter = void (*)(void*);

  // Slot geometry, mirroring CnaRwLock's distributed reader indicator: one
  // padded line per slot, spread kSlots ways so concurrent pinners rarely
  // share a line, and each pinner only ever touches its own slot (so pin
  // traffic never crosses sockets regardless of grouping).  Slots are
  // indexed by P::CpuId() -- the *stable* dense context id, NOT the
  // migratable current socket -- so a context addresses the same slot in
  // every call: that is what lets a pin taken in one call (a table's Lock)
  // be dropped in a later one (its Unlock).  Aliasing (two live contexts on
  // one slot) is legal -- the packed depth handles it -- and only ever
  // conservative: a shared slot pins at the older epoch, which can delay
  // reclamation, never permit a premature free.
  static constexpr int kSlots = 256;

  Domain() : slots_(new Slot[kSlots]) {}

  // Destruction requires quiescence by contract (no concurrent pins/retires,
  // like every table destructor in this codebase): whatever is still pending
  // is freed unconditionally.
  ~Domain() {
    for (int i = 0; i < kSlots; ++i) {
      ReclaimSlot(slots_[i], /*everything=*/true, /*epoch=*/0);
    }
  }

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  // --- Pinning ---

  // RAII pin: the calling context observes a consistent epoch for the guard's
  // lifetime; no object retired after the pin can be reclaimed while it
  // lives.  Guards nest (inner guards are depth bumps on the same slot).
  // The slot index is captured at pin time so unpin hits the same slot even
  // if the OS migrates the thread between sockets mid-guard.
  class Guard {
   public:
    explicit Guard(Domain& domain) : domain_(&domain) {
      slot_ = domain_->Pin();
    }
    ~Guard() {
      if (domain_ != nullptr) {
        domain_->Unpin(slot_);
      }
    }

    Guard(Guard&& o) noexcept
        : domain_(std::exchange(o.domain_, nullptr)), slot_(o.slot_) {}
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

    int slot() const { return slot_; }

   private:
    Domain* domain_;
    int slot_ = 0;
  };

  // Pins the calling context and returns its slot index (pass to Unpin).
  // Prefer Guard; the raw pair exists for surfaces that cannot scope a C++
  // object across the pinned region (the C API, the table's Lock/Unlock).
  //
  // Protocol: the first pinner of a slot publishes the global epoch with the
  // slot's kValid bit CLEAR and re-reads the global epoch until the
  // published value matches a post-publication read (the classic EBR
  // publication fence); only then does it set kValid.  While kValid is
  // clear, (a) the publisher is the word's only writer -- nested and aliased
  // pinners wait for the bit before depth-bumping, so they can only ever
  // inherit a *validated* epoch -- and (b) the advance scan treats the slot
  // as blocking, which both keeps the scan sound and bounds the validation
  // loop (the global epoch cannot move while we validate).
  int Pin() {
    const int index = SlotIndex();
    Slot& slot = slots_[index];
    for (;;) {
      std::uint64_t cur = slot.word.load(std::memory_order_seq_cst);
      if ((cur & kDepthMask) != 0) {
        if ((cur & kValid) == 0) {
          P::Pause();  // first pinner mid-validation; wait for kValid
          continue;
        }
        // Nested pin, or an aliased context already pinned: bump the depth
        // and inherit the slot's validated epoch -- older is always safe.
        if (slot.word.compare_exchange_weak(cur, cur + 1,
                                            std::memory_order_seq_cst)) {
          return index;
        }
        continue;
      }
      std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
      if (!slot.word.compare_exchange_weak(cur, Pack(e, /*valid=*/false, 1),
                                           std::memory_order_seq_cst)) {
        continue;
      }
      for (;;) {
        const std::uint64_t now =
            global_epoch_.load(std::memory_order_seq_cst);
        if (now == e) {
          // Sole writer while kValid is clear (see above), so a plain store
          // completes the publication.
          slot.word.store(Pack(e, /*valid=*/true, 1),
                          std::memory_order_seq_cst);
          return index;
        }
        e = now;
        slot.word.store(Pack(e, /*valid=*/false, 1),
                        std::memory_order_seq_cst);
      }
    }
  }

  void Unpin(int index) {
    // Depth decrement; the epoch bits of a depth-0 slot are ignored by the
    // advance scan, so they can be left stale.
    slots_[index].word.fetch_sub(1, std::memory_order_seq_cst);
  }

  // Unpin for a pin taken by this context in an *earlier call*: SlotIndex()
  // is context-stable (see the geometry note), so the calling context
  // addresses exactly the slot its earlier Pin() bumped.
  void UnpinThisContext() { Unpin(SlotIndex()); }

  // Adds `extra` depth to this context's already-pinned slot -- the bulk
  // counterpart of a nested Pin(), for callers that release one logical pin
  // per resource (a multi-key transaction unpinning once per stripe).  The
  // caller must hold at least one pin: with depth > 0 and kValid set, a
  // plain depth add inherits the slot's validated epoch exactly like the
  // nested-pin CAS in Pin().
  void PinExtra(int index, std::uint64_t extra) {
    if (extra != 0) {
      slots_[index].word.fetch_add(extra, std::memory_order_seq_cst);
    }
  }

  void UnpinN(int index, std::uint64_t n) {
    if (n != 0) {
      slots_[index].word.fetch_sub(n, std::memory_order_seq_cst);
    }
  }

  // Whether the calling context's slot is currently pinned (diagnostics).
  bool PinnedInThisContext() const {
    return (slots_[SlotIndex()].word.load(std::memory_order_seq_cst) &
            kDepthMask) != 0;
  }

  // The slot the calling context pins through (context-stable; see the
  // geometry note) -- for callers balancing cross-call pins with
  // PinExtra/UnpinN.
  int SlotOfThisContext() const { return SlotIndex(); }

  // --- Epoch advance ---

  std::uint64_t GlobalEpoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  // One advance attempt: scans the pin slots and moves the global epoch
  // forward iff every pinned slot has caught up with it.  Any thread may
  // call this; the table calls it opportunistically from Retire().  Returns
  // true if the epoch advanced (by this caller).
  bool TryAdvance() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    for (int i = 0; i < kSlots; ++i) {
      const std::uint64_t w = slots_[i].word.load(std::memory_order_seq_cst);
      if ((w & kDepthMask) == 0) {
        continue;  // unpinned; epoch bits are stale leftovers
      }
      if (Epoch(w) != e) {
        // A straggler pinned in an older epoch, or a mid-validation
        // publisher that read a stale epoch (it will republish forward).
        // A mid-validation publisher whose published epoch already equals
        // `e` does NOT block: whether it finalizes at e (if it re-reads
        // before our CAS) or republishes at e+1 (after), it ends validated
        // at the then-current epoch, which is exactly a non-straggler.
        return false;
      }
    }
    std::uint64_t expected = e;
    if (!global_epoch_.compare_exchange_strong(expected, e + 1,
                                               std::memory_order_seq_cst)) {
      return false;  // someone else advanced first
    }
    advances_.fetch_add(1, std::memory_order_relaxed);
    telemetry::TraceEmit(telemetry::TraceEventType::kEpochAdvance,
                         P::CurrentSocket(), P::CpuId(), e + 1);
    return true;
  }

  // --- Retiring ---

  // Hands `ptr` to the domain for deferred deletion: `deleter(ptr)` runs
  // once the epoch has advanced twice past the current one (no context that
  // could still observe the object remains pinned).  Safe to call while
  // pinned -- self-retire cannot self-free, because the caller's own pin
  // blocks the required advances.  Opportunistically tries to advance the
  // epoch and sweep the calling slot's quiesced items.
  void Retire(void* ptr, Deleter deleter) {
    Slot& slot = slots_[SlotIndex()];
    // The epoch read happens before the TAS guard: no simulated-atomic
    // access may run under a plain TAS (a fiber yielding mid-guard would
    // leave other contexts spinning without a yield point).
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    const std::uint64_t retire_ns =
        telemetry::Enabled() ? telemetry::NowNs() : 0;
    {
      SlotGuard g(slot);
      slot.retired.push_back(Retired{ptr, deleter, e, retire_ns});
    }
    retired_.fetch_add(1, std::memory_order_relaxed);
    TryAdvance();
    ReclaimSlot(slot, /*everything=*/false,
                global_epoch_.load(std::memory_order_seq_cst));
  }

  // Sweeps every slot's retire list, freeing all items whose grace period
  // has elapsed.  Returns how many deleters ran.  The epoch is read ONCE
  // for the whole sweep: everything else in the loop is plain memory, so a
  // per-slot epoch load would look to the simulator's spin detector like a
  // spin on the epoch line and park the sweeping fiber.
  std::size_t ReclaimQuiesced() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    std::size_t freed = 0;
    for (int i = 0; i < kSlots; ++i) {
      freed += ReclaimSlot(slots_[i], /*everything=*/false, e);
    }
    return freed;
  }

  // Drives the domain to full quiescence from a context that holds no pins:
  // repeatedly advances the epoch and sweeps until nothing is pending or
  // progress stalls on a pinned straggler.  The drain-on-quiesce surface the
  // tests and table destructors use.
  std::size_t DrainAll() {
    std::size_t freed = 0;
    for (;;) {
      freed += ReclaimQuiesced();
      if (Pending() == 0 || !TryAdvance()) {
        return freed;
      }
    }
  }

  std::uint64_t Pending() const {
    return retired_.load(std::memory_order_relaxed) -
           reclaimed_.load(std::memory_order_relaxed);
  }

  DomainStatsSummary StatsSummary() const {
    DomainStatsSummary out;
    out.global_epoch = global_epoch_.load(std::memory_order_seq_cst);
    out.advances = advances_.load(std::memory_order_relaxed);
    out.retired = retired_.load(std::memory_order_relaxed);
    out.reclaimed = reclaimed_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  // Slot word layout: [epoch : 47][valid : 1][depth : 16].
  static constexpr int kDepthBits = 16;
  static constexpr std::uint64_t kDepthMask = (1ull << kDepthBits) - 1;
  static constexpr std::uint64_t kValid = 1ull << kDepthBits;
  static constexpr int kEpochShift = kDepthBits + 1;
  static constexpr std::uint64_t Pack(std::uint64_t epoch, bool valid,
                                      std::uint64_t depth) {
    return (epoch << kEpochShift) | (valid ? kValid : 0) | depth;
  }
  static constexpr std::uint64_t Epoch(std::uint64_t word) {
    return word >> kEpochShift;
  }

  struct Retired {
    void* ptr;
    Deleter deleter;
    std::uint64_t epoch;      // global epoch at retire time
    std::uint64_t retire_ns;  // wall stamp for the grace histogram; 0 = off
  };

  // One line of pin state plus this slot's retire list.  The list is guarded
  // by a plain TAS (slots alias past kSlots contexts): it is context-private
  // in the common case, the guard is never held across a yield point, and
  // being a plain std::atomic_flag it costs the simulator nothing.
  struct alignas(kCacheLineSize) Slot {
    typename P::template Atomic<std::uint64_t> word{0};
    mutable std::atomic_flag busy = ATOMIC_FLAG_INIT;
    std::vector<Retired> retired;
  };

  class SlotGuard {
   public:
    explicit SlotGuard(Slot& slot) : busy_(slot.busy) {
      while (busy_.test_and_set(std::memory_order_acquire)) {
        SpinHint();
      }
    }
    ~SlotGuard() { busy_.clear(std::memory_order_release); }

    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;

   private:
    std::atomic_flag& busy_;
  };

  // Context-stable slot addressing: P::CpuId() is the dense, per-context
  // stable id on both platforms (ThreadContext::ThreadId() on hardware, the
  // fiber's CPU under the simulator).  P::CurrentSocket() deliberately does
  // NOT participate -- on real hardware the OS can migrate a thread between
  // sockets mid-pin, and an unpin must hit the slot the pin bumped.
  int SlotIndex() const {
    return static_cast<int>(static_cast<unsigned>(P::CpuId()) %
                            static_cast<unsigned>(kSlots));
  }

  // Frees `slot`'s items retired at or before epoch `e` - 2 (everything=
  // true frees unconditionally, destructor only).  The caller supplies the
  // epoch: no simulated-atomic access may run under the TAS guard (a fiber
  // yielding mid-guard would leave other contexts spinning without a yield
  // point), and see ReclaimQuiesced for why not even per-call loads do.
  // Deleters run outside the TAS guard: a deleter may itself Retire() (a
  // snapshot destructor retiring handle slabs) or yield under the
  // simulator, neither of which may happen while the list lock is held.
  std::size_t ReclaimSlot(Slot& slot, bool everything, std::uint64_t e) {
    std::vector<Retired> ready;
    {
      SlotGuard g(slot);
      if (slot.retired.empty()) {
        return 0;
      }
      if (everything) {
        ready.swap(slot.retired);
      } else {
        // Reserve BEFORE compacting: the loop below overwrites entries in
        // place, so a push_back that threw mid-loop would leave the list
        // with duplicated items (double free on the next sweep) and a
        // dropped one (leak).  After the reserve every push_back is
        // noexcept; a throw from reserve itself leaves the list untouched.
        ready.reserve(slot.retired.size());
        std::size_t kept = 0;
        for (Retired& r : slot.retired) {
          if (r.epoch + 2 <= e) {
            ready.push_back(r);
          } else {
            slot.retired[kept++] = r;
          }
        }
        slot.retired.resize(kept);
      }
    }
    if (!ready.empty() && telemetry::Enabled()) {
      // Grace-period duration = retire-to-reclaim latency, stamped outside
      // the TAS guard on both ends.  Items retired before telemetry was
      // enabled carry retire_ns == 0 and are skipped.
      const std::uint64_t now = telemetry::NowNs();
      auto& hist = telemetry::EpochGraceHistogram();
      for (const Retired& r : ready) {
        if (r.retire_ns != 0 && now >= r.retire_ns) {
          hist.RecordAt(P::CurrentSocket(), P::CpuId(), now - r.retire_ns);
        }
      }
      telemetry::TraceEmit(telemetry::TraceEventType::kEpochReclaim,
                           P::CurrentSocket(), P::CpuId(),
                           /*arg=*/ready.size());
    }
    for (const Retired& r : ready) {
      r.deleter(r.ptr);
    }
    reclaimed_.fetch_add(ready.size(), std::memory_order_relaxed);
    return ready.size();
  }

  // Epochs start at 2 so "retire epoch + 2 <= global" can never be satisfied
  // by the freshly-constructed domain's own epoch.
  typename P::template Atomic<std::uint64_t> global_epoch_{2};
  std::unique_ptr<Slot[]> slots_;

  // Diagnostics (plain atomics, cna_stats.h convention).
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
};

}  // namespace cna::epoch

#endif  // CNA_EPOCH_EPOCH_H_
