// HeldLocks<Handle>: one execution context's record of the locks it holds.
//
// Queue locks (MCS, CNA, ...) need a node per acquisition.  The paper notes
// that "those structures can be reused for different lock acquisitions, and
// between different locks" (Section 5); the kernel keeps 4 statically
// preallocated nodes per CPU.  This record is that idea for every handle-free
// surface in the repo (the lock tables, the combining layer's records, the
// type-erased adapters): a context reaches its own record through
// P::PerContext<HeldLocks<Handle>>() -- a thread_local on hardware, per fiber
// in the simulator -- so there is no slot aliasing, no guard and no shared
// line.  The bookkeeping is plain memory that the simulator never charges;
// only a lock's own accesses to a node are.
//
// Each entry is {lock address, shared bit, node, acquire timestamp}: the
// address and mode answer "does this context hold it" for unlock
// validation, the node is the queue node the acquisition used, and the
// timestamp is where hold-time telemetry starts.  Entries are kept in
// acquisition order and searched newest-first, so out-of-order release
// (MultiGuard, combining futures) and repeated shared holds both resolve to
// the most recent matching hold.
//
// Nodes: kInlineNodes live inline, each on its own cache line (a waiter
// spins on its node, and a neighbour's node must not share that line).
// Deeper demand -- large multi-key transactions, unbounded combining futures
// -- grows chunks of the same size whose addresses never move, because a
// queue lock links waiters through node addresses.  Handles with no state
// (qspin-cna, tas, hbo) store no nodes at all.
#ifndef CNA_LOCKS_HELD_LOCKS_H_
#define CNA_LOCKS_HELD_LOCKS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "base/cacheline.h"

namespace cna::locks {

template <typename Handle>
class HeldLocks {
 public:
  static constexpr std::size_t kInlineNodes = 16;
  static constexpr bool kStoresNodes = !std::is_empty_v<Handle>;

  struct Entry {
    const void* lock;
    bool shared;
    Handle* node;
    std::uint64_t acquire_ns;  // hold-time start; 0 when not timed
  };

  HeldLocks() {
    entries_.reserve(kInlineNodes);
    if constexpr (kStoresNodes) {
      free_.reserve(kInlineNodes);
      for (std::size_t i = kInlineNodes; i-- > 0;) {
        free_.push_back(&inline_[i].node);
      }
    }
  }

  HeldLocks(const HeldLocks&) = delete;
  HeldLocks& operator=(const HeldLocks&) = delete;

  // Records a hold of `lock` about to be acquired and hands it a free node.
  // Throws std::bad_alloc with nothing recorded if the record must grow and
  // cannot.  The returned entry stays valid until the next Push.
  Entry& Push(const void* lock, bool shared) {
    if constexpr (kStoresNodes) {
      if (free_.empty()) {
        Grow();
      }
      entries_.push_back(Entry{lock, shared, free_.back(), 0});
      free_.pop_back();
    } else {
      entries_.push_back(Entry{lock, shared, &inline_, 0});
    }
    return entries_.back();
  }

  // Newest entry for `lock` in the given mode, or nullptr if not held.
  Entry* Find(const void* lock, bool shared) {
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].lock == lock && entries_[i].shared == shared) {
        return &entries_[i];
      }
    }
    return nullptr;
  }

  // The entry that owns `node`, or nullptr.
  Entry* FindNode(const Handle* node) {
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].node == node) {
        return &entries_[i];
      }
    }
    return nullptr;
  }

  // Drops an entry (after its lock was released) and frees its node.
  void Erase(Entry* e) noexcept {
    if constexpr (kStoresNodes) {
      free_.push_back(e->node);  // capacity covers every node: never grows
    }
    // Shift the newer entries down (usually none: releases are mostly LIFO).
    for (Entry* const last = &entries_.back(); e != last; ++e) {
      e[0] = e[1];
    }
    entries_.pop_back();
  }

  // Holds in the given mode whose lock lies in [first, last]: one table's
  // share of the record (tests/diagnostics).
  std::size_t CountIn(const void* first, const void* last, bool shared) const {
    std::size_t n = 0;
    for (const Entry& e : entries_) {
      n += e.shared == shared && e.lock >= first && e.lock <= last ? 1 : 0;
    }
    return n;
  }

  // Nodes owned by the record, inline plus overflow (tests: reuse, not
  // growth).
  std::size_t nodes() const {
    return kStoresNodes ? kInlineNodes * (1 + chunks_.size()) : 0;
  }

 private:
  struct alignas(kCacheLineSize) Slot {
    Handle node;
  };

  // Adds one chunk of kInlineNodes nodes.  Capacity is reserved before
  // anything is published, so a bad_alloc leaves the record unchanged.
  void Grow() {
    auto chunk = std::make_unique<Slot[]>(kInlineNodes);
    if (chunks_.size() == chunks_.capacity()) {
      chunks_.reserve(2 * chunks_.size() + 1);
    }
    free_.reserve(std::max(2 * free_.capacity(), nodes() + kInlineNodes));
    for (std::size_t i = kInlineNodes; i-- > 0;) {
      free_.push_back(&chunk[i].node);
    }
    chunks_.push_back(std::move(chunk));
  }

  std::vector<Entry> entries_;
  std::vector<Handle*> free_;
  // The inline nodes; a stateless handle type instead lends this one empty
  // handle to every acquisition.
  [[no_unique_address]] std::conditional_t<kStoresNodes, Slot[kInlineNodes],
                                           Handle> inline_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
};

}  // namespace cna::locks

#endif  // CNA_LOCKS_HELD_LOCKS_H_
