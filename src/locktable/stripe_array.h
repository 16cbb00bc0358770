// StripeArray<L>: the storage/stride/hash core shared by every lock table.
//
// LockTable, RwLockTable (and, through composition, CombiningTable) and the
// resizable table's snapshots all need the same thing: a power-of-two array
// of in-place-constructed lock stripes, packed at sizeof(L) by default (the
// paper's compactness claim -- a million-stripe CNA table is exactly 8 MiB of
// lock words) or padded to a cache line each, plus the SplitMix64 key->stripe
// hash.  This class is that core, extracted so the geometry logic exists
// once: construction, aligned placement, destruction, the kMaxStripes bound,
// and the hash all live here, and the tables add their locking surfaces on
// top.
#ifndef CNA_LOCKTABLE_STRIPE_ARRAY_H_
#define CNA_LOCKTABLE_STRIPE_ARRAY_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "base/cacheline.h"
#include "base/rng.h"

namespace cna::locktable {

enum class StripePadding {
  kCompact,    // stripes packed at sizeof(L): the paper's space claim
  kCacheLine,  // one cache line per stripe: no false sharing between stripes
};

template <typename L>
class StripeArray {
 public:
  // Upper bound on the namespace: 2^30 stripes (8 GiB of one-word locks) is
  // far past any sane table and keeps stripes_ * stride_ arithmetic safe.
  static constexpr std::size_t kMaxStripes = std::size_t{1} << 30;

  explicit StripeArray(std::size_t requested,
                       StripePadding padding = StripePadding::kCompact)
      : stripes_(std::bit_ceil(ValidatedStripes(requested))),
        mask_(stripes_ - 1),
        stride_(padding == StripePadding::kCacheLine
                    ? RoundUp(sizeof(L), kCacheLineSize)
                    : sizeof(L)),
        padding_(padding) {
    const std::size_t align = padding == StripePadding::kCacheLine
                                  ? std::max(alignof(L), kCacheLineSize)
                                  : alignof(L);
    storage_.resize(stripes_ * stride_ + align);
    const auto raw = reinterpret_cast<std::uintptr_t>(storage_.data());
    base_ = reinterpret_cast<std::byte*>(RoundUp(raw, align));
    for (std::size_t s = 0; s < stripes_; ++s) {
      new (base_ + s * stride_) L();
    }
  }

  ~StripeArray() {
    for (std::size_t s = 0; s < stripes_; ++s) {
      Stripe(s).~L();
    }
  }

  StripeArray(const StripeArray&) = delete;
  StripeArray& operator=(const StripeArray&) = delete;

  std::size_t stripes() const { return stripes_; }
  StripePadding padding() const { return padding_; }

  // The stripe a key hashes to.  SplitMix64's finalizer: full-avalanche, so
  // sequential keys spread over the whole namespace.  Every array built from
  // the same hash agrees modulo its own mask, which is what makes
  // power-of-two resizing a per-stripe split/merge (resizable_lock_table.h).
  std::size_t StripeOf(std::uint64_t key) const {
    return static_cast<std::size_t>(SplitMix64::Mix(key)) & mask_;
  }

  // Total bytes of shared lock state backing the namespace -- the quantity
  // the paper's compactness argument is about.
  std::size_t LockStateBytes() const { return stripes_ * stride_; }

  L& Stripe(std::size_t s) {
    return *std::launder(reinterpret_cast<L*>(base_ + s * stride_));
  }
  const L& Stripe(std::size_t s) const {
    return *std::launder(reinterpret_cast<const L*>(base_ + s * stride_));
  }

 private:
  static std::size_t ValidatedStripes(std::size_t v) {
    if (v > kMaxStripes) {
      throw std::length_error("locktable::StripeArray: stripe count too large");
    }
    return v == 0 ? 1 : v;
  }
  static constexpr std::uint64_t RoundUp(std::uint64_t v, std::size_t unit) {
    return (v + unit - 1) / unit * unit;
  }

  std::size_t stripes_;
  std::size_t mask_;
  std::size_t stride_;
  StripePadding padding_;
  std::vector<std::byte> storage_;
  std::byte* base_ = nullptr;
};

}  // namespace cna::locktable

#endif  // CNA_LOCKTABLE_STRIPE_ARRAY_H_
