// Type-erased reader-writer lock interface: the rwlock counterpart of
// any_lock.h, behind the pthread_rwlock shape (rdlock/wrlock/unlock) so the
// registry and the C API can hand out NUMA-aware rwlocks by name.
//
// Handle management follows LockAdapter: each execution context's held-lock
// record lends the node and tags the hold with its mode.  The unified
// Unlock() (pthread_rwlock_unlock semantics) releases the exclusive hold if
// there is one, else the newest shared hold -- within one context an
// exclusive section can never be nested inside a shared section of the same
// lock (that would self-deadlock), so the preference is unambiguous.
#ifndef CNA_CORE_ANY_RWLOCK_H_
#define CNA_CORE_ANY_RWLOCK_H_

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/any_lock.h"
#include "locks/lock_api.h"

namespace cna::core {

// Abstract reader-writer lock.  Shared and exclusive acquisitions must each
// be LIFO-nested per execution context; Unlock() releases the newest
// acquisition in either mode.
class AnyRwLock {
 public:
  virtual ~AnyRwLock() = default;

  virtual void Lock() = 0;          // exclusive
  virtual bool TryLock() = 0;
  virtual void LockShared() = 0;
  virtual bool TryLockShared() = 0;
  // Mode-specific releases (C++ std::shared_mutex shape).
  virtual void Unlock() = 0;
  virtual void UnlockShared() = 0;
  // pthread_rwlock_unlock shape: releases whichever mode was acquired last.
  virtual void UnlockAny() = 0;

  virtual std::size_t StateBytes() const = 0;
  virtual std::string Name() const = 0;
};

template <typename P, locks::SharedLockable L>
class RwLockAdapter final : public AnyRwLock {
 public:
  explicit RwLockAdapter(std::string name) : name_(std::move(name)) {}

  void Lock() override {
    impl_.Lock(*HeldHere().Push(&impl_, /*shared=*/false).node);
  }

  bool TryLock() override {
    Held& held = HeldHere();
    typename Held::Entry& e = held.Push(&impl_, /*shared=*/false);
    if (impl_.TryLock(*e.node)) {
      return true;
    }
    held.Erase(&e);
    return false;
  }

  void LockShared() override {
    impl_.LockShared(*HeldHere().Push(&impl_, /*shared=*/true).node);
  }

  bool TryLockShared() override {
    static_assert(locks::SharedTryLockable<L>);
    Held& held = HeldHere();
    typename Held::Entry& e = held.Push(&impl_, /*shared=*/true);
    if (impl_.TryLockShared(*e.node)) {
      return true;
    }
    held.Erase(&e);
    return false;
  }

  void Unlock() override {
    Held& held = HeldHere();
    typename Held::Entry* e = held.Find(&impl_, /*shared=*/false);
    if (e == nullptr) {
      throw std::logic_error("AnyRwLock::Unlock without matching Lock");
    }
    impl_.Unlock(*e->node);
    held.Erase(e);
  }

  void UnlockShared() override {
    Held& held = HeldHere();
    typename Held::Entry* e = held.Find(&impl_, /*shared=*/true);
    if (e == nullptr) {
      throw std::logic_error(
          "AnyRwLock::UnlockShared without matching LockShared");
    }
    impl_.UnlockShared(*e->node);
    held.Erase(e);
  }

  void UnlockAny() override {
    if (HeldHere().Find(&impl_, /*shared=*/false) != nullptr) {
      Unlock();
    } else {
      UnlockShared();
    }
  }

  std::size_t StateBytes() const override { return L::kStateBytes; }
  std::string Name() const override { return name_; }

  L& impl() { return impl_; }

 private:
  using Held = locks::HeldLocks<typename L::Handle>;

  // This context's held-lock record (see LockAdapter::HeldHere).
  static Held& HeldHere() { return P::template PerContext<Held>(); }

  L impl_;
  std::string name_;
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_RWLOCK_H_
