// Tests for the public API surface: the registry, core::Mutex (C++), and the
// pthread-style C API.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pthread_api.h"
#include "core/registry.h"
#include "locks/cna.h"
#include "locks/held_locks.h"
#include "platform/thread_context.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

TEST(Registry, AllKindsHaveUniqueNames) {
  std::vector<std::string> names;
  for (auto kind : core::AllLockKinds()) {
    names.emplace_back(core::LockKindName(kind));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.size(), core::AllLockKinds().size());
}

TEST(Registry, NamesRoundTrip) {
  for (auto kind : core::AllLockKinds()) {
    const auto parsed = core::LockKindFromName(core::LockKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(core::LockKindFromName("no-such-lock").has_value());
}

TEST(Registry, DescriptionsAreNonEmpty) {
  for (auto kind : core::AllLockKinds()) {
    EXPECT_FALSE(std::string(core::LockKindDescription(kind)).empty());
  }
}

TEST(Registry, NumaAwareClassification) {
  EXPECT_TRUE(core::IsNumaAware(core::LockKind::kCna));
  EXPECT_TRUE(core::IsNumaAware(core::LockKind::kHmcs));
  EXPECT_TRUE(core::IsNumaAware(core::LockKind::kQspinCna));
  EXPECT_FALSE(core::IsNumaAware(core::LockKind::kMcs));
  EXPECT_FALSE(core::IsNumaAware(core::LockKind::kTas));
  EXPECT_FALSE(core::IsNumaAware(core::LockKind::kQspinMcs));
}

TEST(Registry, MakeLockBuildsEveryKind) {
  for (auto kind : core::AllLockKinds()) {
    auto lock = core::MakeLock<RealPlatform>(kind);
    ASSERT_NE(lock, nullptr) << core::LockKindName(kind);
    lock->Lock();
    lock->Unlock();
    EXPECT_GT(lock->StateBytes(), 0u);
    EXPECT_EQ(lock->Name(), core::LockKindName(kind));
  }
}

TEST(Mutex, WorksWithStdLockGuard) {
  core::Mutex mu(core::LockKind::kCna);
  int counter = 0;
  {
    std::lock_guard<core::Mutex> guard(mu);
    ++counter;
  }
  EXPECT_EQ(counter, 1);
}

TEST(Mutex, ByNameAndStateBytes) {
  core::Mutex cna_mu("cna");
  EXPECT_EQ(cna_mu.state_bytes(), sizeof(void*));
  EXPECT_EQ(cna_mu.name(), "cna");
  core::Mutex qspin_mu("qspin-cna");
  EXPECT_EQ(qspin_mu.state_bytes(), 4u);
  core::Mutex hmcs_mu("hmcs");
  EXPECT_GT(hmcs_mu.state_bytes(), 8u * 64u);
}

TEST(Mutex, UnknownNameThrows) {
  EXPECT_THROW(core::Mutex bad("bogus"), std::invalid_argument);
}

TEST(Mutex, TryLock) {
  core::Mutex mu(core::LockKind::kCna);
  ASSERT_TRUE(mu.try_lock());
  std::thread t([&] { EXPECT_FALSE(mu.try_lock()); });
  t.join();
  mu.unlock();
}

TEST(Mutex, TryLockUnsupportedKindReturnsFalse) {
  core::Mutex mu(core::LockKind::kHmcs);  // no try-lock in HMCS
  EXPECT_FALSE(mu.try_lock());
  // The failed try_lock must not have poisoned the lock.
  mu.lock();
  mu.unlock();
}

TEST(Mutex, ContendedCounterIsExact) {
  core::Mutex mu(core::LockKind::kCna);
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<core::Mutex> guard(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Mutex, LifoNestingOfDistinctMutexes) {
  core::Mutex a(core::LockKind::kCna);
  core::Mutex b(core::LockKind::kMcs);
  for (int i = 0; i < 100; ++i) {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  }
  SUCCEED();
}

TEST(Mutex, UnlockWithoutLockThrows) {
  core::Mutex mu(core::LockKind::kCna);
  EXPECT_THROW(mu.unlock(), std::logic_error);
}

// ---------- C API ----------

TEST(PthreadApi, CreateLockUnlockDestroy) {
  cna_mutex_t* mu = cna_mutex_create("cna");
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(cna_mutex_lock(mu), 0);
  EXPECT_EQ(cna_mutex_unlock(mu), 0);
  EXPECT_EQ(cna_mutex_state_bytes(mu), sizeof(void*));
  cna_mutex_destroy(mu);
}

TEST(PthreadApi, DefaultIsCna) {
  cna_mutex_t* mu = cna_mutex_create_default();
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(cna_mutex_state_bytes(mu), sizeof(void*));
  cna_mutex_destroy(mu);
}

TEST(PthreadApi, TrylockReturnsEbusyWhenHeld) {
  cna_mutex_t* mu = cna_mutex_create("mcs");
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(cna_mutex_trylock(mu), 0);
  std::thread t([&] { EXPECT_EQ(cna_mutex_trylock(mu), EBUSY); });
  t.join();
  EXPECT_EQ(cna_mutex_unlock(mu), 0);
  cna_mutex_destroy(mu);
}

TEST(PthreadApi, RejectsBadInputs) {
  EXPECT_EQ(cna_mutex_create("definitely-not-a-lock"), nullptr);
  EXPECT_EQ(cna_mutex_create(nullptr), nullptr);
  EXPECT_EQ(cna_mutex_lock(nullptr), EINVAL);
  EXPECT_EQ(cna_mutex_unlock(nullptr), EINVAL);
  EXPECT_EQ(cna_mutex_trylock(nullptr), EINVAL);
  EXPECT_EQ(cna_mutex_state_bytes(nullptr), 0u);
  cna_mutex_destroy(nullptr);  // must be a no-op
}

TEST(PthreadApi, ContendedUse) {
  cna_mutex_t* mu = cna_mutex_create("cna");
  ASSERT_NE(mu, nullptr);
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        cna_mutex_lock(mu);
        ++counter;
        cna_mutex_unlock(mu);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, 2000u);
  cna_mutex_destroy(mu);
}


// ---------- Parameterized stress over every registry lock ----------

class RegistryLockStress : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryLockStress, ContendedMutualExclusionThroughAnyLock) {
  auto lock = core::MakeLock<RealPlatform>(
      *core::LockKindFromName(GetParam()));
  constexpr int kThreads = 3;
  constexpr int kIters = 400;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      platform::ThreadContext::Current().SetVirtualSocket(t % 2);
      for (int i = 0; i < kIters; ++i) {
        lock->Lock();
        ++counter;
        lock->Unlock();
      }
      platform::ThreadContext::Current().SetVirtualSocket(
          platform::ThreadContext::kAutoSocket);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_P(RegistryLockStress, LifoNestingThroughAnyLock) {
  auto a = core::MakeLock<RealPlatform>(*core::LockKindFromName(GetParam()));
  auto b = core::MakeLock<RealPlatform>(*core::LockKindFromName(GetParam()));
  for (int i = 0; i < 50; ++i) {
    a->Lock();
    b->Lock();
    b->Unlock();
    a->Unlock();
  }
  SUCCEED();
}

std::vector<std::string> AllLockNames() {
  std::vector<std::string> names;
  for (auto kind : core::AllLockKinds()) {
    names.emplace_back(core::LockKindName(kind));
  }
  return names;
}

std::string SanitizeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') {
      c = '_';
    }
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RegistryLockStress,
                         ::testing::ValuesIn(AllLockNames()), SanitizeName);

// ---------- Node reuse in the adapter ----------

// The adapter keeps no per-context arrays of its own: an 8-byte cna mutex
// costs a small object, not a table sized for every possible thread.
static_assert(
    sizeof(core::LockAdapter<RealPlatform, locks::CnaLock<RealPlatform>>) <
    1024);

TEST(LockAdapter, HeldRecordReusesOneNodeAcrossAcquisitions) {
  // Repeated non-nested acquisitions reuse one node of the context's
  // held-lock record and never grow it (the kernel's fixed nodes per CPU).
  using Cna = locks::CnaLock<RealPlatform>;
  using Held = locks::HeldLocks<Cna::Handle>;
  core::LockAdapter<RealPlatform, Cna> adapter("cna");
  Held& held = RealPlatform::PerContext<Held>();
  const std::size_t nodes_before = held.nodes();
  const Cna::Handle* first = nullptr;
  for (int i = 0; i < 10'000; ++i) {
    adapter.Lock();
    const Held::Entry* e = held.Find(&adapter.impl(), /*shared=*/false);
    ASSERT_NE(e, nullptr);
    if (first == nullptr) {
      first = e->node;
    }
    ASSERT_EQ(e->node, first);
    adapter.Unlock();
  }
  EXPECT_EQ(held.nodes(), nodes_before);
  EXPECT_EQ(held.Find(&adapter.impl(), /*shared=*/false), nullptr);
}

TEST(LockAdapter, FailedTryLockReturnsHandleToPool) {
  core::LockAdapter<RealPlatform, locks::CnaLock<RealPlatform>> adapter("cna");
  adapter.Lock();
  std::thread t([&] {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_FALSE(adapter.TryLock());
    }
  });
  t.join();
  adapter.Unlock();
  ASSERT_TRUE(adapter.TryLock());
  adapter.Unlock();
}

}  // namespace
}  // namespace cna
