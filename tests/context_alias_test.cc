// Two live threads whose context ids are congruent modulo 1024 must not
// share lock bookkeeping.  Context ids (RealPlatform::CpuId) are handed out
// monotonically and never reused, so a process that churns threads reaches
// such pairs; bookkeeping slotted by CpuId() % 1024 would let the two
// threads push and pop the same handle stacks and unlock with each other's
// nodes.  This file runs in the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <thread>

#include "core/pthread_api.h"
#include "platform/real_platform.h"

namespace cna {
namespace {

constexpr int kAliasPeriod = 1024;
constexpr int kIters = 20000;

TEST(ContextAlias, CongruentThreadIdsKeepSeparateHeldLocks) {
  cna_mutex_t* mu = cna_mutex_create("cna");
  cna_rwlock_t* rw = cna_rwlock_create("cna-rw");
  ASSERT_NE(mu, nullptr);
  ASSERT_NE(rw, nullptr);
  std::uint64_t mutex_count = 0;  // guarded by mu
  std::uint64_t rw_count = 0;     // written under wrlock, read under rdlock
  std::atomic<bool> go{false};

  auto hammer = [&] {
    while (!go.load()) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(cna_mutex_lock(mu), 0);
      ++mutex_count;
      EXPECT_EQ(cna_mutex_unlock(mu), 0);
      if (i % 4 == 0) {
        EXPECT_EQ(cna_rwlock_wrlock(rw), 0);
        ++rw_count;
      } else {
        EXPECT_EQ(cna_rwlock_rdlock(rw), 0);
        EXPECT_LE(rw_count, std::uint64_t{2} * kIters);
      }
      EXPECT_EQ(cna_rwlock_unlock(rw), 0);
    }
    // Nothing is left held by this thread, whatever the other one holds.
    EXPECT_EQ(cna_mutex_unlock(mu), EPERM);
    EXPECT_EQ(cna_rwlock_unlock(rw), EPERM);
  };

  std::atomic<int> first_id{-1};
  std::thread first([&] {
    first_id.store(RealPlatform::CpuId());
    hammer();
  });
  while (first_id.load() < 0) {
    std::this_thread::yield();
  }

  // Spawn and join short-lived threads, one at a time, until one draws an
  // id congruent to the first thread's; that one stays alive.  At most
  // three threads (main, first, probe) are alive at once.
  std::thread second;
  for (int spawned = 0; spawned < 4 * kAliasPeriod && !second.joinable();
       ++spawned) {
    std::atomic<int> verdict{0};  // 1 = aliases and stays, 2 = exits
    std::thread probe([&] {
      const bool aliases = RealPlatform::CpuId() % kAliasPeriod ==
                           first_id.load() % kAliasPeriod;
      verdict.store(aliases ? 1 : 2);
      if (aliases) {
        hammer();
      }
    });
    while (verdict.load() == 0) {
      std::this_thread::yield();
    }
    if (verdict.load() == 1) {
      second = std::move(probe);
    } else {
      probe.join();
    }
  }
  const bool reached = second.joinable();
  go.store(true);
  first.join();
  if (reached) {
    second.join();
  }
  ASSERT_TRUE(reached) << "no congruent thread id was reached";
  EXPECT_EQ(mutex_count, std::uint64_t{2} * kIters);
  EXPECT_EQ(rw_count, std::uint64_t{2} * (kIters / 4));
  cna_rwlock_destroy(rw);
  cna_mutex_destroy(mu);
}

}  // namespace
}  // namespace cna
