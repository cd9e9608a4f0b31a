#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace valkyrie::util {
namespace {

TEST(ThreadPoolChunk, PartitionsExactlyAndContiguously) {
  const std::size_t sizes[] = {0, 1, 2, 7, 8, 64, 1000, 4096};
  const std::size_t shard_counts[] = {1, 2, 3, 8, 16};
  for (const std::size_t n : sizes) {
    for (const std::size_t shards : shard_counts) {
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        std::size_t begin = 0;
        std::size_t end = 0;
        ThreadPool::chunk(n, shards, s, begin, end);
        EXPECT_EQ(begin, prev_end) << "n=" << n << " shards=" << shards;
        EXPECT_LE(begin, end);
        // Balanced partition: sizes differ by at most one.
        EXPECT_LE(end - begin, n / shards + 1);
        prev_end = end;
      }
      EXPECT_EQ(prev_end, n) << "n=" << n << " shards=" << shards;
    }
  }
}

TEST(ThreadPool, TouchesEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.shard_count(), threads < 2 ? 1u : threads);
    std::vector<int> hits(10000, 0);
    pool.parallel_for_shards(
        hits.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) ++hits[i];
        });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "threads=" << threads << " index " << i;
    }
  }
}

TEST(ThreadPool, SurvivesManyConsecutiveJobs) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  constexpr int kJobs = 300;
  std::atomic<std::uint64_t> total{0};
  for (int job = 0; job < kJobs; ++job) {
    pool.parallel_for_shards(
        kN, [&](std::size_t, std::size_t begin, std::size_t end) {
          std::uint64_t local = 0;
          for (std::size_t i = begin; i < end; ++i) local += i;
          total.fetch_add(local, std::memory_order_relaxed);
        });
  }
  EXPECT_EQ(total.load(),
            static_cast<std::uint64_t>(kJobs) * (kN * (kN - 1) / 2));
}

TEST(ThreadPool, ShardIndicesMatchChunkAssignment) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1237;
  const std::size_t shards = pool.shard_count();
  std::vector<std::pair<std::size_t, std::size_t>> ranges(
      shards, {kN + 1, kN + 1});
  pool.parallel_for_shards(
      kN, [&](std::size_t shard, std::size_t begin, std::size_t end) {
        ASSERT_LT(shard, shards);
        ranges[shard] = {begin, end};
      });
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t begin = 0;
    std::size_t end = 0;
    ThreadPool::chunk(kN, shards, s, begin, end);
    if (begin == end) continue;  // empty shards never see the job
    EXPECT_EQ(ranges[s].first, begin) << "shard " << s;
    EXPECT_EQ(ranges[s].second, end) << "shard " << s;
  }
}

TEST(ThreadPool, HandlesDegenerateSizes) {
  ThreadPool pool(8);
  int calls = 0;
  pool.parallel_for_shards(0, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);

  // n == 1 runs inline on the caller.
  std::thread::id executed_on;
  pool.parallel_for_shards(
      1, [&](std::size_t, std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1u);
        executed_on = std::this_thread::get_id();
      });
  EXPECT_EQ(executed_on, std::this_thread::get_id());

  // n smaller than the shard count: every index still covered once.
  std::vector<int> hits(3, 0);
  pool.parallel_for_shards(
      hits.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.shard_count(), 1u);
  std::thread::id executed_on;
  pool.parallel_for_shards(
      100, [&](std::size_t, std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100u);
        executed_on = std::this_thread::get_id();
      });
  EXPECT_EQ(executed_on, std::this_thread::get_id());
}

TEST(ThreadPool, CountsInlineRunsAndDispatchesSeparately) {
  // The corrected schedule contract: every non-empty job is counted, either
  // as a worker dispatch or as an inline run — counting dispatches alone
  // under-reported single-shard schedules as zero (the
  // dispatches_per_epoch: 0.0 rows the scaling bench used to emit for
  // threads: 1).
  const auto noop = [](std::size_t, std::size_t, std::size_t) {};

  ThreadPool single(1);
  single.parallel_for_shards(100, noop);
  single.parallel_for_shards(1, noop);
  single.parallel_for_shards(0, noop);  // empty jobs never run, never count
  EXPECT_EQ(single.dispatch_count(), 0u);
  EXPECT_EQ(single.inline_run_count(), 2u);

  ThreadPool pool(4);
  pool.parallel_for_shards(100, noop);  // sharded: a dispatch
  pool.parallel_for_shards(1, noop);    // degenerate: inline on the caller
  pool.parallel_for_shards(0, noop);
  EXPECT_EQ(pool.dispatch_count(), 1u);
  EXPECT_EQ(pool.inline_run_count(), 1u);
  pool.parallel_for_shards(50, noop);
  EXPECT_EQ(pool.dispatch_count(), 2u);
  EXPECT_EQ(pool.inline_run_count(), 1u);
}

TEST(ThreadPool, ShardExceptionPropagatesToDispatcher) {
  ThreadPool pool(4);
  // Exceptions from worker-owned shards and from the caller-owned (last)
  // shard both surface on the dispatching thread, after all shards joined.
  constexpr std::size_t kN = 1000;
  for (const std::size_t bad_index : {std::size_t{0}, kN - 1}) {
    EXPECT_THROW(
        pool.parallel_for_shards(
            kN,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) {
                if (i == bad_index) throw std::runtime_error("shard failed");
              }
            }),
        std::runtime_error);
  }
  // The pool must remain usable after a failed job.
  std::atomic<std::size_t> touched{0};
  pool.parallel_for_shards(
      kN, [&](std::size_t, std::size_t begin, std::size_t end) {
        touched.fetch_add(end - begin, std::memory_order_relaxed);
      });
  EXPECT_EQ(touched.load(), kN);
}

TEST(ThreadPool, WorkersActuallyRunConcurrently) {
  // With 4 shards over 4 indices, at least two distinct threads must
  // participate (the caller plus at least one worker).
  ThreadPool pool(4);
  std::vector<std::thread::id> ids(4);
  pool.parallel_for_shards(
      4, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          ids[i] = std::this_thread::get_id();
        }
      });
  bool saw_other_thread = false;
  for (const std::thread::id& id : ids) {
    if (id != std::this_thread::get_id()) saw_other_thread = true;
  }
  EXPECT_TRUE(saw_other_thread);
}

}  // namespace
}  // namespace valkyrie::util
