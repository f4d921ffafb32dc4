// Concurrency tests, run under -fsanitize=thread in CI: the ThreadPool
// primitive, concurrent const reads of a prepared engine, and the
// const-qualified WhitmanIterative decider shared across threads.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "core/implication.h"
#include "lattice/expr.h"
#include "lattice/whitman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace psem {
namespace {

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, JoinIsABarrierBetweenPhases) {
  ThreadPool pool(4);
  std::vector<int> data(512, 0);
  // Phase 1 writes; phase 2 reads every element written by phase 1 —
  // any missing barrier shows up as a torn sum (and as a TSan race).
  for (int round = 1; round <= 20; ++round) {
    pool.ParallelFor(data.size(),
                     [&](std::size_t, std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) data[i] = round;
                     });
    std::atomic<long> sum{0};
    pool.ParallelFor(data.size(),
                     [&](std::size_t, std::size_t lo, std::size_t hi) {
                       long local = 0;
                       for (std::size_t i = lo; i < hi; ++i) local += data[i];
                       sum.fetch_add(local, std::memory_order_relaxed);
                     });
    ASSERT_EQ(sum.load(), round * static_cast<long>(data.size()));
  }
}

TEST(ThreadPoolTest, ReusableAcrossManySmallBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 200; ++i) {
    pool.ParallelFor(7, [&](std::size_t, std::size_t lo, std::size_t hi) {
      total.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

// --- random expressions ---------------------------------------------------------

ExprId RandomExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops) {
  if (ops == 0) {
    return arena->Attr(
        std::string(1, static_cast<char>('A' + rng->Below(num_attrs))));
  }
  int left = static_cast<int>(rng->Below(static_cast<uint64_t>(ops)));
  ExprId l = RandomExpr(arena, rng, num_attrs, left);
  ExprId r = RandomExpr(arena, rng, num_attrs, ops - 1 - left);
  return rng->Chance(1, 2) ? arena->Product(l, r) : arena->Sum(l, r);
}

// --- concurrent const reads ------------------------------------------------------

TEST(ConcurrentReadTest, PreparedEngineServesManyReaderThreads) {
  ExprArena arena;
  std::vector<Pd> e;
  const int n = 32;
  for (int i = 0; i + 1 < n; ++i) {
    e.push_back(Pd::Leq(arena.Attr("A" + std::to_string(i)),
                        arena.Attr("A" + std::to_string(i + 1))));
  }
  PdImplicationEngine engine(&arena, e);
  std::vector<ExprId> attrs;
  for (int i = 0; i < n; ++i) attrs.push_back(arena.Attr("A" + std::to_string(i)));
  engine.Prepare(attrs);

  // LeqInClosure is const: four threads read the same closure with no
  // external synchronization.
  const PdImplicationEngine& shared = engine;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int k = 0; k < 5000; ++k) {
        int i = static_cast<int>(rng.Below(n));
        int j = static_cast<int>(rng.Below(n));
        bool got = shared.LeqInClosure(attrs[i], attrs[j]);
        if (got != (i <= j)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentReadTest, ConstWhitmanIterativeIsShareable) {
  // WhitmanIterative::Leq is const and keeps all state on the caller's
  // stack, so one decider over one const arena serves any number of
  // threads. (WhitmanMemo, by contrast, mutates its memo table and must
  // not be shared without locking — see lattice/whitman.h.)
  ExprArena arena;
  Rng setup_rng(55);
  struct Case {
    ExprId p, q;
    bool expect;
  };
  std::vector<Case> cases;
  WhitmanMemo reference(&arena);
  for (int i = 0; i < 60; ++i) {
    ExprId p = RandomExpr(&arena, &setup_rng, 3, 1 + i % 5);
    ExprId q = RandomExpr(&arena, &setup_rng, 3, 1 + (i + 1) % 5);
    cases.push_back({p, q, reference.Leq(p, q)});
  }
  const WhitmanIterative decider(&arena);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (const Case& c : cases) {
        if (decider.Leq(c.p, c.q) != c.expect) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace psem
