// PushCombiner tests: staging/flush mechanics, the protocol flush points,
// drop-on-abort semantics, fault injection inside the batch flush path, and
// a multi-writer stress across window-rotation boundaries (no staged item
// may ever be lost or duplicated by a flush racing a rotation).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "queue/lane_codec.hpp"
#include "queue/push_combiner.hpp"
#include "queue/work_queue.hpp"
#include "queue/wrap.hpp"
#include "util/fault.hpp"

namespace adds {
namespace {

WorkQueue::Config small_cfg(uint32_t buckets = 4) {
  WorkQueue::Config cfg;
  cfg.num_buckets = buckets;
  cfg.bucket.segment_words = 8;
  cfg.bucket.table_size = 4;
  return cfg;
}

TEST(PushCombiner, StagesWithoutPublishingUntilCapacity) {
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(32);

  PushCombiner comb(q, 4);
  comb.push(1, 5.0);
  comb.push(2, 5.0);
  comb.push(3, 5.0);
  // Staged items are invisible to the manager: no reservation yet.
  EXPECT_EQ(q.total_pending(), 0u);
  EXPECT_EQ(comb.staged_pending(), 3u);
  EXPECT_EQ(comb.stats().flushes, 0u);

  comb.push(4, 5.0);  // lane hits capacity: one batched publication
  EXPECT_EQ(comb.staged_pending(), 0u);
  EXPECT_EQ(q.pending_of(0), 4u);
  EXPECT_EQ(comb.stats().flushes, 1u);
  EXPECT_EQ(comb.stats().flushed_items, 4u);
  EXPECT_EQ(comb.stats().reserve_ops, 1u);
  // Four items inside one 8-word segment: exactly one WCC increment.
  EXPECT_EQ(comb.stats().publish_ops, 1u);
}

TEST(PushCombiner, FlushAllDrainsEveryLane) {
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(32);

  PushCombiner comb(q, 64);
  comb.push(1, 5.0);    // logical 0
  comb.push(2, 15.0);   // logical 1
  comb.push(3, 25.0);   // logical 2
  comb.push(4, 999.0);  // clipped to tail
  EXPECT_EQ(q.total_pending(), 0u);
  comb.flush_all();
  EXPECT_EQ(comb.staged_pending(), 0u);
  EXPECT_EQ(q.pending_of(0), 1u);
  EXPECT_EQ(q.pending_of(1), 1u);
  EXPECT_EQ(q.pending_of(2), 1u);
  EXPECT_EQ(q.pending_of(3), 1u);
  EXPECT_EQ(comb.stats().flushed_items, 4u);
  EXPECT_EQ(comb.stats().dropped, 0u);
}

TEST(PushCombiner, AbortDropsStagedItems) {
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(32);

  PushCombiner comb(q, 64);
  comb.push(1, 5.0);
  comb.push(2, 15.0);
  q.request_abort();
  comb.flush_all();
  // Same semantics as the single-item kPushAborted no-op: nothing was
  // reserved or published, the items are gone.
  EXPECT_EQ(comb.stats().dropped, 2u);
  EXPECT_EQ(comb.stats().flushed_items, 0u);
  EXPECT_EQ(comb.stats().reserve_ops, 0u);
  EXPECT_EQ(q.total_pending(), 0u);
}

TEST(PushCombiner, DeferredSinkTakesLanesTheQueueCannotCover) {
  // Governed engines' workers flush through offer_batch: a lane whose
  // bucket has room publishes as usual; a lane whose bucket has no mapped
  // capacity goes to the sink, with nothing reserved and nothing lost.
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.logical_bucket(0).ensure_capacity(32);  // logical 1 stays unmapped

  std::vector<WorkQueue::DeferredPush> sink;
  PushCombiner comb(q, 64);
  comb.set_deferred_sink(&sink);
  comb.push(1, 5.0);   // logical 0
  comb.push(2, 15.0);  // logical 1
  comb.push(3, 16.0);  // logical 1
  comb.flush_all();

  EXPECT_EQ(q.pending_of(0), 1u);
  EXPECT_EQ(q.logical_bucket(1).resv_ptr_relaxed(), 0u);
  EXPECT_FALSE(q.logical_bucket(1).writers_starved());
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].item, 2u);
  EXPECT_EQ(sink[1].item, 3u);
  EXPECT_EQ(sink[0].dist, 15.0);  // the lane's representative distance
  EXPECT_EQ(comb.stats().deferred, 2u);
  EXPECT_EQ(comb.stats().flushed_items, 1u);
  EXPECT_EQ(comb.stats().dropped, 0u);
  EXPECT_EQ(comb.staged_pending(), 0u);
}

TEST(PushCombiner, DroppedBatchPublicationWedgesScanLikeCrashedWriter) {
  // `push.drop-before-publish` firing inside a batch flush must abandon
  // the whole reservation unpublished: the manager's segment scan wedges
  // at the hole exactly as if the writer crashed mid-batch, and later
  // publications behind the hole stay unexposed (watchdog territory, see
  // fault_matrix_test for end-to-end recovery).
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(64);

  fault::FaultPlan plan(3);
  plan.set(fault::Site::kPushDropBeforePublish, {1.0, 1, 0});  // first only
  fault::FaultScope scope(plan);

  PushCombiner comb(q, 8);
  for (uint32_t i = 0; i < 8; ++i) comb.push(i, 5.0);  // auto flush: dropped
  EXPECT_EQ(plan.fires(fault::Site::kPushDropBeforePublish), 1u);
  EXPECT_EQ(comb.stats().dropped, 8u);
  Bucket& head = q.logical_bucket(0);
  // The reservation exists (pending grew) but nothing is readable.
  EXPECT_EQ(head.pending_estimate(), 8u);
  EXPECT_EQ(head.scan_written_bound(), head.read_ptr());

  // A healthy batch behind the hole publishes but remains unreadable.
  for (uint32_t i = 0; i < 8; ++i) comb.push(100 + i, 5.0);
  EXPECT_EQ(comb.stats().flushed_items, 8u);
  EXPECT_EQ(head.pending_estimate(), 16u);
  EXPECT_EQ(head.scan_written_bound(), head.read_ptr());
  EXPECT_FALSE(head.drained());
}

TEST(PushCombiner, InjectedDelayFiresInsideBatchFlush) {
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(64);

  fault::FaultPlan plan(5);
  plan.set(fault::Site::kPushDelay, {1.0, ~0ull, 10});
  fault::FaultScope scope(plan);

  PushCombiner comb(q, 4);
  for (uint32_t i = 0; i < 4; ++i) comb.push(i, 5.0);
  EXPECT_GE(plan.fires(fault::Site::kPushDelay), 1u);
  // The delayed batch still publishes completely.
  EXPECT_EQ(q.logical_bucket(0).scan_written_bound(),
            q.logical_bucket(0).read_ptr() + 4u);
}

TEST(PushCombiner, MultisplitBinsLanesContiguouslyAndLosesNothing) {
  // Batched queries: a flushed staging lane must leave with its items
  // counting-sorted into per-query-lane contiguous segments, with every
  // item's lane bits exactly as staged.
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(64);

  PushCombiner comb(q, 64, /*query_lanes=*/4);
  EXPECT_EQ(comb.query_lanes(), 4u);
  std::vector<uint32_t> pushed;
  for (uint32_t i = 0; i < 32; ++i) {
    const uint32_t item = lane_encode(i % 4, 1000 + i);
    pushed.push_back(item);
    comb.push(item, 5.0);  // one logical bucket: one staging lane
  }
  comb.flush_all();
  EXPECT_EQ(comb.stats().lane_splits, 1u);
  EXPECT_EQ(comb.stats().flushed_items, 32u);
  EXPECT_EQ(comb.stats().dropped, 0u);

  Bucket& head = q.logical_bucket(0);
  const uint32_t start = head.read_ptr();
  ASSERT_EQ(head.scan_written_bound() - start, 32u);
  std::vector<uint32_t> seen;
  for (uint32_t i = 0; i < 32; ++i) seen.push_back(head.read_item(start + i));
  // Per-lane contiguous: lane ids are non-decreasing across the batch.
  for (uint32_t i = 1; i < 32; ++i)
    EXPECT_LE(lane_of(seen[i - 1]), lane_of(seen[i])) << "position " << i;
  // No loss, no duplication, no bit rewrites: same multiset.
  std::sort(pushed.begin(), pushed.end());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(pushed, seen);
}

TEST(PushCombiner, SingleQueryLaneNeverSplits) {
  // The classic single-source configuration must not pay (or count) any
  // multisplit work, whatever bit patterns the items carry.
  BlockPool pool(32, 64);
  WorkQueue q(pool, small_cfg());
  q.set_delta(10.0);
  q.ensure_capacity_all(64);

  PushCombiner comb(q, 8);
  for (uint32_t i = 0; i < 16; ++i) comb.push(0xF0000000u | i, 5.0);
  comb.flush_all();
  EXPECT_EQ(comb.stats().lane_splits, 0u);
  EXPECT_EQ(comb.stats().flushed_items, 16u);
}

TEST(PushCombiner, WedgedLaneSplitLosesNoLaneAndCrossesNone) {
  // A writer stalled mid-multisplit (between histogram and scatter) while
  // the manager rotates the window underneath: every item must still be
  // observed exactly once WITH the lane bits it was staged with. Losing an
  // item starves a query lane; rewriting lane bits leaks one query's
  // relaxation into another's distance row — both are protocol violations,
  // not schedule noise.
  constexpr uint32_t kWriters = 4;  // writer w pushes only lane-w items
  constexpr uint32_t kPerWriter = 2000;
  constexpr uint32_t kTotal = kWriters * kPerWriter;

  BlockPool pool(64, 256);
  WorkQueue::Config cfg;
  cfg.num_buckets = 4;
  cfg.bucket.segment_words = 16;
  cfg.bucket.table_size = 8;
  WorkQueue q(pool, cfg);
  q.set_delta(50.0);
  q.ensure_capacity_all(512);

  fault::FaultPlan plan(9);
  plan.set(fault::Site::kLaneSplit, {0.25, ~0ull, 300});
  fault::FaultScope scope(plan);

  std::vector<uint32_t> seen(kTotal, 0);
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      PushCombiner comb(q, 16, /*query_lanes=*/kWriters);
      for (uint32_t i = 0; i < kPerWriter; ++i) {
        const uint32_t node = w * kPerWriter + i;
        comb.push(lane_encode(w, node), double(i % 400));
        if ((i & 255) == 0) std::this_thread::yield();
      }
      comb.flush_all();
      EXPECT_EQ(comb.stats().dropped, 0u);
      EXPECT_EQ(comb.stats().flushed_items, uint64_t(kPerWriter));
      EXPECT_GT(comb.stats().lane_splits, 0u);
    });
  }

  std::thread manager([&] {
    uint64_t consumed = 0;
    while (true) {
      q.ensure_capacity_all(512);
      for (uint32_t logical = 0; logical < cfg.num_buckets; ++logical) {
        Bucket& b = q.logical_bucket(logical);
        const uint32_t bound = b.scan_written_bound();
        uint32_t count = 0;
        for (uint32_t idx = b.read_ptr(); wrap_lt(idx, bound); ++idx) {
          const uint32_t item = b.read_item(idx);
          const uint32_t node = node_of(item);
          ASSERT_LT(node, kTotal);
          // Lane bits must match the writer that owns this node range:
          // a mismatch means the split crossed lanes.
          ASSERT_EQ(lane_of(item), node / kPerWriter) << "node " << node;
          ++seen[node];
          ++count;
        }
        if (count > 0) {
          b.advance_read(bound);
          b.complete(count);
          consumed += count;
        }
        b.recycle_below(b.read_ptr());
      }
      if (q.head_drained() && q.total_pending() + q.total_in_flight() > 0)
        q.advance_window();
      if (writers_done.load(std::memory_order_acquire) &&
          consumed >= kTotal && q.total_pending() == 0)
        break;
      std::this_thread::yield();
    }
  });

  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  manager.join();

  EXPECT_GT(plan.fires(fault::Site::kLaneSplit), 0u);
  for (size_t v = 0; v < seen.size(); ++v)
    ASSERT_EQ(seen[v], 1u) << "node " << v << " seen " << seen[v] << " times";
}

TEST(PushCombiner, RotationBoundaryStressLosesNothing) {
  // Writers combine pushes across the whole priority range while a manager
  // thread consumes and rotates the window as heads drain. Every pushed
  // value must be observed exactly once: a flush racing a rotation may
  // misplace a batch by a priority band, never lose or duplicate it.
  constexpr uint32_t kWriters = 4;
  constexpr uint32_t kPerWriter = 20000;
  constexpr uint32_t kTotal = kWriters * kPerWriter;

  BlockPool pool(64, 256);
  WorkQueue::Config cfg;
  cfg.num_buckets = 4;
  cfg.bucket.segment_words = 16;
  cfg.bucket.table_size = 8;  // 2048-item window: wrap + recycling pressure
  WorkQueue q(pool, cfg);
  q.set_delta(50.0);
  q.ensure_capacity_all(512);

  std::vector<uint32_t> seen(kTotal, 0);
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      PushCombiner comb(q, 16);
      for (uint32_t i = 0; i < kPerWriter; ++i) {
        const uint32_t value = w * kPerWriter + i;
        // Distances sweep upward so work spreads over all buckets and the
        // manager keeps rotating underneath the combiner.
        comb.push(value, double(i % 400));
        if ((i & 255) == 0) std::this_thread::yield();
      }
      comb.flush_all();
      EXPECT_EQ(comb.stats().dropped, 0u);
      EXPECT_EQ(comb.stats().staged, uint64_t(kPerWriter));
      EXPECT_EQ(comb.stats().flushed_items, uint64_t(kPerWriter));
    });
  }

  std::thread manager([&] {
    uint64_t consumed = 0;
    while (true) {
      q.ensure_capacity_all(512);
      // Consume from every logical bucket (completion == consumption here,
      // so read_ptr is also the completion frontier).
      for (uint32_t logical = 0; logical < cfg.num_buckets; ++logical) {
        Bucket& b = q.logical_bucket(logical);
        const uint32_t bound = b.scan_written_bound();
        uint32_t count = 0;
        for (uint32_t idx = b.read_ptr(); wrap_lt(idx, bound); ++idx) {
          const uint32_t v = b.read_item(idx);
          ASSERT_LT(v, kTotal);
          ++seen[v];
          ++count;
        }
        if (count > 0) {
          b.advance_read(bound);
          b.complete(count);
          consumed += count;
        }
        b.recycle_below(b.read_ptr());
      }
      // Rotate whenever the head is drained; the window keeps sliding
      // under the writers' racy snapshots.
      if (q.head_drained() && q.total_pending() + q.total_in_flight() > 0)
        q.advance_window();
      if (writers_done.load(std::memory_order_acquire) &&
          consumed >= kTotal && q.total_pending() == 0)
        break;
      std::this_thread::yield();
    }
  });

  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  manager.join();

  for (size_t v = 0; v < seen.size(); ++v)
    ASSERT_EQ(seen[v], 1u) << "value " << v << " seen " << seen[v]
                           << " times";
}

}  // namespace
}  // namespace adds
