// Single-threaded Bucket protocol tests: reservation, publication, the
// manager's segment scan (WCC == N and partial-segment resv comparison),
// completion/retirement, block recycling, and 32-bit index wrap-around.
#include <gtest/gtest.h>

#include <vector>

#include "queue/bucket.hpp"
#include "queue/wrap.hpp"

namespace adds {
namespace {

constexpr uint32_t kBlockWords = 64;

BucketConfig small_cfg() {
  BucketConfig cfg;
  cfg.segment_words = 8;
  cfg.table_size = 4;  // capacity window: 4 * 64 = 256 items
  return cfg;
}

TEST(Wrap, OrderingAcrossOverflow) {
  EXPECT_TRUE(wrap_lt(0xfffffff0u, 0x10u));
  EXPECT_FALSE(wrap_lt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(wrap_le(5u, 5u));
  EXPECT_EQ(wrap_distance(0xfffffffeu, 2u), 4u);
}

TEST(Bucket, PushThenScanExposesItems) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 10; ++i) b.push(100 + i);
  const uint32_t bound = b.scan_written_bound();
  EXPECT_EQ(bound, 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(b.read_item(i), 100 + i);
}

TEST(Bucket, ScanHandlesExactlyFullSegments) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(64);
  for (uint32_t i = 0; i < 16; ++i) b.push(i);  // exactly 2 segments of 8
  EXPECT_EQ(b.scan_written_bound(), 16u);
}

TEST(Bucket, ScanStopsAtUnwrittenHole) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  // Reserve 10 slots but publish only slots 0..4 and 6..9: slot 5 is a hole.
  const uint32_t start = b.reserve(10);
  ASSERT_EQ(start, 0u);
  ASSERT_TRUE(b.wait_allocated(10));
  for (uint32_t i = 0; i < 10; ++i) {
    if (i == 5) continue;
    b.write(i, i);
  }
  b.publish(0, 5);
  b.publish(6, 4);
  // Segment 0 covers 0..7 with WCC == 7 != 8, and 0 + 7 != resv (10), so
  // nothing in segment 0 can be trusted beyond read_ptr.
  EXPECT_EQ(b.scan_written_bound(), 0u);
  // Filling the hole completes the first segment (WCC == 8) and makes the
  // partial second segment provable via WCC + base == resv.
  b.write(5, 5);
  b.publish(5, 1);
  EXPECT_EQ(b.scan_written_bound(), 10u);
}

TEST(Bucket, PartialSegmentProvableViaResvComparison) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 3; ++i) b.push(i);  // 3 of 8 slots in segment 0
  // WCC == 3, seg_base(0) + 3 == resv(3): provably fully written.
  EXPECT_EQ(b.scan_written_bound(), 3u);
}

TEST(Bucket, ScanFromMidSegmentReadPtr) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 5; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  EXPECT_EQ(b.read_ptr(), 5u);
  for (uint32_t i = 5; i < 12; ++i) b.push(i);
  EXPECT_EQ(b.scan_written_bound(), 12u);
}

TEST(Bucket, DrainedRequiresCompletion) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  EXPECT_TRUE(b.drained());  // empty bucket is drained
  b.push(7);
  EXPECT_FALSE(b.drained());  // written but not read
  b.advance_read(b.scan_written_bound());
  EXPECT_FALSE(b.drained());  // read but not completed
  b.complete(1);
  EXPECT_TRUE(b.drained());
}

TEST(Bucket, PendingAndInFlightEstimates) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 6; ++i) b.push(i);
  EXPECT_EQ(b.pending_estimate(), 6u);
  EXPECT_EQ(b.in_flight_estimate(), 0u);
  b.advance_read(b.scan_written_bound());
  EXPECT_EQ(b.pending_estimate(), 0u);
  EXPECT_EQ(b.in_flight_estimate(), 6u);
  b.complete(6);
  EXPECT_EQ(b.in_flight_estimate(), 0u);
}

TEST(Bucket, RetireRecyclesWholeConsumedBlocks) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(3 * kBlockWords);
  const uint32_t mapped_before = b.mapped_blocks();
  ASSERT_GE(mapped_before, 3u);
  // Consume 2.5 blocks worth of items.
  const uint32_t n = kBlockWords * 2 + kBlockWords / 2;
  for (uint32_t i = 0; i < n; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  b.complete(n);
  ASSERT_TRUE(b.drained());
  const uint32_t freed = b.retire();
  EXPECT_EQ(freed, 2u);  // two whole blocks below read_ptr
  EXPECT_EQ(b.mapped_blocks(), mapped_before - 2);
}

TEST(Bucket, CapacityBoundedByTranslationTable) {
  BlockPool pool(64, kBlockWords);
  Bucket b(pool, small_cfg());  // table_size 4 -> at most 4 live blocks
  b.ensure_capacity(100 * kBlockWords);
  EXPECT_EQ(b.mapped_blocks(), 4u);
  // Consuming and retiring lets the window move forward again.
  for (uint32_t i = 0; i < 4 * kBlockWords; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  b.complete(4 * kBlockWords);
  b.retire();
  const uint32_t mapped = b.ensure_capacity(2 * kBlockWords);
  EXPECT_GT(mapped, 0u);
}

TEST(Bucket, ScanNeverPassesAllocLimitWhenWritersStarved) {
  // WCC slots alias with a period of one translation window
  // (table_size * block_words slots). With every mapped block full, the
  // first segment at alloc_limit shares its WCC with the full segment at
  // index 0, which still reads N. A writer that reserves past alloc_limit
  // (and would park in wait_allocated) must not let the scan walk into
  // that unmapped segment on the stale count.
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(4 * kBlockWords);
  ASSERT_EQ(b.mapped_blocks(), 4u);
  for (uint32_t i = 0; i < 4 * kBlockWords; ++i) b.push(i);
  b.reserve(1);  // starved: resv_ptr = alloc_limit + 1
  EXPECT_TRUE(b.writers_starved());
  EXPECT_EQ(b.scan_written_bound(), 4 * kBlockWords);
}

TEST(Bucket, OfferBatchDeclinesWithoutReserving) {
  // The governed engines' non-blocking push: a batch the mapped capacity
  // covers is published like push_batch; one it does not cover is declined
  // with no reservation, so the writer never parks and resv_ptr never runs
  // past alloc_limit.
  BlockPool pool(1, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(kBlockWords);
  ASSERT_EQ(b.mapped_blocks(), 1u);
  std::vector<uint32_t> items(kBlockWords);
  for (uint32_t i = 0; i < kBlockWords; ++i) items[i] = 100 + i;

  EXPECT_GT(b.offer_batch(items.data(), kBlockWords - 4), 0u);
  EXPECT_EQ(b.offer_batch(items.data(), 5), Bucket::kDeclined);
  EXPECT_EQ(b.resv_ptr_relaxed(), kBlockWords - 4);
  EXPECT_FALSE(b.writers_starved());
  EXPECT_GT(b.offer_batch(items.data() + kBlockWords - 4, 4), 0u);
  EXPECT_EQ(b.offer_batch(items.data(), 1), Bucket::kDeclined);
  EXPECT_EQ(b.resv_ptr_relaxed(), kBlockWords);

  ASSERT_EQ(b.scan_written_bound(), kBlockWords);
  for (uint32_t i = 0; i < kBlockWords; ++i)
    EXPECT_EQ(b.read_item(i), 100 + i);
}

TEST(Bucket, IndexWrapAroundPreservesFifo) {
  // Cycle far beyond the table window to exercise block recycling and index
  // wrap of WCC slots. 50 rounds x 192 items over a 256-item window.
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  uint32_t next_value = 0, next_expected = 0;
  for (int round = 0; round < 50; ++round) {
    b.ensure_capacity(3 * kBlockWords);
    const uint32_t n = 3 * kBlockWords;
    for (uint32_t i = 0; i < n; ++i) b.push(next_value++);
    const uint32_t bound = b.scan_written_bound();
    for (uint32_t idx = b.read_ptr(); wrap_lt(idx, bound); ++idx)
      ASSERT_EQ(b.read_item(idx), next_expected++);
    b.advance_read(bound);
    b.complete(n);
    ASSERT_TRUE(b.drained());
    b.retire();
  }
  EXPECT_EQ(next_expected, 50u * 3 * kBlockWords);
}

TEST(Bucket, BatchedReservePublish) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(64);
  const uint32_t start = b.reserve(20);
  ASSERT_TRUE(b.wait_allocated(start + 20));
  for (uint32_t i = 0; i < 20; ++i) b.write(start + i, 1000 + i);
  b.publish(start, 20);  // spans 3 segments
  EXPECT_EQ(b.scan_written_bound(), 20u);
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(b.read_item(i), 1000 + i);
}

TEST(Bucket, ConfigValidation) {
  BlockPool pool(4, kBlockWords);
  BucketConfig bad;
  bad.segment_words = 7;  // not a power of two
  EXPECT_THROW(Bucket(pool, bad), Error);
  bad.segment_words = 128;  // larger than block
  EXPECT_THROW(Bucket(pool, bad), Error);
  BucketConfig bad_table;
  bad_table.segment_words = 8;
  bad_table.table_size = 3;
  EXPECT_THROW(Bucket(pool, bad_table), Error);
}

TEST(Bucket, DestructorReturnsBlocksToPool) {
  BlockPool pool(8, kBlockWords);
  {
    Bucket b(pool, small_cfg());
    b.ensure_capacity(3 * kBlockWords);
    EXPECT_LT(pool.free_blocks(), 8u);
  }
  EXPECT_EQ(pool.free_blocks(), 8u);
}

}  // namespace
}  // namespace adds
