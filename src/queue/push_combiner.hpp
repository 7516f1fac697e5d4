// Per-worker push write combining — the host analog of the paper's
// warp-aggregated ENQUEUE (§5.2).
//
// On the GPU, threads of a warp that all improved a vertex elect a leader
// that performs one resv_ptr fetch-add for the whole warp; each thread then
// writes its own slot and the leader publishes once. On host threads the
// equivalent contention killer is temporal rather than spatial: a worker
// *stages* improved vertices in small per-logical-bucket lanes and flushes
// a full lane with a single reserve(B) + B plain stores + one WCC
// increment per covered segment (Bucket::push_batch), instead of paying
// two shared-cache-line atomics per item.
//
// Protocol obligations (docs/QUEUE_PROTOCOL.md §"Write combining"):
//
//   * A staged item is invisible to the manager — no reservation exists
//     for it yet. The worker MUST flush_all() before completing the
//     assignment that spawned the items (before Bucket::complete /
//     AssignmentFlag::done), so that "CWC == resv_ptr implies every
//     spawned item is published" keeps holding.
//   * Lanes are keyed by the logical bucket computed at staging time; a
//     flush re-maps the lane through the *current* window parameters
//     (via WorkQueue::push_batch with a representative distance), so a
//     rotation between staging and flushing misplaces the batch by at
//     most the usual racy-snapshot amount — schedule quality, never
//     correctness.
//   * After WorkQueue::request_abort() a flush drops its items, exactly
//     like the single-item kPushAborted no-op; results are being
//     discarded anyway.
//   * With a deferred sink set (governed engines), a flush the target
//     bucket cannot cover is declined and the lane's items go to the sink
//     instead. They are live work that no bucket holds, so they must
//     reach the manager with the assignment's completion (the host engine
//     drains the sink when it harvests the worker's idle flag).
//
// Batched multi-source solves add a lane-binning multisplit on the flush
// path (the host analog of the GPU multisplit primitive): when the query
// carries more than one lane (queue/lane_codec.hpp), a staging lane's
// items are counting-sorted into per-query-lane contiguous segments before
// the batched publish, so a consumer walking the published range relaxes
// runs of same-lane items against one contiguous dist row instead of
// ping-ponging across rows. The split permutes the staged words — it never
// rewrites one: every item leaves the flush with the lane bits it was
// staged with (the no-loss / no-cross-contamination invariant the
// combiner.lane-split fault site exists to attack).
//
// Not thread-safe: one combiner per worker thread, by design.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "queue/lane_codec.hpp"
#include "queue/work_queue.hpp"
#include "util/fault.hpp"

namespace adds {

/// Write-combining accounting, merged into WorkStats by the host engine.
struct CombinerStats {
  uint64_t staged = 0;         // items handed to push()
  uint64_t flushes = 0;        // batch publications attempted
  uint64_t flushed_items = 0;  // items actually published
  uint64_t dropped = 0;        // items lost to abort/fault drops
  uint64_t reserve_ops = 0;    // resv_ptr fetch-adds issued
  uint64_t publish_ops = 0;    // WCC fetch-adds issued
  uint64_t lane_splits = 0;    // multisplit passes (batched queries only)
  uint64_t deferred = 0;       // items declined by offer_batch, deferred
};

class PushCombiner {
 public:
  /// One lane per logical bucket of `queue`, each holding up to
  /// `lane_capacity` staged items before it auto-flushes.
  /// `query_lanes` > 1 turns on the lane-binning multisplit at flush time
  /// (items carry lane bits per queue/lane_codec.hpp).
  explicit PushCombiner(WorkQueue& queue, uint32_t lane_capacity = 64,
                        uint32_t query_lanes = 1)
      : queue_(queue),
        capacity_(std::max(1u, lane_capacity)),
        query_lanes_(std::min(std::max(1u, query_lanes), kMaxLanes)),
        lanes_(queue.num_buckets()) {
    for (Lane& lane : lanes_) lane.items.resize(capacity_);
    if (query_lanes_ > 1) scratch_.resize(capacity_);
  }

  uint32_t lane_capacity() const noexcept { return capacity_; }
  uint32_t query_lanes() const noexcept { return query_lanes_; }

  /// Non-blocking flushes (governed engines): with a sink set, a flush
  /// goes through WorkQueue::offer_batch and a declined lane is appended
  /// to `sink` (each item with the lane's representative distance)
  /// instead of parking on capacity. nullptr restores blocking flushes.
  void set_deferred_sink(std::vector<WorkQueue::DeferredPush>* sink) noexcept {
    sink_ = sink;
  }

  /// Stages one item under the current window snapshot; flushes the lane
  /// when it reaches capacity.
  void push(uint32_t item, double dist) {
    const uint32_t logical = WorkQueue::logical_index(
        dist, queue_.base_dist(), queue_.delta(), queue_.num_buckets());
    Lane& lane = lanes_[logical];
    if (lane.count == 0) lane.rep_dist = dist;
    lane.items[lane.count++] = item;
    ++stats_.staged;
    if (lane.count >= capacity_) flush_lane(logical);
  }

  /// Mandatory flush point: publishes every staged item. Must run before
  /// the worker's CWC increment for the assignment that spawned them.
  void flush_all() {
    for (uint32_t l = 0; l < lanes_.size(); ++l) flush_lane(l);
  }

  /// Staged items not yet flushed (all lanes).
  uint32_t staged_pending() const noexcept {
    uint32_t n = 0;
    for (const Lane& lane : lanes_) n += lane.count;
    return n;
  }

  const CombinerStats& stats() const noexcept { return stats_; }

  /// Returns the accumulated counters and zeroes them. Warm engines merge
  /// combiner stats into the per-worker WorkStats after every assignment's
  /// flush_all(), so a combiner that outlives one query never leaks counts
  /// into the next query's accounting.
  CombinerStats take_stats() noexcept {
    CombinerStats s = stats_;
    stats_ = CombinerStats{};
    return s;
  }

  /// The queue the lanes publish into (warm engines re-create the combiner
  /// when the engine rebuilds its queue for a larger graph).
  const WorkQueue* queue() const noexcept { return &queue_; }

 private:
  struct Lane {
    std::vector<uint32_t> items;  // fixed capacity_, first `count` valid
    uint32_t count = 0;
    double rep_dist = 0.0;  // distance of the first staged item
  };

  /// Counting-sort multisplit: permutes `lane`'s first `count` items into
  /// per-query-lane contiguous segments (stable within a segment). The
  /// injected lane-split stall lands between the histogram and the
  /// scatter — the widest window in which a preemption could observe the
  /// half-built permutation — and observes the queue's abort flag so a
  /// chaos stall never out-waits a watchdog.
  void multisplit(Lane& lane) {
    uint32_t counts[kMaxLanes] = {0};
    for (uint32_t i = 0; i < lane.count; ++i)
      ++counts[lane_of(lane.items[i])];
    fault::delay(fault::Site::kLaneSplit, &queue_.abort_flag());
    uint32_t offsets[kMaxLanes];
    uint32_t running = 0;
    for (uint32_t l = 0; l < kMaxLanes; ++l) {
      offsets[l] = running;
      running += counts[l];
    }
    for (uint32_t i = 0; i < lane.count; ++i)
      scratch_[offsets[lane_of(lane.items[i])]++] = lane.items[i];
    lane.items.swap(scratch_);
    ++stats_.lane_splits;
  }

  void flush_lane(uint32_t logical) {
    Lane& lane = lanes_[logical];
    if (lane.count == 0) return;
    if (query_lanes_ > 1 && lane.count > 1) multisplit(lane);
    const WorkQueue::BatchToken t =
        sink_ != nullptr
            ? queue_.offer_batch(lane.items.data(), lane.count, lane.rep_dist)
            : queue_.push_batch(lane.items.data(), lane.count, lane.rep_dist);
    if (t.declined) {
      for (uint32_t i = 0; i < lane.count; ++i)
        sink_->push_back({lane.items[i], lane.rep_dist});
      stats_.deferred += lane.count;
      lane.count = 0;
      return;
    }
    ++stats_.flushes;
    stats_.reserve_ops += t.reserved ? 1 : 0;
    stats_.publish_ops += t.publish_ops;
    stats_.flushed_items += t.published;
    stats_.dropped += lane.count - t.published;
    lane.count = 0;
  }

  WorkQueue& queue_;
  const uint32_t capacity_;
  const uint32_t query_lanes_;
  std::vector<Lane> lanes_;
  std::vector<uint32_t> scratch_;  // multisplit scatter target
  std::vector<WorkQueue::DeferredPush>* sink_ = nullptr;
  CombinerStats stats_;
};

}  // namespace adds
