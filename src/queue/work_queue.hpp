// The ADDS ordered work queue: a circular window of priority buckets
// (paper §5.1, §5.4).
//
// A fixed set of K buckets (32 in the paper) forms a circular priority
// window. Logical priority 0 (the head) holds the highest-priority work —
// distances in [base_dist, base_dist + delta) — and logical K-1 (the tail)
// additionally absorbs everything beyond the window (*clipping*). When the
// head bucket drains, the window rotates: the head's physical bucket is
// retired (its blocks recycled) and immediately becomes the new tail.
//
// Concurrency: workers push with a racy read of the window parameters
// (base_dist / delta / position). A stale read can only misplace an item
// into a neighbouring priority — the queue is *approximate* by design — and
// the retirement protocol (CWC == resv_ptr) guarantees no item is ever lost:
// a push that lands in a bucket mid-rotation simply joins the new tail.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "queue/bucket.hpp"

namespace adds {

/// Window parameters shared between the manager (writer) and the worker
/// threads (readers). Fields are individually atomic; readers tolerate
/// mixed-version reads (a misplaced priority, never a safety issue).
struct WindowParams {
  std::atomic<uint64_t> position{0};   // total head advances so far
  std::atomic<double> base_dist{0.0};  // lower distance bound of the head
  std::atomic<double> delta{1.0};      // priority range per bucket
};

class WorkQueue {
 public:
  struct Config {
    uint32_t num_buckets = 32;
    BucketConfig bucket;
  };

  WorkQueue(BlockPool& pool, const Config& cfg);

  uint32_t num_buckets() const noexcept {
    return static_cast<uint32_t>(buckets_.size());
  }

  // ---- Priority mapping (shared with the simulator) -----------------------

  /// Logical bucket for a distance under the given window parameters:
  /// floor((dist - base) / delta) clamped to [0, K-1]. Distances below the
  /// window map to the head; distances beyond it clip to the tail.
  static uint32_t logical_index(double dist, double base, double delta,
                                uint32_t num_buckets) noexcept {
    if (!(dist > base)) return 0;
    const double raw = (dist - base) / delta;
    if (raw >= double(num_buckets - 1)) return num_buckets - 1;  // clipped
    return static_cast<uint32_t>(raw);
  }

  // ---- Worker (writer) side -----------------------------------------------

  /// Returned by push() after request_abort(): the item was dropped, no
  /// slot was reserved, nothing was published.
  static constexpr uint32_t kPushAborted = 0xffffffffu;

  /// Pushes a work item with priority `dist` using a racy snapshot of the
  /// window parameters. Returns the logical index used (for stats/tests).
  /// After request_abort() this is a no-op returning kPushAborted — an
  /// aborted queue is in teardown and must not accept new publications.
  uint32_t push(uint32_t item, double dist) noexcept {
    if (abort_.load(std::memory_order_acquire)) return kPushAborted;
    uint32_t logical = 0;
    target(dist, logical).push(item);
    return logical;
  }

  /// Outcome of a batched push: which logical bucket the batch landed in
  /// and the atomic-op cost actually paid (for write-combining stats).
  struct BatchToken {
    uint32_t logical = 0;      // logical bucket used (tail-clipped)
    uint32_t published = 0;    // items published (0 when the batch dropped)
    uint32_t publish_ops = 0;  // WCC increments performed
    bool reserved = false;     // a resv_ptr fetch-add was issued
    bool declined = false;     // offer_batch only: no capacity, not taken
  };

  /// A push a governed engine's worker could not place (offer_batch
  /// declined it). The worker keeps it until its assignment ends; the
  /// manager then publishes it itself, or spills it at the band `dist`
  /// maps to when the pool has no block left.
  struct DeferredPush {
    uint32_t item = 0;
    double dist = 0.0;
  };

  /// Pushes `count` items that share one priority band in a single
  /// reserve/write/publish round trip (see PushCombiner). The batch is
  /// placed by `dist` under the same racy window snapshot as push(); all
  /// items land in that one bucket, so callers must group items by
  /// priority *before* flushing. After request_abort() this is a no-op
  /// (`published == 0`, `reserved == false`), matching kPushAborted
  /// single-push semantics; a batch dropped mid-flush (abort while waiting
  /// for storage, or an injected fault) reports `reserved` with
  /// `published == 0` — the reservation is abandoned unpublished.
  BatchToken push_batch(const uint32_t* items, uint32_t count,
                        double dist) noexcept {
    BatchToken t;
    if (count == 0) return t;
    if (abort_.load(std::memory_order_acquire)) return t;
    t.reserved = true;
    t.publish_ops = target(dist, t.logical).push_batch(items, count);
    if (t.publish_ops > 0) t.published = count;
    return t;
  }

  /// push_batch for governed engines' workers, on Bucket::offer_batch: a
  /// batch the target bucket cannot cover right now is declined
  /// (`declined`, nothing reserved) instead of parking the writer. The
  /// caller keeps the items and defers them (DeferredPush).
  BatchToken offer_batch(const uint32_t* items, uint32_t count,
                         double dist) noexcept {
    BatchToken t;
    if (count == 0) return t;
    if (abort_.load(std::memory_order_acquire)) return t;
    const uint32_t ops = target(dist, t.logical).offer_batch(items, count);
    if (ops == Bucket::kDeclined) {
      t.declined = true;
      return t;
    }
    t.reserved = true;
    t.publish_ops = ops;
    if (ops > 0) t.published = count;
    return t;
  }

  /// Direct access for engines that computed the bucket themselves.
  Bucket& physical_bucket(uint32_t phys) noexcept { return *buckets_[phys]; }
  const Bucket& physical_bucket(uint32_t phys) const noexcept {
    return *buckets_[phys];
  }

  // ---- Manager side --------------------------------------------------------

  /// Physical bucket currently holding logical priority `logical`.
  Bucket& logical_bucket(uint32_t logical) noexcept {
    return physical(params_.position.load(std::memory_order_relaxed),
                    logical);
  }
  uint32_t logical_to_physical(uint32_t logical) const noexcept {
    return static_cast<uint32_t>(
        (params_.position.load(std::memory_order_relaxed) + logical) %
        buckets_.size());
  }

  double base_dist() const noexcept {
    return params_.base_dist.load(std::memory_order_relaxed);
  }
  double delta() const noexcept {
    return params_.delta.load(std::memory_order_relaxed);
  }
  uint64_t window_position() const noexcept {
    return params_.position.load(std::memory_order_relaxed);
  }

  /// Manager adjusts Δ (dynamic Δ selection). Takes effect for subsequent
  /// pushes; items already queued keep their buckets (the paper accepts the
  /// resulting priority mixing).
  void set_delta(double delta) noexcept {
    ADDS_ASSERT(delta > 0);
    params_.delta.store(delta, std::memory_order_relaxed);
  }

  void set_base_dist(double base) noexcept {
    params_.base_dist.store(base, std::memory_order_relaxed);
  }

  /// True when the head bucket has no pending, in-flight, or unread work.
  bool head_drained() noexcept { return logical_bucket(0).drained(); }

  /// Retires the drained head bucket and rotates the window: the head's
  /// physical bucket becomes the new tail and base_dist advances by delta.
  /// Returns blocks recycled.
  uint32_t advance_window();

  /// Ensures each bucket has at least `slack` writable slots.
  void ensure_capacity_all(uint32_t slack) {
    for (auto& b : buckets_) b->ensure_capacity(slack);
  }

  /// Error-path teardown: unblocks every writer parked in
  /// wait_allocated (their pending items are dropped) and turns every
  /// subsequent push() into a kPushAborted no-op. The per-bucket event
  /// notification makes the wakeup immediate rather than waiting out a
  /// poll quantum. Irreversible; see docs/QUEUE_PROTOCOL.md §"Abort and
  /// teardown".
  void request_abort() noexcept {
    abort_.store(true, std::memory_order_release);
    for (auto& b : buckets_) b->notify_waiters();
  }
  bool aborted() const noexcept {
    return abort_.load(std::memory_order_acquire);
  }

  /// Quiesced-only reuse hook (docs/QUEUE_PROTOCOL.md §"Reset and reuse"):
  /// rewinds the window to position 0 / base 0 / delta 1, resets every
  /// bucket (returning all mapped blocks to the pool) and clears the abort
  /// flag — including after an aborted run, which is otherwise
  /// irreversible. The caller must guarantee no writer or reader thread
  /// touches the queue concurrently; warm engines reset between queries
  /// with every worker idle-parked. Returns blocks freed.
  uint32_t reset() noexcept;
  /// The shared abort flag (for watchdogs and abort-observing fault
  /// delays; the flag outlives every worker by construction).
  const std::atomic<bool>& abort_flag() const noexcept { return abort_; }

  // ---- Whole-queue statistics (manager side) -------------------------------

  /// Items reserved but not yet handed out, across all buckets.
  uint64_t total_pending() const noexcept;
  /// Items handed out but not completed, across all buckets.
  uint64_t total_in_flight() const noexcept;
  /// Pending estimate for one logical bucket.
  uint32_t pending_of(uint32_t logical) noexcept {
    return logical_bucket(logical).pending_estimate();
  }

 private:
  Bucket& physical(uint64_t pos, uint32_t logical) noexcept {
    return *buckets_[(pos + logical) % buckets_.size()];
  }

  /// The bucket a writer's push of `dist` lands in, under a racy snapshot
  /// of the window parameters; the logical index used goes to `logical`.
  Bucket& target(double dist, uint32_t& logical) noexcept {
    const uint64_t pos = params_.position.load(std::memory_order_acquire);
    const double base = params_.base_dist.load(std::memory_order_relaxed);
    const double delta = params_.delta.load(std::memory_order_relaxed);
    logical = logical_index(dist, base, delta, num_buckets());
    return physical(pos, logical);
  }

  std::vector<std::unique_ptr<Bucket>> buckets_;
  WindowParams params_;
  std::atomic<bool> abort_{false};
};

}  // namespace adds
