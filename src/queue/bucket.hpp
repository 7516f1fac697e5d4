// One bucket of the ADDS work queue (paper §5.2–§5.4).
//
// A bucket is a circular FIFO of 32-bit work items addressed by a wrapping
// 32-bit index whose high bits select a block (through a translation table
// maintained by the manager) and whose low bits are an offset into that
// block. Concurrency contract — the heart of the paper's SRMW design:
//
//   * MANY writer threads (WTBs) add work: an atomic fetch-add on
//     `resv_ptr` hands each writer a private slot; the writer stores the
//     item and *publishes* it by incrementing the Write-Completed Counter
//     (WCC) of the N-word segment the slot belongs to (release ordering).
//   * ONE manager thread (MTB) reads: it never touches items directly from
//     racing writers; it walks segment WCCs from `read_ptr` up to
//     min(resv_ptr, alloc_limit) to compute a bound below which every slot
//     is known fully written (a segment with WCC == N is complete; a
//     partial segment is complete exactly when segment_base + WCC ==
//     resv_ptr re-read after a fence), then hands [read_ptr, bound) ranges
//     out to workers. WCC slots alias with a period of one translation
//     window (table_size * block_words slots) and are zeroed only when the
//     block holding them is mapped, so a counter at or above alloc_limit
//     may still hold the count of the segment one window earlier. While
//     writers are starved resv_ptr exceeds alloc_limit, hence the scan
//     never walks past alloc_limit.
//   * Writers never wait for each other; writers wait for the manager only
//     when storage has not been allocated ahead of them (back-pressure).
//     offer_batch() writers decline instead of waiting (governed engines).
//   * A Completed-Work Counter (CWC) counts items whose processing has
//     finished; the bucket is retire-able when CWC == resv_ptr (re-checked
//     after a fence) and everything written has been read.
//
// All memory management (mapping blocks into the translation table,
// recycling consumed blocks at retirement) is performed by the manager, as
// in the paper.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "queue/block_pool.hpp"
#include "queue/wrap.hpp"
#include "util/error.hpp"
#include "util/event.hpp"
#include "util/fault.hpp"

namespace adds {

struct BucketConfig {
  uint32_t segment_words = 32;  // N: words covered by one WCC
  uint32_t table_size = 256;    // translation table slots (power of two)
};

class Bucket {
 public:
  /// The pool must outlive the bucket. segment_words and table_size must be
  /// powers of two, with segment_words <= pool.block_words().
  Bucket(BlockPool& pool, const BucketConfig& cfg);
  ~Bucket();

  Bucket(const Bucket&) = delete;
  Bucket& operator=(const Bucket&) = delete;

  // ---- Writer (WTB) side — callable from any thread ----------------------

  /// Reserves `count` consecutive slots; returns the first index. Writers
  /// must then wait_allocated(start + count), write each slot, and publish.
  uint32_t reserve(uint32_t count) noexcept {
    return resv_ptr_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Waits until storage for indices < `end` has been mapped by the
  /// manager. Returns false if the queue was aborted while waiting (the
  /// caller must then drop its write — results are being discarded
  /// anyway). Blocked writers park on the bucket's capacity event:
  /// `ensure_capacity` and `notify_waiters` (the abort path) wake them in
  /// microseconds; the event's safety tick still bounds reaction latency
  /// when the abort flag is flipped without a notify.
  ///
  /// The coverage check loads alloc_limit_ seq_cst (free on mainstream
  /// ISAs): it is one side of the shrink_capacity handshake — see there.
  [[nodiscard]] bool wait_allocated(uint32_t end) const noexcept {
    if (!wrap_lt(alloc_limit_.load(std::memory_order_seq_cst), end))
      return true;
    bool aborted = false;
    capacity_event_.await([&]() noexcept {
      if (abort_flag_ != nullptr &&
          abort_flag_->load(std::memory_order_acquire)) {
        aborted = true;
        return true;
      }
      return !wrap_lt(alloc_limit_.load(std::memory_order_acquire), end);
    });
    return !aborted;
  }

  /// Wakes writers parked in wait_allocated so they re-check their
  /// predicate. Called by ensure_capacity after mapping and by the owner
  /// (WorkQueue) after setting the abort flag.
  void notify_waiters() const noexcept { capacity_event_.notify_all(); }

  /// Wires the shared abort flag (set by WorkQueue) that unblocks writers
  /// when the manager tears the queue down on an error path.
  void set_abort_flag(const std::atomic<bool>* flag) noexcept {
    abort_flag_ = flag;
  }

  /// Stores one item into a reserved slot (no ordering; publish() orders).
  void write(uint32_t idx, uint32_t item) noexcept {
    *slot_ptr(idx) = item;
  }

  /// Publishes `count` consecutive writes starting at `start`: one WCC
  /// increment per covered segment, release-ordered after the stores.
  /// Returns the number of WCC increments performed (the batch path's
  /// atomic-op accounting; a single-item push always returns 1).
  uint32_t publish(uint32_t start, uint32_t count) noexcept;

  /// reserve + wait + write + publish for a single item. On abort the item
  /// is dropped (a reserved-but-never-published slot; the scan will treat
  /// the segment as incomplete, which no longer matters once aborted).
  ///
  /// Fault sites (no-ops unless a FaultPlan is armed — util/fault.hpp):
  /// `push.drop-before-publish` loses the reservation without publishing,
  /// wedging the segment scan exactly like a crashed writer; `push.delay`
  /// widens the write→publish window to stress the partial-segment scan.
  void push(uint32_t item) noexcept {
    const uint32_t idx = reserve(1);
    if (!wait_allocated(idx + 1)) return;
    if (fault::fire(fault::Site::kPushDropBeforePublish)) return;
    write(idx, item);
    fault::delay(fault::Site::kPushDelay, abort_flag_);
    publish(idx, 1);
  }

  /// Batched push: one reserve(count) + `count` plain stores + one
  /// publish() covering every touched segment — the write-combined
  /// counterpart of push() (the CPU analog of the paper's warp-aggregated
  /// ENQUEUE). Returns the number of WCC increments performed, or 0 when
  /// the whole batch was dropped: either the queue aborted while waiting
  /// for storage, or `push.drop-before-publish` fired, which abandons the
  /// *entire* reservation unpublished — wedging the segment scan exactly
  /// like a writer that crashed mid-batch. `push.delay` widens the
  /// write→publish window for the whole batch at once.
  uint32_t push_batch(const uint32_t* items, uint32_t count) noexcept {
    if (count == 0) return 0;
    const uint32_t start = reserve(count);
    if (!wait_allocated(start + count)) return 0;
    if (fault::fire(fault::Site::kPushDropBeforePublish)) return 0;
    for (uint32_t i = 0; i < count; ++i) write(start + i, items[i]);
    fault::delay(fault::Site::kPushDelay, abort_flag_);
    return publish(start, count);
  }

  /// Returned by offer_batch() when capacity did not cover the batch: no
  /// slot was reserved and the caller still owns every item.
  static constexpr uint32_t kDeclined = 0xffffffffu;

  /// Non-blocking push_batch for writers of a governed engine: reserves
  /// (CAS on resv_ptr) only while `alloc_limit` already covers the whole
  /// batch, so a worker never parks on capacity the pool may be unable to
  /// back while its own in-flight assignment pins the blocks that would
  /// free it. Returns kDeclined without reserving anything otherwise; the
  /// caller hands the items to the manager's spill store instead.
  ///
  /// The reservation RMW is seq_cst and followed by wait_allocated's
  /// seq_cst coverage load — the writer half of the shrink_capacity
  /// handshake. Only a shrink landing between the pre-check and the CAS
  /// can leave the claim uncovered; the writer then waits like any
  /// under-capacity writer. Otherwise behaves as push_batch: same fault
  /// sites, same return values (0 when the batch was dropped).
  uint32_t offer_batch(const uint32_t* items, uint32_t count) noexcept {
    if (count == 0) return 0;
    uint32_t start = resv_ptr_.load(std::memory_order_relaxed);
    do {
      if (wrap_lt(alloc_limit_.load(std::memory_order_seq_cst),
                  start + count))
        return kDeclined;
    } while (!resv_ptr_.compare_exchange_weak(start, start + count,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed));
    if (!wait_allocated(start + count)) return 0;
    if (fault::fire(fault::Site::kPushDropBeforePublish)) return 0;
    for (uint32_t i = 0; i < count; ++i) write(start + i, items[i]);
    fault::delay(fault::Site::kPushDelay, abort_flag_);
    return publish(start, count);
  }

  /// Work completion: processing of `count` previously assigned items done.
  void complete(uint32_t count) noexcept {
    cwc_.fetch_add(count, std::memory_order_release);
  }

  // ---- Manager (MTB) side — single thread only ----------------------------

  /// Ensures at least `slack` writable slots exist beyond resv_ptr by
  /// mapping new blocks. Limited by translation-table wrap (a slot can only
  /// be remapped once its previous block was recycled) and pool capacity.
  /// With `best_effort` an exhausted pool stops the mapping loop instead of
  /// throwing (the pressure governor's path: the manager spills and
  /// retries); without it exhaustion throws adds::Error as before.
  /// Returns the number of blocks newly mapped.
  uint32_t ensure_capacity(uint32_t slack, bool best_effort = false);

  /// Unmaps whole blocks of *unreserved* capacity from the top of the
  /// allocation window, keeping at least `keep_slack` writable slots, and
  /// returns them to the pool — the pressure governor's reclaim for slack
  /// that was mapped ahead of demand and then went cold. Returns blocks
  /// freed.
  ///
  /// Safety handshake with racing writers (all four operations seq_cst,
  /// which costs nothing on the coverage-check load): the manager lowers
  /// alloc_limit_ first, then re-reads resv_ptr_. A writer reserves
  /// (an RMW on resv_ptr_) and then checks coverage (a load of
  /// alloc_limit_). In the single total order of seq_cst operations either
  /// the writer's RMW precedes the manager's re-read — the manager sees the
  /// reservation, restores the old limit and frees nothing — or the
  /// manager's re-read precedes the RMW, in which case the lowered store
  /// also precedes the writer's coverage load, the writer observes the
  /// lowered limit and parks. Either way no writer ever holds coverage
  /// inside a freed block.
  uint32_t shrink_capacity(uint32_t keep_slack);

  /// Realigns a *drained* bucket (cwc == read == resv) to the next block
  /// boundary so the block containing resv_ptr — otherwise pinned forever,
  /// because recycling only frees blocks wholly below the completed bound —
  /// becomes recyclable. The dead slots in [old resv, boundary) are skipped:
  /// read_ptr jumps over them and the CWC is padded by the same amount, so
  /// the drained/retire accounting stays balanced. The caller must feed the
  /// returned pad through its completion-frontier bookkeeping (as a
  /// completed range starting at the pre-call read_ptr) and then recycle.
  ///
  /// Returns the pad (0: bucket not drained, already aligned, or a writer
  /// raced a reservation in — all no-ops). Safe against racing writers: the
  /// jump is a CAS on resv_ptr from the drained value, so a concurrent
  /// reservation either lands before (CAS fails, nothing happens) or after
  /// (it starts at the boundary, outside the region being retired).
  uint32_t realign_drained() noexcept;

  /// Manager-side non-blocking batched push, used to replay spilled items.
  /// Reserves via CAS only when `alloc_limit` already covers the whole
  /// batch, so the caller can never end up in wait_allocated — essential
  /// for the manager, which must not block on capacity only it can map.
  /// (A racing worker fetch-add just fails the CAS; `alloc_limit` is
  /// monotone, so a successful CAS implies coverage of the claimed range.)
  /// Returns the WCC increments performed, or 0 when capacity is currently
  /// insufficient — the caller maps more blocks or keeps the items spilled.
  uint32_t try_push_batch(const uint32_t* items, uint32_t count) noexcept {
    if (count == 0) return 0;
    uint32_t resv = resv_ptr_.load(std::memory_order_relaxed);
    for (;;) {
      if (wrap_lt(alloc_limit_.load(std::memory_order_acquire),
                  resv + count))
        return 0;
      if (resv_ptr_.compare_exchange_weak(resv, resv + count,
                                          std::memory_order_relaxed))
        break;
    }
    for (uint32_t i = 0; i < count; ++i) write(resv + i, items[i]);
    return publish(resv, count);
  }

  /// Computes the largest index bound such that every slot in
  /// [read_ptr, bound) is known fully written. Does not modify read_ptr.
  /// The walk is limited to min(resv_ptr, alloc_limit): resv_ptr may run
  /// past alloc_limit while writers are starved, and the WCC of a segment
  /// at or above alloc_limit aliases the (possibly full) segment one
  /// translation window earlier, so it proves nothing about this one.
  uint32_t scan_written_bound() noexcept;

  /// Marks [read_ptr, new_read) as handed out to workers.
  void advance_read(uint32_t new_read) noexcept {
    ADDS_ASSERT(wrap_le(read_ptr_, new_read));
    read_ptr_ = new_read;
  }

  /// True when every reserved item has been written, read, and completed.
  bool drained() noexcept;

  /// Recycles every block that lies wholly below `completed_bound`. The
  /// caller (manager) must guarantee that every item below the bound has
  /// been *completed* — i.e. no worker will read that range again. The
  /// bound must not exceed read_ptr. This is what keeps writers live when
  /// the translation window wraps mid-bucket: consumed-and-completed blocks
  /// are returned without waiting for a full drain. Returns blocks freed.
  uint32_t recycle_below(uint32_t completed_bound);

  /// Recycles every block wholly below read_ptr. Call when the window
  /// retires this bucket — the manager observed it drained, so no assigned
  /// range (all completed) still points below read_ptr. A concurrent racing
  /// push is tolerated: it lands at resv_ptr >= read_ptr, outside the freed
  /// region, and becomes tail work after rotation. Returns blocks freed.
  uint32_t retire() { return recycle_below(read_ptr_); }

  /// Quiesced-only reuse hook (warm engines — docs/QUEUE_PROTOCOL.md
  /// §"Reset and reuse"): returns every still-mapped block to the pool and
  /// rewinds all counters, translation entries and WCCs to the
  /// freshly-constructed state. The caller must guarantee that no writer
  /// or reader thread touches the bucket concurrently — there is no
  /// handshake here; reset between runs, with every worker idle-parked.
  /// The abort-flag wiring survives the reset. Returns blocks freed.
  uint32_t reset() noexcept;

  // ---- Shared read access -------------------------------------------------

  /// Reads a published item. Safe for the manager after scan_written_bound()
  /// covered `idx`, and for workers on ranges received through an
  /// assignment flag (the flag handshake transfers visibility).
  uint32_t read_item(uint32_t idx) const noexcept { return *slot_ptr(idx); }

  // ---- Introspection ------------------------------------------------------

  uint32_t read_ptr() const noexcept { return read_ptr_; }
  uint32_t resv_ptr_relaxed() const noexcept {
    return resv_ptr_.load(std::memory_order_relaxed);
  }
  uint32_t cwc_relaxed() const noexcept {
    return cwc_.load(std::memory_order_relaxed);
  }
  /// Items reserved but not yet handed to workers (size estimate).
  uint32_t pending_estimate() const noexcept {
    return wrap_distance(read_ptr_, resv_ptr_relaxed());
  }
  /// Items handed to workers but not completed.
  uint32_t in_flight_estimate() const noexcept {
    return wrap_distance(cwc_.load(std::memory_order_relaxed), read_ptr_);
  }
  /// Slots currently writable without waiting for the manager (0 when
  /// writers have reserved past the allocated limit).
  uint32_t writable_slack() const noexcept {
    const int32_t head =
        int32_t(alloc_limit_.load(std::memory_order_relaxed) -
                resv_ptr_.load(std::memory_order_relaxed));
    return head > 0 ? uint32_t(head) : 0;
  }
  /// True when writers have reserved past the allocated limit — they are
  /// parked in wait_allocated until the manager maps more blocks. The
  /// pressure governor treats a starved bucket as the strongest spill
  /// trigger.
  bool writers_starved() const noexcept {
    return wrap_lt(alloc_limit_.load(std::memory_order_relaxed),
                   resv_ptr_.load(std::memory_order_relaxed));
  }
  uint32_t mapped_blocks() const noexcept { return mapped_blocks_; }
  uint32_t segment_words() const noexcept { return segment_words_; }
  uint32_t block_words() const noexcept { return block_words_; }

  /// Base pointer of the block containing `idx` (for translation caches).
  const uint32_t* block_base(uint32_t idx) const noexcept {
    const BlockId b =
        table_[table_slot(idx)].load(std::memory_order_relaxed);
    return pool_.block_data(b);
  }

 private:
  // Index geometry. idx -> table slot via block number; idx -> WCC slot via
  // segment number. Both wrap with period table_size * block_words.
  uint32_t table_slot(uint32_t idx) const noexcept {
    return (idx / block_words_) & (table_size_ - 1);
  }
  uint32_t wcc_slot(uint32_t idx) const noexcept {
    return (idx / segment_words_) & (wcc_size_ - 1);
  }

  uint32_t* slot_ptr(uint32_t idx) const noexcept {
    const BlockId b =
        table_[table_slot(idx)].load(std::memory_order_relaxed);
    return pool_.block_data(b) + (idx & (block_words_ - 1));
  }

  BlockPool& pool_;
  const uint32_t block_words_;
  const uint32_t segment_words_;
  const uint32_t table_size_;
  const uint32_t wcc_size_;  // table_size * block_words / segment_words

  // Writer-shared state.
  std::atomic<uint32_t> resv_ptr_{0};
  std::atomic<uint32_t> alloc_limit_{0};
  std::atomic<uint32_t> cwc_{0};
  std::vector<std::atomic<BlockId>> table_;
  std::vector<std::atomic<uint32_t>> wcc_;

  // Manager-private state.
  uint32_t read_ptr_ = 0;
  uint32_t freed_limit_ = 0;  // block-aligned; blocks below are recycled
  uint32_t mapped_blocks_ = 0;

  // Optional shared teardown signal (see set_abort_flag).
  const std::atomic<bool>* abort_flag_ = nullptr;

  // Wakes writers parked in wait_allocated (capacity mapped, or abort).
  // Mutable: waiting on a const bucket does not change queue state.
  mutable Event capacity_event_;
};

}  // namespace adds
