// Common result and work-accounting types for all SSSP engines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "sim/trace.hpp"

namespace adds {

struct RunReport;  // core/resilience.hpp — guarded-run attempt history

/// Pool-pressure severity observed by the host engine's overload governor
/// (thresholds on the allocator's free-block count; docs/RESILIENCE.md).
enum class PoolPressure : uint8_t {
  kNone = 0,      // free blocks comfortably above the watermarks
  kElevated = 1,  // free <= ~1/4 of the pool: tail capacity rationed
  kCritical = 2,  // free <= ~1/8 of the pool: tail buckets spilled to heap
};

inline const char* pool_pressure_name(PoolPressure p) noexcept {
  switch (p) {
    case PoolPressure::kNone: return "none";
    case PoolPressure::kElevated: return "elevated";
    case PoolPressure::kCritical: return "critical";
  }
  return "?";
}

/// Queue/pool health snapshot of one adds-host run — the overload
/// governor's observability surface (zeros for other engines). Reached
/// through SsspResult::health and copied into the guarded runtime's
/// AttemptRecord.
struct QueueHealth {
  uint32_t pool_blocks = 0;          // slab size the run used
  uint32_t peak_blocks_in_use = 0;   // allocator high-water mark
  uint32_t min_free_blocks = 0;      // allocator low-water mark
  PoolPressure peak_pressure = PoolPressure::kNone;
  uint64_t spill_events = 0;         // governor spill sweeps
  uint64_t spilled_items = 0;        // items moved to the heap store
  uint64_t deferred_pushes = 0;      // worker pushes a full bucket declined
  uint64_t replayed_items = 0;       // items pushed back from the heap
  uint64_t spill_peak_items = 0;     // heap-resident item high-water mark
  uint64_t spilled_blocks_freed = 0; // blocks recycled by spill sweeps
};

/// Work counters. `items_processed` is the paper's work-efficiency metric:
/// the number of worklist entries whose edges were actually relaxed
/// (work efficiency = 1 / items_processed).
struct WorkStats {
  uint64_t items_processed = 0;  // vertices processed (incl. re-processing)
  uint64_t relaxations = 0;      // edge relaxations attempted
  uint64_t improvements = 0;     // distance updates that won
  uint64_t stale_skipped = 0;    // popped items dropped by the stale check
  uint64_t pushes = 0;           // worklist insertions
  uint64_t heap_ops = 0;         // Dijkstra only

  // Queue-cost accounting (adds-host): how many shared-cache-line atomics
  // the insertions actually cost, and how much write combining batched.
  uint64_t queue_reserve_ops = 0;  // resv_ptr fetch-adds issued
  uint64_t queue_publish_ops = 0;  // WCC fetch-adds issued
  uint64_t batch_flushes = 0;      // combiner batch publications
  uint64_t combined_items = 0;     // items pushed through batch flushes
  uint64_t assigned_items = 0;     // items handed to workers (manager side)
  uint64_t inline_ranges = 0;      // tiny ranges the manager ran itself
  uint64_t inline_items = 0;       // items relaxed inline by the manager

  // Batched multi-source accounting (zeros for single-source runs).
  uint64_t lane_splits = 0;    // combiner multisplit passes
  uint64_t lane_dropped = 0;   // items skipped because their lane detached
  uint64_t parent_repairs = 0; // parent entries fixed by the certify pass

  void merge(const WorkStats& o) noexcept {
    items_processed += o.items_processed;
    relaxations += o.relaxations;
    improvements += o.improvements;
    stale_skipped += o.stale_skipped;
    pushes += o.pushes;
    heap_ops += o.heap_ops;
    queue_reserve_ops += o.queue_reserve_ops;
    queue_publish_ops += o.queue_publish_ops;
    batch_flushes += o.batch_flushes;
    combined_items += o.combined_items;
    assigned_items += o.assigned_items;
    inline_ranges += o.inline_ranges;
    inline_items += o.inline_items;
    lane_splits += o.lane_splits;
    lane_dropped += o.lane_dropped;
    parent_repairs += o.parent_repairs;
  }

  /// Zeroes every counter. Warm engines reset the per-worker stats objects
  /// at the start of each query: the objects outlive a single run, and a
  /// stale counter would silently leak one query's work into the next
  /// result's accounting.
  void reset() noexcept { *this = WorkStats{}; }
};

template <WeightType W>
struct SsspResult {
  std::string solver;
  std::vector<DistT<W>> dist;  // per-vertex distance (infinity = unreached)
  /// Shortest-path-tree predecessor per vertex; parent[source] == source,
  /// kInvalidVertex for unreached. Populated by batched solves
  /// (HostEngine::solve_batch certifies it at extraction); empty for
  /// engines that only compute distances.
  std::vector<VertexId> parent;
  WorkStats work;
  QueueHealth health;  // adds-host pool/spill health (zeros elsewhere)

  double time_us = 0.0;   // modelled (virtual) execution time
  double wall_ms = 0.0;   // real host time spent producing the result

  // Engine-specific observability.
  uint64_t supersteps = 0;                       // BSP engines
  uint64_t window_advances = 0;                  // ADDS
  ParallelismTrace trace{};                      // Figures 11-15
  std::vector<std::pair<double, double>> delta_history;  // (t_us, delta)

  /// Attempt/watchdog/audit history; set only by run_solver_guarded
  /// (core/resilience.hpp), null for plain run_solver results.
  std::shared_ptr<const RunReport> resilience;

  uint64_t reached() const noexcept {
    uint64_t n = 0;
    for (const auto d : dist)
      if (d != DistTraits<W>::infinity()) ++n;
    return n;
  }
};

}  // namespace adds
