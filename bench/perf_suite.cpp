// Repeatable host-performance suite — the trajectory benchmark for the
// real-thread engines (ROADMAP: every PR makes a hot path measurably
// faster, and leaves an artifact trail to prove it).
//
// Two layers, both fully deterministic in their inputs (fixed generator
// seeds; wall-clock numbers vary with the machine, ratios are the signal):
//
//   1. Contended push micro: N writer threads race items into one bucket
//      while a manager thread allocates/consumes/recycles — once with
//      single-item pushes (two shared-cache-line atomics per item), once
//      write-combined (Bucket::push_batch, one reservation + one WCC
//      increment per segment per 64-item batch). This is the paper's
//      warp-aggregation argument reproduced on host silicon.
//
//   2. Solver suite: adds-host (combining A/B via AddsHostOptions),
//      nearfar-host and cpu-ds over generator graphs at 1/2/4 workers,
//      reporting items/s, pushes/s and queue-atomics-per-relaxation.
//      Every measured adds-host run is validated against Dijkstra first —
//      a perf number for a wrong answer is worthless.
//
// Emits BENCH_perf.json (schema adds-perf-suite-v1) so future PRs can
// compare trend points; CI's perf-smoke job uploads it as an artifact.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/validate.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "queue/assignment.hpp"
#include "queue/block_pool.hpp"
#include "queue/bucket.hpp"
#include "queue/push_combiner.hpp"
#include "queue/work_queue.hpp"
#include "queue/wrap.hpp"
#include "util/backoff.hpp"
#include "sssp/adds.hpp"
#include "sssp/cpu_delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/nearfar_host.hpp"
#include "util/timer.hpp"

using namespace adds;

namespace {

// ---- Minimal JSON emission (no dependency; values we emit need no
// escaping beyond quoting) ---------------------------------------------------

struct JsonObj {
  std::ostringstream out;
  bool first = true;
  void sep() {
    if (!first) out << ",";
    first = false;
  }
  JsonObj& field(const std::string& k, const std::string& v) {
    sep();
    out << "\"" << k << "\":\"" << v << "\"";
    return *this;
  }
  JsonObj& field(const std::string& k, double v) {
    sep();
    out << "\"" << k << "\":" << v;
    return *this;
  }
  JsonObj& field(const std::string& k, uint64_t v) {
    sep();
    out << "\"" << k << "\":" << v;
    return *this;
  }
  JsonObj& field(const std::string& k, bool v) {
    sep();
    out << "\"" << k << "\":" << (v ? "true" : "false");
    return *this;
  }
  JsonObj& raw(const std::string& k, const std::string& json) {
    sep();
    out << "\"" << k << "\":" << json;
    return *this;
  }
  std::string str() const {
    std::string s = "{";
    s += out.str();
    s += "}";
    return s;
  }
};

std::string json_array(const std::vector<std::string>& elems) {
  std::string s = "[";
  for (size_t i = 0; i < elems.size(); ++i) {
    if (i) s += ",";
    s += elems[i];
  }
  return s + "]";
}

// ---- 1. Contended push micro ------------------------------------------------

struct PushMicroResult {
  uint32_t writers = 0;
  bool combined = false;
  uint64_t items = 0;
  uint64_t consumed = 0;  // items the manager scanned out; must equal items
  double wall_ms = 0;
  double pushes_per_s = 0;
  double atomics_per_push = 0;
};

/// N writers push `items_per_writer` each into one bucket; a manager
/// thread keeps capacity ahead and consumes/recycles behind, so the run
/// exercises the steady-state protocol, not an unbounded array fill. The
/// manager's consumed count is returned so the caller can reject a run in
/// which the scan handed out more (or fewer) slots than were pushed.
PushMicroResult run_push_micro(uint32_t writers, uint64_t items_per_writer,
                               bool combined, uint32_t batch) {
  constexpr uint32_t kBlockWords = 4096;
  BlockPool pool(64, kBlockWords);
  BucketConfig cfg;
  cfg.segment_words = 32;
  cfg.table_size = 16;
  Bucket bucket(pool, cfg);
  bucket.ensure_capacity(8 * kBlockWords);

  const uint64_t total = uint64_t(writers) * items_per_writer;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> publish_ops{0};
  uint64_t consumed = 0;  // manager-private until manager.join()

  std::thread manager([&] {
    while (true) {
      bucket.ensure_capacity(4 * kBlockWords);
      const uint32_t bound = bucket.scan_written_bound();
      const uint32_t count = bound - bucket.read_ptr();
      if (count > 0) {
        bucket.advance_read(bound);
        bucket.complete(count);
        consumed += count;
        bucket.recycle_below(bucket.read_ptr());
      }
      if (writers_done.load(std::memory_order_acquire) && consumed >= total)
        break;
      std::this_thread::yield();
    }
  });

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (uint32_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      uint64_t ops = 0;
      if (combined) {
        std::vector<uint32_t> stage(batch);
        uint32_t n = 0;
        for (uint64_t i = 0; i < items_per_writer; ++i) {
          stage[n++] = uint32_t(w);
          if (n == batch) {
            ops += bucket.push_batch(stage.data(), n);
            n = 0;
          }
        }
        if (n > 0) ops += bucket.push_batch(stage.data(), n);
      } else {
        for (uint64_t i = 0; i < items_per_writer; ++i) {
          bucket.push(uint32_t(w));
          ++ops;  // one WCC increment per single push
        }
      }
      publish_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = timer.elapsed_ms();
  writers_done.store(true, std::memory_order_release);
  manager.join();

  PushMicroResult r;
  r.writers = writers;
  r.combined = combined;
  r.items = total;
  r.consumed = consumed;
  r.wall_ms = wall_ms;
  r.pushes_per_s = double(total) / (wall_ms / 1e3);
  // One resv_ptr fetch-add per push/flush + the counted WCC increments.
  const uint64_t reserves =
      combined ? (total + batch - 1) / batch * 1 : total;
  r.atomics_per_push =
      double(reserves + publish_ops.load()) / double(total);
  return r;
}

// ---- 1b. Manager->worker handoff latency ------------------------------------

struct HandoffResult {
  std::string mode;  // "poll-backoff" (PR-2 baseline) | "event"
  uint64_t rounds = 0;
  double mean_us = 0;
  double p99_us = 0;
};

/// One manager thread assigns a range to one idle worker every ~200us (so
/// the worker is parked/deep in its idle wait when the assignment lands —
/// the ROADMAP's idle-handoff case), and the worker timestamps how long
/// assign() -> observation took. `event_driven` uses AssignmentFlag::wait
/// (the engine's real path); the baseline reproduces the old poll loop:
/// poll() under a capped-backoff sleep, whose ~128us cap was the latency
/// floor this PR removes.
HandoffResult run_handoff_micro(bool event_driven, uint32_t rounds) {
  AssignmentFlag flag;
  std::atomic<int64_t> assigned_at_ns{0};
  std::vector<double> lat_us;
  lat_us.reserve(rounds);

  std::thread worker([&] {
    bool should_exit = false;
    while (!should_exit) {
      std::optional<Assignment> a;
      if (event_driven) {
        a = flag.wait(should_exit);
      } else {
        Backoff backoff;
        while (!(a = flag.poll(should_exit)) && !should_exit)
          backoff.pause();
      }
      if (!a) continue;
      const auto now = std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count();
      lat_us.push_back(
          double(now - assigned_at_ns.load(std::memory_order_relaxed)) /
          1e3);
      flag.done();
    }
  });

  for (uint32_t i = 0; i < rounds; ++i) {
    while (!flag.is_idle()) std::this_thread::yield();
    // Let the worker sink all the way into steady-state idle (past the
    // poll loop's backoff ramp, ~260us cumulative) before assigning — the
    // regime where PR-2's capped backoff pays its 128us sleep quantum on
    // every handoff. The park is jittered (deterministically) so the
    // assign lands at varying phases of the sleep schedule instead of
    // phase-locking to it.
    std::this_thread::sleep_for(
        std::chrono::microseconds(500 + (i * 37) % 400));
    assigned_at_ns.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_relaxed);
    flag.assign({0, 0, 1});
  }
  while (!flag.is_idle()) std::this_thread::yield();
  flag.terminate();
  worker.join();

  std::sort(lat_us.begin(), lat_us.end());
  HandoffResult r;
  r.mode = event_driven ? "event" : "poll-backoff";
  r.rounds = rounds;
  double sum = 0;
  for (const double v : lat_us) sum += v;
  r.mean_us = lat_us.empty() ? 0 : sum / double(lat_us.size());
  r.p99_us =
      lat_us.empty() ? 0 : lat_us[size_t(double(lat_us.size() - 1) * 0.99)];
  return r;
}

std::string handoff_json(const HandoffResult& r) {
  JsonObj o;
  o.field("mode", r.mode)
      .field("rounds", r.rounds)
      .field("mean_us", r.mean_us)
      .field("p99_us", r.p99_us);
  return o.str();
}

// ---- 2. Solver suite --------------------------------------------------------

struct SolverRun {
  std::string graph;
  std::string solver;
  uint32_t workers = 0;
  bool combining = false;
  double wall_ms = 0;
  uint64_t items_processed = 0;
  uint64_t relaxations = 0;
  uint64_t pushes = 0;
  double items_per_s = 0;
  double pushes_per_s = 0;
  double atomics_per_relaxation = 0;  // adds-host only (0 elsewhere)
  uint64_t batch_flushes = 0;
  uint64_t combined_items = 0;
};

template <typename RunFn>
SolverRun measure(const std::string& graph, const std::string& solver,
                  uint32_t workers, bool combining, uint32_t reps,
                  RunFn&& run) {
  SolverRun out;
  out.graph = graph;
  out.solver = solver;
  out.workers = workers;
  out.combining = combining;
  out.wall_ms = 1e300;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    const auto r = run();
    if (r.wall_ms < out.wall_ms) {
      out.wall_ms = r.wall_ms;
      out.items_processed = r.work.items_processed;
      out.relaxations = r.work.relaxations;
      out.pushes = r.work.pushes;
      out.batch_flushes = r.work.batch_flushes;
      out.combined_items = r.work.combined_items;
      const uint64_t atomics =
          r.work.queue_reserve_ops + r.work.queue_publish_ops;
      out.atomics_per_relaxation =
          r.work.relaxations > 0
              ? double(atomics) / double(r.work.relaxations)
              : 0.0;
    }
  }
  const double s = out.wall_ms / 1e3;
  out.items_per_s = s > 0 ? double(out.items_processed) / s : 0;
  out.pushes_per_s = s > 0 ? double(out.pushes) / s : 0;
  return out;
}

std::string run_json(const SolverRun& r) {
  JsonObj o;
  o.field("graph", r.graph)
      .field("solver", r.solver)
      .field("workers", uint64_t(r.workers))
      .field("combining", r.combining)
      .field("wall_ms", r.wall_ms)
      .field("items_processed", r.items_processed)
      .field("relaxations", r.relaxations)
      .field("pushes", r.pushes)
      .field("items_per_s", r.items_per_s)
      .field("pushes_per_s", r.pushes_per_s)
      .field("atomics_per_relaxation", r.atomics_per_relaxation)
      .field("batch_flushes", r.batch_flushes)
      .field("combined_items", r.combined_items);
  return o.str();
}

std::string micro_json(const PushMicroResult& r) {
  JsonObj o;
  o.field("writers", uint64_t(r.writers))
      .field("combined", r.combined)
      .field("items", r.items)
      .field("wall_ms", r.wall_ms)
      .field("pushes_per_s", r.pushes_per_s)
      .field("atomics_per_push", r.atomics_per_push);
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_suite",
                "deterministic host-perf suite (push micro + solver A/B); "
                "emits BENCH_perf.json");
  cli.add_flag("smoke", "small graphs and short micro runs (CI tier)");
  cli.add_option("out", "JSON output path", "BENCH_perf.json");
  cli.add_option("reps", "repetitions per measurement (best-of)", "3");
  cli.add_option("batch", "combiner lane capacity for the A/B", "64");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.flag("smoke");
  const uint32_t reps = uint32_t(std::max<int64_t>(1, cli.integer("reps")));
  const uint32_t batch = uint32_t(std::max<int64_t>(2, cli.integer("batch")));

  // --- Push micro -----------------------------------------------------------
  // Each section announces itself on unbuffered stderr before it runs, so a
  // crash still shows (under ctest too) which section it reached.
  const uint64_t per_writer = smoke ? 100'000 : 400'000;
  std::vector<PushMicroResult> micro;
  TextTable micro_table("Contended multi-writer push (single vs combined)");
  micro_table.set_header({"writers", "mode", "pushes/s", "atomics/push",
                          "speedup"});
  double best_single = 0, best_combined = 0;
  for (const uint32_t writers : {1u, 2u, 4u}) {
    std::fprintf(stderr, "[perf] push micro, %u writers\n", writers);
    PushMicroResult single, comb;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      const auto s = run_push_micro(writers, per_writer, false, batch);
      const auto c = run_push_micro(writers, per_writer, true, batch);
      for (const auto& m : {s, c}) {
        if (m.consumed != m.items) {
          std::fprintf(stderr,
                       "FATAL: push micro (writers=%u %s) consumed %llu "
                       "items, pushed %llu\n",
                       writers, m.combined ? "combined" : "single",
                       (unsigned long long)m.consumed,
                       (unsigned long long)m.items);
          return 1;
        }
      }
      if (s.pushes_per_s > single.pushes_per_s) single = s;
      if (c.pushes_per_s > comb.pushes_per_s) comb = c;
    }
    micro.push_back(single);
    micro.push_back(comb);
    const double speedup = comb.pushes_per_s / single.pushes_per_s;
    micro_table.add_row({std::to_string(writers), "single",
                         fmt_count(uint64_t(single.pushes_per_s)),
                         fmt_double(single.atomics_per_push, 3), ""});
    micro_table.add_row({std::to_string(writers), "combined",
                         fmt_count(uint64_t(comb.pushes_per_s)),
                         fmt_double(comb.atomics_per_push, 3),
                         fmt_ratio(speedup)});
    if (writers == 4) {
      best_single = single.pushes_per_s;
      best_combined = comb.pushes_per_s;
    }
  }
  const double contended_speedup =
      best_single > 0 ? best_combined / best_single : 0;
  micro_table.add_footer("batch = " + std::to_string(batch) +
                         " items; manager consumes concurrently");
  micro_table.print();

  // --- Handoff latency ------------------------------------------------------
  const uint32_t handoff_rounds = smoke ? 300 : 2000;
  std::fprintf(stderr, "[perf] handoff micro\n");
  const auto handoff_poll = run_handoff_micro(false, handoff_rounds);
  const auto handoff_event = run_handoff_micro(true, handoff_rounds);
  TextTable handoff_table(
      "Manager->worker assignment handoff latency (idle worker)");
  handoff_table.set_header({"mode", "rounds", "mean", "p99"});
  for (const auto& h : {handoff_poll, handoff_event})
    handoff_table.add_row({h.mode, std::to_string(h.rounds),
                           fmt_time_us(h.mean_us), fmt_time_us(h.p99_us)});
  handoff_table.add_footer(
      "poll-backoff reproduces the PR-2 idle loop (128us sleep cap)");
  handoff_table.print();

  // --- Manager-inline micro -------------------------------------------------
  // Tail-latency datapoint for manager self-execution: with one worker and
  // tiny chunks, end-of-bucket leftovers are frequent, and relaying each
  // through a worker handoff costs two flag round-trips. A/B the
  // manager_inline_items knob on a small road grid (the leftover-heavy
  // shape) and record how much traffic the inline path absorbed.
  struct InlineAB {
    bool enabled = false;
    double wall_ms = 0;
    uint64_t inline_ranges = 0;
    uint64_t inline_items = 0;
  };
  std::vector<InlineAB> inline_ab;
  {
    std::fprintf(stderr, "[perf] manager-inline A/B\n");
    const auto g = make_grid_road<uint32_t>(smoke ? 48 : 128,
                                            smoke ? 48 : 128,
                                            {WeightDist::kUniform, 100}, 5);
    const VertexId src = pick_source(g);
    const auto oracle = dijkstra(g, src);
    TextTable it("Manager inline execution of tiny leftovers (1 worker)");
    it.set_header({"inline", "wall", "inline ranges", "inline items"});
    for (const bool enabled : {false, true}) {
      AddsHostOptions opts;
      opts.num_workers = 1;
      opts.chunk_items = 16;
      opts.manager_inline_items = enabled ? 16 : 0;
      InlineAB ab;
      ab.enabled = enabled;
      ab.wall_ms = 1e300;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        const auto r = adds_host(g, src, opts);
        if (!validate_distances(r, oracle).ok()) {
          std::fprintf(stderr, "FATAL: manager-inline A/B diverged\n");
          return 1;
        }
        if (r.wall_ms < ab.wall_ms) {
          ab.wall_ms = r.wall_ms;
          ab.inline_ranges = r.work.inline_ranges;
          ab.inline_items = r.work.inline_items;
        }
      }
      inline_ab.push_back(ab);
      it.add_row({enabled ? "on" : "off", fmt_time_us(ab.wall_ms * 1e3),
                  fmt_count(ab.inline_ranges), fmt_count(ab.inline_items)});
    }
    it.add_footer("threshold = 16 items; governed mode, spill on dry pool");
    it.print();
  }

  // --- Solver suite ---------------------------------------------------------
  std::vector<GraphSpec> specs;
  {
    GraphSpec road;
    road.name = smoke ? "grid_60x60" : "grid_250x250";
    road.family = GraphFamily::kGridRoad;
    road.scale = smoke ? 60 : 250;
    road.a = double(road.scale);
    road.seed = 1;
    specs.push_back(road);

    GraphSpec rmat;
    rmat.name = smoke ? "rmat11" : "rmat15";
    rmat.family = GraphFamily::kRmat;
    rmat.scale = smoke ? 11 : 15;
    rmat.a = 8;  // edge factor (generate_graph uses standard partitions)
    rmat.seed = 2;
    specs.push_back(rmat);

    GraphSpec mesh;
    mesh.name = smoke ? "mesh_40x40r2" : "mesh_120x120r2";
    mesh.family = GraphFamily::kKNeighborMesh;
    mesh.scale = smoke ? 40 : 120;
    mesh.a = double(mesh.scale);
    mesh.b = 2;
    mesh.seed = 3;
    specs.push_back(mesh);
  }

  std::vector<SolverRun> runs;
  const std::vector<uint32_t> worker_counts{1, 2, 4};
  for (const GraphSpec& spec : specs) {
    const auto g = generate_graph<uint32_t>(spec);
    const VertexId src = pick_source(g);
    const auto oracle = dijkstra(g, src);
    std::fprintf(stderr, "[perf] %-14s |V|=%u |E|=%zu\n", spec.name.c_str(),
                 g.num_vertices(), size_t(g.num_edges()));

    for (const bool combining : {true, false}) {
      for (const uint32_t workers : worker_counts) {
        AddsHostOptions opts;
        opts.num_workers = workers;
        opts.write_combining = combining;
        opts.combine_capacity = batch;
        // Correctness gate: measured configurations must be exact.
        const auto check = adds_host(g, src, opts);
        if (!validate_distances(check, oracle).ok()) {
          std::fprintf(stderr,
                       "FATAL: adds-host(%s combining=%d workers=%u) "
                       "diverged from Dijkstra\n",
                       spec.name.c_str(), int(combining), workers);
          return 1;
        }
        runs.push_back(measure(
            spec.name,
            combining ? "adds-host" : "adds-host-nocombine", workers,
            combining, reps, [&] { return adds_host(g, src, opts); }));
      }
    }
    for (const uint32_t workers : worker_counts) {
      NearFarHostOptions nf;
      nf.num_threads = workers;
      runs.push_back(measure(spec.name, "nearfar-host", workers, false,
                             reps,
                             [&] { return near_far_host(g, src, nf); }));
    }
    const CpuCostModel cpu{CpuSpec::i9_7900x()};
    runs.push_back(measure(spec.name, "cpu-ds", 1, false, reps, [&] {
      return cpu_delta_stepping(g, src, cpu, {});
    }));
  }

  TextTable solver_table("Host solver throughput (best of " +
                         std::to_string(reps) + ")");
  solver_table.set_header({"graph", "solver", "workers", "wall",
                           "items/s", "pushes/s", "atomics/relax"});
  for (const SolverRun& r : runs) {
    solver_table.add_row(
        {r.graph, r.solver, std::to_string(r.workers),
         fmt_time_us(r.wall_ms * 1e3), fmt_count(uint64_t(r.items_per_s)),
         fmt_count(uint64_t(r.pushes_per_s)),
         r.atomics_per_relaxation > 0
             ? fmt_double(r.atomics_per_relaxation, 4)
             : "-"});
  }
  solver_table.add_footer(
      "adds-host validated against Dijkstra before every measurement");
  solver_table.print();

  std::printf("contended 4-writer push speedup (combined vs single): %s\n",
              fmt_ratio(contended_speedup).c_str());

  // --- JSON artifact --------------------------------------------------------
  std::vector<std::string> micro_elems, run_elems;
  for (const auto& m : micro) micro_elems.push_back(micro_json(m));
  for (const auto& r : runs) run_elems.push_back(run_json(r));
  JsonObj root;
  root.field("schema", std::string("adds-perf-suite-v1"))
      .field("mode", std::string(smoke ? "smoke" : "full"))
      .field("reps", uint64_t(reps))
      .field("combine_batch", uint64_t(batch))
      .field("hw_threads",
             uint64_t(std::thread::hardware_concurrency()))
      .field("contended_push_speedup_4w", contended_speedup)
      .raw("push_micro", json_array(micro_elems))
      .raw("handoff_latency",
           json_array({handoff_json(handoff_poll),
                       handoff_json(handoff_event)}))
      .raw("manager_inline", [&] {
        std::vector<std::string> elems;
        for (const auto& ab : inline_ab) {
          JsonObj o;
          o.field("enabled", ab.enabled)
              .field("wall_ms", ab.wall_ms)
              .field("inline_ranges", ab.inline_ranges)
              .field("inline_items", ab.inline_items);
          elems.push_back(o.str());
        }
        return json_array(elems);
      }())
      .raw("solver_runs", json_array(run_elems));

  // Crash-safe publish: stage + rename so a crash mid-write can never leave
  // a torn BENCH_perf.json behind (the previous run's artifact survives).
  const std::string out_path = cli.str("out");
  write_file_atomic(out_path, root.str() + "\n");
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
