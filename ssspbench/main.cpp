// Benchmark program: runs one named workload from a seed, checks every answer
// with the benchmark's own code (check.hpp), and prints one JSON line with
// the run's metrics as the last line of standard output. README.md
// describes the workloads, the metrics and how to run it.
//
//   ssspbench --workload road-1m|rmat-18|serve-mix --seed N --seconds S
//             --trace 0|1
//   ssspbench --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/sssp_service.hpp"
#include "sssp/cpu_delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/host_engine.hpp"

#include "check.hpp"
#include "trace.hpp"

namespace ssspbench {
namespace {

// Taken during static initialisation, before main: set-up time is measured
// from here.
const Clock::time_point g_process_start = Clock::now();

using W = uint32_t;
using adds::CsrGraph;
using adds::HostEngine;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

/// Pass/fail bookkeeping of one run.
struct Run {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void expect(const std::string& err, const std::string& what) {
    if (err.empty()) return;
    if (correct) std::fprintf(stderr, "check failed: %s: %s\n", what.c_str(),
                              err.c_str());
    correct = false;
  }
  void fail_op(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * double(xs.size() - 1);
  const size_t lo = size_t(std::floor(pos)), hi = size_t(std::ceil(pos));
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - double(lo));
}
double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }
double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / double(xs.size());
}
double sum(const std::vector<double>& xs) { return mean(xs) * double(xs.size()); }
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

Graph own_copy(const CsrGraph<W>& g) {
  Graph c;
  c.offsets = std::make_shared<const std::vector<uint64_t>>(
      g.offsets().begin(), g.offsets().end());
  c.targets = std::make_shared<const std::vector<uint32_t>>(
      g.targets().begin(), g.targets().end());
  c.weights.assign(g.weights().begin(), g.weights().end());
  return c;
}

adds::QueryControl bounded() {
  adds::QueryControl ctl;
  ctl.deadline_ms = 60000.0;  // a wedged solve fails typed, never hangs
  return ctl;
}

// ---- checker self-test ------------------------------------------------------

/// Feeds the checks one correct answer and corrupted copies of it (a
/// distance, a parent, a counter); every corruption must be rejected.
bool self_test() {
  const CsrGraph<W> g = adds::make_grid_road<W>(12, 12, {}, 7);
  const Graph ref = own_copy(g);
  const uint32_t s = 5, x = ref.n() - 1;
  const std::vector<uint8_t> reach = bfs_reach(ref, s);
  const std::vector<Dist> d = dijkstra(ref, s);
  std::vector<uint32_t> parent(ref.n(), kNoVertex);
  parent[s] = s;
  for (uint32_t u = 0; u < ref.n(); ++u)
    for (uint64_t e = ref.begin(u); e < ref.end(u); ++e) {
      const uint32_t v = ref.target(e);
      if (v != s && parent[v] == kNoVertex && d[u] + ref.weights[e] == d[v])
        parent[v] = u;
    }
  const uint64_t reached = count_reached(reach);
  const uint64_t relax = dijkstra_relaxations(ref, reach);

  bool ok = certify(ref, s, d, reach).empty() &&
            check_parents(ref, s, d, parent).empty() &&
            check_counters(reached, reached - 1, relax).empty();
  for (const int64_t by : {+1, -1}) {
    std::vector<Dist> bad = d;
    bad[x] = Dist(int64_t(bad[x]) + by);
    ok = ok && !certify(ref, s, bad, reach).empty();
  }
  std::vector<uint32_t> bad_parent = parent;
  for (uint64_t e = ref.begin(x); e < ref.end(x); ++e) {
    const uint32_t y = ref.target(e);
    if (d[y] + ref.weights[e] != d[x]) bad_parent[x] = y;  // not tight
  }
  if (bad_parent[x] == parent[x]) bad_parent[x] = x;
  ok = ok && !check_parents(ref, s, d, bad_parent).empty();
  ok = ok && !check_counters(reached, reached - 2, relax).empty();
  ok = ok && !check_counters(reached, reached - 1, reached - 2).empty();
  return ok;
}

// ---- per-layer metric table -------------------------------------------------

/// Every per-layer metric, in a fixed order. A workload fills the ones its
/// layers produce; the rest stay 0 (the layer did no work in that workload).
struct Layers {
  std::map<std::string, double> v;
  void set(const std::string& k, double x) { v[k] = x; }
  Metrics emit() const {
    static const std::pair<const char*, const char*> kAll[] = {
        {"graph.generate_ms", "ms"},
        {"engine.solve_ms", "ms"},
        {"engine.solve_ms_1w", "ms"},
        {"engine.window_advances", "count/solve"},
        {"engine.assigned_items", "count/solve"},
        {"engine.inline_items", "count/solve"},
        {"engine.items_processed", "count/solve"},
        {"engine.improvements", "count/solve"},
        {"engine.stale_skipped", "count/solve"},
        {"engine.work_vs_dijkstra", "ratio"},
        {"engine.batch8_ms", "ms"},
        {"engine.single8_ms", "ms"},
        {"queue.atomics_per_relaxation", "ratio"},
        {"queue.batch_flushes", "count/solve"},
        {"queue.peak_blocks_in_use", "count"},
        {"queue.spilled_items", "count/solve"},
        {"queue.deferred_pushes", "count/solve"},
        {"service.queue_ms_p50", "ms"},
        {"service.exec_ms_p50", "ms"},
        {"service.lanes_per_batch", "count"},
        {"service.cache_hit_rate", "ratio"},
        {"service.engine_utilization", "ratio"},
        {"service.peak_queue_depth", "count"},
        {"landmark.build_ms", "ms"},
        {"landmark.exact_serves", "count/round"},
        {"landmark.alt_searches", "count/round"},
        {"landmark.engine_fallbacks", "count/round"},
        {"landmark.alt_ms_p50", "ms"},
        {"landmark.table_repairs", "count/round"},
        {"delta.apply_ms", "ms"},
        {"delta.settle_ms", "ms"},
        {"delta.repairs_ok", "count/round"},
        {"delta.repair_fallbacks", "count/round"},
        {"delta.stale_hits", "count/round"},
        {"baseline.cpu_ds_ms", "ms"},
        {"baseline.dijkstra_ms", "ms"},
        {"baseline.cpu_ds_relaxations", "count"},
        {"mix.full_cache_hit_share", "ratio"},
        {"mix.coalesced_share", "ratio"},
        {"mix.during_repair_share", "ratio"},
    };
    Metrics out;
    for (const auto& [name, unit] : kAll) {
      const auto it = v.find(name);
      out.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    }
    return out;
  }
};

// ---- shared engine-layer measurements ---------------------------------------

/// Warm solves of a fixed source list on one engine: the per-solve samples
/// every engine-layer metric is derived from.
struct SolveSamples {
  std::vector<double> relaxations, improvements, items, stale, advances,
      assigned, inline_items, flushes, atomics_per_relax, spilled, deferred,
      work_vs_dijkstra;
  double peak_blocks = 0.0;

  void add(const adds::SsspResult<W>& r, uint64_t dijkstra_relax) {
    add(r.work, r.health, r.window_advances, dijkstra_relax, 1);
  }
  /// One solve, or one batch of `lanes` lanes: a batch's counters are
  /// divided by its lane count (per-lane means of the shared traversal),
  /// except its window advances, which all lanes share.
  void add(const adds::WorkStats& w, const adds::QueueHealth& h,
           uint64_t window_advances, uint64_t dijkstra_relax, size_t lanes) {
    const double k = double(lanes);
    relaxations.push_back(double(w.relaxations) / k);
    improvements.push_back(double(w.improvements) / k);
    items.push_back(double(w.items_processed) / k);
    stale.push_back(double(w.stale_skipped) / k);
    advances.push_back(double(window_advances));
    assigned.push_back(double(w.assigned_items) / k);
    inline_items.push_back(double(w.inline_items) / k);
    flushes.push_back(double(w.batch_flushes) / k);
    atomics_per_relax.push_back(
        ratio(double(w.queue_reserve_ops + w.queue_publish_ops),
              double(w.relaxations)));
    spilled.push_back(double(h.spilled_items) / k);
    deferred.push_back(double(h.deferred_pushes) / k);
    work_vs_dijkstra.push_back(
        ratio(double(w.relaxations), double(dijkstra_relax)));
    peak_blocks = std::max(peak_blocks, double(h.peak_blocks_in_use));
  }

  void to_layers(Layers& L) const {
    L.set("engine.window_advances", mean(advances));
    L.set("engine.assigned_items", mean(assigned));
    L.set("engine.inline_items", mean(inline_items));
    L.set("engine.items_processed", mean(items));
    L.set("engine.improvements", mean(improvements));
    L.set("engine.stale_skipped", mean(stale));
    L.set("engine.work_vs_dijkstra", mean(work_vs_dijkstra));
    L.set("queue.atomics_per_relaxation", mean(atomics_per_relax));
    L.set("queue.batch_flushes", mean(flushes));
    L.set("queue.peak_blocks_in_use", peak_blocks);
    L.set("queue.spilled_items", mean(spilled));
    L.set("queue.deferred_pushes", mean(deferred));
  }
};

struct Source {
  uint32_t s = 0;
  std::vector<uint8_t> reach;  // the benchmark's own BFS
  uint64_t reached = 0;
  uint64_t dijkstra_relax = 0;
};

Source make_source(const Graph& ref, uint32_t s) {
  Source src;
  src.s = s;
  src.reach = bfs_reach(ref, s);
  src.reached = count_reached(src.reach);
  src.dijkstra_relax = dijkstra_relaxations(ref, src.reach);
  return src;
}

/// Checks one single-source engine answer: certificate and counter bounds.
void check_solve(Run& run, const Graph& ref, const Source& src,
                 const adds::SsspResult<W>& r, const std::string& what) {
  run.expect(certify(ref, src.s, r.dist, src.reach), what);
  run.expect(check_counters(src.reached, r.work.improvements,
                            r.work.relaxations),
             what + " counters");
}

/// The traced run's reference measurements on the workload's graph: one
/// worker against the workload's engine, 8 warm singles against one 8-lane
/// batch, and the serial baselines. Every answer is checked; the times are
/// read off the spans (span_layers).
void reference_layers(Run& run, Tracer& tr, Layers& L, const CsrGraph<W>& g,
                      const Graph& ref, const std::vector<Source>& srcs,
                      HostEngine<W>& engine,
                      const adds::AddsHostOptions& opts) {
  const size_t k3 = std::min<size_t>(3, srcs.size());
  {
    adds::AddsHostOptions o1 = opts;
    o1.num_workers = 1;
    HostEngine<W> one(o1);
    ++run.attempted;
    one.solve(g, srcs[0].s, bounded());  // cold pool sizing, untimed
    for (size_t i = 0; i < k3; ++i) {
      ++run.attempted;
      const int64_t sp = tr.begin("engine.solve_1w");
      const auto r = one.solve(g, srcs[i].s, bounded());
      tr.end(sp);
      check_solve(run, ref, srcs[i], r, "1-worker solve");
    }
  }
  {
    const size_t k8 = std::min<size_t>(8, srcs.size());
    std::vector<adds::LaneQuery> lanes;
    std::vector<adds::SsspResult<W>> singles;
    const int64_t all = tr.begin("engine.single8");
    for (size_t i = 0; i < k8; ++i) {
      lanes.push_back({srcs[i].s, nullptr});
      ++run.attempted;
      const int64_t sp = tr.begin("engine.solve", all);
      singles.push_back(engine.solve(g, srcs[i].s, bounded()));
      tr.end(sp);
    }
    tr.end(all);
    for (size_t i = 0; i < k8; ++i)
      check_solve(run, ref, srcs[i], singles[i], "single of the 8");
    singles.clear();
    ++run.attempted;
    engine.solve_batch(g, lanes, bounded());  // sizes the lane arrays
    ++run.attempted;
    const int64_t sp = tr.begin("engine.solve_batch");
    const auto br = engine.solve_batch(g, lanes, bounded());
    tr.end(sp);
    uint64_t reached_sum = 0;
    for (size_t i = 0; i < k8; ++i) {
      const auto& lane = br.lanes[i];
      if (lane.status != adds::LaneStatus::kOk) {
        run.expect("lane not ok", "8-lane batch");
        continue;
      }
      run.expect(certify(ref, srcs[i].s, lane.result.dist, srcs[i].reach),
                 "batch lane");
      run.expect(check_parents(ref, srcs[i].s, lane.result.dist,
                               lane.result.parent),
                 "batch lane parents");
      reached_sum += srcs[i].reached - 1;
    }
    run.expect(check_counters(reached_sum + 1, br.work.improvements,
                              br.work.relaxations),
               "batch counters");
  }
  std::vector<double> ds_relax;
  for (size_t i = 0; i < k3; ++i) {
    ++run.attempted;
    int64_t sp = tr.begin("baseline.cpu_ds");
    const auto ds = adds::cpu_delta_stepping(
        g, srcs[i].s, adds::CpuCostModel{adds::CpuSpec::i9_7900x()});
    tr.end(sp);
    ds_relax.push_back(double(ds.work.relaxations));
    check_solve(run, ref, srcs[i], ds, "cpu-ds baseline");
    ++run.attempted;
    sp = tr.begin("baseline.dijkstra");
    const auto dj = adds::dijkstra(g, srcs[i].s);
    tr.end(sp);
    run.expect(certify(ref, srcs[i].s, dj.dist, srcs[i].reach),
               "dijkstra baseline");
  }
  L.set("baseline.cpu_ds_relaxations", mean(ds_relax));
}

/// Per-layer times, read off the spans of a traced run.
void span_layers(const Tracer& tr, Layers& L) {
  static const std::pair<const char*, const char*> kMedians[] = {
      {"graph.generate_ms", "graph.generate"},
      {"engine.solve_ms", "engine.solve"},
      {"engine.solve_ms_1w", "engine.solve_1w"},
      {"engine.batch8_ms", "engine.solve_batch"},
      {"engine.single8_ms", "engine.single8"},
      {"landmark.build_ms", "landmark.build"},
      {"delta.apply_ms", "service.apply_delta"},
      {"delta.settle_ms", "delta.settle"},
      {"baseline.cpu_ds_ms", "baseline.cpu_ds"},
      {"baseline.dijkstra_ms", "baseline.dijkstra"},
  };
  for (const auto& [metric, span] : kMedians)
    L.set(metric, median(tr.durations(span)));
}

// ---- road-1m / rmat-18: warm single-source solves ---------------------------

constexpr uint32_t kSources = 64;    // solves per round
constexpr uint32_t kDijkstraSample = 2;  // sources compared bit-equal

// Each workload's graph is fixed (generator seed kGraphSeed); --seed picks
// the sources, pairs and deltas. A per-seed graph would add the variation
// between graphs to every figure without exercising anything new.
constexpr uint64_t kGraphSeed = 1;

CsrGraph<W> engine_graph(bool road) {
  const adds::WeightParams wp;  // uniform integers in [1, 10000]
  return road ? adds::make_grid_road<W>(1000, 1000, wp, kGraphSeed)
              : adds::make_rmat<W>(18, 8, 0.57, 0.19, 0.19, wp, kGraphSeed);
}

void engine_workload(const Args& a, bool road, Run& run, Metrics& e2e,
                     Layers& L, Tracer& tr) {
  std::mt19937_64 rng(a.seed * 0x9E3779B97F4A7C15ull + (road ? 1 : 2));

  // Set-up: everything the program does before the first timed solve.
  int64_t sp = tr.begin("graph.generate");
  const CsrGraph<W> g = engine_graph(road);
  tr.end(sp);
  adds::AddsHostOptions opts;
  opts.num_workers = 4;
  HostEngine<W> engine(opts);
  // Warm-up source: a road vertex at random; on rmat the highest-degree hub,
  // which is in the giant component the sources are drawn from.
  uint32_t warm = uint32_t(rng() % g.num_vertices());
  if (!road)
    for (uint32_t v = 0; v < g.num_vertices(); ++v)
      if (g.out_degree(v) > g.out_degree(warm)) warm = v;
  ++run.attempted;
  const auto warm_result = engine.solve(g, warm, bounded());
  const double setup_s = ms_between(g_process_start, Clock::now()) / 1000.0;

  // The benchmark's own view of the graph and the fixed source list.
  const Graph ref = own_copy(g);
  check_solve(run, ref, make_source(ref, warm), warm_result, "warm-up solve");
  std::vector<uint32_t> pool;
  if (road) {
    pool.resize(ref.n());
    for (uint32_t v = 0; v < ref.n(); ++v) pool[v] = v;
  } else {
    const std::vector<uint8_t> giant = bfs_reach(ref, warm);
    for (uint32_t v = 0; v < ref.n(); ++v)
      if (giant[v] && v != warm) pool.push_back(v);
  }
  std::vector<Source> srcs;
  for (uint32_t i = 0; i < kSources; ++i) {
    const size_t j = i + rng() % (pool.size() - i);
    std::swap(pool[i], pool[j]);
    srcs.push_back(make_source(ref, pool[i]));
  }

  SolveSamples samples;
  std::vector<double> ms;  // wall time per solve
  std::vector<std::vector<Dist>> kept(kDijkstraSample);
  const Clock::time_point loop_start = Clock::now();
  uint64_t rounds = 0;
  do {
    const int64_t round_span = tr.begin("client.round");
    for (uint32_t i = 0; i < kSources; ++i) {
      ++run.attempted;
      sp = tr.begin("engine.solve", round_span);
      const Clock::time_point t0 = Clock::now();
      adds::SsspResult<W> r;
      try {
        r = engine.solve(g, srcs[i].s, bounded());
      } catch (const std::exception& ex) {
        tr.end(sp);
        run.fail_op(std::string("solve: ") + ex.what());
        continue;
      }
      ms.push_back(ms_between(t0, Clock::now()));
      tr.end(sp);
      samples.add(r, srcs[i].dijkstra_relax);
      check_solve(run, ref, srcs[i], r, "solve");
      if (rounds == 0 && i < kDijkstraSample) kept[i] = std::move(r.dist);
    }
    tr.end(round_span);
    ++rounds;
  } while (ms_between(loop_start, Clock::now()) < a.seconds * 1000.0);

  for (uint32_t i = 0; i < kDijkstraSample; ++i)
    if (kept[i] != dijkstra(ref, srcs[i].s))
      run.expect("differs from the benchmark's Dijkstra", "solve");

  // This workload measures solve_ms, relaxations_per_solve and setup_s.
  // The service metrics are printed too, as copies of the solve samples
  // (queries_per_s is 1/mean of them): they are aliases, not evidence of
  // their own. A 20 s run has too few solves for a tail (a p95 would have
  // under ten samples beyond it).
  const double solve_ms = median(ms);
  std::fprintf(stderr, "samples: %zu solves in %llu rounds\n", ms.size(),
               static_cast<unsigned long long>(rounds));
  e2e = {
      {"solve_ms", solve_ms, "ms"},
      {"relaxations_per_solve", mean(samples.relaxations), "count"},
      {"queries_per_s", ratio(double(ms.size()), sum(ms) / 1000.0), "1/s"},
      {"full_p50_ms", solve_ms, "ms"},
      {"full_p95_ms", solve_ms, "ms"},
      {"p2p_p50_ms", solve_ms, "ms"},
      {"setup_s", setup_s, "s"},
  };
  if (!tr.enabled()) return;
  samples.to_layers(L);
  reference_layers(run, tr, L, g, ref, srcs, engine, opts);
}

// ---- serve-mix: closed-loop bursts against SsspService ---------------------

constexpr uint32_t kBurst = 8;        // submits per burst
constexpr uint32_t kDeltaEdges = 2;   // undirected edges changed per delta
constexpr uint32_t kWorkBursts = 8;   // distinct bursts re-run for their work

struct Query {
  uint32_t s = 0;
  uint32_t t = kNoVertex;  // kNoVertex: full-tree query
};

class ServeMix {
 public:
  ServeMix(const Args& a, Run& run, Layers& L, Tracer& tr)
      : a_(a), run_(run), L_(L), tr_(tr), rng_(a.seed * 0x9E3779B97F4A7C15ull + 3) {}

  void run(Metrics& e2e) {
    // Set-up: generate, start the service, publish, wait for the table.
    int64_t sp = tr_.begin("graph.generate");
    graph_ = std::make_shared<const CsrGraph<W>>(
        adds::make_grid_road<W>(256, 256, adds::WeightParams{}, kGraphSeed));
    tr_.end(sp);
    cfg_.num_engines = 2;
    cfg_.engine.num_workers = 2;
    svc_ = std::make_unique<adds::SsspService<W>>(cfg_);
    sp = tr_.begin("landmark.build");
    cur_fp_ = svc_->set_graph(graph_);
    wait_table_ready(cur_fp_);
    tr_.end(sp);
    const double setup_s = ms_between(g_process_start, Clock::now()) / 1000.0;

    n_ = graph_->num_vertices();
    gens_.emplace(cur_fp_, own_copy(*graph_));

    // Warm-up: fills the engines' pools and the cache; checked, not timed.
    std::vector<Query> warm_full, warm_p2p;
    for (uint32_t i = 0; i < kBurst; ++i) {
      warm_full.push_back({vertex()});
      warm_p2p.push_back(pair());
      prev_hot_.push_back(warm_full.back().s);
    }
    burst(warm_full, false);
    burst(warm_p2p, false);

    const uint64_t batched_before = svc_->report().batched_queries;
    const Clock::time_point loop_start = Clock::now();
    do {
      one_round();
    } while (ms_between(loop_start, Clock::now()) < a_.seconds * 1000.0);
    wait_settled();
    const adds::ServiceReport rep = svc_->report();
    svc_->shutdown();

    const double queries = double(full_ms_.size() + p2p_ms_.size());
    const double relaxations = batch_work();
    // The mix's proportions are chosen, not taken from measured traffic;
    // these shares say what the service actually saw of them.
    const double cache_share = ratio(full_cache_hits_, double(full_ms_.size()));
    const double coalesced_share =
        ratio(double(rep.batched_queries - batched_before), queries);
    const double repair_share = ratio(during_repair_, queries);
    std::fprintf(stderr,
                 "samples: %zu full-tree, %zu p2p, %zu engine-computed "
                 "queries in %llu rounds; shares: full-tree cache hits "
                 "%.3f, coalesced %.3f, during repair %.3f\n",
                 full_ms_.size(), p2p_ms_.size(), exec_ms_.size(),
                 static_cast<unsigned long long>(rounds_), cache_share,
                 coalesced_share, repair_share);
    e2e = {
        // Engine time of an answer an engine computed: latency minus the
        // wait for an engine.
        {"solve_ms", median(exec_ms_), "ms"},
        {"relaxations_per_solve", relaxations, "count"},
        {"queries_per_s", ratio(queries, busy_ms_ / 1000.0), "1/s"},
        {"full_p50_ms", percentile(full_ms_, 50.0), "ms"},
        {"full_p95_ms", percentile(full_ms_, 95.0), "ms"},
        {"p2p_p50_ms", percentile(p2p_ms_, 50.0), "ms"},
        {"setup_s", setup_s, "s"},
    };
    const double r = double(rounds_);
    L_.set("service.queue_ms_p50", median(queue_ms_));
    L_.set("service.exec_ms_p50", median(exec_ms_));
    L_.set("service.lanes_per_batch",
           ratio(double(rep.batched_queries), double(rep.batches)));
    L_.set("service.cache_hit_rate", rep.cache_hit_rate);
    L_.set("service.engine_utilization", rep.engine_utilization);
    L_.set("service.peak_queue_depth", double(rep.peak_queue_depth));
    L_.set("landmark.exact_serves", ratio(exact_serves_, r));
    L_.set("landmark.alt_searches", ratio(alt_searches_, r));
    L_.set("landmark.engine_fallbacks", ratio(engine_fallbacks_, r));
    L_.set("landmark.alt_ms_p50", median(alt_ms_));
    L_.set("landmark.table_repairs", ratio(double(rep.landmark_repairs_ok), r));
    L_.set("delta.repairs_ok", ratio(double(rep.repairs_ok), r));
    L_.set("delta.repair_fallbacks", ratio(double(rep.repair_fallbacks), r));
    L_.set("delta.stale_hits", ratio(double(rep.delta_stale_hits), r));
    L_.set("mix.full_cache_hit_share", cache_share);
    L_.set("mix.coalesced_share", coalesced_share);
    L_.set("mix.during_repair_share", repair_share);
  }

 private:
  uint32_t vertex() { return uint32_t(rng_() % n_); }
  Query pair() {
    const uint32_t s = vertex();
    uint32_t t = vertex();
    if (t == s) t = (s + 1) % n_;
    return {s, t};
  }

  void wait_table_ready(uint64_t fp) {
    const Clock::time_point t0 = Clock::now();
    while (ms_between(t0, Clock::now()) < 60000.0) {
      for (const adds::TenantStatus& ts : svc_->report().tenants) {
        if (ts.graph_fp != fp) continue;
        if (ts.oracle_status == adds::LandmarkTableStatus::kReady) return;
        if (ts.oracle_status == adds::LandmarkTableStatus::kFailed ||
            ts.oracle_status == adds::LandmarkTableStatus::kUnsupported) {
          run_.expect("landmark table not built", "set-up");
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    run_.expect("landmark table not ready after 60 s", "set-up");
  }

  /// Repairs and table rebuilds of the last delta have all finished.
  bool settled() {
    const adds::ServiceReport rep = svc_->report();
    return rep.repairs_pending == 0 && rep.landmark_builds_pending == 0;
  }
  void note_settle() {
    if (delta_open_ && settled()) {
      tr_.add("delta.settle", delta_at_, Clock::now());
      delta_open_ = false;
    }
  }
  void wait_settled() {
    const Clock::time_point t0 = Clock::now();
    while (!settled() && ms_between(t0, Clock::now()) < 60000.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    note_settle();
  }

  /// One round: ten bursts of kBurst submits, then one delta. A fixed
  /// sequence, so every run attempts the same mix in whole rounds. A burst
  /// of distinct sources coalesces into one 8-lane batch; the same-source
  /// burst (one shared lane) and the repeated sources (mostly cache hits)
  /// are much faster and make up a third of the full-tree queries, so the
  /// full-tree median falls among the distinct-source batches, away from
  /// the boundary between cache hits and misses.
  void one_round() {
    const int64_t rsp = tr_.begin("client.round");
    const std::vector<Query> first = fresh_burst(true);
    p2p_burst();
    burst(std::vector<Query>(kBurst, Query{vertex()}), true);  // one source
    // Half repeat this round's first sources (cached on this generation),
    // half the previous round's, which the last delta sent to repair.
    std::vector<Query> hot;
    for (uint32_t i = 0; i < kBurst; ++i)
      hot.push_back({i % 2 ? first[i].s : prev_hot_[i]});
    burst(hot, true);
    for (int k = 0; k < 3; ++k) {
      p2p_burst();
      const std::vector<Query> qs = fresh_burst(false);
      prev_hot_.clear();
      for (const Query& q : qs) prev_hot_.push_back(q.s);
    }
    p2p_burst();
    apply_delta();
    tr_.end(rsp);
    ++rounds_;
  }

  std::vector<Query> fresh_burst(bool compare_dijkstra) {
    std::vector<Query> qs;
    for (uint32_t i = 0; i < kBurst; ++i) qs.push_back({vertex()});
    if (work_bursts_.size() < kWorkBursts) work_bursts_.push_back({cur_fp_, qs});
    burst(qs, true, compare_dijkstra);
    return qs;
  }

  void p2p_burst() {
    std::vector<Query> qs;
    for (uint32_t i = 0; i < kBurst; ++i) qs.push_back(pair());
    burst(qs, true);
  }

  /// Submits every query, waits for all outcomes (closed loop), then
  /// records and checks them with the clock stopped.
  void burst(const std::vector<Query>& qs, bool timed,
             bool dijkstra_first = false) {
    const int64_t bsp = tr_.begin("client.burst");
    std::vector<Clock::time_point> submitted;
    std::vector<std::future<adds::QueryOutcome<W>>> futs;
    const bool repairing = delta_open_;  // the last delta has not settled
    const Clock::time_point t0 = Clock::now();
    for (const Query& q : qs) {
      adds::QueryOptions o;
      o.target = q.t == kNoVertex ? adds::kInvalidVertex : q.t;
      submitted.push_back(Clock::now());
      futs.push_back(svc_->submit(q.s, o));
    }
    std::vector<adds::QueryOutcome<W>> outs;
    for (auto& f : futs) {
      if (f.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
        std::fprintf(stderr, "a query did not finish within 60 s\n");
        std::_Exit(3);
      }
      outs.push_back(f.get());
    }
    const Clock::time_point t1 = Clock::now();
    tr_.end(bsp);
    if (timed) busy_ms_ += ms_between(t0, t1);
    note_settle();

    for (size_t i = 0; i < qs.size(); ++i) {
      const adds::QueryOutcome<W>& out = outs[i];
      ++run_.attempted;
      if (out.status != adds::QueryStatus::kOk) {
        run_.fail_op(std::string("query: ") +
                     adds::query_status_name(out.status) + " " + out.error);
        continue;
      }
      const bool p2p = qs[i].t != kNoVertex;
      tr_.add(p2p ? "service.query.p2p" : "service.query.full", submitted[i],
              submitted[i] + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     out.latency_ms)),
              bsp, out.query_id);
      if (timed) record(out, p2p, repairing);
      check(qs[i], out, dijkstra_first && i == 0);
    }
  }

  void record(const adds::QueryOutcome<W>& out, bool p2p, bool repairing) {
    (p2p ? p2p_ms_ : full_ms_).push_back(out.latency_ms);
    if (!p2p && out.cache_hit) ++full_cache_hits_;
    if (repairing) ++during_repair_;
    const bool on_engine =
        !out.cache_hit && !out.stale &&
        (out.p2p_serve == adds::P2pServe::kNone ||
         out.p2p_serve == adds::P2pServe::kEngineFallback);
    if (on_engine) {
      queue_ms_.push_back(out.queue_ms);
      exec_ms_.push_back(out.latency_ms - out.queue_ms);
    }
    switch (out.p2p_serve) {
      case adds::P2pServe::kOracleExact: ++exact_serves_; break;
      case adds::P2pServe::kAltSearch:
        ++alt_searches_;
        alt_ms_.push_back(out.latency_ms);
        break;
      case adds::P2pServe::kEngineFallback: ++engine_fallbacks_; break;
      case adds::P2pServe::kNone: break;
    }
  }

  /// Judges an outcome on the generation its graph_fp names.
  void check(const Query& q, const adds::QueryOutcome<W>& out,
             bool compare_dijkstra) {
    const auto it = gens_.find(out.graph_fp);
    if (it == gens_.end()) {
      run_.expect("outcome names an unknown graph generation", "query");
      return;
    }
    const Graph& G = it->second;
    if (q.t != kNoVertex) {
      if (out.p2p_serve == adds::P2pServe::kNone) {
        run_.expect("p2p query answered without a p2p serve", "p2p");
        return;
      }
      const std::vector<Dist> d = dijkstra(G, q.s, q.t);
      const bool reachable = d[q.t] != kInf;
      if (out.p2p_reachable != reachable ||
          (reachable && Dist(out.p2p_distance) != d[q.t]))
        run_.expect("distance differs from the benchmark's Dijkstra", "p2p");
    } else if (!out.result) {
      run_.expect("full-tree outcome without a result", "full");
      return;
    }
    if (!out.result) return;
    const std::vector<Dist>& dist = out.result->dist;
    run_.expect(certify(G, q.s, dist, bfs_reach(G, q.s)), "full tree");
    if (!out.result->parent.empty())
      run_.expect(check_parents(G, q.s, dist, out.result->parent),
                  "full tree parents");
    if (compare_dijkstra && dist != dijkstra(G, q.s))
      run_.expect("differs from the benchmark's Dijkstra", "full tree");
  }

  /// A small symmetric delta: kDeltaEdges undirected edges get a new weight
  /// in both directions. The benchmark applies it to its own copy too.
  void apply_delta() {
    const Graph& cur = gens_.at(cur_fp_);
    Graph child = cur;
    adds::GraphDelta<W> delta;
    for (uint32_t k = 0; k < kDeltaEdges; ++k) {
      uint32_t u = vertex();
      while (cur.end(u) == cur.begin(u)) u = vertex();
      const uint64_t e = cur.begin(u) + rng_() % (cur.end(u) - cur.begin(u));
      const uint32_t v = cur.target(e);
      const uint64_t back = cur.find_edge(v, u);
      const uint32_t w = 1 + uint32_t(rng_() % 10000);
      if (back == Graph::kNoEdge || w == cur.weights[e]) continue;
      child.weights[e] = child.weights[back] = w;
      delta.changes.push_back({u, v, w});
      delta.changes.push_back({v, u, w});
    }
    if (delta.empty()) return;
    note_settle();
    if (delta_open_) {  // not settled before the next write: record as is
      tr_.add("delta.settle", delta_at_, Clock::now());
      delta_open_ = false;
    }
    ++run_.attempted;
    const int64_t sp = tr_.begin("service.apply_delta");
    const Clock::time_point t0 = Clock::now();
    adds::DeltaOutcome o;
    try {
      o = svc_->apply_delta(0, delta);
    } catch (const std::exception& ex) {
      tr_.end(sp);
      run_.fail_op(std::string("apply_delta: ") + ex.what());
      return;
    }
    const Clock::time_point t1 = Clock::now();
    tr_.end(sp);
    busy_ms_ += ms_between(t0, t1);
    if (o.unchanged || o.child_fp == cur_fp_ || gens_.count(o.child_fp)) {
      run_.expect("delta did not publish a new generation", "delta");
      return;
    }
    gens_.emplace(o.child_fp, std::move(child));
    cur_fp_ = o.child_fp;
    delta_at_ = t0;
    delta_open_ = true;
  }

  /// Re-runs the first kWorkBursts distinct-source bursts of the timed
  /// loop as direct 8-lane solve_batch calls, each on the generation it was
  /// sent on, with the service's engine options: the path the service takes
  /// for them, whose work it does not report per answer. Returns the mean
  /// relaxations per lane; every lane is checked.
  double batch_work() {
    HostEngine<W> engine(cfg_.engine);
    std::map<uint64_t, CsrGraph<W>> csr;  // generations, as the engine sees them
    SolveSamples samples;
    uint64_t relaxations = 0, lanes_run = 0;
    std::vector<Source> first;
    for (const SentBurst& b : work_bursts_) {
      const Graph& ref = gens_.at(b.fp);
      auto it = csr.find(b.fp);
      if (it == csr.end())
        it = csr.emplace(b.fp, CsrGraph<W>(std::vector<uint64_t>(*ref.offsets),
                                           std::vector<uint32_t>(*ref.targets),
                                           ref.weights))
                 .first;
      const CsrGraph<W>& g = it->second;
      std::vector<adds::LaneQuery> lanes;
      std::vector<Source> srcs;
      uint64_t dijkstra_relax = 0;
      for (const Query& q : b.queries) {
        lanes.push_back({q.s, nullptr});
        srcs.push_back(make_source(ref, q.s));
        dijkstra_relax += srcs.back().dijkstra_relax;
      }
      if (first.empty()) {
        ++run_.attempted;
        engine.solve_batch(g, lanes, bounded());  // sizes the lane arrays
        first = srcs;
      }
      ++run_.attempted;
      const auto br = engine.solve_batch(g, lanes, bounded());
      uint64_t reached_sum = 0;
      for (size_t i = 0; i < lanes.size(); ++i) {
        const auto& lane = br.lanes[i];
        if (lane.status != adds::LaneStatus::kOk) {
          run_.expect("lane not ok", "work batch");
          continue;
        }
        run_.expect(certify(ref, srcs[i].s, lane.result.dist, srcs[i].reach),
                    "work batch lane");
        run_.expect(check_parents(ref, srcs[i].s, lane.result.dist,
                                  lane.result.parent),
                    "work batch lane parents");
        reached_sum += srcs[i].reached - 1;
      }
      run_.expect(check_counters(reached_sum + 1, br.work.improvements,
                                 br.work.relaxations),
                  "work batch counters");
      relaxations += br.work.relaxations;
      lanes_run += lanes.size();
      samples.add(br.work, br.health, br.window_advances, dijkstra_relax,
                  lanes.size());
    }
    if (tr_.enabled()) {
      samples.to_layers(L_);
      reference_layers(run_, tr_, L_, csr.at(work_bursts_[0].fp),
                       gens_.at(work_bursts_[0].fp), first, engine,
                       cfg_.engine);
    }
    return ratio(double(relaxations), double(lanes_run));
  }

  struct SentBurst {
    uint64_t fp;  // the generation current when the burst was sent
    std::vector<Query> queries;
  };

  const Args& a_;
  Run& run_;
  Layers& L_;
  Tracer& tr_;
  std::mt19937_64 rng_;
  adds::ServiceConfig cfg_;
  std::shared_ptr<const CsrGraph<W>> graph_;
  std::unique_ptr<adds::SsspService<W>> svc_;
  uint32_t n_ = 0;
  uint64_t cur_fp_ = 0;
  std::map<uint64_t, Graph> gens_;  // every generation, by fingerprint
  std::vector<uint32_t> prev_hot_;
  uint64_t rounds_ = 0;
  double busy_ms_ = 0.0;
  std::vector<double> full_ms_, p2p_ms_, queue_ms_, exec_ms_, alt_ms_;
  double exact_serves_ = 0, alt_searches_ = 0, engine_fallbacks_ = 0;
  double full_cache_hits_ = 0, during_repair_ = 0;
  std::vector<SentBurst> work_bursts_;
  Clock::time_point delta_at_;
  bool delta_open_ = false;
};

// ---- entry point -----------------------------------------------------------

std::string json_number(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string metrics_json(const Metrics& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else return false;
  }
  return a.self_test || !a.workload.empty();
}

int main_impl(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ssspbench --workload road-1m|rmat-18|serve-mix "
                 "--seed N --seconds S --trace 0|1\n"
                 "       ssspbench --self-test\n");
    return 2;
  }
  if (a.self_test) {
    const bool ok = self_test();
    std::printf("self-test: %s\n", ok ? "every corruption rejected" : "FAILED");
    return ok ? 0 : 1;
  }
  const bool road = a.workload == "road-1m", rmat = a.workload == "rmat-18",
             serve = a.workload == "serve-mix";
  if (!road && !rmat && !serve) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  Run run;
  Metrics e2e;
  Layers layers;
  Tracer tr(a.trace, g_process_start);
  if (serve) {
    ServeMix(a, run, layers, tr).run(e2e);
  } else {
    engine_workload(a, road, run, e2e, layers, tr);
  }
  run.expect(self_test() ? "" : "a corrupted answer was accepted",
             "checker self-test");
  if (a.trace) {
    span_layers(tr, layers);
    const std::string path = ".bench_build/traces/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    if (!tr.write_json(path, a.workload, a.seed, metrics_json(e2e)))
      std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      run.correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed),
      metrics_json(a.trace ? layers.emit() : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace ssspbench

int main(int argc, char** argv) {
  try {
    return ssspbench::main_impl(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "ssspbench: %s\n", ex.what());
    return 1;
  }
}
