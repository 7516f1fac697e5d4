// Chaos soak harness for the resilient host engine (ISSUE 3 tentpole).
//
// Draws a deterministic sequence of adversarial configurations — tiny and
// auto-sized pools, every fault-injection site (including pool.exhausted),
// aggressive and generous watchdog deadlines, write combining on/off, the
// overload governor on/off, mid-run cancels — runs each one, and holds the
// survivors to the only contract that matters:
//
//   * a run that returns a result must match the Dijkstra oracle exactly;
//   * a guarded run must return (the chain ends in engines with no
//     injection sites), and an unguarded run may only fail by throwing
//     adds::Error — never by hanging (the smoke tier is a ctest entry with
//     a hard timeout) and never by silent corruption.
//
// Fully deterministic per --seed: every run's configuration derives from a
// SoakRng stream, so a failure line like `run=17 seed=0x...` replays
// exactly. The summary table counts outcomes; the process exits nonzero on
// any contract violation.
//
// --service-chaos switches to the service-level phase (ISSUE 5): faults are
// injected into a pooled SsspService mid-solve and the supervisor must
// quarantine + rebuild the wedged engines while the pool keeps answering —
// zero hangs, zero wrong distances, recovery visible in ServiceReport and
// reconstructible from the flight-recorder dump.
//
// --tenant-chaos wedges 1 of 3 catalog tenants with domain-scoped faults and
// requires zero cross-tenant damage. --delta-chaos (ISSUE 8) rewrites the
// live graph under a query burst with injected repair faults and validates
// every survivor against the exact graph generation its outcome claims.
// --landmark-chaos (ISSUE 9) storms the landmark oracle: p2p bursts x
// symmetric delta churn x injected landmark.build faults — a typed table
// failure may downgrade serves to the engine path, never bend a distance.
// --restart-chaos (ISSUE 10) crash-cycles the service through the state
// store with persist.io armed on half the save/load paths: every
// corrupted artifact must be detected typed and cold-rebuilt, every
// served answer must still match Dijkstra, and the fleet must end every
// round fully warm.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <map>
#include <unordered_map>

#include "../tests/oracle_util.hpp"
#include "bench_common.hpp"
#include "core/resilience.hpp"
#include "core/validate.hpp"
#include "graph/analysis.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "service/sssp_service.hpp"
#include "sssp/adds.hpp"
#include "sssp/dijkstra.hpp"
#include "util/event.hpp"
#include "util/fault.hpp"

using namespace adds;

namespace {

// SplitMix64 under a local name (oracle_util pulls in adds::SplitMix64):
// tiny, deterministic, and good enough to decorrelate every configuration
// dimension from one master seed.
struct SoakRng {
  uint64_t state;
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return double(next() >> 11) / double(1ull << 53); }
};

enum class RunMode : uint8_t {
  kPlain,       // raw adds_host, no external interference
  kMidCancel,   // raw adds_host + a canceller thread firing mid-run
  kGuarded,     // run_solver_guarded (watchdog + retry + fallback + audit)
};

struct SoakConfig {
  uint64_t run_seed = 0;
  GraphSpec graph;
  AddsHostOptions host;
  RunMode mode = RunMode::kPlain;
  bool inject = false;  // false: fault-free control run
  fault::Site site = fault::Site::kPoolAllocFail;
  fault::FaultSpec spec;
  double watchdog_min_ms = 0;  // guarded mode only
  double cancel_after_ms = 0;  // mid-cancel mode only
};

SoakConfig draw_config(SoakRng& rng, bool smoke) {
  SoakConfig c;
  c.run_seed = rng.next();

  // Graph: small enough that a soak run takes milliseconds, varied enough
  // to move the bucket/window shapes around.
  switch (rng.below(3)) {
    case 0: {
      const uint64_t side = smoke ? 24 + rng.below(16) : 30 + rng.below(40);
      c.graph.name = "grid_" + std::to_string(side);
      c.graph.family = GraphFamily::kGridRoad;
      c.graph.scale = side;
      c.graph.a = double(side);
      break;
    }
    case 1: {
      const uint64_t scale = smoke ? 9 : 10 + rng.below(2);
      c.graph.name = "rmat_" + std::to_string(scale);
      c.graph.family = GraphFamily::kRmat;
      c.graph.scale = scale;
      c.graph.a = 8;
      break;
    }
    default: {
      const uint64_t side = smoke ? 16 + rng.below(12) : 24 + rng.below(24);
      c.graph.name = "mesh_" + std::to_string(side);
      c.graph.family = GraphFamily::kKNeighborMesh;
      c.graph.scale = side;
      c.graph.a = double(side);
      c.graph.b = 2;
      break;
    }
  }
  c.graph.weights = {WeightDist::kUniform, 1000, 1};
  c.graph.seed = rng.next();

  c.host.num_workers = 2 + uint32_t(rng.below(3));
  c.host.num_buckets = 8;
  c.host.block_words = uint32_t(64u << rng.below(3));  // 64/128/256
  c.host.write_combining = rng.below(2) == 0;
  c.host.pool_governor = rng.below(8) != 0;  // mostly governed
  // Pool: auto-sized, or deliberately tiny so the governor has to spill
  // (ungoverned tiny pools are expected to throw — that is part of the
  // matrix: fail-fast must stay clean under chaos too).
  if (rng.below(2) == 0)
    c.host.pool_blocks =
        c.host.num_buckets + 2 + uint32_t(rng.below(24));

  // Fault site (or a fault-free control run). pool.exhausted leans on the
  // governor; the others stress publication, scheduling and allocator
  // hard-failure paths.
  static constexpr fault::Site kSites[] = {
      fault::Site::kPoolExhausted, fault::Site::kPoolAllocFail,
      fault::Site::kPushDelay,     fault::Site::kPushDropBeforePublish,
      fault::Site::kManagerScanStall,
      fault::Site::kAfDeliveryDelay,
      fault::Site::kWorkerStall,
  };
  const uint64_t pick = rng.below(sizeof(kSites) / sizeof(kSites[0]) + 1);
  c.inject = pick != 0;
  if (c.inject) c.site = kSites[pick - 1];
  switch (c.inject ? c.site : fault::Site(0xff)) {
    case fault::Site::kPoolExhausted:
      c.spec = {0.1 + 0.4 * rng.unit(), ~0ull, 0};
      break;
    case fault::Site::kPoolAllocFail:
      c.spec = {0.1, 1 + rng.below(4), 0};
      break;
    case fault::Site::kPushDelay:
      c.spec = {0.05, ~0ull, uint32_t(100 + rng.below(400))};
      break;
    case fault::Site::kPushDropBeforePublish:
      c.spec = {0.02 + 0.05 * rng.unit(), 1 + rng.below(8), 0};
      break;
    case fault::Site::kManagerScanStall:
    case fault::Site::kAfDeliveryDelay:
    case fault::Site::kWorkerStall:
      c.spec = {0.1, ~0ull, uint32_t(200 + rng.below(smoke ? 300 : 1500))};
      break;
    default:
      break;
  }

  switch (rng.below(3)) {
    case 0: c.mode = RunMode::kPlain; break;
    case 1: c.mode = RunMode::kMidCancel; break;
    default: c.mode = RunMode::kGuarded; break;
  }
  c.watchdog_min_ms =
      rng.below(2) == 0 ? 50.0 : (smoke ? 400.0 : 2000.0);  // aggressive/normal
  c.cancel_after_ms = 1.0 + 20.0 * rng.unit();
  return c;
}

struct Tally {
  uint64_t ok = 0;             // returned and validated
  uint64_t clean_error = 0;    // threw adds::Error (accepted for raw modes)
  uint64_t cancelled = 0;      // mid-cancel runs observed the cancel
  uint64_t fault_fires = 0;
  uint64_t spilled_items = 0;
  uint64_t governed_spill_runs = 0;
  uint64_t violations = 0;     // wrong result / unexpected failure shape
};

const char* mode_name(RunMode m) {
  switch (m) {
    case RunMode::kPlain: return "plain";
    case RunMode::kMidCancel: return "mid-cancel";
    case RunMode::kGuarded: return "guarded";
  }
  return "?";
}

/// Runs one drawn configuration. Returns a violation description, or "".
std::string run_one(const SoakConfig& c, Tally& t) {
  const auto g = generate_graph<uint32_t>(c.graph);
  const VertexId src = pick_source(g);
  const auto oracle = dijkstra(g, src);

  fault::FaultPlan plan(c.run_seed);
  if (c.inject) plan.set(c.site, c.spec);
  fault::FaultScope scope(plan);

  const auto check = [&](const SsspResult<uint32_t>& res) -> std::string {
    if (!validate_distances(res, oracle).ok())
      return "result diverged from Dijkstra oracle";
    ++t.ok;
    t.spilled_items += res.health.spilled_items;
    if (res.health.spilled_items > 0) ++t.governed_spill_runs;
    return "";
  };

  std::string violation;
  switch (c.mode) {
    case RunMode::kPlain:
    case RunMode::kMidCancel: {
      // Raw adds_host has no watchdog, and several sites (dropped
      // publication, a starved tiny pool with the governor off) wedge the
      // termination protocol by design. A deadline canceller bounds every
      // raw run; mid-cancel mode additionally fires an early cancel to
      // exercise prompt teardown from deep-parked states.
      std::atomic<bool> cancel{false};
      std::atomic<bool> finished{false};
      Event cancel_event;
      AddsHostOptions opts = c.host;
      opts.cancel = &cancel;
      opts.cancel_event = &cancel_event;
      const double deadline_ms =
          c.mode == RunMode::kMidCancel ? c.cancel_after_ms : 2000.0;
      std::thread canceller([&] {
        const auto step = std::chrono::milliseconds(1);
        auto waited = std::chrono::duration<double, std::milli>(0);
        while (!finished.load(std::memory_order_acquire) &&
               waited.count() < deadline_ms) {
          std::this_thread::sleep_for(step);
          waited += step;
        }
        cancel.store(true, std::memory_order_release);
        cancel_event.notify_all();
      });
      try {
        // A fast run may legitimately finish before the cancel lands.
        violation = check(adds_host(g, src, opts));
      } catch (const Error&) {
        if (c.mode == RunMode::kMidCancel)
          ++t.cancelled;
        else
          ++t.clean_error;  // fail-fast/wedge/deadline: clean throw only
      }
      finished.store(true, std::memory_order_release);
      canceller.join();
      break;
    }
    case RunMode::kGuarded: {
      EngineConfig cfg;
      cfg.adds_host = c.host;
      ResiliencePolicy policy;
      policy.watchdog_min_ms = c.watchdog_min_ms;
      policy.retry_backoff_ms = 1.0;
      policy.max_attempts_per_engine = 2;
      try {
        violation = check(run_solver_guarded(SolverKind::kAddsHost, g, src,
                                             cfg, policy));
      } catch (const Error& e) {
        // The fallback chain ends in fault-free engines: a guarded run
        // must always produce a result.
        violation = std::string("guarded run threw: ") + e.what();
      }
      break;
    }
  }
  t.fault_fires += plan.total_fires();
  return violation;
}

// ---------------------------------------------------------------------------
// Service-level chaos: supervision under fire
// ---------------------------------------------------------------------------

void dump_flight(const SsspService<uint32_t>& svc) {
  const auto events = svc.flight_dump();
  std::fprintf(stderr, "flight recorder (%zu events):\n", events.size());
  for (const auto& e : events)
    std::fprintf(stderr, "  %s\n", format_flight_event(e).c_str());
}

template <typename Pred>
bool poll_until(Pred&& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

bool flight_has(const std::vector<StampedFlightEvent>& events, FlightKind k) {
  for (const auto& e : events)
    if (e.ev.kind == uint16_t(k)) return true;
  return false;
}

struct SupervisionTotals {
  uint64_t kills = 0;
  uint64_t quarantines = 0;
  uint64_t rebuilds = 0;
};

/// One round: arm faults, burst queries at a 3-engine service, require the
/// supervisor to kill/quarantine/rebuild the wedged engines while the pool
/// keeps answering; then disarm and require full recovery plus clean
/// serves. Returns the number of contract violations (and dumps the flight
/// recorder on the first one).
uint64_t service_chaos_round(uint64_t round, uint64_t seed, bool smoke,
                             bool verbose, Tally& t,
                             SupervisionTotals& totals) {
  const uint64_t side = smoke ? 28 : 36;
  GraphSpec spec;
  spec.name = "grid_" + std::to_string(side);
  spec.family = GraphFamily::kGridRoad;
  spec.scale = side;
  spec.a = double(side);
  spec.weights = {WeightDist::kUniform, 1000, 1};
  spec.seed = seed;
  const auto g = generate_graph<uint32_t>(spec);

  constexpr VertexId kSources = 6;
  std::vector<SsspResult<uint32_t>> oracles;
  for (VertexId s = 0; s < kSources; ++s) oracles.push_back(dijkstra(g, s));

  ServiceConfig cfg;
  cfg.num_engines = 3;
  cfg.max_queue_depth = 128;
  cfg.cache_entries = 0;      // every query must touch an engine
  cfg.guarded_fallback = false;  // the supervisor IS the recovery story
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.wedge_ms = 120.0;
  cfg.supervisor.quarantine_after_errors = 1;
  cfg.supervisor.probe_deadline_ms = 500.0;
  cfg.supervisor.max_probe_failures = 100;  // recovery, not retirement
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);

  uint64_t violations = 0;
  const auto violation = [&](const std::string& what) {
    ++violations;
    std::fprintf(stderr, "VIOLATION service-chaos round=%llu seed=0x%llx: %s\n",
                 (unsigned long long)round, (unsigned long long)seed,
                 what.c_str());
    if (violations == 1) dump_flight(svc);
  };

  // Phase A — chaos burst. A limited budget of dropped publications wedges
  // k of the 3 engines mid-solve; stalls add scheduling noise. Every
  // future must resolve (hang = violation); every kOk must match Dijkstra.
  uint64_t ok_during = 0, failed_during = 0;
  {
    fault::FaultPlan plan(seed);
    plan.set(fault::Site::kPushDropBeforePublish, {1.0, /*max_fires=*/2, 0});
    plan.set(fault::Site::kWorkerStall, {0.05, ~0ull, 1000});
    fault::FaultScope scope(plan);

    const int burst = smoke ? 24 : 48;
    QueryOptions q;
    std::vector<std::future<QueryOutcome<uint32_t>>> futs;
    for (int i = 0; i < burst; ++i)
      futs.push_back(svc.submit(VertexId(i % kSources), q));
    for (int i = 0; i < burst; ++i) {
      if (futs[size_t(i)].wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        violation("query hung under faults (future never resolved)");
        return violations;  // cannot safely continue this round
      }
      const auto out = futs[size_t(i)].get();
      if (out.status == QueryStatus::kOk) {
        ++ok_during;
        if (!validate_distances(*out.result,
                                oracles[size_t(i) % kSources]).ok())
          violation("chaos-phase result diverged from Dijkstra oracle");
      } else {
        ++failed_during;  // typed failure under injected faults: accepted
      }
    }
    t.fault_fires += plan.total_fires();
  }
  if (ok_during == 0)
    violation("pool stopped answering during the chaos burst");

  // Phase B — recovery. With faults disarmed the rebuilder must return
  // every quarantined slot to service: full availability, nothing retired.
  if (!poll_until(
          [&] {
            const auto rep = svc.report();
            return rep.engines_available == cfg.num_engines;
          },
          20000))
    violation("engines never returned to full availability after disarm");

  // Phase C — clean serves. Every source must now produce a validated
  // fresh result.
  for (VertexId s = 0; s < kSources; ++s) {
    const auto out = svc.submit(s).get();
    if (out.status != QueryStatus::kOk) {
      violation("post-recovery query failed: " + out.error);
      continue;
    }
    if (!validate_distances(*out.result, oracles[s]).ok())
      violation("post-recovery result diverged from Dijkstra oracle");
    ++t.ok;
  }

  const auto rep = svc.report();
  totals.kills += rep.supervisor_kills;
  totals.quarantines += rep.quarantines;
  totals.rebuilds += rep.rebuilds;
  if (verbose)
    std::fprintf(stderr,
                 "round=%llu kills=%llu quarantines=%llu rebuilds=%llu "
                 "ok_during=%llu failed_during=%llu flight_events=%llu\n",
                 (unsigned long long)round,
                 (unsigned long long)rep.supervisor_kills,
                 (unsigned long long)rep.quarantines,
                 (unsigned long long)rep.rebuilds,
                 (unsigned long long)ok_during,
                 (unsigned long long)failed_during,
                 (unsigned long long)rep.flight_events);

  // The episode must be reconstructible from the flight recorder.
  const auto events = svc.flight_dump();
  if (rep.quarantines > 0 &&
      (!flight_has(events, FlightKind::kEngineQuarantined) ||
       !flight_has(events, FlightKind::kEngineRecovered)))
    violation("flight recorder is missing the quarantine/recovery events");
  return violations;
}

// ---------------------------------------------------------------------------
// Tenant-level chaos: blast-radius containment under fire
// ---------------------------------------------------------------------------

/// One round: three tenants on one pool, domain-scoped faults wedge exactly
/// one of them. Contract: every future resolves; the two SURVIVOR tenants
/// take zero typed damage (no shed, no quarantine, no brownout transition,
/// breaker closed) and every survivor result matches its own graph's
/// Dijkstra oracle; after disarm the victim recovers through its breaker's
/// half-open trial and all three tenants serve clean.
uint64_t tenant_chaos_round(uint64_t round, uint64_t seed, bool smoke,
                            bool verbose, Tally& t,
                            SupervisionTotals& totals) {
  constexpr int kTenants = 3;
  constexpr VertexId kSources = 4;
  const uint64_t side = smoke ? 24 : 32;

  std::vector<std::shared_ptr<const IntGraph>> graphs;
  std::vector<uint64_t> fps;
  std::vector<std::vector<SsspResult<uint32_t>>> oracles(kTenants);
  for (int k = 0; k < kTenants; ++k) {
    GraphSpec spec;
    spec.name = "grid_t" + std::to_string(k);
    spec.family = GraphFamily::kGridRoad;
    spec.scale = side;
    spec.a = double(side);
    spec.weights = {WeightDist::kUniform, 1000, 1};
    spec.seed = seed + uint64_t(k);
    graphs.push_back(std::make_shared<const IntGraph>(
        generate_graph<uint32_t>(spec)));
    fps.push_back(graph_fingerprint(*graphs.back()));
    for (VertexId s = 0; s < kSources; ++s)
      oracles[size_t(k)].push_back(dijkstra(*graphs.back(), s));
  }

  ServiceConfig cfg;
  cfg.num_engines = 3;
  cfg.max_queue_depth = 128;
  cfg.cache_entries = 0;         // every query must touch an engine
  cfg.guarded_fallback = false;  // containment IS the recovery story
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.wedge_ms = 120.0;
  cfg.supervisor.quarantine_after_errors = 1;
  cfg.supervisor.probe_deadline_ms = 500.0;
  cfg.supervisor.max_probe_failures = 100;  // recovery, not retirement
  cfg.tenant.engine_share = 0.34;  // each tenant: at most 1 of the 3 slots
  cfg.tenant.breaker_open_after = 3;
  cfg.tenant.breaker_cooldown_ms = 150.0;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(graphs[0]);
  for (int k = 1; k < kTenants; ++k) svc.publish_graph(graphs[size_t(k)]);

  const size_t victim = size_t(round) % kTenants;

  uint64_t violations = 0;
  const auto violation = [&](const std::string& what) {
    ++violations;
    std::fprintf(stderr, "VIOLATION tenant-chaos round=%llu seed=0x%llx: %s\n",
                 (unsigned long long)round, (unsigned long long)seed,
                 what.c_str());
    if (violations == 1) dump_flight(svc);
  };

  // Publishing queued a cold landmark-table build per tenant, and a build
  // runs in its tenant's fault domain. Let them finish before arming: a
  // victim build still in flight would take the plan's drop budget itself,
  // leaving the victim's queries unbitten.
  const auto tables_settled = [&] {
    const auto rep = svc.report();
    if (rep.landmark_builds_pending > 0) return false;
    for (const auto& ts : rep.tenants)
      if (ts.oracle_status == LandmarkTableStatus::kBuilding) return false;
    return true;
  };
  if (!poll_until(tables_settled, 30000)) {
    violation("landmark builds never settled before the chaos burst");
    return violations;
  }

  // Phase A — scoped chaos burst. The plan only fires inside the victim's
  // fault domain: its queries wedge and stall, the survivors' solves (and
  // the rebuilder's probes, which run in domain 0) never see it.
  uint64_t victim_failures = 0, survivor_ok = 0;
  {
    fault::FaultPlan plan(seed);
    plan.set(fault::Site::kPushDropBeforePublish, {1.0, /*max_fires=*/3, 0});
    plan.set(fault::Site::kWorkerStall, {0.05, ~0ull, 500});
    plan.restrict_domain(fps[victim]);
    fault::FaultScope scope(plan);

    const int burst = (smoke ? 8 : 16) * kTenants;
    std::vector<std::future<QueryOutcome<uint32_t>>> futs;
    std::vector<size_t> owner;
    for (int i = 0; i < burst; ++i) {
      const size_t k = size_t(i) % kTenants;
      QueryOptions q;
      q.graph_fp = fps[k];
      futs.push_back(svc.submit(VertexId(i / kTenants) % kSources, q));
      owner.push_back(k);
    }
    for (int i = 0; i < burst; ++i) {
      if (futs[size_t(i)].wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        violation("query hung under tenant-scoped faults");
        return violations;  // cannot safely continue this round
      }
      const auto out = futs[size_t(i)].get();
      const size_t k = owner[size_t(i)];
      if (k == victim) {
        // The victim may fail, quarantine or succeed — all typed, all
        // accepted; the blast just must not leave its bulkhead.
        if (out.status == QueryStatus::kOk) {
          if (!validate_distances(*out.result,
                                  oracles[k][size_t(i / kTenants) % kSources])
                   .ok())
            violation("victim kOk result diverged from its oracle");
        } else {
          ++victim_failures;
        }
        continue;
      }
      if (out.status != QueryStatus::kOk) {
        violation("survivor tenant took typed damage: " +
                  std::string(query_status_name(out.status)) +
                  (out.error.empty() ? "" : ": " + out.error));
        continue;
      }
      if (!validate_distances(*out.result,
                              oracles[k][size_t(i / kTenants) % kSources])
               .ok())
        violation("survivor result diverged from its own graph's oracle");
      ++survivor_ok;
    }
    t.fault_fires += plan.total_fires();
  }
  if (survivor_ok == 0)
    violation("survivor tenants stopped answering during the blast");
  if (victim_failures == 0)
    violation("chaos never bit the victim (round proves nothing)");

  // Phase B — recovery. Slots return; the victim's breaker half-opens
  // after its cooldown and the trial query closes it.
  if (!poll_until(
          [&] { return svc.report().engines_available == cfg.num_engines; },
          20000))
    violation("engines never returned to full availability after disarm");
  {
    QueryOptions q;
    q.graph_fp = fps[victim];
    bool recovered = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto out = svc.submit(0, q).get();
      if (out.status == QueryStatus::kOk) {
        if (!validate_distances(*out.result, oracles[victim][0]).ok())
          violation("victim post-recovery result diverged from its oracle");
        recovered = true;
        break;
      }
      // kTenantQuarantined while the cooldown runs is the breaker working.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!recovered) violation("victim tenant never recovered after disarm");
  }

  // Phase C — the containment ledger. Survivor rows must be pristine.
  const auto rep = svc.report();
  for (size_t k = 0; k < size_t(kTenants); ++k) {
    const TenantStatus* row = nullptr;
    for (const auto& ts : rep.tenants)
      if (ts.graph_fp == fps[k]) row = &ts;
    if (row == nullptr) {
      violation("tenant row missing from the report");
      continue;
    }
    if (k == victim) continue;
    if (row->health != ServiceHealth::kHealthy)
      violation("survivor ended degraded (cross-tenant brownout)");
    if (row->health_transitions != 0)
      violation("survivor's governor transitioned during the blast");
    if (row->breaker != BreakerState::kClosed || row->breaker_opens != 0)
      violation("survivor's circuit breaker was disturbed");
    if (row->shed != 0 || row->quarantined != 0 || row->failed != 0)
      violation("survivor counted typed damage (shed/quarantine/failure)");
  }

  totals.kills += rep.supervisor_kills;
  totals.quarantines += rep.quarantines;
  totals.rebuilds += rep.rebuilds;
  if (verbose)
    std::fprintf(stderr,
                 "round=%llu victim=%zu victim_failures=%llu survivor_ok=%llu "
                 "kills=%llu quarantines=%llu rebinds=%llu\n",
                 (unsigned long long)round, victim,
                 (unsigned long long)victim_failures,
                 (unsigned long long)survivor_ok,
                 (unsigned long long)rep.supervisor_kills,
                 (unsigned long long)rep.quarantines,
                 (unsigned long long)rep.engine_rebinds);
  t.ok += survivor_ok;
  return violations;
}

int run_tenant_chaos(uint64_t master_seed, uint64_t rounds, bool smoke,
                     bool verbose) {
  SoakRng rng{master_seed};
  Tally tally;
  SupervisionTotals totals;
  for (uint64_t r = 0; r < rounds; ++r)
    tally.violations +=
        tenant_chaos_round(r, rng.next(), smoke, verbose, tally, totals);

  // Containment only counts if the blast actually poisoned slots.
  if (totals.quarantines == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION tenant-chaos: the victim never poisoned an "
                 "engine (quarantines=0)\n");
  }

  TextTable table("Tenant chaos (" + std::to_string(rounds) +
                  " rounds, seed " + std::to_string(master_seed) + ")");
  table.set_header({"outcome", "count"});
  table.add_row({"validated survivor serves", std::to_string(tally.ok)});
  table.add_row({"contract violations", std::to_string(tally.violations)});
  table.add_row({"fault fires", std::to_string(tally.fault_fires)});
  table.add_row({"supervisor kills", std::to_string(totals.kills)});
  table.add_row({"quarantines", std::to_string(totals.quarantines)});
  table.add_row({"rebuilds", std::to_string(totals.rebuilds)});
  table.add_footer(
      "domain-scoped faults wedge 1 of 3 tenants; the other two must take "
      "zero typed damage and every survivor result validates");
  table.print();
  return tally.violations == 0 ? 0 : 1;
}

int run_service_chaos(uint64_t master_seed, uint64_t rounds, bool smoke,
                      bool verbose) {
  SoakRng rng{master_seed};
  Tally tally;
  SupervisionTotals totals;
  for (uint64_t r = 0; r < rounds; ++r)
    tally.violations +=
        service_chaos_round(r, rng.next(), smoke, verbose, tally, totals);

  // The suite's reason to exist: supervision must actually have engaged.
  // A plan that never wedged an engine proves nothing about recovery.
  if (totals.quarantines == 0 || totals.rebuilds == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION service-chaos: supervision never engaged "
                 "(quarantines=%llu rebuilds=%llu)\n",
                 (unsigned long long)totals.quarantines,
                 (unsigned long long)totals.rebuilds);
  }

  TextTable table("Service chaos (" + std::to_string(rounds) +
                  " rounds, seed " + std::to_string(master_seed) + ")");
  table.set_header({"outcome", "count"});
  table.add_row({"validated post-recovery serves", std::to_string(tally.ok)});
  table.add_row({"contract violations", std::to_string(tally.violations)});
  table.add_row({"fault fires", std::to_string(tally.fault_fires)});
  table.add_row({"supervisor kills", std::to_string(totals.kills)});
  table.add_row({"quarantines", std::to_string(totals.quarantines)});
  table.add_row({"rebuilds", std::to_string(totals.rebuilds)});
  table.add_footer(
      "faults wedge k of 3 pooled engines mid-solve; the supervisor must "
      "quarantine + rebuild while the pool keeps answering");
  table.print();
  return tally.violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Delta chaos: live graph rewrites under fire
// ---------------------------------------------------------------------------

struct DeltaTotals {
  uint64_t deltas = 0;
  uint64_t repair_fires = 0;
  uint64_t repairs_ok = 0;
  uint64_t repair_fallbacks = 0;
  uint64_t stale_hits = 0;
};

/// One round: concurrent queries x repeated deltas x injected repair
/// faults. The service's default graph is rewritten out from under a
/// query burst again and again while repair.delta makes half the warm
/// repairs fail. Contract: every future resolves (hang = violation);
/// every kOk survivor is Dijkstra-validated against the EXACT graph
/// generation its outcome claims (stale answers against the ancestor
/// they name, fresh answers against the then-current child); after the
/// storm the fleet converges to the final generation and serves it
/// clean. Returns the number of contract violations.
uint64_t delta_chaos_round(uint64_t round, uint64_t seed, bool smoke,
                           bool verbose, Tally& t, DeltaTotals& totals) {
  const uint64_t side = smoke ? 20 : 28;
  GraphSpec spec;
  spec.name = "grid_" + std::to_string(side);
  spec.family = GraphFamily::kGridRoad;
  spec.scale = side;
  spec.a = double(side);
  spec.weights = {WeightDist::kUniform, 1000, 1};
  spec.seed = seed;
  const auto g = generate_graph<uint32_t>(spec);
  constexpr VertexId kSources = 4;

  ServiceConfig cfg;
  cfg.num_engines = 2;
  cfg.max_queue_depth = 256;
  cfg.guarded_fallback = false;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.delta.stale_serve_ms = 5000.0;       // window open for the whole burst
  cfg.delta.repair_deadline_ms = 30000.0;  // injected stalls must not expire it
  SsspService<uint32_t> svc(cfg);
  const uint64_t root_fp = svc.set_graph(g);

  // Every generation this round ever publishes, keyed by fingerprint, so
  // a survivor can be validated on the graph version it claims — plus a
  // memoized Dijkstra oracle per (generation, source).
  std::unordered_map<uint64_t, IntGraph> versions;
  versions.emplace(root_fp, g);
  IntGraph cur = g;
  std::map<std::pair<uint64_t, VertexId>, SsspResult<uint32_t>> oracle_memo;
  const auto oracle_for =
      [&](uint64_t fp, VertexId s) -> const SsspResult<uint32_t>* {
    const auto key = std::make_pair(fp, s);
    auto it = oracle_memo.find(key);
    if (it == oracle_memo.end()) {
      const auto gv = versions.find(fp);
      if (gv == versions.end()) return nullptr;
      it = oracle_memo.emplace(key, dijkstra(gv->second, s)).first;
    }
    return &it->second;
  };

  uint64_t violations = 0;
  const auto violation = [&](const std::string& what) {
    ++violations;
    std::fprintf(stderr, "VIOLATION delta-chaos round=%llu seed=0x%llx: %s\n",
                 (unsigned long long)round, (unsigned long long)seed,
                 what.c_str());
    if (violations == 1) dump_flight(svc);
  };

  // Warm the root generation's cache so the first delta has trees to repair.
  for (VertexId s = 0; s < kSources; ++s) svc.query(s);

  uint64_t stale_served = 0, fresh_served = 0, typed_failures = 0;
  {
    fault::FaultPlan plan(seed);
    plan.set(fault::Site::kDeltaRepair, {0.5, ~0ull, 0});
    plan.set(fault::Site::kManagerScanStall, {0.2, ~0ull, 2000});
    fault::FaultScope scope(plan);

    SoakRng rng{seed ^ 0xde17ac4a05ull};
    const int deltas = smoke ? 4 : 8;
    std::vector<std::future<QueryOutcome<uint32_t>>> futs;
    std::vector<VertexId> srcs;
    const auto burst = [&] {
      for (VertexId s = 0; s < kSources; ++s) {
        futs.push_back(svc.submit(s));
        srcs.push_back(s);
      }
    };
    for (int dno = 0; dno < deltas; ++dno) {
      burst();  // queries in flight while the graph is rewritten under them
      const auto delta = oracle::make_test_delta(
          cur, 5 + rng.below(6), 1 + rng.below(3),
          seed * 1000 + uint64_t(dno));
      const auto out = svc.apply_delta(0, delta);
      cur = apply_delta(cur, delta).graph;
      if (graph_fingerprint(cur) != out.child_fp) {
        violation("service child fingerprint diverged from reference apply");
        return violations;  // the version map is useless from here on
      }
      versions.emplace(out.child_fp, cur);
      ++totals.deltas;
      burst();  // these race the repair window: stale serves are legal
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Zero hangs; every survivor validated on the generation it claims.
    for (size_t i = 0; i < futs.size(); ++i) {
      if (futs[i].wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        violation("query hung during delta chaos (future never resolved)");
        return violations;  // cannot safely continue this round
      }
      const auto out = futs[i].get();
      if (out.status != QueryStatus::kOk) {
        ++typed_failures;  // typed shed/degradation under chaos: accepted
        continue;
      }
      const auto* ora = oracle_for(out.graph_fp, srcs[i]);
      if (ora == nullptr) {
        violation("survivor claims a graph generation that never existed");
        continue;
      }
      if (!validate_distances(*out.result, *ora).ok())
        violation(out.stale
                      ? "stale answer diverged from the ancestor it claims"
                      : "fresh answer diverged from the child it claims");
      if (out.stale)
        ++stale_served;
      else
        ++fresh_served;
      ++t.ok;
    }

    // Every repair settles while the plan is still armed (it must outlive
    // all threads inside solver code).
    if (!poll_until([&] { return svc.report().repairs_pending == 0; }, 30000)) {
      violation("repairs never settled after the delta storm");
      return violations;
    }
    t.fault_fires += plan.total_fires();
    totals.repair_fires += plan.fires(fault::Site::kDeltaRepair);
  }
  if (fresh_served == 0)
    violation("no fresh answer survived the storm (service stopped serving)");

  // Convergence: every superseded generation retires; only the final
  // child remains resident, and it serves clean validated answers.
  const uint64_t final_fp = graph_fingerprint(cur);
  if (!poll_until([&] { return svc.resident_graphs().size() == 1; }, 20000)) {
    violation("superseded graph generations never retired");
  } else {
    const auto residents = svc.resident_graphs();
    if (residents[0] != final_fp)
      violation("service converged to the wrong generation");
  }
  for (VertexId s = 0; s < kSources; ++s) {
    const auto q = svc.query(s);
    if (q.graph_fp != final_fp || q.stale) {
      violation("post-storm serve is not fresh on the final child");
      continue;
    }
    const auto* ora = oracle_for(final_fp, s);
    if (ora == nullptr || !validate_distances(*q.result, *ora).ok())
      violation("post-storm result diverged from the final child's oracle");
    ++t.ok;
  }

  const auto rep = svc.report();
  totals.repairs_ok += rep.repairs_ok;
  totals.repair_fallbacks += rep.repair_fallbacks;
  totals.stale_hits += rep.delta_stale_hits;

  // The episode must be reconstructible from the flight recorder.
  const auto events = svc.flight_dump();
  if (!flight_has(events, FlightKind::kDeltaPublished))
    violation("flight recorder is missing the delta-published events");
  if (rep.repair_fallbacks > 0 &&
      !flight_has(events, FlightKind::kRepairFallback))
    violation("flight recorder is missing the repair-fallback events");

  if (verbose)
    std::fprintf(stderr,
                 "round=%llu deltas=%llu repairs_ok=%llu fallbacks=%llu "
                 "stale=%llu fresh=%llu typed_failures=%llu stale_hits=%llu\n",
                 (unsigned long long)round, (unsigned long long)totals.deltas,
                 (unsigned long long)rep.repairs_ok,
                 (unsigned long long)rep.repair_fallbacks,
                 (unsigned long long)stale_served,
                 (unsigned long long)fresh_served,
                 (unsigned long long)typed_failures,
                 (unsigned long long)rep.delta_stale_hits);
  return violations;
}

int run_delta_chaos(uint64_t master_seed, uint64_t rounds, bool smoke,
                    bool verbose) {
  SoakRng rng{master_seed};
  Tally tally;
  DeltaTotals totals;
  for (uint64_t r = 0; r < rounds; ++r)
    tally.violations +=
        delta_chaos_round(r, rng.next(), smoke, verbose, tally, totals);

  // The suite's reason to exist: both repair outcomes must actually have
  // been exercised. A storm where the fault site never fired (or where no
  // repair ever survived) proves nothing about the pipeline.
  if (totals.repair_fires == 0 || totals.repair_fallbacks == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION delta-chaos: injected repair faults never bit "
                 "(fires=%llu fallbacks=%llu)\n",
                 (unsigned long long)totals.repair_fires,
                 (unsigned long long)totals.repair_fallbacks);
  }
  if (totals.repairs_ok == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION delta-chaos: no warm repair ever succeeded "
                 "(the repair path itself went unexercised)\n");
  }

  TextTable table("Delta chaos (" + std::to_string(rounds) +
                  " rounds, seed " + std::to_string(master_seed) + ")");
  table.set_header({"outcome", "count"});
  table.add_row({"validated serves", std::to_string(tally.ok)});
  table.add_row({"contract violations", std::to_string(tally.violations)});
  table.add_row({"deltas applied", std::to_string(totals.deltas)});
  table.add_row({"repairs ok", std::to_string(totals.repairs_ok)});
  table.add_row({"repair fallbacks", std::to_string(totals.repair_fallbacks)});
  table.add_row({"stale window hits", std::to_string(totals.stale_hits)});
  table.add_row({"fault fires", std::to_string(tally.fault_fires)});
  table.add_footer(
      "concurrent queries x repeated deltas x injected repair faults; "
      "every survivor validated on the graph generation it claims");
  table.print();
  return tally.violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Landmark chaos: oracle tables under build faults and delta churn
// ---------------------------------------------------------------------------

struct LandmarkTotals {
  uint64_t build_fires = 0;
  uint64_t builds_ok = 0;
  uint64_t repairs_ok = 0;
  uint64_t rebuild_fallbacks = 0;
  uint64_t build_failures = 0;
  uint64_t oracle_exact = 0;
  uint64_t alt_searches = 0;
  uint64_t engine_fallbacks = 0;
};

/// One round: p2p query bursts x symmetric delta churn x injected
/// landmark.build faults (which bite both cold table builds and warm
/// per-lane repairs). Contract: every future resolves; every kOk p2p
/// answer is bit-equal to the Dijkstra distance of the EXACT graph
/// generation its outcome claims, whatever the serve path — a failed
/// build may only ever downgrade serves to the engine path, never bend a
/// distance. After the storm a fault-free delta must bring the table
/// back to READY and the final generation must serve p2p clean off the
/// oracle. Returns the number of contract violations.
uint64_t landmark_chaos_round(uint64_t round, uint64_t seed, bool smoke,
                              bool verbose, Tally& t,
                              LandmarkTotals& totals) {
  const uint64_t side = smoke ? 16 : 24;
  GraphSpec spec;
  spec.name = "grid_" + std::to_string(side);
  spec.family = GraphFamily::kGridRoad;
  spec.scale = side;
  spec.a = double(side);
  spec.weights = {WeightDist::kUniform, 1000, 1};
  spec.seed = seed;
  const auto g = generate_graph<uint32_t>(spec);
  const VertexId n_v = g.num_vertices();

  ServiceConfig cfg;
  cfg.num_engines = 2;
  cfg.max_queue_depth = 256;
  cfg.guarded_fallback = false;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.delta.stale_serve_ms = 5000.0;
  cfg.delta.repair_deadline_ms = 30000.0;
  cfg.landmark.num_landmarks = 4;
  SsspService<uint32_t> svc(cfg);
  const uint64_t root_fp = svc.set_graph(g);

  // Every generation this round publishes, keyed by fingerprint, plus a
  // memoized Dijkstra tree per (generation, source) — a p2p survivor is
  // validated on the exact graph version its outcome claims.
  std::unordered_map<uint64_t, IntGraph> versions;
  versions.emplace(root_fp, g);
  IntGraph cur = g;
  std::map<std::pair<uint64_t, VertexId>, SsspResult<uint32_t>> oracle_memo;
  const auto oracle_for =
      [&](uint64_t fp, VertexId s) -> const SsspResult<uint32_t>* {
    const auto key = std::make_pair(fp, s);
    auto it = oracle_memo.find(key);
    if (it == oracle_memo.end()) {
      const auto gv = versions.find(fp);
      if (gv == versions.end()) return nullptr;
      it = oracle_memo.emplace(key, dijkstra(gv->second, s)).first;
    }
    return &it->second;
  };

  uint64_t violations = 0;
  const auto violation = [&](const std::string& what) {
    ++violations;
    std::fprintf(stderr,
                 "VIOLATION landmark-chaos round=%llu seed=0x%llx: %s\n",
                 (unsigned long long)round, (unsigned long long)seed,
                 what.c_str());
    if (violations == 1) dump_flight(svc);
  };

  const auto oracle_status = [&] {
    for (const auto& ts : svc.report().tenants)
      if (ts.graph_fp == svc.resident_graphs().front())
        return ts.oracle_status;
    return LandmarkTableStatus::kNone;
  };
  const auto table_settled = [&] {
    const auto rep = svc.report();
    if (rep.landmark_builds_pending > 0) return false;
    for (const auto& ts : rep.tenants)
      if (ts.oracle_status == LandmarkTableStatus::kBuilding ||
          ts.oracle_status == LandmarkTableStatus::kRepairing)
        return false;
    return true;
  };

  // Deterministic (src, dst) pairs; validation accepts any serve path.
  SoakRng rng{seed ^ 0x1a4dba6cull};
  const auto p2p_pair = [&] {
    const VertexId s = VertexId(rng.below(n_v));
    VertexId d = VertexId(rng.below(n_v));
    if (d == s) d = VertexId((d + 1) % n_v);
    return std::make_pair(s, d);
  };

  uint64_t exact_served = 0, alt_served = 0, engine_served = 0,
           typed_failures = 0;
  {
    // landmark.build bites BOTH cold builds and warm per-lane repairs at
    // 0.5, so across rounds the matrix covers: build fails typed, repair
    // falls back to a cold rebuild, rebuild fails typed, and everything
    // succeeding anyway. The root's initial build races this plan too.
    fault::FaultPlan plan(seed);
    plan.set(fault::Site::kLandmarkBuild, {0.5, ~0ull, 0});
    fault::FaultScope scope(plan);

    std::vector<std::future<QueryOutcome<uint32_t>>> futs;
    std::vector<std::pair<VertexId, VertexId>> asked;
    const auto burst = [&] {
      const int k = smoke ? 8 : 16;
      for (int i = 0; i < k; ++i) {
        const auto [s, d] = p2p_pair();
        QueryOptions q;
        q.target = d;
        futs.push_back(svc.submit(s, q));
        asked.emplace_back(s, d);
      }
    };
    const int deltas = smoke ? 3 : 6;
    for (int dno = 0; dno < deltas; ++dno) {
      burst();  // p2p in flight while the graph is rewritten under them
      auto delta = oracle::make_test_delta(cur, 4 + rng.below(4), 1,
                                           seed * 1000 + uint64_t(dno));
      {  // mirror every change: the oracle's symmetry precondition holds
        const size_t base = delta.changes.size();
        for (size_t ci = 0; ci < base; ++ci) {
          const auto c = delta.changes[ci];
          if (c.src != c.dst)
            delta.changes.push_back({c.dst, c.src, c.weight});
        }
      }
      const auto out = svc.apply_delta(0, delta);
      cur = apply_delta(cur, delta).graph;
      if (graph_fingerprint(cur) != out.child_fp) {
        violation("service child fingerprint diverged from reference apply");
        return violations;
      }
      versions.emplace(out.child_fp, cur);
      burst();  // these race the table repair window
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Zero hangs; every kOk p2p answer bit-equal on the generation it
    // claims, whatever path served it.
    for (size_t i = 0; i < futs.size(); ++i) {
      if (futs[i].wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        violation("p2p query hung during landmark chaos");
        return violations;
      }
      const auto out = futs[i].get();
      if (out.status != QueryStatus::kOk) {
        ++typed_failures;  // typed shed/degradation under churn: accepted
        continue;
      }
      const auto [s, d] = asked[i];
      const auto* ora = oracle_for(out.graph_fp, s);
      if (ora == nullptr) {
        violation("p2p survivor claims a generation that never existed");
        continue;
      }
      const DistT<uint32_t> want = ora->dist[d];
      const bool want_reach = want != DistTraits<uint32_t>::infinity();
      if (out.p2p_reachable != want_reach ||
          (want_reach && out.p2p_distance != want)) {
        violation(std::string("p2p answer diverged from Dijkstra on its "
                              "claimed generation (serve=") +
                  p2p_serve_name(out.p2p_serve) + ")");
        continue;
      }
      switch (out.p2p_serve) {
        case P2pServe::kOracleExact: ++exact_served; break;
        case P2pServe::kAltSearch: ++alt_served; break;
        default: ++engine_served; break;
      }
      ++t.ok;
    }

    // Repairs and table builds settle while the plan is still armed (it
    // must outlive every thread inside build/repair code).
    if (!poll_until([&] { return svc.report().repairs_pending == 0; },
                    30000)) {
      violation("tree repairs never settled after the storm");
      return violations;
    }
    if (!poll_until(table_settled, 30000)) {
      violation("landmark builds never settled after the storm");
      return violations;
    }
    t.fault_fires += plan.total_fires();
    totals.build_fires += plan.fires(fault::Site::kLandmarkBuild);
  }
  if (exact_served + alt_served + engine_served == 0)
    violation("no p2p answer survived the storm (service stopped serving)");

  // Recovery: one fault-free symmetric delta must bring the final child's
  // table to READY — warm-repaired from a surviving parent table or cold
  // rebuilt from a failed one, both without an engine in the serve path
  // afterwards.
  {
    auto delta = oracle::make_test_delta(cur, 4, 1, seed * 7919);
    const size_t base = delta.changes.size();
    for (size_t ci = 0; ci < base; ++ci) {
      const auto c = delta.changes[ci];
      if (c.src != c.dst) delta.changes.push_back({c.dst, c.src, c.weight});
    }
    svc.apply_delta(0, delta);
    cur = apply_delta(cur, delta).graph;
    versions.emplace(graph_fingerprint(cur), cur);
  }
  if (!poll_until([&] { return svc.resident_graphs().size() == 1; }, 20000))
    violation("superseded generations never retired after the storm");
  if (!poll_until(
          [&] { return oracle_status() == LandmarkTableStatus::kReady; },
          20000)) {
    violation("table never reached READY after a fault-free delta");
  } else {
    const uint64_t final_fp = graph_fingerprint(cur);
    for (int i = 0; i < (smoke ? 6 : 12); ++i) {
      const auto [s, d] = p2p_pair();
      QueryOptions q;
      q.target = d;
      const auto out = svc.query(s, q);
      if (out.graph_fp != final_fp || out.stale) {
        violation("post-storm p2p serve is not fresh on the final child");
        continue;
      }
      if (out.p2p_serve == P2pServe::kEngineFallback) {
        violation("post-storm p2p rode an engine despite a READY table");
        continue;
      }
      const auto* ora = oracle_for(final_fp, s);
      const DistT<uint32_t> want = ora->dist[d];
      const bool want_reach = want != DistTraits<uint32_t>::infinity();
      if (out.p2p_reachable != want_reach ||
          (want_reach && out.p2p_distance != want)) {
        violation("post-storm oracle answer diverged from Dijkstra");
        continue;
      }
      ++t.ok;
    }
  }

  const auto rep = svc.report();
  totals.builds_ok += rep.landmark_builds_ok;
  totals.repairs_ok += rep.landmark_repairs_ok;
  totals.rebuild_fallbacks += rep.landmark_rebuild_fallbacks;
  totals.build_failures += rep.landmark_build_failures;
  totals.oracle_exact += rep.oracle_exact_hits;
  totals.alt_searches += rep.alt_searches;
  totals.engine_fallbacks += rep.p2p_engine_fallbacks;

  // The episode must be reconstructible from the flight recorder.
  const auto events = svc.flight_dump();
  if (!flight_has(events, FlightKind::kTableBuildStart))
    violation("flight recorder is missing the table-build-start events");
  if (rep.landmark_build_failures > 0 &&
      !flight_has(events, FlightKind::kTableBuildFailed))
    violation("flight recorder is missing the table-build-failed events");
  if (rep.landmark_rebuild_fallbacks > 0 &&
      !flight_has(events, FlightKind::kTableRebuildFallback))
    violation("flight recorder is missing the rebuild-fallback events");

  if (verbose)
    std::fprintf(stderr,
                 "round=%llu builds_ok=%llu repairs_ok=%llu fallbacks=%llu "
                 "failures=%llu exact=%llu alt=%llu engine=%llu "
                 "typed_failures=%llu\n",
                 (unsigned long long)round,
                 (unsigned long long)rep.landmark_builds_ok,
                 (unsigned long long)rep.landmark_repairs_ok,
                 (unsigned long long)rep.landmark_rebuild_fallbacks,
                 (unsigned long long)rep.landmark_build_failures,
                 (unsigned long long)exact_served,
                 (unsigned long long)alt_served,
                 (unsigned long long)engine_served,
                 (unsigned long long)typed_failures);
  return violations;
}

int run_landmark_chaos(uint64_t master_seed, uint64_t rounds, bool smoke,
                       bool verbose) {
  SoakRng rng{master_seed};
  Tally tally;
  LandmarkTotals totals;
  for (uint64_t r = 0; r < rounds; ++r)
    tally.violations +=
        landmark_chaos_round(r, rng.next(), smoke, verbose, tally, totals);

  // The suite's reason to exist: both arms of the typed-failure matrix
  // must actually have been exercised. A storm where landmark.build never
  // fired, never broke anything, or broke everything proves nothing.
  if (totals.build_fires == 0 ||
      totals.build_failures + totals.rebuild_fallbacks == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION landmark-chaos: injected build faults never bit "
                 "(fires=%llu failures=%llu fallbacks=%llu)\n",
                 (unsigned long long)totals.build_fires,
                 (unsigned long long)totals.build_failures,
                 (unsigned long long)totals.rebuild_fallbacks);
  }
  if (totals.builds_ok + totals.repairs_ok == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION landmark-chaos: no table build or repair ever "
                 "succeeded (the oracle path itself went unexercised)\n");
  }
  if (totals.oracle_exact + totals.alt_searches == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION landmark-chaos: every p2p rode an engine — the "
                 "oracle never actually served\n");
  }

  TextTable table("Landmark chaos (" + std::to_string(rounds) +
                  " rounds, seed " + std::to_string(master_seed) + ")");
  table.set_header({"outcome", "count"});
  table.add_row({"validated p2p serves", std::to_string(tally.ok)});
  table.add_row({"contract violations", std::to_string(tally.violations)});
  table.add_row({"table builds ok", std::to_string(totals.builds_ok)});
  table.add_row({"warm repairs ok", std::to_string(totals.repairs_ok)});
  table.add_row(
      {"rebuild fallbacks", std::to_string(totals.rebuild_fallbacks)});
  table.add_row({"typed build failures",
                 std::to_string(totals.build_failures)});
  table.add_row({"oracle-exact serves", std::to_string(totals.oracle_exact)});
  table.add_row({"alt-search serves", std::to_string(totals.alt_searches)});
  table.add_row(
      {"engine-fallback serves", std::to_string(totals.engine_fallbacks)});
  table.add_row({"fault fires", std::to_string(tally.fault_fires)});
  table.add_footer(
      "p2p bursts x symmetric delta churn x injected landmark.build "
      "faults; every answer validated on the generation it claims — a "
      "broken table may downgrade the serve path, never a distance");
  table.print();
  return tally.violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Restart chaos: crash-safe persistence under fire
// ---------------------------------------------------------------------------

struct RestartTotals {
  uint64_t saves_ok = 0;
  uint64_t saves_failed = 0;
  uint64_t restores_ok = 0;
  uint64_t restores_failed = 0;   // whole-store typed failures
  uint64_t clean_restores = 0;    // fully warm: every artifact verified
  uint64_t corrupt_sections = 0;
  uint64_t cold_rebuilds = 0;
  uint64_t tables_restored = 0;
  uint64_t cache_restored = 0;
  uint64_t republished = 0;       // tenants lost to corruption, republished
};

/// One crash cycle: warm a 2-tenant service (tables READY, caches hot),
/// save through the StateStore, destroy the service, and bring a fresh one
/// up from the store. persist.io is armed on alternating rounds — one in
/// four corrupts the save (torn write / bitflip / version skew, cycling
/// with the plan's fire count), one in four short-reads the load; the rest
/// are fault-free crash cycles. Contract: restore() never throws and never
/// serves unverified state; everything it rejects is counted typed
/// (corrupt_sections / a whole-store error) and replaced by a cold
/// republish or rebuild; every answer the revived service gives — cached,
/// fresh, or p2p off the restored table — matches the round's Dijkstra
/// oracles; and the round ends fully warm (both tables READY).
uint64_t restart_chaos_round(uint64_t round, uint64_t seed, bool smoke,
                             bool verbose, const std::string& state_dir,
                             fault::FaultPlan& save_plan,
                             fault::FaultPlan& load_plan, Tally& t,
                             RestartTotals& totals) {
  constexpr int kTenants = 2;
  constexpr VertexId kSources = 3;
  const uint64_t side = smoke ? 20 : 26;
  const bool arm_save = round % 4 == 1;
  const bool arm_load = round % 4 == 3;

  std::vector<std::shared_ptr<const IntGraph>> graphs;
  std::vector<uint64_t> fps;
  std::vector<std::vector<SsspResult<uint32_t>>> oracles(kTenants);
  for (int k = 0; k < kTenants; ++k) {
    GraphSpec spec;
    spec.name = "grid_t" + std::to_string(k);
    spec.family = GraphFamily::kGridRoad;
    spec.scale = side;
    spec.a = double(side);
    spec.weights = {WeightDist::kUniform, 1000, 1};
    spec.seed = seed + uint64_t(k);
    graphs.push_back(std::make_shared<const IntGraph>(
        generate_graph<uint32_t>(spec)));
    fps.push_back(graph_fingerprint(*graphs.back()));
    for (VertexId s = 0; s < kSources; ++s)
      oracles[size_t(k)].push_back(dijkstra(*graphs.back(), s));
  }

  ServiceConfig cfg;
  cfg.num_engines = 2;
  cfg.max_queue_depth = 64;
  cfg.cache_entries = 64;
  cfg.guarded_fallback = false;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.landmark.num_landmarks = 4;

  uint64_t violations = 0;
  const auto violation = [&](SsspService<uint32_t>& svc,
                             const std::string& what) {
    ++violations;
    std::fprintf(stderr,
                 "VIOLATION restart-chaos round=%llu seed=0x%llx: %s\n",
                 (unsigned long long)round, (unsigned long long)seed,
                 what.c_str());
    if (violations == 1) dump_flight(svc);
  };
  const auto tables_ready = [&](SsspService<uint32_t>& svc) {
    int ready = 0;
    for (const auto& ts : svc.report().tenants)
      for (int k = 0; k < kTenants; ++k)
        if (ts.graph_fp == fps[size_t(k)] &&
            ts.oracle_status == LandmarkTableStatus::kReady)
          ++ready;
    return ready == kTenants;
  };

  // Phase A — warm a service end to end and save it (the "crash" is the
  // destructor at the end of this block: no drain, no goodbye).
  {
    SsspService<uint32_t> warm(cfg);
    warm.set_graph(graphs[0]);
    warm.publish_graph(graphs[1]);
    if (!poll_until([&] { return tables_ready(warm); }, 30000)) {
      violation(warm, "landmark tables never became ready before the save");
      return violations;
    }
    for (int k = 0; k < kTenants; ++k)
      for (VertexId s = 0; s < kSources; ++s) {
        QueryOptions q;
        q.graph_fp = fps[size_t(k)];
        const auto out = warm.query(s, q);
        if (!validate_distances(*out.result, oracles[size_t(k)][s]).ok())
          violation(warm, "pre-save result diverged from Dijkstra oracle");
        else
          ++t.ok;
      }
    SaveOutcome so;
    if (arm_save) {
      fault::FaultScope scope(save_plan);
      so = warm.save(state_dir);
    } else {
      so = warm.save(state_dir);
    }
    if (so.ok)
      ++totals.saves_ok;
    else
      ++totals.saves_failed;
    if (!so.ok && !arm_save)
      violation(warm, "fault-free save failed: " + so.error);
  }

  // Phase B — restart from the store. restore() must come back typed no
  // matter what the injected fault did to the bytes.
  SsspService<uint32_t> svc(cfg);
  RestoreOutcome ro;
  try {
    if (arm_load) {
      fault::FaultScope scope(load_plan);
      ro = svc.restore(state_dir);
      // Keep the plan installed until restore-scheduled cold builds settle
      // (threads inside build code may still consult it).
      poll_until([&] { return svc.report().landmark_builds_pending == 0; },
                 30000);
    } else {
      ro = svc.restore(state_dir);
    }
  } catch (const std::exception& e) {
    violation(svc,
              std::string("restore threw (contract: never): ") + e.what());
    return violations;
  }
  if (!ro.store_found) {
    violation(svc, "store file missing after a published save");
    return violations;
  }
  if (ro.ok)
    ++totals.restores_ok;
  else
    ++totals.restores_failed;
  totals.corrupt_sections += ro.corrupt_sections;
  totals.cold_rebuilds += ro.cold_rebuilds;
  totals.tables_restored += ro.tables_restored;
  totals.cache_restored += ro.cache_restored;
  const bool fully_warm_restore =
      ro.ok && ro.corrupt_sections == 0 && ro.cold_rebuilds == 0 &&
      ro.graphs_restored == uint32_t(kTenants) &&
      ro.tables_restored == uint32_t(kTenants);
  if (fully_warm_restore) ++totals.clean_restores;
  if (!arm_save && !arm_load && !fully_warm_restore)
    violation(svc, "fault-free restore was not fully warm (graphs=" +
                       std::to_string(ro.graphs_restored) + " tables=" +
                       std::to_string(ro.tables_restored) + " corrupt=" +
                       std::to_string(ro.corrupt_sections) + " error=" +
                       ro.error + ")");

  // Phase C — cold fallback: republish any tenant the verification
  // gauntlet refused to seat. This is the degraded path the store's
  // invariant promises: corruption costs startup latency, never answers.
  {
    const auto resident = svc.resident_graphs();
    for (int k = 0; k < kTenants; ++k) {
      bool found = false;
      for (const uint64_t r : resident) found = found || r == fps[size_t(k)];
      if (!found) {
        svc.publish_graph(graphs[size_t(k)]);
        ++totals.republished;
      }
    }
  }

  // Phase D — the fleet must return fully warm: restored tables serve as
  // they are, rejected ones finish their cold rebuilds.
  if (!poll_until([&] { return tables_ready(svc); }, 30000)) {
    violation(svc, "tables never reached READY after the restart");
    return violations;
  }

  // Phase E — zero wrong answers: full solves (cache hit or fresh) and
  // p2p serves off whatever table survived or got rebuilt.
  for (int k = 0; k < kTenants; ++k)
    for (VertexId s = 0; s < kSources; ++s) {
      QueryOptions q;
      q.graph_fp = fps[size_t(k)];
      try {
        const auto out = svc.query(s, q);
        if (!validate_distances(*out.result, oracles[size_t(k)][s]).ok()) {
          violation(svc, "post-restart result diverged from Dijkstra oracle");
          continue;
        }
        ++t.ok;
        const VertexId d =
            VertexId(graphs[size_t(k)]->num_vertices() - 1 - s);
        QueryOptions pq;
        pq.graph_fp = fps[size_t(k)];
        pq.target = d;
        const auto pout = svc.query(s, pq);
        const DistT<uint32_t> want = oracles[size_t(k)][s].dist[d];
        const bool want_reach = want != DistTraits<uint32_t>::infinity();
        if (pout.p2p_reachable != want_reach ||
            (want_reach && pout.p2p_distance != want)) {
          violation(svc, "post-restart p2p answer diverged from Dijkstra");
          continue;
        }
        ++t.ok;
      } catch (const Error& e) {
        violation(svc,
                  std::string("post-restart query failed: ") + e.what());
      }
    }

  // The episode must be typed end to end and reconstructible from the
  // flight recorder.
  const auto events = svc.flight_dump();
  if ((ro.corrupt_sections > 0 || !ro.ok) &&
      !flight_has(events, FlightKind::kStateCorrupt))
    violation(svc, "flight recorder is missing the state-corrupt event");
  if (ro.ok && !flight_has(events, FlightKind::kStateLoaded))
    violation(svc, "flight recorder is missing the state-loaded event");
  if (ro.cold_rebuilds > 0 && !flight_has(events, FlightKind::kColdRebuild))
    violation(svc, "flight recorder is missing the cold-rebuild event");

  if (verbose) {
    const auto rep = svc.report();
    std::fprintf(stderr,
                 "round=%llu arm_save=%d arm_load=%d restored: graphs=%u "
                 "tables=%u cache=%u corrupt=%llu rebuilds=%u "
                 "republished=%llu load_ms=%.2f verify_ms=%.2f "
                 "builds_ok=%llu\n",
                 (unsigned long long)round, int(arm_save), int(arm_load),
                 ro.graphs_restored, ro.tables_restored, ro.cache_restored,
                 (unsigned long long)ro.corrupt_sections, ro.cold_rebuilds,
                 (unsigned long long)totals.republished, ro.load_ms,
                 ro.verify_ms, (unsigned long long)rep.landmark_builds_ok);
  }
  return violations;
}

int run_restart_chaos(uint64_t master_seed, uint64_t rounds, bool smoke,
                      bool verbose, const std::string& state_dir) {
  SoakRng rng{master_seed};
  Tally tally;
  RestartTotals totals;
  // One plan per side, alive across every round, so the save-side fault
  // mode cycles with its fire count (torn write, then bitflip, then
  // version skew) instead of re-rolling the first mode each round.
  // Probability 1.0: WHICH rounds are armed is the round alternation in
  // restart_chaos_round, not a coin flip — half the crash cycles see
  // persist.io, deterministically per seed.
  fault::FaultPlan save_plan(master_seed);
  save_plan.set(fault::Site::kStateIo, {1.0, ~0ull, 0});
  fault::FaultPlan load_plan(master_seed ^ 0x9e3779b97f4a7c15ull);
  load_plan.set(fault::Site::kStateIo, {1.0, ~0ull, 0});

  for (uint64_t r = 0; r < rounds; ++r)
    tally.violations +=
        restart_chaos_round(r, rng.next(), smoke, verbose, state_dir,
                            save_plan, load_plan, tally, totals);
  const uint64_t io_fires = save_plan.total_fires() + load_plan.total_fires();
  tally.fault_fires += io_fires;

  // The suite's reason to exist: both arms must actually have been
  // exercised — at least one fully warm restore (the store pays off) and
  // at least one injected corruption resolved typed (the verification
  // gauntlet caught it). A run where persist.io never bit proves nothing.
  if (io_fires == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION restart-chaos: persist.io never fired\n");
  }
  if (totals.clean_restores == 0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION restart-chaos: no crash cycle ever came back "
                 "fully warm from the store\n");
  }
  if (totals.corrupt_sections + totals.restores_failed +
          totals.republished ==
      0) {
    ++tally.violations;
    std::fprintf(stderr,
                 "VIOLATION restart-chaos: injected persist.io faults "
                 "never produced a typed corruption (fires=%llu)\n",
                 (unsigned long long)io_fires);
  }

  TextTable table("Restart chaos (" + std::to_string(rounds) +
                  " rounds, seed " + std::to_string(master_seed) + ")");
  table.set_header({"outcome", "count"});
  table.add_row({"validated answers", std::to_string(tally.ok)});
  table.add_row({"contract violations", std::to_string(tally.violations)});
  table.add_row({"saves ok", std::to_string(totals.saves_ok)});
  table.add_row({"restores ok", std::to_string(totals.restores_ok)});
  table.add_row({"whole-store failures (typed)",
                 std::to_string(totals.restores_failed)});
  table.add_row({"fully warm restores",
                 std::to_string(totals.clean_restores)});
  table.add_row({"corrupt sections (typed)",
                 std::to_string(totals.corrupt_sections)});
  table.add_row({"cold rebuilds", std::to_string(totals.cold_rebuilds)});
  table.add_row({"tables restored", std::to_string(totals.tables_restored)});
  table.add_row({"cache entries restored",
                 std::to_string(totals.cache_restored)});
  table.add_row({"tenants republished cold",
                 std::to_string(totals.republished)});
  table.add_row({"persist.io fires", std::to_string(io_fires)});
  table.add_footer(
      "crash cycles through the StateStore with persist.io armed on half "
      "the save/load paths; recovered state is verified or rebuilt — "
      "never served on trust");
  table.print();
  return tally.violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("soak_suite",
                "deterministic chaos soak for the resilient host engine "
                "(faults x tiny pools x cancels x deadlines)");
  cli.add_flag("smoke", "short CI tier (fits the 60s soak_smoke budget)");
  cli.add_flag("verbose", "print each run's drawn configuration to stderr");
  cli.add_flag("service-chaos",
               "service-level phase: fault k of N pooled engines mid-solve "
               "and require supervised quarantine + rebuild + clean serves");
  cli.add_flag("tenant-chaos",
               "multi-tenant phase: wedge 1 of 3 catalog tenants with "
               "domain-scoped faults and require zero cross-tenant damage");
  cli.add_flag("delta-chaos",
               "live-delta phase: rewrite the graph under a query burst "
               "with injected repair faults; every survivor validated on "
               "the generation it claims");
  cli.add_flag("landmark-chaos",
               "landmark-oracle phase: p2p bursts x delta churn x injected "
               "landmark.build faults; typed table failures may downgrade "
               "the serve path but never bend a distance");
  cli.add_flag("restart-chaos",
               "crash-safe persistence phase: save/crash/restore cycles "
               "with persist.io armed on half the save and load paths; "
               "corruption must resolve typed and every answer validate");
  cli.add_option("runs", "number of randomized runs (0: tier default)", "0");
  cli.add_option("seed", "master seed for the configuration stream", "42");
  cli.add_option("state-dir", "state directory for --restart-chaos",
                 "soak_restart_state");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.flag("smoke");
  const uint64_t master_seed = uint64_t(cli.integer("seed"));
  uint64_t runs = uint64_t(cli.integer("runs"));

  if (cli.flag("service-chaos")) {
    if (runs == 0) runs = smoke ? 2 : 6;
    return run_service_chaos(master_seed, runs, smoke, cli.flag("verbose"));
  }
  if (cli.flag("tenant-chaos")) {
    if (runs == 0) runs = smoke ? 2 : 6;
    return run_tenant_chaos(master_seed, runs, smoke, cli.flag("verbose"));
  }
  if (cli.flag("delta-chaos")) {
    if (runs == 0) runs = smoke ? 2 : 6;
    return run_delta_chaos(master_seed, runs, smoke, cli.flag("verbose"));
  }
  if (cli.flag("landmark-chaos")) {
    if (runs == 0) runs = smoke ? 2 : 6;
    return run_landmark_chaos(master_seed, runs, smoke, cli.flag("verbose"));
  }
  if (cli.flag("restart-chaos")) {
    if (runs == 0) runs = smoke ? 4 : 8;
    return run_restart_chaos(master_seed, runs, smoke, cli.flag("verbose"),
                             cli.str("state-dir"));
  }
  if (runs == 0) runs = smoke ? 40 : 400;

  SoakRng rng{master_seed};
  Tally tally;
  std::vector<std::string> failures;

  const bool verbose = cli.flag("verbose");
  for (uint64_t i = 0; i < runs; ++i) {
    const SoakConfig c = draw_config(rng, smoke);
    if (verbose) {
      std::fprintf(stderr,
                   "run=%llu seed=0x%llx graph=%s mode=%s site=%s pool=%u "
                   "governor=%d combining=%d workers=%u block_words=%u\n",
                   (unsigned long long)i, (unsigned long long)c.run_seed,
                   c.graph.name.c_str(), mode_name(c.mode),
                   c.inject ? fault::site_name(c.site) : "none",
                   c.host.pool_blocks, int(c.host.pool_governor),
                   int(c.host.write_combining), c.host.num_workers,
                   c.host.block_words);
      std::fflush(stderr);
    }
    const std::string violation = run_one(c, tally);
    if (!violation.empty()) {
      ++tally.violations;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "run=%llu seed=0x%llx graph=%s mode=%s site=%s "
                    "pool=%u governor=%d: %s",
                    (unsigned long long)i,
                    (unsigned long long)c.run_seed, c.graph.name.c_str(),
                    mode_name(c.mode), c.inject ? fault::site_name(c.site) : "none",
                    c.host.pool_blocks, int(c.host.pool_governor),
                    violation.c_str());
      failures.push_back(buf);
      std::fprintf(stderr, "VIOLATION %s\n", buf);
    }
  }

  TextTable table("Chaos soak (" + std::to_string(runs) + " runs, seed " +
                  std::to_string(master_seed) + ")");
  table.set_header({"outcome", "count"});
  table.add_row({"ok (validated)", std::to_string(tally.ok)});
  table.add_row({"clean adds::Error", std::to_string(tally.clean_error)});
  table.add_row({"cancelled mid-run", std::to_string(tally.cancelled)});
  table.add_row({"contract violations", std::to_string(tally.violations)});
  table.add_row({"fault fires", std::to_string(tally.fault_fires)});
  table.add_row({"runs that spilled", std::to_string(tally.governed_spill_runs)});
  table.add_row({"items spilled", std::to_string(tally.spilled_items)});
  table.add_footer(
      "every returned result validated against Dijkstra; nonzero "
      "violations fail the process");
  table.print();

  if (!failures.empty()) {
    std::fprintf(stderr, "\n%zu contract violation(s):\n", failures.size());
    for (const auto& f : failures) std::fprintf(stderr, "  %s\n", f.c_str());
    return 1;
  }
  return 0;
}
