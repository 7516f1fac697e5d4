// Output checks of the benchmark, written independently of the library: the
// benchmark keeps its own copy of every graph generation it queries and
// judges each answer against that copy with code of its own. Nothing here
// calls into src/ beyond reading a result's arrays.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace ssspbench {

using Dist = uint64_t;  // distances over uint32_t weights
inline constexpr Dist kInf = std::numeric_limits<Dist>::max();
inline constexpr uint32_t kNoVertex = std::numeric_limits<uint32_t>::max();

/// One graph generation as the benchmark sees it. Generations of a delta
/// chain share the (immutable) structure and differ only in weights.
struct Graph {
  std::shared_ptr<const std::vector<uint64_t>> offsets;
  std::shared_ptr<const std::vector<uint32_t>> targets;
  std::vector<uint32_t> weights;

  uint32_t n() const { return uint32_t(offsets->size() - 1); }
  uint64_t begin(uint32_t u) const { return (*offsets)[u]; }
  uint64_t end(uint32_t u) const { return (*offsets)[u + 1]; }
  uint32_t target(uint64_t e) const { return (*targets)[e]; }

  /// Index of edge u->v, or kNoEdge. Generators here emit no multi-edges.
  static constexpr uint64_t kNoEdge = std::numeric_limits<uint64_t>::max();
  uint64_t find_edge(uint32_t u, uint32_t v) const {
    for (uint64_t e = begin(u); e < end(u); ++e)
      if (target(e) == v) return e;
    return kNoEdge;
  }
};

/// Vertices reachable from `s` along out-edges (BFS).
inline std::vector<uint8_t> bfs_reach(const Graph& g, uint32_t s) {
  std::vector<uint8_t> seen(g.n(), 0);
  std::vector<uint32_t> frontier{s};
  seen[s] = 1;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const uint32_t u = frontier[head];
    for (uint64_t e = g.begin(u); e < g.end(u); ++e) {
      const uint32_t v = g.target(e);
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push_back(v);
      }
    }
  }
  return seen;
}

/// Relaxations a sequential Dijkstra makes from a source whose reachable set
/// is `reach`: every reachable vertex's out-edges, once each.
inline uint64_t dijkstra_relaxations(const Graph& g,
                                     const std::vector<uint8_t>& reach) {
  uint64_t n = 0;
  for (uint32_t u = 0; u < g.n(); ++u)
    if (reach[u]) n += g.end(u) - g.begin(u);
  return n;
}

/// Reference Dijkstra (binary heap, lazy deletion). With `target` set it
/// stops once the target is settled; unsettled labels are then not final.
inline std::vector<Dist> dijkstra(const Graph& g, uint32_t s,
                                  uint32_t target = kNoVertex) {
  std::vector<Dist> d(g.n(), kInf);
  using Item = std::pair<Dist, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  d[s] = 0;
  heap.push({0, s});
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (du != d[u]) continue;
    if (u == target) break;
    for (uint64_t e = g.begin(u); e < g.end(u); ++e) {
      const uint32_t v = g.target(e);
      const Dist nd = du + g.weights[e];
      if (nd < d[v]) {
        d[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return d;
}

/// O(V+E) shortest-path certificate: d[s] == 0, no edge out of a reached
/// vertex can be relaxed, every reached vertex other than the source has a
/// tight in-edge, and the reached set is exactly `reach`. Together these
/// prove `d` is the exact distance array for positive integer weights.
/// Returns an empty string when `d` passes, else the first violation.
inline std::string certify(const Graph& g, uint32_t s,
                           const std::vector<Dist>& d,
                           const std::vector<uint8_t>& reach) {
  const uint32_t n = g.n();
  if (d.size() != n) return "distance array has the wrong length";
  if (d[s] != 0) return "source distance is not 0";
  std::vector<uint8_t> tight(n, 0);
  for (uint32_t u = 0; u < n; ++u) {
    if ((d[u] != kInf) != bool(reach[u]))
      return "reached set differs from BFS reachability at vertex " +
             std::to_string(u);
    if (d[u] == kInf) continue;
    for (uint64_t e = g.begin(u); e < g.end(u); ++e) {
      const uint32_t v = g.target(e);
      const Dist via = d[u] + g.weights[e];
      if (d[v] > via)
        return "edge " + std::to_string(u) + "->" + std::to_string(v) +
               " can still be relaxed";
      if (d[v] == via) tight[v] = 1;
    }
  }
  for (uint32_t v = 0; v < n; ++v)
    if (v != s && d[v] != kInf && !tight[v])
      return "vertex " + std::to_string(v) + " has no tight in-edge";
  return {};
}

/// Parent-tree check for batched lanes: parent[s] == s, every reached
/// vertex's parent edge exists and is tight, unreached vertices have none.
inline std::string check_parents(const Graph& g, uint32_t s,
                                 const std::vector<Dist>& d,
                                 const std::vector<uint32_t>& parent) {
  const uint32_t n = g.n();
  if (parent.size() != n) return "parent array has the wrong length";
  if (parent[s] != s) return "parent of the source is not the source";
  for (uint32_t v = 0; v < n; ++v) {
    if (v == s) continue;
    const uint32_t p = parent[v];
    if (d[v] == kInf) {
      if (p != kNoVertex) return "unreached vertex has a parent";
      continue;
    }
    if (p >= n || d[p] == kInf)
      return "vertex " + std::to_string(v) + " has no reached parent";
    bool ok = false;
    for (uint64_t e = g.begin(p); e < g.end(p) && !ok; ++e)
      ok = g.target(e) == v && d[p] + g.weights[e] == d[v];
    if (!ok)
      return "parent edge of vertex " + std::to_string(v) + " is not tight";
  }
  return {};
}

/// Counter bounds that follow from the answer alone: each reached vertex
/// other than the source won at least one improvement, and every
/// improvement came from a relaxation. `reached` is counted by the
/// benchmark's BFS, not taken from the result.
inline std::string check_counters(uint64_t reached, uint64_t improvements,
                                  uint64_t relaxations) {
  if (reached > 0 && improvements < reached - 1)
    return "improvements " + std::to_string(improvements) + " < reached-1 " +
           std::to_string(reached - 1);
  if (relaxations < improvements)
    return "relaxations " + std::to_string(relaxations) +
           " < improvements " + std::to_string(improvements);
  return {};
}

inline uint64_t count_reached(const std::vector<uint8_t>& reach) {
  uint64_t n = 0;
  for (uint8_t r : reach) n += r;
  return n;
}

}  // namespace ssspbench
