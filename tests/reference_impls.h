// Naive reference implementations used to validate the optimized library
// code on small graphs. These follow the paper's definitions literally
// (iterative deletion, brute-force neighborhood intersection) with no
// shared state, no peeling, and no indexes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/disjoint_set.h"
#include "core/types.h"
#include "graph/ego_network.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd::testing {

/// Brute-force triangle count: checks every vertex triple adjacency.
inline std::uint64_t NaiveTriangleCount(const Graph& g) {
  std::uint64_t count = 0;
  for (const Edge& e : g.edges()) {
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      if (w == e.u || w == e.v) continue;
      if (g.HasEdge(e.u, w) && g.HasEdge(e.v, w)) ++count;
    }
  }
  return count / 3;
}

/// Brute-force support of every edge.
inline std::vector<std::uint32_t> NaiveSupport(const Graph& g) {
  std::vector<std::uint32_t> support(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    for (VertexId w : g.neighbors(edge.u)) {
      if (w != edge.v && g.HasEdge(edge.v, w)) ++support[e];
    }
  }
  return support;
}

/// Edge trussness by literal iterative deletion: for each k, repeatedly
/// delete edges whose support inside the surviving subgraph is < k-2; an
/// edge's trussness is the largest k at which it survives.
inline std::vector<std::uint32_t> NaiveTrussness(const Graph& g) {
  const EdgeId m = g.num_edges();
  std::vector<std::uint32_t> trussness(m, 2);
  std::vector<char> alive(m, 1);

  auto support_of = [&](EdgeId e) {
    const Edge& edge = g.edge(e);
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < g.neighbors(edge.u).size(); ++i) {
      const VertexId w = g.neighbors(edge.u)[i];
      const EdgeId e_uw = g.incident_edges(edge.u)[i];
      if (w == edge.v || !alive[e_uw]) continue;
      const EdgeId e_vw = g.FindEdge(edge.v, w);
      if (e_vw != kInvalidEdge && alive[e_vw]) ++s;
    }
    return s;
  };

  for (std::uint32_t k = 3; std::count(alive.begin(), alive.end(), 1) > 0;
       ++k) {
    // Delete edges with support < k-2 until the k-truss stabilizes.
    bool changed = true;
    while (changed) {
      changed = false;
      for (EdgeId e = 0; e < m; ++e) {
        if (alive[e] && support_of(e) < k - 2) {
          alive[e] = 0;
          changed = true;
        }
      }
    }
    for (EdgeId e = 0; e < m; ++e) {
      if (alive[e]) trussness[e] = k;
    }
  }
  return trussness;
}

/// Core numbers by literal iterative deletion.
inline std::vector<std::uint32_t> NaiveCoreNumbers(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint32_t> core(n, 0);
  std::vector<char> alive(n, 1);
  auto degree_of = [&](VertexId v) {
    std::uint32_t d = 0;
    for (VertexId u : g.neighbors(v)) d += alive[u];
    return d;
  };
  for (std::uint32_t k = 1;; ++k) {
    bool any_alive = false;
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v] && degree_of(v) < k) {
          alive[v] = 0;
          changed = true;
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) {
        core[v] = k;
        any_alive = true;
      }
    }
    if (!any_alive) break;
  }
  return core;
}

/// The ego-network of v as a standalone graph over *global* vertex ids
/// (non-members isolated), for cross-checking extraction.
inline Graph NaiveEgoGraph(const Graph& g, VertexId v) {
  std::set<VertexId> members(g.neighbors(v).begin(), g.neighbors(v).end());
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : g.edges()) {
    if (members.count(e.u) && members.count(e.v)) {
      edges.emplace_back(e.u, e.v);
    }
  }
  return Graph::FromEdges(std::move(edges), g.num_vertices());
}

/// Literal Definition 2 + 3: the truss-based structural diversity of v and
/// its social contexts, computed with the naive trussness above.
inline std::pair<std::uint32_t, std::vector<std::vector<VertexId>>>
NaiveScore(const Graph& g, VertexId v, std::uint32_t k) {
  const Graph ego = NaiveEgoGraph(g, v);
  const std::vector<std::uint32_t> trussness = NaiveTrussness(ego);

  DisjointSet dsu(ego.num_vertices());
  std::set<VertexId> touched;
  for (EdgeId e = 0; e < ego.num_edges(); ++e) {
    if (trussness[e] >= k) {
      dsu.Union(ego.edge(e).u, ego.edge(e).v);
      touched.insert(ego.edge(e).u);
      touched.insert(ego.edge(e).v);
    }
  }
  std::map<std::uint32_t, std::vector<VertexId>> by_root;
  for (VertexId u : touched) by_root[dsu.Find(u)].push_back(u);
  std::vector<std::vector<VertexId>> contexts;
  for (auto& [root, ctx] : by_root) {
    std::sort(ctx.begin(), ctx.end());
    contexts.push_back(ctx);
  }
  std::sort(contexts.begin(), contexts.end());
  return {static_cast<std::uint32_t>(contexts.size()), contexts};
}

/// The GCT-index arrays, laid out as GctIndex stores them (the "gctx.*"
/// snapshot sections).
struct GctArrays {
  std::vector<std::uint32_t> sn_offsets{0};
  std::vector<std::uint32_t> sn_tau;
  std::vector<std::uint32_t> member_offsets{0};
  std::vector<VertexId> members;
  std::vector<std::uint32_t> se_offsets{0};
  std::vector<std::uint32_t> se_a;
  std::vector<std::uint32_t> se_b;
  std::vector<std::uint32_t> se_w;
  std::uint32_t max_trussness = 0;
};

/// Algorithm 8 as written, over every extracted and decomposed ego-network:
/// edges by trussness descending (a stable counting sort, ties in ego edge
/// order), each edge skipped if its endpoints are connected, else merging
/// the two supernodes when both have its trussness, else recorded as a
/// superedge. Supernodes are ordered by (trussness desc, smallest member
/// asc), superedges by (weight desc, a, b).
inline GctArrays ReferenceGct(const Graph& g) {
  GctArrays out;
  EgoNetworkExtractor extractor(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EgoNetwork ego = extractor.Extract(v);
    const std::vector<std::uint32_t> trussness =
        ComputeEgoTrussness(ego, EgoTrussMethod::kHash);
    const std::uint32_t l = ego.num_members();
    const std::uint32_t m = ego.num_edges();

    DisjointSet merge(l);
    DisjointSet conn(l);
    std::vector<std::uint32_t> vertex_tau(l, 0);  // valid at merge roots
    for (EdgeId e = 0; e < m; ++e) {
      const auto [a, b] = ego.edges[e];
      vertex_tau[a] = std::max(vertex_tau[a], trussness[e]);
      vertex_tau[b] = std::max(vertex_tau[b], trussness[e]);
    }
    std::vector<EdgeId> sorted_edges(m);
    std::iota(sorted_edges.begin(), sorted_edges.end(), 0U);
    std::stable_sort(sorted_edges.begin(), sorted_edges.end(),
                     [&](EdgeId x, EdgeId y) {
                       return trussness[x] > trussness[y];
                     });

    struct RawSuperedge {
      std::uint32_t u, w, weight;  // local vertices
    };
    std::vector<RawSuperedge> raw_superedges;
    for (const EdgeId e : sorted_edges) {
      const auto [u, w] = ego.edges[e];
      const std::uint32_t t_e = trussness[e];
      if (conn.Connected(u, w)) continue;
      const std::uint32_t mu = merge.Find(u);
      const std::uint32_t mw = merge.Find(w);
      if (vertex_tau[mu] == t_e && vertex_tau[mw] == t_e) {
        merge.Union(mu, mw);
        vertex_tau[merge.Find(mu)] = t_e;
      } else {
        raw_superedges.push_back({u, w, t_e});
      }
      conn.Union(u, w);
    }

    // Group non-isolated members by merge root.
    std::unordered_map<std::uint32_t, std::uint32_t> root_to_sn;
    std::vector<std::uint32_t> sn_tau;
    std::vector<std::vector<VertexId>> sn_members;
    for (std::uint32_t u = 0; u < l; ++u) {
      if (vertex_tau[u] < 2 && vertex_tau[merge.Find(u)] < 2) continue;
      const std::uint32_t root = merge.Find(u);
      auto [it, inserted] =
          root_to_sn.emplace(root, static_cast<std::uint32_t>(sn_tau.size()));
      if (inserted) {
        sn_tau.push_back(vertex_tau[root]);
        sn_members.emplace_back();
      }
      sn_members[it->second].push_back(ego.ToGlobal(u));
    }
    const auto num_sn = static_cast<std::uint32_t>(sn_tau.size());
    std::vector<std::uint32_t> order(num_sn);
    std::iota(order.begin(), order.end(), 0U);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (sn_tau[a] != sn_tau[b]) return sn_tau[a] > sn_tau[b];
      return sn_members[a].front() < sn_members[b].front();
    });
    std::vector<std::uint32_t> position(num_sn);
    for (std::uint32_t i = 0; i < num_sn; ++i) position[order[i]] = i;
    for (const std::uint32_t sn : order) {
      out.sn_tau.push_back(sn_tau[sn]);
      out.max_trussness = std::max(out.max_trussness, sn_tau[sn]);
      std::vector<VertexId>& members = sn_members[sn];
      std::sort(members.begin(), members.end());
      out.members.insert(out.members.end(), members.begin(), members.end());
      out.member_offsets.push_back(
          static_cast<std::uint32_t>(out.members.size()));
    }
    out.sn_offsets.push_back(static_cast<std::uint32_t>(out.sn_tau.size()));

    struct Superedge {
      std::uint32_t w, a, b;
    };
    std::vector<Superedge> finals;
    for (const RawSuperedge& raw : raw_superedges) {
      std::uint32_t a = position[root_to_sn.at(merge.Find(raw.u))];
      std::uint32_t b = position[root_to_sn.at(merge.Find(raw.w))];
      if (a > b) std::swap(a, b);
      finals.push_back({raw.weight, a, b});
    }
    std::sort(finals.begin(), finals.end(),
              [](const Superedge& x, const Superedge& y) {
                if (x.w != y.w) return x.w > y.w;
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });
    for (const Superedge& se : finals) {
      out.se_a.push_back(se.a);
      out.se_b.push_back(se.b);
      out.se_w.push_back(se.w);
    }
    out.se_offsets.push_back(static_cast<std::uint32_t>(out.se_w.size()));
  }
  return out;
}

/// Every vertex's (score, contexts) under one model and threshold, ranked
/// by definition: score descending, ties by ascending id. TopR(r) keeps the
/// first min(r, n): the one answer every top-r search must return.
class ReferenceRanking {
 public:
  /// `score_of(v)` returns v's score and contexts (a pair or ScoreResult).
  template <typename ScoreOf>
  ReferenceRanking(VertexId n, ScoreOf&& score_of) {
    all_.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
      auto [score, contexts] = score_of(v);
      all_.push_back(TopREntry{v, score, std::move(contexts)});
    }
    // Ids are ascending already, so a stable sort by score breaks ties.
    std::stable_sort(all_.begin(), all_.end(),
                     [](const TopREntry& a, const TopREntry& b) {
                       return a.score > b.score;
                     });
  }

  TopRResult TopR(std::uint32_t r) const {
    TopRResult result;
    result.entries.assign(
        all_.begin(), all_.begin() + std::min<std::size_t>(r, all_.size()));
    return result;
  }

 private:
  std::vector<TopREntry> all_;
};

}  // namespace tsd::testing
