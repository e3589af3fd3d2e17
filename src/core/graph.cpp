#include "core/graph.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

namespace fountain::core {

namespace {

/// Bounded path search over the degree-2 subgraph: checks are vertices and
/// each degree-2 left node is an edge labelled with its id. The search is a
/// bidirectional BFS — each step grows the smaller of the two frontiers by
/// one full level — so it visits two balls of about half the radius a
/// one-sided BFS would. Visit marks are stamped with a per-search
/// generation, so no per-search clearing pass over all checks is needed.
class PathProbe {
 public:
  using Adjacency =
      std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>;

  explicit PathProbe(std::size_t vertices) : mark_(vertices, 0) {}

  /// True iff a != b and `adj` holds a path from a to b of at most `limit`
  /// edges that uses no edge labelled `skip`.
  bool connects(const Adjacency& adj, std::uint32_t a, std::uint32_t b,
                std::uint32_t skip, unsigned limit) {
    if (a == b) return false;
    if (stamp_ > UINT32_MAX - 2) {
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 0;
    }
    stamp_ += 2;
    const std::uint32_t from_a = stamp_;
    const std::uint32_t from_b = stamp_ + 1;
    mark_[a] = from_a;
    mark_[b] = from_b;
    front_a_.assign(1, a);
    front_b_.assign(1, b);
    // Invariant: every vertex within depth_a of a (resp. depth_b of b) is
    // marked, and depth = depth_a + depth_b. A vertex reached from one side
    // that already carries the other side's mark closes a path of at most
    // depth + 1 edges.
    for (unsigned depth = 0; depth < limit; ++depth) {
      const bool grow_a = front_a_.size() <= front_b_.size();
      std::vector<std::uint32_t>& front = grow_a ? front_a_ : front_b_;
      const std::uint32_t own = grow_a ? from_a : from_b;
      const std::uint32_t other = grow_a ? from_b : from_a;
      next_.clear();
      for (const std::uint32_t c : front) {
        for (const auto& [v, via] : adj[c]) {
          if (via == skip || mark_[v] == own) continue;
          if (mark_[v] == other) return true;
          mark_[v] = own;
          next_.push_back(v);
        }
      }
      // An exhausted side means its endpoint's component holds no path.
      if (next_.empty()) return false;
      front.swap(next_);
    }
    return false;
  }

 private:
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> front_a_;
  std::vector<std::uint32_t> front_b_;
  std::vector<std::uint32_t> next_;
};

/// Repairs the edge list in place so that (a) no left node has two edges to
/// the same check (such parallel edges cancel under XOR — in the worst case
/// isolating a degree-2 node entirely) and (b) no two degree-2 left nodes
/// have identical check neighbourhoods (a 2-node stopping set: if both
/// packets are lost the peeling decoder can never separate them). Both
/// defects occur with constant expectation in a plain socket-model graph and
/// are what push a Tornado code's reception overhead from ~5% to ~30%+ at
/// practical sizes. Repair swaps the check endpoints of offending sockets
/// with random other sockets, preserving the exact left and check degree
/// sequences.
void repair_edges(std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
                  const std::vector<unsigned>& left_degrees, util::Rng& rng,
                  unsigned max_cycle) {
  // edges[i] = (right, left). Build per-left socket index lists once.
  const std::size_t left_count = left_degrees.size();
  std::vector<std::size_t> left_start(left_count + 1, 0);
  for (std::size_t l = 0; l < left_count; ++l) {
    left_start[l + 1] = left_start[l] + left_degrees[l];
  }
  // Sort edges by left so that a left node's sockets are contiguous.
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  for (int round = 0; round < 200; ++round) {
    bool dirty = false;
    // Registry of degree-2 neighbourhoods seen this round.
    std::set<std::pair<std::uint32_t, std::uint32_t>> deg2_pairs;
    for (std::size_t l = 0; l < left_count; ++l) {
      const std::size_t begin = left_start[l];
      const std::size_t end = left_start[l + 1];
      // (a) parallel edges within this left node.
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = i + 1; j < end; ++j) {
          if (edges[i].first == edges[j].first) {
            std::swap(edges[j].first, edges[rng.below(edges.size())].first);
            dirty = true;
          }
        }
      }
      // (b) duplicate degree-2 neighbourhoods.
      if (end - begin == 2) {
        auto pair = std::minmax(edges[begin].first, edges[begin + 1].first);
        if (!deg2_pairs.emplace(pair.first, pair.second).second) {
          std::swap(edges[begin].first,
                    edges[rng.below(edges.size())].first);
          dirty = true;
        }
      }
    }
    if (!dirty) break;
  }

  // (c) Short cycles in the degree-2 subgraph. Each degree-2 left node is an
  // edge between its two checks; a cycle of m such edges is a stopping set
  // that survives whenever all m packets are lost (probability delta^m), so
  // short cycles dominate the failure tail. Rewire until the degree-2
  // subgraph has girth > kMaxCycle. Longer cycles are left alone: their
  // full-loss probability is negligible.
  const unsigned kMaxCycle = max_cycle;
  const std::size_t right_count = [&] {
    std::uint32_t max_r = 0;
    for (const auto& [r, l] : edges) {
      (void)l;
      max_r = std::max(max_r, r);
    }
    return static_cast<std::size_t>(max_r) + 1;
  }();
  PathProbe probe(right_count);
  for (int round = 0; round < 60; ++round) {
    // Adjacency of the degree-2 subgraph over checks.
    PathProbe::Adjacency adj(right_count);  // check -> (other check, left id)
    for (std::size_t l = 0; l < left_count; ++l) {
      if (left_start[l + 1] - left_start[l] != 2) continue;
      const std::uint32_t a = edges[left_start[l]].first;
      const std::uint32_t b = edges[left_start[l] + 1].first;
      adj[a].emplace_back(b, static_cast<std::uint32_t>(l));
      adj[b].emplace_back(a, static_cast<std::uint32_t>(l));
    }
    bool dirty = false;
    for (std::size_t l = 0; l < left_count; ++l) {
      if (left_start[l + 1] - left_start[l] != 2) continue;
      const std::uint32_t a = edges[left_start[l]].first;
      const std::uint32_t b = edges[left_start[l] + 1].first;
      // A path a..b of at most kMaxCycle - 1 edges, avoiding the edge l
      // itself, closes a cycle of at most kMaxCycle through l.
      const bool found = probe.connects(adj, a, b,
                                        static_cast<std::uint32_t>(l),
                                        kMaxCycle - 1);
      if (found) {
        // Break the cycle by moving one endpoint to a random other socket.
        std::swap(edges[left_start[l]].first,
                  edges[rng.below(edges.size())].first);
        dirty = true;
      }
    }
    if (!dirty) break;
    // Rewiring may reintroduce parallel edges / duplicate pairs; one cheap
    // clean-up pass per round.
    std::set<std::pair<std::uint32_t, std::uint32_t>> deg2_pairs;
    for (std::size_t l = 0; l < left_count; ++l) {
      const std::size_t begin = left_start[l];
      const std::size_t end = left_start[l + 1];
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = i + 1; j < end; ++j) {
          if (edges[i].first == edges[j].first) {
            std::swap(edges[j].first, edges[rng.below(edges.size())].first);
          }
        }
      }
      if (end - begin == 2) {
        auto pair = std::minmax(edges[begin].first, edges[begin + 1].first);
        if (!deg2_pairs.emplace(pair.first, pair.second).second) {
          std::swap(edges[begin].first, edges[rng.below(edges.size())].first);
        }
      }
    }
  }
  // Degenerate parameter ranges (e.g. more degree-2 lefts than check pairs)
  // cannot be fully repaired; the graph is still usable, just with a tail of
  // stopping sets, so proceed rather than fail.
}

}  // namespace

BipartiteGraph BipartiteGraph::random(std::size_t left_count,
                                      std::size_t right_count,
                                      const DegreeDistribution& dist,
                                      util::Rng& rng,
                                      CheckDegreePolicy policy,
                                      unsigned max_cycle) {
  if (left_count == 0 || right_count == 0) {
    throw std::invalid_argument("BipartiteGraph: empty side");
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // (right, left)
  const auto degrees = dist.sample_sequence(left_count, rng);
  std::size_t sockets = 0;
  for (auto d : degrees) sockets += d;
  edges.reserve(sockets);
  if (policy == CheckDegreePolicy::kPoisson) {
    // Each socket picks a uniform random check.
    for (std::uint32_t l = 0; l < left_count; ++l) {
      for (unsigned s = 0; s < degrees[l]; ++s) {
        edges.emplace_back(static_cast<std::uint32_t>(rng.below(right_count)),
                           l);
      }
    }
  } else {
    // Shuffle the left sockets, then deal them round-robin so check degrees
    // are as equal as possible (right-regular construction).
    std::vector<std::uint32_t> socket_owner;
    socket_owner.reserve(sockets);
    for (std::uint32_t l = 0; l < left_count; ++l) {
      for (unsigned s = 0; s < degrees[l]; ++s) socket_owner.push_back(l);
    }
    rng.shuffle(socket_owner);
    for (std::size_t s = 0; s < socket_owner.size(); ++s) {
      edges.emplace_back(static_cast<std::uint32_t>(s % right_count),
                         socket_owner[s]);
    }
  }

  repair_edges(edges, degrees, rng, max_cycle);

  // Residual parallel edges (possible only in degenerate cases) cancel in
  // pairs: an even number of edges between the same pair contributes nothing
  // to an XOR.
  std::sort(edges.begin(), edges.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> kept;
  kept.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    while (j < edges.size() && edges[j] == edges[i]) ++j;
    if ((j - i) % 2 == 1) kept.push_back(edges[i]);
    i = j;
  }

  BipartiteGraph g;
  g.left_count_ = left_count;
  g.right_count_ = right_count;

  g.right_off_.assign(right_count + 1, 0);
  for (const auto& [r, l] : kept) {
    (void)l;
    ++g.right_off_[r + 1];
  }
  for (std::size_t r = 0; r < right_count; ++r) {
    g.right_off_[r + 1] += g.right_off_[r];
  }
  g.right_adj_.resize(kept.size());
  {
    std::vector<std::size_t> cursor(g.right_off_.begin(),
                                    g.right_off_.end() - 1);
    for (const auto& [r, l] : kept) g.right_adj_[cursor[r]++] = l;
  }

  g.left_off_.assign(left_count + 1, 0);
  for (const auto& [r, l] : kept) {
    (void)r;
    ++g.left_off_[l + 1];
  }
  for (std::size_t l = 0; l < left_count; ++l) {
    g.left_off_[l + 1] += g.left_off_[l];
  }
  g.left_adj_.resize(kept.size());
  {
    std::vector<std::size_t> cursor(g.left_off_.begin(), g.left_off_.end() - 1);
    for (std::size_t r = 0; r < right_count; ++r) {
      for (std::size_t e = g.right_off_[r]; e < g.right_off_[r + 1]; ++e) {
        const std::uint32_t l = g.right_adj_[e];
        g.left_adj_[cursor[l]++] = static_cast<std::uint32_t>(r);
      }
    }
  }
  return g;
}

}  // namespace fountain::core
