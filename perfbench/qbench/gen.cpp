#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qbench {

const std::vector<Cell>& serve_cells() {
  // Connected regular graph counts (OEIS A068934 and neighbours):
  // n=13 d=6: 367,860; n=14 d=5,8: 3,459,383; n=14 d=6,7: 21,609,300;
  // n=15 d=4,10: 805,491; n=15 d=6,8: 1,470,293,676.
  static const std::vector<Cell> cells = {
      {13, 6}, {14, 5}, {14, 6}, {14, 7}, {14, 8},
      {15, 4}, {15, 6}, {15, 8}, {15, 10}};
  return cells;
}

Cell cell_of(std::size_t i) {
  // n = 13, 14, 15 four times each per cycle; d cycles within n.
  static const Cell cycle[12] = {{13, 6}, {14, 5}, {15, 4},  {13, 6},
                                 {14, 6}, {15, 6}, {13, 6},  {14, 7},
                                 {15, 8}, {13, 6}, {14, 8},  {15, 10}};
  return cycle[i % 12];
}

namespace {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

}  // namespace

qgnn::Graph shuffled(const qgnn::Graph& g, qgnn::Rng& rng) {
  const std::vector<std::size_t> perm =
      rng.permutation(static_cast<std::size_t>(g.num_nodes()));
  std::vector<qgnn::Edge> edges = g.edges();
  rng.shuffle(edges);
  qgnn::Graph out(g.num_nodes());
  for (const qgnn::Edge& e : edges) {
    out.add_edge(static_cast<int>(perm[static_cast<std::size_t>(e.u)]),
                 static_cast<int>(perm[static_cast<std::size_t>(e.v)]));
  }
  return out;
}

qgnn::Graph serve_graph(int n, int d, qgnn::Rng& rng) {
  return shuffled(qgnn::random_regular_graph(n, d, rng), rng);
}

std::uint64_t structure_invariant(const qgnn::Graph& g) {
  const int n = g.num_nodes();
  QGNN_REQUIRE(n <= 32, "structure_invariant: at most 32 nodes");
  std::vector<std::uint32_t> adj(static_cast<std::size_t>(n), 0);
  for (const qgnn::Edge& e : g.edges()) {
    adj[static_cast<std::size_t>(e.u)] |= 1u << e.v;
    adj[static_cast<std::size_t>(e.v)] |= 1u << e.u;
  }
  std::vector<std::uint64_t> color(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < color.size(); ++v) {
    std::uint64_t tri = 0;
    for (std::uint32_t nb = adj[v]; nb != 0; nb &= nb - 1) {
      const int u = __builtin_ctz(nb);
      tri += static_cast<std::uint64_t>(
          __builtin_popcount(adj[v] & adj[static_cast<std::size_t>(u)]));
    }
    color[v] = hash_mix(static_cast<std::uint64_t>(__builtin_popcount(adj[v])),
                        tri);
  }
  std::vector<std::uint64_t> next(color.size());
  std::vector<std::uint64_t> around;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t v = 0; v < color.size(); ++v) {
      around.clear();
      for (std::uint32_t nb = adj[v]; nb != 0; nb &= nb - 1) {
        around.push_back(color[static_cast<std::size_t>(__builtin_ctz(nb))]);
      }
      std::sort(around.begin(), around.end());
      std::uint64_t h = color[v];
      for (const std::uint64_t c : around) h = hash_mix(h, c);
      next[v] = h;
    }
    color.swap(next);
  }
  std::sort(color.begin(), color.end());
  std::uint64_t h = hash_mix(static_cast<std::uint64_t>(n),
                             static_cast<std::uint64_t>(g.num_edges()));
  for (const std::uint64_t c : color) h = hash_mix(h, c);
  return h;
}

std::string request_body(const qgnn::Graph& g) {
  std::string out = "\"nodes\":" + std::to_string(g.num_nodes()) +
                    ",\"edges\":[";
  bool first = true;
  for (const qgnn::Edge& e : g.edges()) {
    if (!first) out.push_back(',');
    first = false;
    out += '[' + std::to_string(e.u) + ',' + std::to_string(e.v) + ']';
  }
  out += "]}";
  return out;
}

std::string request_line(std::uint64_t id, const std::string& body) {
  std::string line = "{\"id\":" + std::to_string(id) + ',';
  line += body;
  line.push_back('\n');
  return line;
}

namespace {

/// `count` graphs of one cell with pairwise distinct invariants, not in
/// `seen`. Candidates are drawn in parallel chunks, candidate i from its
/// own sub-seed, then accepted in index order: the result does not
/// depend on the thread count.
std::vector<qgnn::Graph> distinct_in_cell(std::uint64_t seed, Cell cell,
                                          std::size_t count,
                                          std::unordered_set<std::uint64_t>& seen,
                                          std::size_t& rejected) {
  std::vector<qgnn::Graph> out;
  out.reserve(count);
  std::size_t next_candidate = 0;
  while (out.size() < count) {
    const std::size_t want = count - out.size();
    const std::size_t chunk = want + want / 16 + 64;
    std::vector<qgnn::Graph> cand(chunk);
    std::vector<std::uint64_t> inv(chunk);
    const std::size_t first = next_candidate;
    qgnn::ThreadPool::global().parallel_for(
        0, chunk, 256, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t i = lo; i < hi; ++i) {
            qgnn::Rng rng(qgnn::derive_seed(seed, first + i));
            cand[i] = serve_graph(cell.n, cell.d, rng);
            inv[i] = structure_invariant(cand[i]);
          }
        });
    next_candidate += chunk;
    for (std::size_t i = 0; i < chunk && out.size() < count; ++i) {
      if (!seen.insert(inv[i]).second) {
        ++rejected;
        continue;
      }
      out.push_back(std::move(cand[i]));
    }
  }
  return out;
}

}  // namespace

GraphSet distinct_graphs(std::uint64_t seed, std::size_t count) {
  GraphSet out;
  const std::vector<Cell>& cells = serve_cells();
  std::vector<std::vector<qgnn::Graph>> by_cell(cells.size());
  std::vector<std::size_t> need(cells.size(), 0);
  auto cell_index = [&](Cell c) {
    for (std::size_t k = 0; k < cells.size(); ++k) {
      if (cells[k].n == c.n && cells[k].d == c.d) return k;
    }
    throw std::logic_error("cell outside the serve space");
  };
  for (std::size_t i = 0; i < count; ++i) ++need[cell_index(cell_of(i))];
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    by_cell[k] = distinct_in_cell(qgnn::derive_seed(seed, k), cells[k], need[k], seen,
                                  out.rejected);
  }
  std::vector<std::size_t> taken(cells.size(), 0);
  out.graphs.reserve(count);
  out.bodies.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = cell_index(cell_of(i));
    out.graphs.push_back(std::move(by_cell[k][taken[k]++]));
    out.bodies.push_back(request_body(out.graphs.back()));
  }
  return out;
}

std::vector<std::uint32_t> zipf_indices(std::uint64_t seed, std::size_t pool,
                                        double s, std::size_t length) {
  QGNN_REQUIRE(pool > 0, "zipf_indices: empty pool");
  std::vector<double> cdf(pool);
  double acc = 0.0;
  for (std::size_t r = 0; r < pool; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = acc;
  }
  qgnn::Rng rng(qgnn::derive_seed(seed, 1));
  std::vector<std::uint32_t> out(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double u = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    out[i] = static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), pool - 1));
  }
  return out;
}

std::vector<double> poisson_offsets(std::uint64_t seed, std::size_t count,
                                    double duration_s) {
  // Cumulative unit exponentials scaled by their (count+1)-th sum are
  // the order statistics of `count` uniforms: a Poisson process
  // conditioned on its count.
  qgnn::Rng rng(qgnn::derive_seed(seed, 2));
  std::vector<double> out(count);
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += -std::log1p(-rng.uniform());
    out[i] = acc;
  }
  acc += -std::log1p(-rng.uniform());
  for (double& t : out) t = t / acc * duration_s;
  return out;
}

}  // namespace qbench
