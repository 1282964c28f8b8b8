#pragma once

// Input generation for the benchmark. Everything here is a pure function
// of its seed: the same seed gives the same graphs, the same request
// bytes, the same Zipf sequence and the same arrival schedule. Draws come
// from qgnn::Rng seeded through qgnn::derive_seed, as in the label passes,
// so for one standard library the inputs are fixed.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace qbench {

/// One (node count, degree) cell of the serving graph space.
struct Cell {
  int n = 0;
  int d = 0;
};

/// The cells the serve streams draw from. Every cell holds at least
/// 3.6e5 isomorphism classes of connected regular graphs, so streams of
/// tens of thousands of graphs repeat a class well under 1% of the time
/// before deduplication (README.md, "Graph space").
const std::vector<Cell>& serve_cells();

/// Cell of stream or pool position i: a fixed cycle of 12 with n = 13,
/// 14, 15 four times each and d cycling within n. Every 12 consecutive
/// graphs, and so every popularity level of the Zipf stream, have the
/// same size mix, whatever the seed.
Cell cell_of(std::size_t i);

/// `g` with its nodes relabelled by a random permutation and its edges
/// listed in random order.
qgnn::Graph shuffled(const qgnn::Graph& g, qgnn::Rng& rng);

/// qgnn::random_regular_graph(n, d), shuffled.
qgnn::Graph serve_graph(int n, int d, qgnn::Rng& rng);

/// Isomorphism invariant: triangle counts per node refined by three
/// rounds of neighbourhood hashing. Isomorphic graphs always agree; the
/// graph sets below drop any graph whose invariant was already drawn, so
/// no two of their graphs are relabelled copies of one graph.
std::uint64_t structure_invariant(const qgnn::Graph& g);

/// Request body without the id: `"nodes":n,"edges":[[u,v],...]}`.
std::string request_body(const qgnn::Graph& g);
/// Full NDJSON request line for `id`, newline included.
std::string request_line(std::uint64_t id, const std::string& body);

/// `count` pairwise non-isomorphic graphs, graph i from cell_of(i).
struct GraphSet {
  std::vector<qgnn::Graph> graphs;
  std::vector<std::string> bodies;
  /// Candidates dropped because their invariant was already drawn.
  std::size_t rejected = 0;
};
GraphSet distinct_graphs(std::uint64_t seed, std::size_t count);

/// `length` draws from Zipf(s) over pool indices 0..pool-1 (index 0 the
/// most popular).
std::vector<std::uint32_t> zipf_indices(std::uint64_t seed, std::size_t pool,
                                        double s, std::size_t length);

/// Arrival offsets (seconds) of `count` Poisson arrivals conditioned to
/// fall in [0, duration_s): sorted, and exactly `count` of them.
std::vector<double> poisson_offsets(std::uint64_t seed, std::size_t count,
                                    double duration_s);

}  // namespace qbench
