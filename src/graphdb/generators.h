// rpqres — graphdb/generators: synthetic workload generators.
//
// The paper has no datasets (it is a theory paper), so these generators
// stand in for them. They build the database families its algorithms
// exercise: random labeled graphs, layered source/sink networks for the
// ax*b ≡ MinCut connection, chain instances for BCLs, and dangling-pair
// instances for Prp 7.9.

#ifndef RPQRES_GRAPHDB_GENERATORS_H_
#define RPQRES_GRAPHDB_GENERATORS_H_

#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "util/rng.h"

namespace rpqres {

/// Uniform random graph database: `num_facts` facts drawn uniformly over
/// node pairs and `labels`, with multiplicities in [1, max_multiplicity].
GraphDb RandomGraphDb(Rng* rng, int num_nodes, int num_facts,
                      const std::vector<char>& labels,
                      Capacity max_multiplicity = 1);

/// A layered flow-style network for the intro's MinCut ≡ RES(ax*b)
/// correspondence: `sources` a-labeled source edges, `layers` of `width`
/// internal nodes joined by x-labeled edges (density in [0,1]), and
/// `sinks` b-labeled sink edges. Randomized wiring, always solvable.
GraphDb LayeredFlowDb(Rng* rng, int sources, int layers, int width,
                      int sinks, double density,
                      Capacity max_multiplicity = 1);

/// A single directed path labeled by `word` starting at a fresh node.
GraphDb PathDb(const std::string& word);

/// Disjoint union of `count` paths, each labeled by a word drawn from
/// `words`, with random cross-links between path nodes labeled by random
/// letters from `extra_labels` (may create more matches).
GraphDb WordSoupDb(Rng* rng, const std::vector<std::string>& words,
                   int count, const std::vector<char>& extra_labels,
                   int cross_links, Capacity max_multiplicity = 1);

/// Instance family for one-dangling languages: a random base-language part
/// over `base_labels` plus `pair_count` x/y dangling pairs sharing middle
/// nodes with the base part.
GraphDb DanglingPairsDb(Rng* rng, int num_nodes, int base_facts,
                        const std::vector<char>& base_labels, char x, char y,
                        int pair_count, Capacity max_multiplicity = 1);

/// A single directed chain of `length` facts with labels drawn uniformly
/// from `labels` (the random-label generalization of PathDb).
GraphDb RandomChainDb(Rng* rng, int length, const std::vector<char>& labels,
                      Capacity max_multiplicity = 1);

/// A directed cycle of `length` facts with labels drawn uniformly from
/// `labels`. Cycles are where set and bag semantics, and walk- vs
/// match-based solvers, diverge most readily (walks may wind).
GraphDb CycleDb(Rng* rng, int length, const std::vector<char>& labels,
                Capacity max_multiplicity = 1);

/// A `rows` x `cols` grid with right- and down-edges, labels drawn
/// uniformly from `labels`.
GraphDb GridDb(Rng* rng, int rows, int cols, const std::vector<char>& labels,
               Capacity max_multiplicity = 1);

/// A layered DAG: `layers` columns of `width` nodes, edges only between
/// consecutive columns with probability `density` (at least one out-edge
/// per non-final node), labels drawn uniformly from `labels`. Unlike
/// LayeredFlowDb there are no a/b source/sink stubs — all labels random.
GraphDb DagLayersDb(Rng* rng, int layers, int width, double density,
                    const std::vector<char>& labels,
                    Capacity max_multiplicity = 1);

/// A scale-free graph by preferential attachment: nodes join one at a
/// time, each adding `edges_per_node` out-edges whose targets are drawn
/// proportional to in-degree + 1. Labels drawn uniformly from `labels`.
GraphDb ScaleFreeDb(Rng* rng, int num_nodes, int edges_per_node,
                    const std::vector<char>& labels,
                    Capacity max_multiplicity = 1);

/// A stochastic-Kronecker (R-MAT) graph over 2^`iterations` nodes:
/// `num_facts` edges sampled by recursive quadrant descent with the
/// classic (0.57, 0.19, 0.19, 0.05) initiator, labels drawn uniformly
/// from `labels`. Skewed degrees, a natural heavy-hub stress family.
GraphDb KroneckerDb(Rng* rng, int iterations, int num_facts,
                    const std::vector<char>& labels,
                    Capacity max_multiplicity = 1);

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_GENERATORS_H_
