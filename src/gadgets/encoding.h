// rpqres — gadgets/encoding: encoding a directed graph with a pre-gadget
// (Def 4.5) — the heart of the vertex-cover reduction of Prp 4.11.
//
// Given a gadget with odd-path length ℓ, the encoding Ξ of G satisfies
//   RES_set(Q_L, Ξ) = vc(G) + m(ℓ−1)/2            (Prp 4.2 + Claim 4.12)
// which gadgets_paper_test's ReductionTest checks with the exact solver.

#ifndef RPQRES_GADGETS_ENCODING_H_
#define RPQRES_GADGETS_ENCODING_H_

#include "flow/capacity.h"
#include "gadgets/gadget.h"
#include "gadgets/vertex_cover.h"
#include "graphdb/graph_db.h"

namespace rpqres {

/// Builds the encoding Ξ of `graph` with `gadget` (Def 4.5): one fact
/// s_u -a-> t_u per node u, one fresh copy of the pre-gadget per edge with
/// t_in, t_out identified with t_u, t_v.
GraphDb EncodeGraph(const DirectedGraph& graph, const PreGadget& gadget);

/// The resilience value predicted by Prp 4.2 for the encoding of `graph`
/// with a gadget whose condensed odd path has `path_edges` hyperedges:
/// vc(G) + m(ℓ−1)/2.
Capacity PredictedEncodingResilience(const UndirectedGraph& graph,
                                     int path_edges);

}  // namespace rpqres

#endif  // RPQRES_GADGETS_ENCODING_H_
