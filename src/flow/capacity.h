// rpqres — flow/capacity: the capacity domain shared by the flow core and
// the graph database (Section 2, "Networks and cuts").
//
// Capacities are int64 with a dedicated +∞ sentinel; edges with infinite
// capacity can never belong to a (finite) minimum cut, which is how the
// resilience reductions mark non-fact edges and exogenous facts.

#ifndef RPQRES_FLOW_CAPACITY_H_
#define RPQRES_FLOW_CAPACITY_H_

#include <cstdint>
#include <limits>

namespace rpqres {

using Capacity = int64_t;

/// Sentinel for infinite capacity.
inline constexpr Capacity kInfiniteCapacity =
    std::numeric_limits<Capacity>::max();

/// Largest fact multiplicity any input path accepts, duplicates counted
/// after they accumulate: 2^29. The flow core refuses networks whose
/// finite capacities sum to kInfiniteCapacity / 4 (about 2^61) or more.
/// Fact ids are int32, so a database has at most 2^31 − 1 facts, and
/// every solver stages each fact as at most one finite edge: at most
/// (2^31 − 1) · 2^29 < 2^60. One-dangling's z-edges add at most the
/// split letter's total cost, another < 2^60, so every staged network
/// stays below the limit and no sum of costs overflows int64.
inline constexpr Capacity kMaxMultiplicity = Capacity{1} << 29;

}  // namespace rpqres

#endif  // RPQRES_FLOW_CAPACITY_H_
