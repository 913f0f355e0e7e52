#include "flow/residual_graph.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace rpqres {

void ResidualGraph::Reset(int num_vertices) {
  RPQRES_DCHECK(num_vertices >= 0);
  num_vertices_ = num_vertices;
  source_ = -1;
  target_ = -1;
  solved_ = false;
  total_finite_ = 0;
  flow_ = 0;
  edge_from_.clear();
  edge_to_.clear();
  edge_cap_.clear();
  view_ = MinCutView{};
}

int32_t ResidualGraph::AddEdge(int from, int to, Capacity capacity) {
  RPQRES_DCHECK(from >= 0 && from < num_vertices_);
  RPQRES_DCHECK(to >= 0 && to < num_vertices_);
  RPQRES_CHECK_MSG(capacity >= 0, "negative edge capacity");
  if (capacity != kInfiniteCapacity) {
    RPQRES_CHECK_MSG(
        total_finite_ <= std::numeric_limits<Capacity>::max() - capacity,
        "finite capacities overflow int64");
    total_finite_ += capacity;
  }
  edge_from_.push_back(from);
  edge_to_.push_back(to);
  edge_cap_.push_back(capacity);
  return static_cast<int32_t>(edge_to_.size()) - 1;
}

void ResidualGraph::SetSource(int vertex) {
  RPQRES_DCHECK(vertex >= 0 && vertex < num_vertices_);
  source_ = vertex;
}

void ResidualGraph::SetTarget(int vertex) {
  RPQRES_DCHECK(vertex >= 0 && vertex < num_vertices_);
  target_ = vertex;
}

void ResidualGraph::BuildCsr() {
  const int v_count = num_vertices_;
  const size_t e_count = edge_to_.size();
  RPQRES_CHECK_MSG(e_count < (size_t{1} << 30),
                   "too many edges for 32-bit arc ids");
  // Counting sort: each edge contributes one arc at `from` (forward) and
  // one at `to` (reverse), so per-vertex arc counts come from one pass.
  arc_offset_.assign(static_cast<size_t>(v_count) + 1, 0);
  for (size_t e = 0; e < e_count; ++e) {
    ++arc_offset_[static_cast<size_t>(edge_from_[e]) + 1];
    ++arc_offset_[static_cast<size_t>(edge_to_[e]) + 1];
  }
  for (int v = 0; v < v_count; ++v) {
    arc_offset_[static_cast<size_t>(v) + 1] += arc_offset_[v];
  }
  arc_to_.resize(2 * e_count);
  arc_cap_.resize(2 * e_count);
  arc_pair_.resize(2 * e_count);
  cursor_.assign(arc_offset_.begin(), arc_offset_.end() - 1);
  for (size_t e = 0; e < e_count; ++e) {
    int from = edge_from_[e];
    int to = edge_to_[e];
    int32_t fwd = cursor_[from]++;
    int32_t rev = cursor_[to]++;
    Capacity cap = edge_cap_[e] == kInfiniteCapacity ? effective_infinity_
                                                     : edge_cap_[e];
    arc_to_[fwd] = to;
    arc_cap_[fwd] = cap;
    arc_to_[rev] = from;
    arc_cap_[rev] = 0;
    arc_pair_[fwd] = rev;
    arc_pair_[rev] = fwd;
  }
}

bool ResidualGraph::LevelToTarget() {
  level_.assign(num_vertices_, -1);
  queue_.clear();
  level_[target_] = 0;
  queue_.push_back(target_);
  for (size_t head = 0; head < queue_.size(); ++head) {
    int v = queue_[head];
    // Arc a leaves v, so its pair is the residual arc from arc_to_[a]
    // into v: the BFS walks residual arcs backward.
    for (int32_t a = arc_offset_[v]; a < arc_offset_[v + 1]; ++a) {
      int from = arc_to_[a];
      if (arc_cap_[arc_pair_[a]] > 0 && level_[from] < 0) {
        level_[from] = level_[v] + 1;
        // BlockingFlow starts at the source and only descends, and every
        // vertex below the source's level is labelled by now.
        if (from == source_) return true;
        queue_.push_back(from);
      }
    }
  }
  return false;
}

bool ResidualGraph::BlockingFlow() {
  // The whole blocking flow of one level phase in a single iterative DFS
  // over the per-vertex arc cursors (iter_): advance along admissible
  // arcs (one level closer to the target), retreat (and kill the level)
  // at dead ends, push the bottleneck whenever the target is reached —
  // then resume from the first saturated arc instead of restarting at the
  // source. A killed vertex reads level -1, which no admissible arc can
  // match: only the target has level 0, and the DFS never scans its arcs.
  // Returns true iff the flow provably exceeds every finite cut.
  path_.clear();
  int v = source_;
  for (;;) {
    if (v == target_) {
      Capacity push = kInfiniteCapacity;
      size_t first_min = 0;
      for (size_t i = 0; i < path_.size(); ++i) {
        if (arc_cap_[path_[i]] < push) {
          push = arc_cap_[path_[i]];
          first_min = i;
        }
      }
      for (int32_t a : path_) {
        arc_cap_[a] -= push;
        arc_cap_[arc_pair_[a]] += push;
      }
      flow_ += push;
      if (flow_ >= effective_infinity_) return true;  // unbounded w.r.t. cuts
      v = arc_to_[arc_pair_[path_[first_min]]];  // origin of the saturated arc
      path_.resize(first_min);
      continue;
    }
    bool advanced = false;
    for (int32_t& a = iter_[v]; a < arc_offset_[v + 1]; ++a) {
      int to = arc_to_[a];
      if (arc_cap_[a] > 0 && level_[to] == level_[v] - 1) {
        path_.push_back(a);
        v = to;
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      level_[v] = -1;  // dead end
      if (path_.empty()) return false;
      int32_t back = path_.back();
      path_.pop_back();
      v = arc_to_[arc_pair_[back]];  // the arc's origin
      ++iter_[v];                    // skip the arc that led to the dead end
    }
  }
}

void ResidualGraph::MarkSourceSide() {
  side_.assign(num_vertices_, 0);
  queue_.clear();
  side_[source_] = 1;
  queue_.push_back(source_);
  for (size_t head = 0; head < queue_.size(); ++head) {
    int v = queue_[head];
    for (int32_t a = arc_offset_[v]; a < arc_offset_[v + 1]; ++a) {
      int to = arc_to_[a];
      if (arc_cap_[a] > 0 && !side_[to]) {
        side_[to] = 1;
        queue_.push_back(to);
      }
    }
  }
}

const MinCutView& ResidualGraph::Solve(obs::TraceContext* trace) {
  RPQRES_CHECK_MSG(source_ >= 0 && target_ >= 0, "source/target not set");
  RPQRES_CHECK_MSG(!solved_, "Solve() may run at most once per Reset()");
  solved_ = true;
  // Effective infinity: strictly more than any finite cut can cost.
  RPQRES_CHECK_MSG(total_finite_ < kInfiniteCapacity / 4,
                   "total finite capacity too large");
  effective_infinity_ = total_finite_ + 1;
  view_ = MinCutView{};
  if (source_ == target_) {
    view_.infinite = true;
    return view_;
  }
  {
    obs::ScopedSpan span(trace, obs::SpanKind::kFlowBuild);
    BuildCsr();
  }
  {
    obs::ScopedSpan span(trace, obs::SpanKind::kDinic);
    while (LevelToTarget()) {
      iter_.assign(arc_offset_.begin(), arc_offset_.end() - 1);
      if (BlockingFlow()) {
        view_.infinite = true;
        return view_;
      }
    }
  }
  obs::ScopedSpan cut_span(trace, obs::SpanKind::kCutExtract);
  view_.value = flow_;

  // Residual reachability split. The levels count steps to the target,
  // so they say nothing about the source side: one forward BFS from the
  // source marks it. Every maximum flow leaves the same vertices
  // reachable, so the cut is the minimum cut closest to the source
  // whichever flow Dinic found.
  MarkSourceSide();
  cut_edges_.clear();
  for (size_t e = 0; e < edge_to_.size(); ++e) {
    if (side_[edge_from_[e]] && !side_[edge_to_[e]]) {
      RPQRES_CHECK_MSG(edge_cap_[e] != kInfiniteCapacity,
                       "infinite edge crosses a finite cut");
      if (edge_cap_[e] > 0) {
        cut_edges_.push_back(static_cast<int32_t>(e));
      }
    }
  }
#ifndef NDEBUG
  // Max-flow min-cut self check: the crossing capacities sum to the flow.
  Capacity crossing = 0;
  for (int32_t e : cut_edges_) crossing += edge_cap_[e];
  RPQRES_CHECK(crossing == view_.value);
#endif
  view_.cut_edges = std::span<const int32_t>(cut_edges_);
  return view_;
}

namespace {

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

size_t ResidualGraph::total_capacity_bytes() const {
  return VectorBytes(edge_from_) + VectorBytes(edge_to_) +
         VectorBytes(edge_cap_) + VectorBytes(arc_offset_) +
         VectorBytes(arc_to_) + VectorBytes(arc_pair_) + VectorBytes(arc_cap_) +
         VectorBytes(cursor_) + VectorBytes(level_) + VectorBytes(iter_) +
         VectorBytes(queue_) + VectorBytes(path_) + VectorBytes(side_) +
         VectorBytes(cut_edges_);
}

}  // namespace rpqres
