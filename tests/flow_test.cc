// Tests for the flow substrate: ResidualGraph staging, the counting-sort
// CSR build, Dinic max-flow, min-cut values and cut extraction, infinite
// capacities, and buffer reuse across Reset().

#include <gtest/gtest.h>

#include <vector>

#include "flow/residual_graph.h"
#include "flow/solver_scratch.h"
#include "util/rng.h"

namespace rpqres {
namespace {

Capacity MaxFlowOf(ResidualGraph& graph) {
  const MinCutView& cut = graph.Solve();
  return cut.infinite ? kInfiniteCapacity : cut.value;
}

std::vector<int32_t> CutEdgeIds(const MinCutView& cut) {
  return std::vector<int32_t>(cut.cut_edges.begin(), cut.cut_edges.end());
}

TEST(ResidualGraphTest, Basics) {
  ResidualGraph n;
  int s = n.AddVertex();
  int t = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  int e = n.AddEdge(s, t, 5);
  EXPECT_EQ(e, 0);
  EXPECT_EQ(n.num_vertices(), 2);
  EXPECT_EQ(n.TotalFiniteCapacity(), 5);
  n.AddEdge(s, t, kInfiniteCapacity);
  EXPECT_EQ(n.TotalFiniteCapacity(), 5);  // infinity not counted
}

TEST(ResidualGraphTest, SingleEdge) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, t, 7);
  const MinCutView& cut = n.Solve();
  EXPECT_FALSE(cut.infinite);
  EXPECT_EQ(cut.value, 7);
  EXPECT_EQ(CutEdgeIds(cut), (std::vector<int32_t>{0}));
}

TEST(ResidualGraphTest, NoPathMeansZeroCut) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex();
  n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, 2, 3);  // dead end
  const MinCutView& cut = n.Solve();
  EXPECT_FALSE(cut.infinite);
  EXPECT_EQ(cut.value, 0);
  EXPECT_TRUE(cut.cut_edges.empty());
}

TEST(ResidualGraphTest, ClassicDiamond) {
  //        a
  //   s <     > t   with a cross edge a->b
  //        b
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex();
  int a = n.AddVertex(), b = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, a, 10);
  n.AddEdge(s, b, 10);
  n.AddEdge(a, t, 4);
  n.AddEdge(b, t, 9);
  n.AddEdge(a, b, 6);
  EXPECT_EQ(MaxFlowOf(n), 13);  // 4 via a, 9 via b (6 rerouted)
}

TEST(ResidualGraphTest, InfiniteEdgeNeverCut) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex(), m = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, m, kInfiniteCapacity);
  int finite = n.AddEdge(m, t, 3);
  const MinCutView& cut = n.Solve();
  EXPECT_FALSE(cut.infinite);
  EXPECT_EQ(cut.value, 3);
  EXPECT_EQ(CutEdgeIds(cut), (std::vector<int32_t>{finite}));
}

TEST(ResidualGraphTest, InfiniteCutDetected) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, t, kInfiniteCapacity);
  n.AddEdge(s, t, 100);
  const MinCutView& cut = n.Solve();
  EXPECT_TRUE(cut.infinite);
}

// s → u → t with both edges of capacity 1 has two minimum cuts. Dinic
// levels by the distance to the target, but the cut it returns is the
// one next to the source.
TEST(ResidualGraphTest, TiedMinimumCutsResolveNextToTheSource) {
  ResidualGraph n;
  n.Reset(3);
  n.SetSource(0);
  n.SetTarget(1);
  const int32_t su = n.AddEdge(0, 2, 1);
  n.AddEdge(2, 1, 1);
  const MinCutView& cut = n.Solve();
  ASSERT_FALSE(cut.infinite);
  EXPECT_EQ(cut.value, 1);
  EXPECT_EQ(CutEdgeIds(cut), (std::vector<int32_t>{su}));
}

TEST(ResidualGraphTest, ParallelAndAntiparallelEdges) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, t, 2);
  n.AddEdge(s, t, 3);
  n.AddEdge(t, s, 50);  // backwards, irrelevant
  EXPECT_EQ(MaxFlowOf(n), 5);
}

TEST(ResidualGraphTest, ZeroCapacityEdge) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  n.AddEdge(s, t, 0);
  const MinCutView& cut = n.Solve();
  EXPECT_EQ(cut.value, 0);
  EXPECT_TRUE(cut.cut_edges.empty());  // zero edges excluded from the cut
}

TEST(ResidualGraphTest, LargeCapacitiesNoOverflow) {
  ResidualGraph n;
  int s = n.AddVertex(), t = n.AddVertex(), m = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(t);
  const Capacity big = Capacity{1} << 40;
  n.AddEdge(s, m, big);
  n.AddEdge(m, t, big / 2);
  EXPECT_EQ(MaxFlowOf(n), big / 2);
}

TEST(ResidualGraphTest, SourceEqualsTargetIsInfinite) {
  ResidualGraph n;
  int s = n.AddVertex();
  n.SetSource(s);
  n.SetTarget(s);
  EXPECT_TRUE(n.Solve().infinite);
}

// Reset() must make the graph fully reusable, and a same-shaped rebuild
// must not grow any buffer — the zero-copy core's steady-state contract.
TEST(ResidualGraphTest, ResetReusesBuffersWithoutGrowth) {
  ResidualGraph n;
  auto build_and_solve = [&n]() {
    n.Reset(4);
    n.SetSource(0);
    n.SetTarget(1);
    n.AddEdge(0, 2, 5);
    n.AddEdge(2, 1, 3);
    n.AddEdge(0, 3, 2);
    n.AddEdge(3, 1, kInfiniteCapacity);
    const MinCutView& cut = n.Solve();
    EXPECT_FALSE(cut.infinite);
    return cut.value;
  };
  Capacity first = build_and_solve();
  EXPECT_EQ(first, 5);  // 3 via vertex 2, 2 via vertex 3
  size_t warm_bytes = n.total_capacity_bytes();
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(build_and_solve(), first);
    EXPECT_EQ(n.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a buffer";
  }
}

TEST(StampedIdMapTest, ResetClearsInConstantTime) {
  StampedIdMap map;
  map.Reset(8);
  EXPECT_FALSE(map.Contains(3));
  EXPECT_EQ(map.Get(3), -1);
  map.Set(3, 42);
  EXPECT_TRUE(map.Contains(3));
  EXPECT_EQ(map.Get(3), 42);
  map.Reset(8);
  EXPECT_FALSE(map.Contains(3));
  map.Reset(16);  // grow keeps working
  map.Set(15, 7);
  EXPECT_EQ(map.Get(15), 7);
  EXPECT_EQ(map.Get(3), -1);
}

// Property test: on random DAG-ish networks, the extracted cut always (a)
// sums to the flow value and (b) disconnects source from target — while
// one ResidualGraph instance is reused across every case.
class ResidualGraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ResidualGraphPropertyTest, CutMatchesFlowAndDisconnects) {
  Rng rng(GetParam());
  ResidualGraph n;
  const int kVertices = 12;
  n.Reset(kVertices);
  n.SetSource(0);
  n.SetTarget(kVertices - 1);
  struct Edge {
    int from, to;
    Capacity capacity;
  };
  std::vector<Edge> edges;
  for (int i = 0; i < 30; ++i) {
    int u = static_cast<int>(rng.NextBelow(kVertices));
    int v = static_cast<int>(rng.NextBelow(kVertices));
    if (u == v) continue;
    Capacity c = rng.NextInRange(1, 20);
    n.AddEdge(u, v, c);
    edges.push_back({u, v, c});
  }
  const MinCutView& cut = n.Solve();
  ASSERT_FALSE(cut.infinite);
  Capacity total = 0;
  std::vector<bool> removed(edges.size(), false);
  for (int32_t e : cut.cut_edges) {
    total += edges[e].capacity;
    removed[e] = true;
  }
  EXPECT_EQ(total, cut.value);
  // BFS in the network minus the cut: target unreachable.
  std::vector<bool> seen(kVertices, false);
  std::vector<int> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (size_t e = 0; e < edges.size(); ++e) {
      if (removed[e] || edges[e].from != v) continue;
      if (!seen[edges[e].to]) {
        seen[edges[e].to] = true;
        stack.push_back(edges[e].to);
      }
    }
  }
  EXPECT_FALSE(seen[kVertices - 1]);
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, ResidualGraphPropertyTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace rpqres
