// Tests for the workload database generators: structural invariants per
// shape, seeded determinism of GenerateDb, and oracle-friendly sizing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graphdb/generators.h"
#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "workload/db_generator.h"

namespace rpqres {
namespace {

using workload::DbGenOptions;
using workload::DbShape;
using workload::DbShapeName;
using workload::GenerateDb;
using workload::kAllDbShapes;

TEST(DbGeneratorTest, StructuralInvariants) {
  std::vector<char> labels = {'a', 'b'};
  Rng rng(3);

  GraphDb chain = RandomChainDb(&rng, 7, labels, 2);
  EXPECT_EQ(chain.num_nodes(), 8);
  EXPECT_EQ(chain.num_facts(), 7);

  GraphDb cycle = CycleDb(&rng, 5, labels, 2);
  EXPECT_EQ(cycle.num_nodes(), 5);
  EXPECT_EQ(cycle.num_facts(), 5);
  // Every node has exactly one out- and one in-fact.
  LabelIndex cycle_index(cycle);
  for (NodeId v = 0; v < cycle.num_nodes(); ++v) {
    size_t out_degree = 0, in_degree = 0;
    for (char label : cycle_index.labels()) {
      out_degree += cycle_index.FactsFrom(label, v).size();
      in_degree += cycle_index.FactsInto(label, v).size();
    }
    EXPECT_EQ(out_degree, 1u);
    EXPECT_EQ(in_degree, 1u);
  }

  GraphDb grid = GridDb(&rng, 3, 4, labels, 2);
  EXPECT_EQ(grid.num_nodes(), 12);
  // rows*(cols-1) right edges + (rows-1)*cols down edges.
  EXPECT_EQ(grid.num_facts(), 3 * 3 + 2 * 4);

  GraphDb dag = DagLayersDb(&rng, 4, 3, 0.5, labels, 2);
  EXPECT_EQ(dag.num_nodes(), 12);
  // Every non-final-layer node has at least one out-edge; DAG: no fact
  // points backwards (nodes are created layer by layer).
  for (FactId f = 0; f < dag.num_facts(); ++f) {
    EXPECT_LT(dag.fact(f).source, dag.fact(f).target);
  }

  GraphDb scale_free = ScaleFreeDb(&rng, 12, 2, labels, 2);
  EXPECT_EQ(scale_free.num_nodes(), 12);
  EXPECT_GE(scale_free.num_facts(), 1);

  GraphDb kron = KroneckerDb(&rng, 3, 20, labels, 2);
  EXPECT_EQ(kron.num_nodes(), 8);  // 2^3
  EXPECT_LE(kron.num_facts(), 20);  // duplicate draws merge into one fact
  // Each of the 20 draws contributes multiplicity in [1, 2].
  Capacity total = 0;
  for (FactId f = 0; f < kron.num_facts(); ++f) total += kron.multiplicity(f);
  EXPECT_GE(total, 20);
  EXPECT_LE(total, 40);
}

TEST(DbGeneratorTest, EveryShapeGeneratesAndIsDeterministic) {
  std::vector<char> labels = {'a', 'b', 'x'};
  std::vector<std::string> words = {"ab", "axb"};
  for (DbShape shape : kAllDbShapes) {
    Rng rng1(17);
    Rng rng2(17);
    GraphDb a = GenerateDb(&rng1, shape, labels, words);
    GraphDb b = GenerateDb(&rng2, shape, labels, words);
    EXPECT_GT(a.num_facts(), 0) << DbShapeName(shape);
    EXPECT_EQ(SerializeGraphDb(a), SerializeGraphDb(b)) << DbShapeName(shape);
  }
}

TEST(DbGeneratorTest, SizeClassesScale) {
  std::vector<char> labels = {'a', 'b'};
  for (DbShape shape : kAllDbShapes) {
    DbGenOptions tiny;
    tiny.size_class = 0;
    DbGenOptions medium;
    medium.size_class = 2;
    Rng rng1(23);
    Rng rng2(23);
    GraphDb small_db = GenerateDb(&rng1, shape, labels, {}, tiny);
    GraphDb big_db = GenerateDb(&rng2, shape, labels, {}, medium);
    EXPECT_GE(big_db.num_facts(), small_db.num_facts()) << DbShapeName(shape);
    // Oracle-sized instances must stay exact-solver friendly.
    EXPECT_LE(small_db.num_facts(), 60) << DbShapeName(shape);
  }
}

TEST(DbGeneratorTest, WordSoupFallsBackWithoutWords) {
  std::vector<char> labels = {'a'};
  Rng rng(31);
  GraphDb db = GenerateDb(&rng, DbShape::kWordSoup, labels, {});
  EXPECT_GT(db.num_facts(), 0);
}

}  // namespace
}  // namespace rpqres
