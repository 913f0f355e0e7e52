// GraphDb copy-on-write overlays: the storage layer under DbRegistry v3
// delta commits. Pins the id-space contract (dead ids stay allocated but
// invisible to a LabelIndex), multiplicity overrides, re-add ordering,
// Compact's renumbering, and the incremental LabelIndex's equivalence to
// full rebuilds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/serialization.h"

namespace rpqres {
namespace {

// Live facts out of (`out`) or into `node` over every label, ascending.
std::vector<FactId> Incident(const LabelIndex& index, NodeId node, bool out) {
  std::vector<FactId> facts;
  for (char label : index.labels()) {
    std::span<const FactId> span =
        out ? index.FactsFrom(label, node) : index.FactsInto(label, node);
    facts.insert(facts.end(), span.begin(), span.end());
  }
  std::sort(facts.begin(), facts.end());
  return facts;
}

std::vector<FactId> ToVector(std::span<const FactId> facts) {
  return std::vector<FactId>(facts.begin(), facts.end());
}

GraphDb SmallDb() {
  GraphDb db;
  NodeId u = db.AddNode("u");
  NodeId v = db.AddNode("v");
  NodeId w = db.AddNode("w");
  db.AddFact(u, 'a', v);       // 0
  db.AddFact(v, 'x', w, 3);    // 1
  db.AddFact(u, 'b', w);       // 2
  return db;
}

TEST(GraphDbOverlayTest, FlatDatabasesAreAllLive) {
  GraphDb db = SmallDb();
  EXPECT_FALSE(db.is_versioned());
  EXPECT_EQ(db.num_live_facts(), 3);
  EXPECT_EQ(db.overlay_size(), 0);
  for (FactId f = 0; f < db.num_facts(); ++f) EXPECT_TRUE(db.IsLive(f));
  LabelIndex index(db);
  EXPECT_EQ(Incident(index, 0, /*out=*/true), (std::vector<FactId>{0, 2}));
  EXPECT_EQ(Incident(index, 2, /*out=*/false), (std::vector<FactId>{1, 2}));
}

TEST(GraphDbOverlayTest, OverlaySharesBaseAndAppends) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  EXPECT_TRUE(overlay.is_versioned());
  EXPECT_EQ(overlay.num_facts(), 3);
  EXPECT_EQ(overlay.num_nodes(), 3);

  NodeId z = overlay.AddNode("z");
  EXPECT_EQ(z, 3);
  FactId f = overlay.AddFact(2, 'a', z, 2);
  EXPECT_EQ(f, 3);  // ids continue the base's space
  EXPECT_EQ(overlay.fact(3).source, 2);
  EXPECT_EQ(overlay.multiplicity(3), 2);
  EXPECT_EQ(overlay.node_name(3), "z");
  // Base reads go through unchanged.
  EXPECT_EQ(overlay.fact(1).label, 'x');
  EXPECT_EQ(overlay.multiplicity(1), 3);
  // The overlay's index sees base and overlay facts.
  LabelIndex index(overlay);
  EXPECT_EQ(Incident(index, 2, /*out=*/true), (std::vector<FactId>{3}));
  EXPECT_EQ(Incident(index, 3, /*out=*/false), (std::vector<FactId>{3}));
  // The base itself is untouched.
  EXPECT_EQ(base->num_facts(), 3);
  EXPECT_EQ(base->num_nodes(), 3);
}

TEST(GraphDbOverlayTest, RemoveFactTombstonesWithoutRenumbering) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  EXPECT_EQ(overlay.num_facts(), 3);  // id space unchanged
  EXPECT_EQ(overlay.num_live_facts(), 2);
  EXPECT_FALSE(overlay.IsLive(0));
  EXPECT_EQ(overlay.FindFact(0, 'a', 1), -1);
  EXPECT_EQ(Incident(LabelIndex(overlay), 0, /*out=*/true),
            (std::vector<FactId>{2}));
  // Removing it again: NotFound.
  EXPECT_EQ(overlay.RemoveFact(0, 'a', 1).code(), StatusCode::kNotFound);
  // Removing an overlay-added fact works too.
  FactId added = overlay.AddFact(1, 'c', 2);
  ASSERT_TRUE(overlay.RemoveFact(1, 'c', 2).ok());
  EXPECT_FALSE(overlay.IsLive(added));
  EXPECT_EQ(overlay.num_live_facts(), 2);
}

TEST(GraphDbOverlayTest, MultiplicityBumpOnBaseFactIsAnOverride) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  FactId f = overlay.AddFact(1, 'x', 2, 4);  // existing base fact
  EXPECT_EQ(f, 1);
  EXPECT_EQ(overlay.num_facts(), 3);  // no new fact
  EXPECT_EQ(overlay.multiplicity(1), 7);
  EXPECT_EQ(base->multiplicity(1), 3);  // base untouched
  EXPECT_EQ(overlay.Cost(1, Semantics::kBag), 7);
  EXPECT_EQ(overlay.Cost(1, Semantics::kSet), 1);
}

TEST(GraphDbOverlayTest, ReAddAfterRemoveAppendsLikeARebuild) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  FactId readded = overlay.AddFact(0, 'a', 1, 5);
  EXPECT_EQ(readded, 3);  // new id at the end, not a resurrection
  EXPECT_FALSE(overlay.IsLive(0));
  EXPECT_TRUE(overlay.IsLive(3));
  EXPECT_EQ(overlay.multiplicity(3), 5);

  // The from-scratch twin: remove fact 0, then append the same fact.
  GraphDb twin = SmallDb().RemoveFacts({0});
  twin.AddFact(0, 'a', 1, 5);
  EXPECT_EQ(SerializeGraphDb(overlay), SerializeGraphDb(twin));
}

TEST(GraphDbOverlayTest, ReAddOfAnOverlayFactFindsTheNewerId) {
  // The dead id stays in the key table; lookups skip it and reach the
  // re-added id further along the probe chain, in this overlay and in
  // the overlays built on it.
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  EXPECT_EQ(overlay.AddFact(2, 'c', 0), 3);
  ASSERT_TRUE(overlay.RemoveFact(2, 'c', 0).ok());
  EXPECT_EQ(overlay.FindFact(2, 'c', 0), -1);
  EXPECT_EQ(overlay.RemoveFact(2, 'c', 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(overlay.AddFact(2, 'c', 0, 2), 4);
  EXPECT_EQ(overlay.FindFact(2, 'c', 0), 4);
  EXPECT_EQ(overlay.AddFact(2, 'c', 0), 4);  // merges into the live copy
  EXPECT_EQ(overlay.multiplicity(4), 3);
  EXPECT_FALSE(overlay.IsLive(3));

  auto parent = std::make_shared<const GraphDb>(std::move(overlay));
  GraphDb child = GraphDb::MakeOverlay(parent);
  EXPECT_EQ(child.FindFact(2, 'c', 0), 4);
  ASSERT_TRUE(child.RemoveFact(2, 'c', 0).ok());
  EXPECT_EQ(child.AddFact(2, 'c', 0, 5), 5);
  EXPECT_EQ(child.FindFact(2, 'c', 0), 5);
  EXPECT_EQ(parent->FindFact(2, 'c', 0), 4);  // the parent is untouched

  GraphDb twin = SmallDb();
  twin.AddFact(2, 'c', 0, 5);
  EXPECT_EQ(SerializeGraphDb(child), SerializeGraphDb(twin));
}

TEST(GraphDbOverlayTest, KeyLookupSurvivesChurnAcrossRegrows) {
  // 600 distinct keys grow the key table several times; removing and
  // re-adding a third of them leaves dead ids that a regrow drops.
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  for (int i = 0; i < 20; ++i) overlay.AddNode();
  auto key = [](int i) {
    return Fact{i % 20 + 3, static_cast<char>('c' + i / 400), (i / 20) % 20};
  };
  std::vector<FactId> id_of(600);
  for (int i = 0; i < 600; ++i) {
    const Fact k = key(i);
    id_of[i] = overlay.AddFact(k.source, k.label, k.target);
    EXPECT_EQ(id_of[i], 3 + i);
  }
  for (int i = 0; i < 600; i += 3) {
    const Fact k = key(i);
    ASSERT_TRUE(overlay.RemoveFact(k.source, k.label, k.target).ok());
  }
  for (int i = 0; i < 600; ++i) {
    const Fact k = key(i);
    EXPECT_EQ(overlay.FindFact(k.source, k.label, k.target),
              i % 3 == 0 ? -1 : id_of[i]);
  }
  for (int i = 0; i < 600; i += 3) {
    const Fact k = key(i);
    id_of[i] = overlay.AddFact(k.source, k.label, k.target);
  }
  for (int i = 0; i < 600; ++i) {
    const Fact k = key(i);
    EXPECT_EQ(overlay.FindFact(k.source, k.label, k.target), id_of[i]);
  }
  EXPECT_EQ(overlay.FindFact(0, 'a', 1), 0);  // base facts still resolve
  EXPECT_EQ(overlay.FindFact(3, 'z', 3), -1);

  GraphDb flat = overlay.Compact();
  for (FactId f = 0; f < flat.num_facts(); ++f) {
    const Fact& k = flat.fact(f);
    EXPECT_EQ(flat.FindFact(k.source, k.label, k.target), f);
  }
}

TEST(GraphDbOverlayTest, ChainedOverlaysShareOneFlatBase) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  auto level1 = std::make_shared<const GraphDb>([&] {
    GraphDb overlay = GraphDb::MakeOverlay(base);
    overlay.AddFact(0, 'c', 1);
    return overlay;
  }());
  GraphDb level2 = GraphDb::MakeOverlay(level1);
  EXPECT_TRUE(level2.is_versioned());
  EXPECT_EQ(level2.base_fact_watermark(), 3);  // the flat base, not level1
  EXPECT_EQ(level2.num_facts(), 4);
  level2.AddFact(1, 'c', 0);
  EXPECT_EQ(level2.num_facts(), 5);
  EXPECT_EQ(level2.fact(3).label, 'c');  // level1's addition visible
  // Mutating level2 never touches level1.
  EXPECT_EQ(level1->num_facts(), 4);
}

TEST(GraphDbOverlayTest, CompactRenumbersLiveFactsInOrder) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  overlay.AddFact(2, 'c', 0, 2);
  std::vector<FactId> old_id_of;
  GraphDb flat = overlay.Compact(&old_id_of);
  EXPECT_FALSE(flat.is_versioned());
  EXPECT_EQ(flat.num_facts(), 3);
  EXPECT_EQ(old_id_of, (std::vector<FactId>{1, 2, 3}));
  EXPECT_EQ(flat.fact(0).label, 'x');
  EXPECT_EQ(flat.fact(2).label, 'c');
  EXPECT_EQ(flat.multiplicity(2), 2);
  EXPECT_EQ(flat.num_nodes(), overlay.num_nodes());
  EXPECT_EQ(SerializeGraphDb(flat), SerializeGraphDb(overlay));
}

TEST(GraphDbOverlayTest, AggregatesSkipDeadFacts) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(1, 'x', 2).ok());  // the only x-fact
  EXPECT_EQ(overlay.Labels(), (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(overlay.TotalCost(Semantics::kBag), 2);
  EXPECT_EQ(overlay.TotalCost(Semantics::kSet), 2);
  EXPECT_EQ(overlay.NumExogenous(), 0);
  EXPECT_EQ(overlay.ToString().find('x'), std::string::npos);
}

// --- incremental LabelIndex -------------------------------------------------

TEST(LabelIndexIncrementalTest, SharesUntouchedLabelsAndPatchesTouched) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  LabelIndex base_index(*base);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  FactId added = overlay.AddFact(1, 'a', 0);

  LabelIndex incremental(overlay, base_index, {'a'},
                         /*first_new_fact=*/3);
  EXPECT_EQ(incremental.shared_labels(), 2);  // 'b' and 'x' untouched
  EXPECT_EQ(incremental.num_facts(), 3);
  EXPECT_EQ(ToVector(incremental.Facts('a')), (std::vector<FactId>{added}));
  EXPECT_EQ(ToVector(incremental.FactsFrom('a', 1)),
            (std::vector<FactId>{added}));
  EXPECT_TRUE(incremental.FactsFrom('a', 0).empty());
  // Untouched labels answer through the shared base entry.
  EXPECT_EQ(ToVector(incremental.Facts('x')), ToVector(base_index.Facts('x')));

  // Equivalent to a full rebuild over the same overlay (same id space).
  LabelIndex full(overlay);
  EXPECT_EQ(incremental.labels(), full.labels());
  for (char label : full.labels()) {
    EXPECT_EQ(ToVector(incremental.Facts(label)), ToVector(full.Facts(label)))
        << label;
    for (NodeId v = 0; v < overlay.num_nodes(); ++v) {
      EXPECT_EQ(ToVector(incremental.FactsFrom(label, v)),
                ToVector(full.FactsFrom(label, v)));
      EXPECT_EQ(ToVector(incremental.FactsInto(label, v)),
                ToVector(full.FactsInto(label, v)));
    }
  }
}

TEST(LabelIndexIncrementalTest, LabelVanishesWhenAllFactsDie) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  LabelIndex base_index(*base);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(1, 'x', 2).ok());
  LabelIndex incremental(overlay, base_index, {'x'}, /*first_new_fact=*/3);
  EXPECT_EQ(incremental.labels(), (std::vector<char>{'a', 'b'}));
  EXPECT_TRUE(incremental.Facts('x').empty());
  EXPECT_TRUE(incremental.FactsFrom('x', 1).empty());
}

TEST(LabelIndexIncrementalTest, SharedEntriesAreSafeAtNewNodes) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  LabelIndex base_index(*base);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  NodeId z = overlay.AddNode("z");
  FactId f = overlay.AddFact(z, 'a', 0);
  LabelIndex incremental(overlay, base_index, {'a'}, /*first_new_fact=*/3);
  // 'x' is shared from the base (built before node z existed): probing it
  // at the new node must answer "no facts", not read out of bounds.
  EXPECT_TRUE(incremental.FactsFrom('x', z).empty());
  EXPECT_TRUE(incremental.FactsInto('x', z).empty());
  EXPECT_EQ(ToVector(incremental.FactsFrom('a', z)),
            (std::vector<FactId>{f}));
}

}  // namespace
}  // namespace rpqres
