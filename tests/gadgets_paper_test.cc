// Tests for the paper's gadget library (Figs 3-16): pre-gadget validity
// (Def 4.3), gadget verification (Def 4.9), the graph encoding (Def 4.5),
// the subdivision identity (Prp 4.2), and the end-to-end vertex-cover
// reduction (Prp 4.11 / Claim 4.12) checked with the exact solver.

#include <gtest/gtest.h>

#include "gadgets/encoding.h"
#include "gadgets/gadget.h"
#include "gadgets/paper_gadgets.h"
#include "gadgets/vertex_cover.h"
#include "lang/four_legged.h"
#include "lang/language.h"
#include "resilience/exact.h"
#include "util/rng.h"

namespace rpqres {
namespace {

TEST(PreGadgetTest, ValidityConditions) {
  PreGadget aa = AaGadget();
  EXPECT_TRUE(ValidatePreGadget(aa).ok());

  PreGadget bad = aa;
  bad.t_out = bad.t_in;  // endpoints coincide
  EXPECT_FALSE(ValidatePreGadget(bad).ok());

  PreGadget head = AaGadget();
  // Add a fact whose head is t_in: violates Def 4.3.
  head.db.AddFact(head.t_out, 'a', head.t_in);
  EXPECT_FALSE(ValidatePreGadget(head).ok());
}

TEST(CompleteTest, AddsTwoEndpointFacts) {
  PreGadget aa = AaGadget();
  CompletedGadget completed = Complete(aa);
  EXPECT_EQ(completed.db.num_facts(), aa.db.num_facts() + 2);
  EXPECT_EQ(completed.db.fact(completed.f_in).label, 'a');
  EXPECT_EQ(completed.db.fact(completed.f_in).target, aa.t_in);
  EXPECT_EQ(completed.db.fact(completed.f_out).target, aa.t_out);
}

struct GadgetCase {
  std::string name;
  std::string regex;
  PreGadget gadget;
  int expected_path;  // the ℓ of the figure
};

std::vector<GadgetCase> TranscribedGadgets() {
  std::vector<GadgetCase> cases;
  cases.push_back({"Fig3b", "aa", AaGadget(), 5});
  cases.push_back({"Fig4a", "axb|cxd", AxbCxdGadget(), 9});
  cases.push_back({"Fig7", "aya", RepeatedLetterGadget('a', "y", ""), 5});
  cases.push_back({"Fig7-aa", "aa", RepeatedLetterGadget('a', "", ""), 5});
  cases.push_back(
      {"Fig8", "ayazz", RepeatedLetterGadget('a', "y", "zz"), 5});
  cases.push_back(
      {"Fig11gen", "aab", RepeatedLetterGadget('a', "", "b"), 3});
  cases.push_back(
      {"Fig11gen2", "aabc", RepeatedLetterGadget('a', "", "bc"), 3});
  cases.push_back({"Fig9", "aba|bab", AbaBabGadget(), 5});
  cases.push_back({"Fig10", "aaa", AaaGadget(), 3});
  cases.push_back({"Fig11", "aab", AabGadget(), 3});
  cases.push_back({"Fig13", "ab|bc|ca", AbBcCaGadget(), 7});
  cases.push_back({"Fig15", "abcd|be|ef", AbcdGadget(), 7});
  cases.push_back({"Fig16", "abcd|bef", AbcdGadget(), 5});
  return cases;
}

TEST(PaperGadgetTest, AllTranscribedGadgetsVerify) {
  for (GadgetCase& c : TranscribedGadgets()) {
    Language lang = Language::MustFromRegexString(c.regex);
    Result<GadgetVerification> v = VerifyGadget(lang, c.gadget);
    ASSERT_TRUE(v.ok()) << c.name << ": " << v.status();
    EXPECT_TRUE(v->valid) << c.name << ": " << v->reason;
    EXPECT_EQ(v->odd_path.path_edges, c.expected_path) << c.name;
  }
}

TEST(PaperGadgetTest, Case1GadgetForStableWitnesses) {
  for (const char* regex : {"axb|cxd", "abxcd|efxgh", "be*c|de*f"}) {
    Language lang = Language::MustFromRegexString(regex);
    std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
    ASSERT_TRUE(w && w->stable) << regex;
    // Case 1 applies when no infix of γxβ is in L.
    std::string gxb = w->gamma + w->body + w->beta;
    if (SomeInfixInLanguage(lang, gxb)) continue;
    Result<GadgetVerification> v =
        VerifyGadget(lang, FourLeggedCase1Gadget(*w));
    ASSERT_TRUE(v.ok()) << regex << ": " << v.status();
    EXPECT_TRUE(v->valid) << regex << ": " << v->reason;
    EXPECT_EQ(v->odd_path.path_edges, 9) << regex;
  }
}

TEST(PaperGadgetTest, Case2CycleGadget) {
  // Case 2 languages: some infix of γxβ is in L.
  for (const char* regex : {"axb|cxd|cxb", "abxcd|efxgh|efxcd"}) {
    Language lang = Language::MustFromRegexString(regex);
    std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
    ASSERT_TRUE(w.has_value()) << regex;
    ASSERT_TRUE(SomeInfixInLanguage(lang, w->gamma + w->body + w->beta))
        << regex;
    Result<PreGadget> gadget =
        FirstValidGadget(lang, FourLeggedCase2Candidates(*w));
    ASSERT_TRUE(gadget.ok()) << regex << ": " << gadget.status();
    Result<GadgetVerification> v = VerifyGadget(lang, *gadget);
    ASSERT_TRUE(v.ok() && v->valid) << regex;
    EXPECT_EQ(v->odd_path.path_edges, 9) << regex;
  }
}

TEST(PaperGadgetTest, GadgetsRejectWrongLanguages) {
  // The aa-gadget is not a gadget for aaa (its match hypergraph differs).
  Language aaa = Language::MustFromRegexString("aaa");
  Result<GadgetVerification> v = VerifyGadget(aaa, AaGadget());
  ASSERT_TRUE(v.ok());
  // (It happens to be valid for aaa per Fig 10! Use a truly wrong pair.)
  Language ab = Language::MustFromRegexString("ab");
  Result<GadgetVerification> wrong = VerifyGadget(ab, AaGadget());
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(wrong->valid);
}

TEST(SubdivisionTest, Prp42OnSmallGraphs) {
  // vc(ℓ-subdivision of G) = vc(G) + m(ℓ-1)/2 for odd ℓ.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    UndirectedGraph g = RandomUndirectedGraph(&rng, 5, 7);
    int vc = VertexCoverNumber(g);
    for (int ell : {1, 3, 5}) {
      UndirectedGraph sub = Subdivide(g, ell);
      EXPECT_EQ(VertexCoverNumber(sub),
                vc + static_cast<int>(g.edges.size()) * (ell - 1) / 2)
          << "trial " << trial << " ell " << ell;
    }
  }
}

TEST(VertexCoverTest, KnownValues) {
  UndirectedGraph triangle;
  triangle.num_vertices = 3;
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  EXPECT_EQ(VertexCoverNumber(triangle), 2);

  UndirectedGraph star;
  star.num_vertices = 5;
  for (int leaf = 1; leaf < 5; ++leaf) star.AddEdge(0, leaf);
  EXPECT_EQ(VertexCoverNumber(star), 1);

  UndirectedGraph empty;
  empty.num_vertices = 4;
  EXPECT_EQ(VertexCoverNumber(empty), 0);

  UndirectedGraph path4;  // P4 has vc 2... P4: 0-1-2-3
  path4.num_vertices = 4;
  path4.AddEdge(0, 1);
  path4.AddEdge(1, 2);
  path4.AddEdge(2, 3);
  EXPECT_EQ(VertexCoverNumber(path4), 2);
}

TEST(EncodingTest, ShapeOfXi) {
  // Def 4.5: one a-fact per node, one gadget copy per edge.
  UndirectedGraph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  PreGadget gadget = AaGadget();
  GraphDb xi = EncodeGraph(OrientArbitrarily(g), gadget);
  EXPECT_EQ(xi.num_facts(),
            3 + 2 * gadget.db.num_facts());
  EXPECT_EQ(xi.num_nodes(),
            2 * 3 + 2 * (gadget.db.num_nodes() - 2));
}

// The full reduction (Prp 4.11): RES_set(Q_L, Ξ(G)) = vc(G) + m(ℓ-1)/2.
class ReductionTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ReductionTest, EncodingResilienceMatchesPrediction) {
  const auto& [regex, seed] = GetParam();
  Language lang = Language::MustFromRegexString(regex);
  PreGadget gadget = [&]() {
    if (std::string(regex) == "aa") return AaGadget();
    if (std::string(regex) == "aaa") return AaaGadget();
    if (std::string(regex) == "aab") return AabGadget();
    if (std::string(regex) == "abcd|bef") return AbcdGadget();
    return AbBcCaGadget();
  }();
  Result<GadgetVerification> v = VerifyGadget(lang, gadget);
  ASSERT_TRUE(v.ok() && v->valid);
  Rng rng(seed * 7);
  UndirectedGraph g = RandomUndirectedGraph(&rng, 4, 5);
  if (g.edges.empty()) return;
  GraphDb xi = EncodeGraph(OrientArbitrarily(g), gadget);
  Result<ResilienceResult> res =
      SolveExactResilience(lang, xi, Semantics::kSet);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->value,
            PredictedEncodingResilience(g, v->odd_path.path_edges))
      << regex << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionTest,
    ::testing::Combine(::testing::Values("aa", "aaa", "aab", "ab|bc|ca",
                                         "abcd|bef"),
                       ::testing::Range(1, 5)));

}  // namespace
}  // namespace rpqres
