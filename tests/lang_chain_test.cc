// Tests for chain languages and BCLs (Section 7.1, Defs 7.1-7.2): chain
// conditions, endpoint graphs, bipartiteness, Example 7.3, and the finite
// word-list extraction behind Lemma 7.7.

#include <gtest/gtest.h>

#include "lang/chain.h"
#include "lang/infix_free.h"
#include "lang/language.h"

namespace rpqres {
namespace {

TEST(ChainTest, Example73AllThreeAreChains) {
  for (const char* regex : {"ab|bc", "axyb|bztc|cd|dea", "ab|bc|ca"}) {
    ChainAnalysis c = AnalyzeChain(Language::MustFromRegexString(regex));
    EXPECT_TRUE(c.is_chain) << regex << ": " << c.violation;
  }
}

TEST(ChainTest, RepeatedLetterViolatesCondition1) {
  ChainAnalysis c = AnalyzeChain(Language::MustFromRegexString("aba|cd"));
  EXPECT_FALSE(c.is_chain);
  EXPECT_NE(c.violation.find("repeats"), std::string::npos);
}

TEST(ChainTest, SharedMiddleLetterViolatesCondition2) {
  // b is a middle letter of abc and occurs in bd.
  ChainAnalysis c = AnalyzeChain(Language::MustFromRegexString("abc|bd"));
  EXPECT_FALSE(c.is_chain);
  EXPECT_NE(c.violation.find("middle"), std::string::npos);
  // Sharing endpoints is fine: abc|cd.
  EXPECT_TRUE(
      AnalyzeChain(Language::MustFromRegexString("abc|cd")).is_chain);
}

TEST(ChainTest, InfiniteLanguagesAreNotChains) {
  ChainAnalysis c = AnalyzeChain(Language::MustFromRegexString("ax*b"));
  EXPECT_FALSE(c.is_chain);
  EXPECT_NE(c.violation.find("infinite"), std::string::npos);
}

TEST(ChainTest, WordListStopsAtTheChainBound) {
  // A chain language over |Σ| letters has at most |Σ|² + |Σ| words, so the
  // analysis lists at most 20 of the 4^10 words here.
  ChainAnalysis c = AnalyzeChain(Language::MustFromRegexString(
      "(a|b|c|d)(a|b|c|d)(a|b|c|d)(a|b|c|d)(a|b|c|d)(a|b|c|d)(a|b|c|d)"
      "(a|b|c|d)(a|b|c|d)(a|b|c|d)"));
  EXPECT_FALSE(c.is_chain);
  EXPECT_NE(c.violation.find("more than 20 words"), std::string::npos)
      << c.violation;
  // Every one- and two-letter word over {a, b, c} plus a word with a
  // private middle letter: 10 words, within the bound of 20.
  EXPECT_TRUE(AnalyzeChain(Language::MustFromRegexString(
                               "a|b|c|ab|ac|ba|bc|ca|cb|axb"))
                  .is_chain);
}

TEST(ChainTest, SingleLetterWordsAllowed) {
  EXPECT_TRUE(
      AnalyzeChain(Language::MustFromRegexString("a|bc")).is_chain);
}

TEST(EndpointGraphTest, BuildAndDeduplicate) {
  EndpointGraph g = BuildEndpointGraph({"ab", "bc", "ba"});
  EXPECT_EQ(g.letters, (std::vector<char>{'a', 'b', 'c'}));
  // ab and ba give the same undirected edge.
  EXPECT_EQ(g.edges, (std::vector<std::pair<char, char>>{{'a', 'b'},
                                                         {'b', 'c'}}));
}

TEST(EndpointGraphTest, ShortWordsContributeNoEdges) {
  EndpointGraph g = BuildEndpointGraph({"a", ""});
  EXPECT_TRUE(g.edges.empty());
  EXPECT_EQ(g.letters, (std::vector<char>{'a'}));
}

TEST(BipartitionTest, PathIsBipartite) {
  EndpointGraph g = BuildEndpointGraph({"ab", "bc"});
  auto coloring = BipartitionEndpointGraph(g);
  ASSERT_TRUE(coloring.has_value());
  EXPECT_NE(coloring->at('a'), coloring->at('b'));
  EXPECT_NE(coloring->at('b'), coloring->at('c'));
}

TEST(BipartitionTest, TriangleIsNot) {
  EndpointGraph g = BuildEndpointGraph({"ab", "bc", "ca"});
  EXPECT_FALSE(BipartitionEndpointGraph(g).has_value());
}

TEST(BipartitionTest, EvenCycleIs) {
  // Example 7.3's four-word chain has the 4-cycle a-b-c-d-a.
  EndpointGraph g = BuildEndpointGraph({"axyb", "bztc", "cd", "dea"});
  EXPECT_TRUE(BipartitionEndpointGraph(g).has_value());
}

TEST(BclTest, Examples) {
  EXPECT_TRUE(
      IsBipartiteChainLanguage(Language::MustFromRegexString("ab|bc")));
  EXPECT_TRUE(IsBipartiteChainLanguage(
      Language::MustFromRegexString("axyb|bztc|cd|dea")));
  EXPECT_TRUE(
      IsBipartiteChainLanguage(Language::MustFromRegexString("axb|byc")));
  EXPECT_FALSE(IsBipartiteChainLanguage(
      Language::MustFromRegexString("ab|bc|ca")));
  EXPECT_FALSE(
      IsBipartiteChainLanguage(Language::MustFromRegexString("ax*b")));
  EXPECT_FALSE(
      IsBipartiteChainLanguage(Language::MustFromRegexString("aa|bc")));
}

TEST(BclTest, IncomparableWithLocal) {
  // Paper remark: ax*b and axb|axc are local but not BCLs; ab|bc is a BCL
  // but not local.
  EXPECT_FALSE(
      IsBipartiteChainLanguage(Language::MustFromRegexString("ax*b")));
  EXPECT_FALSE(IsBipartiteChainLanguage(
      Language::MustFromRegexString("axb|axc")));
}

class BclSubsetTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BclSubsetTest, SubLanguagesStayBcl) {
  // Lem C.1: every subset of a BCL is a BCL — check on word subsets.
  Language lang = Language::MustFromRegexString(GetParam());
  ASSERT_TRUE(IsBipartiteChainLanguage(lang));
  std::vector<std::string> words = *lang.Words();
  for (size_t skip = 0; skip < words.size(); ++skip) {
    std::vector<std::string> subset;
    for (size_t i = 0; i < words.size(); ++i) {
      if (i != skip) subset.push_back(words[i]);
    }
    EXPECT_TRUE(IsBipartiteChainLanguage(Language::FromWords(subset)))
        << GetParam() << " minus " << words[skip];
  }
}

INSTANTIATE_TEST_SUITE_P(Bcls, BclSubsetTest,
                         ::testing::Values("ab|bc", "axb|byc",
                                           "axyb|bztc|cd|dea"));

}  // namespace
}  // namespace rpqres
