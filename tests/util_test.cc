// Tests for util: Status/Result, strings, rng.

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace rpqres {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad regex");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad regex");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad regex");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubled(Result<int> input) {
  RPQRES_ASSIGN_OR_RETURN(int v, std::move(input));
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  Result<int> failed = Doubled(Status::Internal("boom"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "|"), "a|b|c");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Infixes) {
  EXPECT_TRUE(ContainsInfix("abcd", "bc"));
  EXPECT_TRUE(ContainsInfix("abcd", "abcd"));
  EXPECT_TRUE(ContainsInfix("abcd", ""));
  EXPECT_FALSE(ContainsInfix("abcd", "ca"));
  EXPECT_TRUE(ContainsStrictInfix("abcd", "bc"));
  EXPECT_FALSE(ContainsStrictInfix("abcd", "abcd"));
  EXPECT_TRUE(ContainsStrictInfix("abcd", ""));
}

TEST(StringsTest, MirrorAndDisplay) {
  EXPECT_EQ(Mirror("abc"), "cba");
  EXPECT_EQ(Mirror(""), "");
  EXPECT_EQ(DisplayWord(""), "ε");
  EXPECT_EQ(DisplayWord("ab"), "ab");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextInRangeHitsEndpoints) {
  Rng rng(2);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    lo |= (v == 3);
    hi |= (v == 5);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace rpqres
