#include "aqt/util/rational.hpp"

#include <gtest/gtest.h>

#include "aqt/util/check.hpp"

#include <cmath>
#include <sstream>

namespace aqt {
namespace {

TEST(Rational, DefaultIsZero) {
  Rat r;
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, IntegerConversion) {
  Rat r = 7;
  EXPECT_EQ(r.num(), 7);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_integer());
}

TEST(Rational, NormalizesToLowestTerms) {
  Rat r(6, 10);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 5);
}

TEST(Rational, NormalizesSignOntoNumerator) {
  Rat r(3, -5);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 5);
  Rat s(-3, -5);
  EXPECT_EQ(s.num(), 3);
  EXPECT_EQ(s.den(), 5);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rat(1, 0), PreconditionError);
}

TEST(Rational, ParseFraction) {
  EXPECT_EQ(Rat::parse("3/5"), Rat(3, 5));
  EXPECT_EQ(Rat::parse("-3/5"), Rat(-3, 5));
  EXPECT_EQ(Rat::parse("10/4"), Rat(5, 2));
}

TEST(Rational, ParseInteger) {
  EXPECT_EQ(Rat::parse("42"), Rat(42));
  EXPECT_EQ(Rat::parse("-7"), Rat(-7));
}

TEST(Rational, ParseDecimal) {
  EXPECT_EQ(Rat::parse("0.6"), Rat(3, 5));
  EXPECT_EQ(Rat::parse("0.51"), Rat(51, 100));
  EXPECT_EQ(Rat::parse("1.25"), Rat(5, 4));
  EXPECT_EQ(Rat::parse("-0.5"), Rat(-1, 2));
}

TEST(Rational, ParseEmptyThrows) {
  EXPECT_THROW((void)Rat::parse(""), PreconditionError);
}

TEST(Rational, FloorCeilPositive) {
  EXPECT_EQ(Rat(7, 2).floor(), 3);
  EXPECT_EQ(Rat(7, 2).ceil(), 4);
  EXPECT_EQ(Rat(8, 2).floor(), 4);
  EXPECT_EQ(Rat(8, 2).ceil(), 4);
}

TEST(Rational, FloorCeilNegative) {
  EXPECT_EQ(Rat(-7, 2).floor(), -4);
  EXPECT_EQ(Rat(-7, 2).ceil(), -3);
  EXPECT_EQ(Rat(-8, 2).floor(), -4);
  EXPECT_EQ(Rat(-8, 2).ceil(), -4);
}

TEST(Rational, FloorMulMatchesDefinition) {
  const Rat r(3, 5);
  for (std::int64_t k = 0; k <= 100; ++k) {
    EXPECT_EQ(r.floor_mul(k), (3 * k) / 5) << "k=" << k;
  }
}

TEST(Rational, CeilMulMatchesDefinition) {
  const Rat r(3, 5);
  for (std::int64_t k = 0; k <= 100; ++k) {
    EXPECT_EQ(r.ceil_mul(k), (3 * k + 4) / 5) << "k=" << k;
  }
}

TEST(Rational, FloorMulNegativeArgument) {
  const Rat r(1, 2);
  EXPECT_EQ(r.floor_mul(-3), -2);
  EXPECT_EQ(r.ceil_mul(-3), -1);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rat(1, 2) + Rat(1, 3), Rat(5, 6));
  EXPECT_EQ(Rat(1, 2) - Rat(1, 3), Rat(1, 6));
  EXPECT_EQ(Rat(2, 3) * Rat(3, 4), Rat(1, 2));
  EXPECT_EQ(Rat(2, 3) / Rat(4, 3), Rat(1, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rat(1, 2) / Rat(0), PreconditionError);
}

TEST(Rational, CompoundAssignment) {
  Rat r(1, 2);
  r += Rat(1, 4);
  EXPECT_EQ(r, Rat(3, 4));
  r -= Rat(1, 4);
  EXPECT_EQ(r, Rat(1, 2));
  r *= Rat(4);
  EXPECT_EQ(r, Rat(2));
  r /= Rat(4);
  EXPECT_EQ(r, Rat(1, 2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rat(1, 3), Rat(1, 2));
  EXPECT_GT(Rat(2, 3), Rat(1, 2));
  EXPECT_LE(Rat(1, 2), Rat(2, 4));
  EXPECT_EQ(Rat(1, 2), Rat(2, 4));
  EXPECT_LT(Rat(-1, 2), Rat(0));
}

TEST(Rational, ComparisonAvoidsOverflowForModestValues) {
  // Values near 1e9 cross-multiply to ~1e18, inside the __int128 path.
  EXPECT_LT(Rat(999999999, 1000000000), Rat(1));
  EXPECT_GT(Rat(1000000001, 1000000000), Rat(1));
}

TEST(Rational, StrAndStream) {
  EXPECT_EQ(Rat(3, 5).str(), "3/5");
  EXPECT_EQ(Rat(4).str(), "4");
  std::ostringstream os;
  os << Rat(-1, 3);
  EXPECT_EQ(os.str(), "-1/3");
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rat(3, 5).to_double(), 0.6);
  EXPECT_DOUBLE_EQ(Rat(-1, 4).to_double(), -0.25);
}

TEST(Rational, UnaryMinus) {
  EXPECT_EQ(-Rat(3, 5), Rat(-3, 5));
  EXPECT_EQ(-Rat(-3, 5), Rat(3, 5));
}

// Property sweep: floor/ceil agree with exact division for a grid of p/q.
class RationalFloorCeilSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(RationalFloorCeilSweep, FloorCeilConsistent) {
  const auto [p, q] = GetParam();
  const Rat r(p, q);
  const double v = static_cast<double>(p) / static_cast<double>(q);
  EXPECT_EQ(r.floor(), static_cast<std::int64_t>(std::floor(v)));
  EXPECT_EQ(r.ceil(), static_cast<std::int64_t>(std::ceil(v)));
  EXPECT_LE(r.floor(), r.ceil());
  EXPECT_LE(r.ceil() - r.floor(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RationalFloorCeilSweep,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{7, 3},
                      std::pair<std::int64_t, std::int64_t>{-7, 3},
                      std::pair<std::int64_t, std::int64_t>{0, 5},
                      std::pair<std::int64_t, std::int64_t>{5, 5},
                      std::pair<std::int64_t, std::int64_t>{-5, 5},
                      std::pair<std::int64_t, std::int64_t>{1, 7},
                      std::pair<std::int64_t, std::int64_t>{-1, 7},
                      std::pair<std::int64_t, std::int64_t>{13, 4},
                      std::pair<std::int64_t, std::int64_t>{-13, 4}));

}  // namespace
}  // namespace aqt
