// ParseIntInRange accepts only a whole base-10 integer inside [lo, hi],
// ParseDoubleInRange only a whole finite decimal inside [lo, hi]; anything
// else is rejected and leaves the output as it was.
#include "common/parse_int.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <limits>

namespace ckpt {
namespace {

TEST(ParseIntInRange, AcceptsDecimalInsideRange) {
  int value = 0;
  ASSERT_TRUE(ParseIntInRange("42", 1, 100, &value));
  EXPECT_EQ(value, 42);
  ASSERT_TRUE(ParseIntInRange("007", 1, 100, &value));
  EXPECT_EQ(value, 7);
}

TEST(ParseIntInRange, AcceptsBothRangeEndpoints) {
  int value = 0;
  ASSERT_TRUE(ParseIntInRange("1", 1, 1024, &value));
  EXPECT_EQ(value, 1);
  ASSERT_TRUE(ParseIntInRange("1024", 1, 1024, &value));
  EXPECT_EQ(value, 1024);
  ASSERT_TRUE(ParseIntInRange("2147483647", 0, INT_MAX, &value));
  EXPECT_EQ(value, INT_MAX);
}

TEST(ParseIntInRange, RejectsValuesOutsideRange) {
  int value = 0;
  EXPECT_FALSE(ParseIntInRange("0", 1, 1024, &value));
  EXPECT_FALSE(ParseIntInRange("1025", 1, 1024, &value));
  EXPECT_FALSE(ParseIntInRange("-5", 1, 1000000, &value));
}

TEST(ParseIntInRange, AcceptsNegativeWhenRangeAllows) {
  int value = 0;
  ASSERT_TRUE(ParseIntInRange("-10", -10, 10, &value));
  EXPECT_EQ(value, -10);
  EXPECT_FALSE(ParseIntInRange("-11", -10, 10, &value));
}

TEST(ParseIntInRange, RejectsNonNumericAndEmptyText) {
  int value = 0;
  EXPECT_FALSE(ParseIntInRange("abc", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("-", 0, 100, &value));
}

TEST(ParseIntInRange, RejectsTrailingAndLeadingExtras) {
  int value = 0;
  EXPECT_FALSE(ParseIntInRange("12x", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("1.5", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("5 ", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange(" 5", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("+5", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("0x10", 0, 100, &value));
}

TEST(ParseIntInRange, RejectsValuesThatOverflowTheType) {
  int value = 0;
  EXPECT_FALSE(ParseIntInRange("2147483648", INT_MIN, INT_MAX, &value));
  std::int64_t wide = 0;
  EXPECT_FALSE(ParseIntInRange<std::int64_t>("99999999999999999999", 0,
                                             INT64_MAX, &wide));
}

TEST(ParseIntInRange, FailureLeavesOutputUntouched) {
  int value = 17;
  EXPECT_FALSE(ParseIntInRange("abc", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("500", 0, 100, &value));
  EXPECT_FALSE(ParseIntInRange("12x", 0, 100, &value));
  EXPECT_EQ(value, 17);
}

TEST(ParseDoubleInRange, AcceptsDecimalsAndExponents) {
  double value = 0;
  ASSERT_TRUE(ParseDoubleInRange("0.4", 0.0, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 0.4);
  ASSERT_TRUE(ParseDoubleInRange("2", 0.0, 10.0, &value));
  EXPECT_DOUBLE_EQ(value, 2.0);
  ASSERT_TRUE(ParseDoubleInRange("1.5e1", 0.0, 100.0, &value));
  EXPECT_DOUBLE_EQ(value, 15.0);
  ASSERT_TRUE(ParseDoubleInRange(".5", 0.0, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 0.5);
}

TEST(ParseDoubleInRange, AcceptsBothRangeEndpoints) {
  double value = -1;
  ASSERT_TRUE(ParseDoubleInRange("0", 0.0, 1.0, &value));
  EXPECT_EQ(value, 0.0);
  ASSERT_TRUE(ParseDoubleInRange("1", 0.0, 1.0, &value));
  EXPECT_EQ(value, 1.0);
}

TEST(ParseDoubleInRange, RejectsValuesOutsideRange) {
  double value = 0;
  EXPECT_FALSE(ParseDoubleInRange("2", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("-1", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("1.0000001", 0.0, 1.0, &value));
  // An open lower bound: "> 0" rejects 0 and negatives.
  const double positive = std::numeric_limits<double>::denorm_min();
  const double max = std::numeric_limits<double>::max();
  EXPECT_FALSE(ParseDoubleInRange("0", positive, max, &value));
  EXPECT_FALSE(ParseDoubleInRange("-3", positive, max, &value));
  ASSERT_TRUE(ParseDoubleInRange("0.001", positive, max, &value));
  EXPECT_DOUBLE_EQ(value, 0.001);
}

TEST(ParseDoubleInRange, RejectsNonNumericAndPartialText) {
  double value = 0;
  EXPECT_FALSE(ParseDoubleInRange("abc", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("x", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("0.5x", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange(" 0.5", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("0.5 ", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("+0.5", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("0x1p-1", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("0,5", 0.0, 1.0, &value));
}

TEST(ParseDoubleInRange, RejectsNonFiniteValues) {
  double value = 0;
  const double lo = std::numeric_limits<double>::lowest();
  const double hi = std::numeric_limits<double>::max();
  EXPECT_FALSE(ParseDoubleInRange("inf", lo, hi, &value));
  EXPECT_FALSE(ParseDoubleInRange("-inf", lo, hi, &value));
  EXPECT_FALSE(ParseDoubleInRange("infinity", lo, hi, &value));
  EXPECT_FALSE(ParseDoubleInRange("nan", lo, hi, &value));
  EXPECT_FALSE(ParseDoubleInRange("1e999", lo, hi, &value));
}

TEST(ParseDoubleInRange, FailureLeavesOutputUntouched) {
  double value = 0.25;
  EXPECT_FALSE(ParseDoubleInRange("abc", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("3", 0.0, 1.0, &value));
  EXPECT_FALSE(ParseDoubleInRange("nan", 0.0, 1.0, &value));
  EXPECT_EQ(value, 0.25);
}

}  // namespace
}  // namespace ckpt
