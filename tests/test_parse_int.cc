// ParseIntInRange accepts only a whole base-10 integer inside [lo, hi];
// anything else is rejected and leaves the output as it was.
#include "common/parse_int.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

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

}  // namespace
}  // namespace ckpt
