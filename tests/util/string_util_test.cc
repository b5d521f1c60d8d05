#include "util/string_util.h"

#include <gtest/gtest.h>

namespace sxnm::util {
namespace {

TEST(CharClassTest, AlphaDigitSpace) {
  EXPECT_TRUE(IsAsciiAlpha('a'));
  EXPECT_TRUE(IsAsciiAlpha('Z'));
  EXPECT_FALSE(IsAsciiAlpha('1'));
  EXPECT_FALSE(IsAsciiAlpha(' '));
  EXPECT_TRUE(IsAsciiDigit('0'));
  EXPECT_TRUE(IsAsciiDigit('9'));
  EXPECT_FALSE(IsAsciiDigit('a'));
  EXPECT_TRUE(IsAsciiSpace('\t'));
  EXPECT_TRUE(IsAsciiSpace('\n'));
  EXPECT_FALSE(IsAsciiSpace('x'));
}

TEST(CharClassTest, ConsonantsAndVowels) {
  EXPECT_TRUE(IsConsonant('b'));
  EXPECT_TRUE(IsConsonant('Z'));
  EXPECT_TRUE(IsConsonant('y')) << "y counts as consonant for SNM keys";
  EXPECT_FALSE(IsConsonant('a'));
  EXPECT_FALSE(IsConsonant('E'));
  EXPECT_FALSE(IsConsonant('3'));
  EXPECT_TRUE(IsVowel('u'));
  EXPECT_TRUE(IsVowel('O'));
  EXPECT_FALSE(IsVowel('y'));
}

TEST(CaseTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
  EXPECT_EQ(AsciiToLower('A'), 'a');
  EXPECT_EQ(AsciiToUpper('z'), 'Z');
  EXPECT_EQ(AsciiToLower('-'), '-');
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(NormalizeWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(NormalizeWhitespace("  The   Matrix "), "The Matrix");
  EXPECT_EQ(NormalizeWhitespace("a\tb\nc"), "a b c");
  EXPECT_EQ(NormalizeWhitespace(""), "");
  EXPECT_EQ(NormalizeWhitespace(" \n "), "");
}

TEST(SplitTest, SplitOnComma) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, SplitWhitespaceSkipsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("movie_database", "movie"));
  EXPECT_FALSE(StartsWith("movie", "movie_database"));
  EXPECT_TRUE(EndsWith("title/text()", "text()"));
  EXPECT_FALSE(EndsWith("text()", "title/text()"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ReplaceAllTest, ReplacesEveryOccurrence) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba") << "non-overlapping";
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc") << "empty needle is a no-op";
}

TEST(ParseIntTest, ValidAndInvalid) {
  EXPECT_EQ(ParseNonNegativeInt("0"), 0);
  EXPECT_EQ(ParseNonNegativeInt("123"), 123);
  EXPECT_EQ(ParseNonNegativeInt(""), -1);
  EXPECT_EQ(ParseNonNegativeInt("-3"), -1);
  EXPECT_EQ(ParseNonNegativeInt("12a"), -1);
  EXPECT_EQ(ParseNonNegativeInt("99999999999999999999"), -1) << "overflow";
}

TEST(ParseDoubleTest, FallbackOnGarbage) {
  EXPECT_DOUBLE_EQ(ParseDoubleOr("0.8", -1), 0.8);
  EXPECT_DOUBLE_EQ(ParseDoubleOr(" 2.5 ", -1), 2.5);
  EXPECT_DOUBLE_EQ(ParseDoubleOr("abc", -1), -1);
  EXPECT_DOUBLE_EQ(ParseDoubleOr("", 3.5), 3.5);
  EXPECT_DOUBLE_EQ(ParseDoubleOr("1.5x", 0), 0);
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(0.123456, 4), "0.1235");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace sxnm::util
