// ASCII-oriented string helpers shared by key generation, similarity
// functions, and the data generators.
//
// The paper's key patterns classify characters as consonants (K), generic
// characters (C) and digits (D); those predicates live here so that the key
// pattern engine, the relational SNM and tests agree on one definition.

#ifndef SXNM_UTIL_STRING_UTIL_H_
#define SXNM_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace sxnm::util {

/// True for 'a'-'z' / 'A'-'Z'.
bool IsAsciiAlpha(char c);
/// True for '0'-'9'.
bool IsAsciiDigit(char c);
/// True for an ASCII letter that is not a vowel (y counts as a consonant,
/// matching the common SNM key convention: "Mask of Zorro" -> MSKF...).
bool IsConsonant(char c);
/// True for a/e/i/o/u in either case.
bool IsVowel(char c);
/// True for space, tab, CR, LF, FF, VT.
bool IsAsciiSpace(char c);

/// Lower/upper-case a single ASCII character; non-ASCII bytes pass through.
char AsciiToLower(char c);
char AsciiToUpper(char c);

/// Lower/upper-case a whole string (ASCII only).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Collapses runs of whitespace into single spaces and trims the ends.
/// "  The   Matrix " -> "The Matrix".
std::string NormalizeWhitespace(std::string_view s);

/// NormalizeWhitespace applied to `*s` in place, without allocating.
void NormalizeWhitespaceInPlace(std::string* s);

/// Splits `s` at every occurrence of `sep` (single character). An empty
/// input yields a single empty token, matching common CSV semantics.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Parses a non-negative integer; returns -1 on any malformed input or
/// overflow beyond int range. Used by the XPath predicate and key pattern
/// parsers, which treat -1 as "not a number".
int ParseNonNegativeInt(std::string_view s);

/// Parses a double; returns `fallback` on malformed input.
double ParseDoubleOr(std::string_view s, double fallback);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

}  // namespace sxnm::util

#endif  // SXNM_UTIL_STRING_UTIL_H_
