// Key pattern language of the paper's KEY relations (Tab. 1 / Tab. 3).
//
// A pattern is a comma-separated list of selectors over a text value:
//   K<n>        the n-th consonant (1-based) of the value
//   C<n>        the n-th alphanumeric character
//   D<n>        the n-th digit
//   K<a>-K<b>   the a-th through b-th consonants (likewise C, D)
//   S           the Soundex code of the whole value (extension)
//
// Examples from the paper: "K1-K5" (first five consonants of a movie
// title), "D3,D4" (third and fourth digit of the year), "C1,C2".
// Selected characters are uppercased and concatenated in pattern order;
// positions beyond the available characters select nothing ("Mask of
// Zorro" has 7 consonants, so K1-K9 yields "MSKFZRR").

#ifndef SXNM_SXNM_KEY_PATTERN_H_
#define SXNM_SXNM_KEY_PATTERN_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sxnm::core {

enum class CharClass {
  kConsonant,  // K
  kCharacter,  // C (alphanumeric)
  kDigit,      // D
  kSoundex,    // S (whole-value Soundex code; extension)
};

/// One selector of a pattern: positions `from`..`to` (1-based, inclusive)
/// of the given character class. Soundex selectors ignore positions.
struct KeyPatternPart {
  CharClass char_class = CharClass::kCharacter;
  int from = 1;
  int to = 1;

  bool operator==(const KeyPatternPart&) const = default;
};

class KeyPattern {
 public:
  /// Parses a pattern string such as "K1-K5" or "D3,D4". Rules:
  ///   * positions are positive integers
  ///   * in a range both endpoints must use the same class and from <= to
  ///   * whitespace around commas is tolerated
  static util::Result<KeyPattern> Parse(std::string_view pattern);

  const std::vector<KeyPatternPart>& parts() const { return parts_; }

  /// Applies the pattern to `value`, returning the extracted key fragment
  /// (uppercase). Missing positions are skipped, so short or empty values
  /// simply produce shorter fragments.
  std::string Apply(std::string_view value) const;

  /// Appends Apply(value) to `*out` without temporaries (Soundex aside).
  void AppendTo(std::string_view value, std::string* out) const;

  /// Canonical string form ("K1-K5,D3,D4").
  std::string ToString() const;

  bool operator==(const KeyPattern&) const = default;

 private:
  std::vector<KeyPatternPart> parts_;
};

}  // namespace sxnm::core

#endif  // SXNM_SXNM_KEY_PATTERN_H_
