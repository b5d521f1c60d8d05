#include "sxnm/key_pattern.h"

#include "text/soundex.h"
#include "util/string_util.h"

namespace sxnm::core {

namespace {

using util::Result;
using util::Status;

// Parses "K5" / "C12" / "S" into (class, position). Position of a soundex
// selector is fixed to 1.
Result<std::pair<CharClass, int>> ParseSelector(std::string_view token,
                                                std::string_view whole) {
  if (token.empty()) {
    return Status::InvalidArgument("empty selector in key pattern '" +
                                   std::string(whole) + "'");
  }
  CharClass cls;
  switch (util::AsciiToUpper(token[0])) {
    case 'K':
      cls = CharClass::kConsonant;
      break;
    case 'C':
      cls = CharClass::kCharacter;
      break;
    case 'D':
      cls = CharClass::kDigit;
      break;
    case 'S':
      if (token.size() != 1) {
        return Status::InvalidArgument(
            "soundex selector 'S' takes no position in key pattern '" +
            std::string(whole) + "'");
      }
      return std::pair<CharClass, int>{CharClass::kSoundex, 1};
    default:
      return Status::InvalidArgument("unknown character class '" +
                                     std::string(1, token[0]) +
                                     "' in key pattern '" +
                                     std::string(whole) + "'");
  }
  int pos = util::ParseNonNegativeInt(token.substr(1));
  if (pos <= 0) {
    return Status::InvalidArgument("bad position in key pattern selector '" +
                                   std::string(token) + "' of '" +
                                   std::string(whole) + "'");
  }
  return std::pair<CharClass, int>{cls, pos};
}

}  // namespace

util::Result<KeyPattern> KeyPattern::Parse(std::string_view pattern) {
  KeyPattern result;
  std::string_view trimmed = util::TrimView(pattern);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty key pattern");
  }
  for (const std::string& raw : util::Split(trimmed, ',')) {
    std::string token = util::Trim(raw);
    if (token.empty()) {
      return Status::InvalidArgument("empty component in key pattern '" +
                                     std::string(pattern) + "'");
    }
    KeyPatternPart part;
    size_t dash = token.find('-');
    if (dash == std::string::npos) {
      auto sel = ParseSelector(token, pattern);
      if (!sel.ok()) return sel.status();
      part.char_class = sel->first;
      part.from = part.to = sel->second;
    } else {
      auto lo = ParseSelector(util::TrimView(
                                  std::string_view(token).substr(0, dash)),
                              pattern);
      if (!lo.ok()) return lo.status();
      auto hi = ParseSelector(
          util::TrimView(std::string_view(token).substr(dash + 1)), pattern);
      if (!hi.ok()) return hi.status();
      if (lo->first != hi->first) {
        return Status::InvalidArgument(
            "range endpoints use different classes in key pattern '" +
            std::string(pattern) + "'");
      }
      if (lo->first == CharClass::kSoundex) {
        return Status::InvalidArgument(
            "soundex selector cannot form a range in key pattern '" +
            std::string(pattern) + "'");
      }
      if (lo->second > hi->second) {
        return Status::InvalidArgument("descending range in key pattern '" +
                                       std::string(pattern) + "'");
      }
      part.char_class = lo->first;
      part.from = lo->second;
      part.to = hi->second;
    }
    result.parts_.push_back(part);
  }
  return result;
}

std::string KeyPattern::Apply(std::string_view value) const {
  std::string out;
  AppendTo(value, &out);
  return out;
}

void KeyPattern::AppendTo(std::string_view value, std::string* out) const {
  for (const KeyPatternPart& part : parts_) {
    bool (*in_class)(char) = nullptr;
    switch (part.char_class) {
      case CharClass::kConsonant:
        in_class = util::IsConsonant;
        break;
      case CharClass::kCharacter:
        in_class = [](char c) {
          return util::IsAsciiAlpha(c) || util::IsAsciiDigit(c);
        };
        break;
      case CharClass::kDigit:
        in_class = util::IsAsciiDigit;
        break;
      case CharClass::kSoundex:
        out->append(text::Soundex(value));
        continue;
    }
    // Positions from..to (1-based) among the value's characters of the
    // class; positions past the last one select nothing.
    int position = 0;
    for (char c : value) {
      if (!in_class(c)) continue;
      if (++position > part.to) break;
      if (position >= part.from) out->push_back(util::AsciiToUpper(c));
    }
  }
}

std::string KeyPattern::ToString() const {
  std::string out;
  auto class_letter = [](CharClass c) {
    switch (c) {
      case CharClass::kConsonant:
        return 'K';
      case CharClass::kCharacter:
        return 'C';
      case CharClass::kDigit:
        return 'D';
      case CharClass::kSoundex:
        return 'S';
    }
    return '?';
  };
  for (size_t i = 0; i < parts_.size(); ++i) {
    const KeyPatternPart& part = parts_[i];
    if (i > 0) out += ',';
    if (part.char_class == CharClass::kSoundex) {
      out += 'S';
      continue;
    }
    out += class_letter(part.char_class);
    out += std::to_string(part.from);
    if (part.to != part.from) {
      out += '-';
      out += class_letter(part.char_class);
      out += std::to_string(part.to);
    }
  }
  return out;
}

}  // namespace sxnm::core
