#include "util/string_util.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace sxnm::util {

bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

bool IsVowel(char c) {
  switch (AsciiToLower(c)) {
    case 'a':
    case 'e':
    case 'i':
    case 'o':
    case 'u':
      return true;
    default:
      return false;
  }
}

bool IsConsonant(char c) { return IsAsciiAlpha(c) && !IsVowel(c); }

bool IsAsciiSpace(char c) {
  switch (c) {
    case ' ':
    case '\t':
    case '\n':
    case '\r':
    case '\f':
    case '\v':
      return true;
    default:
      return false;
  }
}

char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

char AsciiToUpper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToUpper(c);
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::string NormalizeWhitespace(std::string_view s) {
  std::string out(s);
  NormalizeWhitespaceInPlace(&out);
  return out;
}

void NormalizeWhitespaceInPlace(std::string* s) {
  // The write position never passes the read position, so the collapsed
  // value overwrites its own source.
  size_t write = 0;
  bool in_space = true;  // suppress leading spaces
  for (char c : *s) {
    if (IsAsciiSpace(c)) {
      if (!in_space) (*s)[write++] = ' ';
      in_space = true;
    } else {
      (*s)[write++] = c;
      in_space = false;
    }
  }
  if (write > 0 && (*s)[write - 1] == ' ') --write;
  s->resize(write);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsAsciiSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsAsciiSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

int ParseNonNegativeInt(std::string_view s) {
  if (s.empty()) return -1;
  long long value = 0;
  for (char c : s) {
    if (!IsAsciiDigit(c)) return -1;
    value = value * 10 + (c - '0');
    if (value > std::numeric_limits<int>::max()) return -1;
  }
  return static_cast<int>(value);
}

double ParseDoubleOr(std::string_view s, double fallback) {
  std::string buf(TrimView(s));
  if (buf.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return fallback;
  return value;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace sxnm::util
