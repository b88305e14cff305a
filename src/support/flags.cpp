#include "support/flags.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace velev {

std::optional<std::uint64_t> parseUint(std::string_view text, std::uint64_t lo,
                                       std::uint64_t hi) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

std::optional<double> parseReal(std::string_view text) {
  // strtod skips leading whitespace; a strict parse must not.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  const std::string s(text);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::uint64_t uintFlag(std::string_view flag, const char* text,
                       std::uint64_t lo, std::uint64_t hi) {
  if (const auto v = parseUint(text, lo, hi); v.has_value()) return *v;
  std::fprintf(stderr, "error: %.*s expects an integer in [%llu, %llu], "
                       "got '%s'\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi), text);
  std::exit(2);
}

double realFlag(std::string_view flag, const char* text) {
  if (const auto v = parseReal(text); v.has_value()) return *v;
  std::fprintf(stderr, "error: %.*s expects a number, got '%s'\n",
               static_cast<int>(flag.size()), flag.data(), text);
  std::exit(2);
}

}  // namespace velev
