// Strict parsing of numeric command-line flag values, shared by the tools.
//
// std::atoi and friends read "-1" as a value that then wraps through an
// unsigned cast (4294967295 worker threads), "x" as 0 and "8k" as 8. The
// parsers here take the whole string or nothing: decimal digits only for
// integers (no sign, no whitespace, no trailing junk), range-checked before
// any narrowing; a finite number in strtod syntax for reals.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace velev {

/// Upper bound of every worker-count flag: far above the core count of any
/// host this runs on, far below a thread count that would exhaust the
/// process table.
constexpr std::uint64_t kMaxFlagThreads = 1024;

/// `text` as a decimal integer in [lo, hi]; nullopt on anything else.
std::optional<std::uint64_t> parseUint(std::string_view text, std::uint64_t lo,
                                       std::uint64_t hi);
/// `text` as a finite real number, the whole string consumed; nullopt on
/// anything else.
std::optional<double> parseReal(std::string_view text);

/// Flag-value forms of the two: a bad value is a usage error — the message
/// names the flag, the accepted form and the offending text on stderr, and
/// the process exits 2.
std::uint64_t uintFlag(std::string_view flag, const char* text,
                       std::uint64_t lo, std::uint64_t hi);
double realFlag(std::string_view flag, const char* text);

}  // namespace velev
