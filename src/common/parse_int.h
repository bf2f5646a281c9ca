// Strict integer and floating-point parsing for command-line flags.
//
// Unlike atoi/atof/strtoull, a value is accepted only when the whole text
// is a number inside the caller's range: "abc", "12x", "" and out-of-range
// values are rejected instead of silently becoming 0 or wrapping, so a CLI
// can print its usage and exit 2.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

namespace ckpt {

template <typename Int>
bool ParseIntInRange(std::string_view text, Int lo, Int hi, Int* out) {
  Int value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

// Whole text must be a finite decimal in [lo, hi] ("inf", "nan", "1e999"
// and "0.5x" are rejected). For an open lower bound such as "> 0", pass
// std::numeric_limits<double>::denorm_min() as lo.
inline bool ParseDoubleInRange(std::string_view text, double lo, double hi,
                               double* out) {
  double value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || !std::isfinite(value) ||
      value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace ckpt
