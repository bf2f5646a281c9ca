// Strict integer parsing for command-line flags.
//
// Unlike atoi/strtoull, a value is accepted only when the whole text is a
// base-10 integer inside the caller's range: "abc", "12x", "" and
// out-of-range values are rejected instead of silently becoming 0 or
// wrapping, so a CLI can print its usage and exit 2.
#pragma once

#include <charconv>
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

}  // namespace ckpt
