#include "common/parse_number.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace cmp {

bool ParseWholeNumber(std::string_view text, int64_t lo, int64_t hi,
                      int64_t* out) {
  // from_chars alone would accept a leading '-', so "-0" would pass.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseRealNumber(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || std::isnan(value)) return false;
  *out = value;
  return true;
}

bool ParseDecimal(std::string_view text, double lo, double hi, double* out) {
  // The first character rules out a sign, "inf" and "nan"; the fixed
  // format rules out an exponent.
  if (text.empty() || (text[0] != '.' && (text[0] < '0' || text[0] > '9'))) {
    return false;
  }
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, std::chars_format::fixed);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace cmp
