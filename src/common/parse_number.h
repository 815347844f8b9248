#ifndef CMP_COMMON_PARSE_NUMBER_H_
#define CMP_COMMON_PARSE_NUMBER_H_

#include <cstdint>
#include <string_view>

namespace cmp {

/// Parses `text` as a whole decimal number in [lo, hi]: one or more
/// digits and nothing else, so a sign, space, fraction, trailing text
/// or out-of-range value is rejected rather than read up to the first
/// non-digit the way atoi/strtol do. Returns false and leaves `*out`
/// untouched on rejection. Used for command-line counts and for the
/// counts in serve protocol lines.
bool ParseWholeNumber(std::string_view text, int64_t lo, int64_t hi,
                      int64_t* out);

/// Parses `text` as one real number in std::from_chars' general form:
/// an optional '-', digits with an optional fraction and exponent, or
/// "inf"/"infinity" — and nothing else, so a '+', space, hex prefix or
/// trailing text is rejected, as are NaN and values that overflow or
/// underflow a double. Returns false and leaves `*out` untouched on
/// rejection. Used for the numeric fields of serve protocol rows and of
/// CSV files whose schema is inferred (io/csv.h).
bool ParseRealNumber(std::string_view text, double* out);

/// Parses `text` as a plain decimal number in [lo, hi]: digits with at
/// most one '.', at least one digit, and nothing else, so a sign,
/// exponent, "inf", "nan", space or trailing text is rejected rather
/// than read up to the first bad character the way atof/strtod do.
/// Returns false and leaves `*out` untouched on rejection. Used for
/// command-line fractions such as a probability threshold.
bool ParseDecimal(std::string_view text, double lo, double hi, double* out);

}  // namespace cmp

#endif  // CMP_COMMON_PARSE_NUMBER_H_
