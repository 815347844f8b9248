#ifndef CMP_COMMON_FORMAT_NUMBER_H_
#define CMP_COMMON_FORMAT_NUMBER_H_

#include <charconv>
#include <string>

namespace cmp {

/// Appends `v` in the general format at precision 6: the bytes
/// `ostream << v` gives by default, without a stream. Used for the
/// probabilities that `cmptool predict --probs` writes and that
/// cmpserve's `predictp` answers.
inline void AppendFloat(float v, std::string* out) {
  char tmp[32];
  out->append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v,
                                 std::chars_format::general, 6)
                       .ptr);
}

}  // namespace cmp

#endif  // CMP_COMMON_FORMAT_NUMBER_H_
