#ifndef CMP_IO_CSV_H_
#define CMP_IO_CSV_H_

#include <string>

#include "common/dataset.h"

namespace cmp {

/// Writes `ds` as CSV with a header row (`attr1,...,attrN,class`).
/// Categorical values are written as integers, class labels by name.
bool SaveCsv(const Dataset& ds, const std::string& path);

/// Loads a CSV with schema inference, for real-world files: the header
/// row names the attributes (last column is the class), and each data
/// column is classified by content — all-numeric columns become numeric
/// attributes; everything else becomes a categorical attribute whose
/// distinct strings, numbers included, are mapped to dense integers in
/// first-appearance order. A field is a number when ParseRealNumber
/// (common/parse_number.h) reads it, so "nan", "+1", "0x10" and values
/// out of a double's range are not. Class names are taken verbatim
/// from the last column. The file is read twice (inference, then load).
/// `max_categorical_card` bounds the cardinality a non-numeric column may
/// have before the load fails (guards against free-text columns).
bool LoadCsvInferSchema(const std::string& path, Dataset* out,
                        int max_categorical_card = 256);

}  // namespace cmp

#endif  // CMP_IO_CSV_H_
