#ifndef BBV_DATA_COLUMN_H_
#define BBV_DATA_COLUMN_H_

#include <span>
#include <string>
#include <vector>

#include "data/cell_value.h"

namespace bbv::data {

/// Logical type of a column. The type drives both featurization (scaling vs.
/// one-hot vs. n-gram hashing vs. pixel flattening) and which error
/// generators apply.
enum class ColumnType {
  kNumeric,
  kCategorical,
  kText,
  kImage,
};

/// Returns "numeric", "categorical", "text" or "image".
const char* ColumnTypeToString(ColumnType type);

/// A named, typed column of cells. Cells may be NA regardless of type.
class Column {
 public:
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  Column(std::string name, ColumnType type, std::vector<CellValue> cells)
      : name_(std::move(name)), type_(type), cells_(std::move(cells)) {}

  /// Convenience constructor for a numeric column.
  static Column Numeric(std::string name, const std::vector<double>& values);

  /// Convenience constructor for a categorical column.
  static Column Categorical(std::string name,
                            const std::vector<std::string>& values);

  /// Convenience constructor for a text column.
  static Column Text(std::string name, const std::vector<std::string>& values);

  /// Convenience constructor for an image column.
  static Column Image(std::string name,
                      const std::vector<std::vector<double>>& images);

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const { return cells_.size(); }

  const CellValue& cell(size_t row) const {
    BBV_DCHECK(row < cells_.size());
    return cells_[row];
  }
  CellValue& cell(size_t row) {
    BBV_DCHECK(row < cells_.size());
    return cells_[row];
  }

  void Append(CellValue value) { cells_.push_back(std::move(value)); }

  /// Keeps only the cells at `rows`, which must be strictly ascending and in
  /// range (checked in Debug builds; DataFrame::KeepRows always checks):
  /// moves each kept cell down to its new slot, then truncates.
  void KeepRows(std::span<const size_t> rows);

  const std::vector<CellValue>& cells() const { return cells_; }

  /// Number of NA cells.
  size_t CountNa() const;

  /// Non-NA numeric values (requires a numeric column).
  std::vector<double> NumericValues() const;

  /// Distinct non-NA string values in first-seen order (categorical/text).
  std::vector<std::string> DistinctStrings() const;

 private:
  std::string name_;
  ColumnType type_;
  std::vector<CellValue> cells_;
};

}  // namespace bbv::data

#endif  // BBV_DATA_COLUMN_H_
