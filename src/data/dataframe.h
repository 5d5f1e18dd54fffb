#ifndef BBV_DATA_DATAFRAME_H_
#define BBV_DATA_DATAFRAME_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/column.h"

namespace bbv::data {

/// Column-major relational table, the C++ stand-in for the pandas dataframe
/// the paper's Python implementation uses. All columns have equal length.
/// Copying a DataFrame is a deep copy; error generators corrupt copies.
class DataFrame {
 public:
  DataFrame() = default;

  /// Number of rows (0 for an empty frame).
  size_t NumRows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t NumCols() const { return columns_.size(); }

  /// Appends a column; its length must match existing columns and its name
  /// must be unique.
  common::Status AddColumn(Column column);

  /// True if a column with this name exists.
  bool HasColumn(const std::string& name) const;

  /// Index of a named column.
  common::Result<size_t> ColumnIndex(const std::string& name) const;

  const Column& column(size_t index) const {
    BBV_CHECK_LT(index, columns_.size());
    return columns_[index];
  }
  Column& column(size_t index) {
    BBV_CHECK_LT(index, columns_.size());
    return columns_[index];
  }

  /// Named column access; aborts if absent (use HasColumn to probe).
  const Column& ColumnByName(const std::string& name) const;
  Column& ColumnByName(const std::string& name);

  /// Names of all columns, in order.
  std::vector<std::string> ColumnNames() const;

  /// Names of all columns of the given type.
  std::vector<std::string> ColumnNamesOfType(ColumnType type) const;

  /// New frame containing the given rows (indices may repeat; order kept).
  DataFrame SelectRows(const std::vector<size_t>& row_indices) const;

  /// Compacts this frame in place to the given rows, which must be strictly
  /// ascending and in range: kept cells are moved, not copied, so no string
  /// or image is reallocated. Cheaper than SelectRows when the full frame is
  /// no longer needed.
  void KeepRows(const std::vector<size_t>& ascending_rows);

  /// New frame containing only the named columns, in the given order.
  common::Result<DataFrame> SelectColumns(
      const std::vector<std::string>& names) const;

  /// Appends the rows of `other`; schemas (names, types, order) must match.
  common::Status AppendRows(const DataFrame& other);

  /// Human-readable one-line schema, e.g. "age:numeric, job:categorical".
  std::string SchemaString() const;

  /// Pretty-prints up to `max_rows` rows (for examples and debugging).
  std::string Head(size_t max_rows = 5) const;

 private:
  std::vector<Column> columns_;
};

}  // namespace bbv::data

#endif  // BBV_DATA_DATAFRAME_H_
