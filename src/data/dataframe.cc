#include "data/dataframe.h"

#include <algorithm>
#include <sstream>

namespace bbv::data {

common::Status DataFrame::AddColumn(Column column) {
  if (HasColumn(column.name())) {
    return common::Status::AlreadyExists("column '" + column.name() +
                                         "' already exists");
  }
  if (!columns_.empty() && column.size() != NumRows()) {
    std::ostringstream os;
    os << "column '" << column.name() << "' has " << column.size()
       << " rows, expected " << NumRows();
    return common::Status::InvalidArgument(os.str());
  }
  columns_.push_back(std::move(column));
  return common::Status::OK();
}

bool DataFrame::HasColumn(const std::string& name) const {
  return std::any_of(columns_.begin(), columns_.end(),
                     [&](const Column& c) { return c.name() == name; });
}

common::Result<size_t> DataFrame::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return common::Status::NotFound("no column named '" + name + "'");
}

const Column& DataFrame::ColumnByName(const std::string& name) const {
  auto index = ColumnIndex(name);
  BBV_CHECK(index.ok()) << index.status().ToString();
  return columns_[*index];
}

Column& DataFrame::ColumnByName(const std::string& name) {
  auto index = ColumnIndex(name);
  BBV_CHECK(index.ok()) << index.status().ToString();
  return columns_[*index];
}

std::vector<std::string> DataFrame::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& column : columns_) names.push_back(column.name());
  return names;
}

std::vector<std::string> DataFrame::ColumnNamesOfType(ColumnType type) const {
  std::vector<std::string> names;
  for (const auto& column : columns_) {
    if (column.type() == type) names.push_back(column.name());
  }
  return names;
}

DataFrame DataFrame::SelectRows(const std::vector<size_t>& row_indices) const {
  DataFrame result;
  for (const auto& column : columns_) {
    Column selected(column.name(), column.type());
    for (size_t row : row_indices) {
      BBV_CHECK_LT(row, column.size());
      selected.Append(column.cell(row));
    }
    BBV_CHECK(result.AddColumn(std::move(selected)).ok());
  }
  return result;
}

void DataFrame::KeepRows(const std::vector<size_t>& ascending_rows) {
  for (size_t i = 0; i < ascending_rows.size(); ++i) {
    BBV_CHECK(i == 0 || ascending_rows[i - 1] < ascending_rows[i])
        << "KeepRows needs strictly ascending rows";
  }
  if (!ascending_rows.empty()) BBV_CHECK_LT(ascending_rows.back(), NumRows());
  for (Column& column : columns_) column.KeepRows(ascending_rows);
}

common::Result<DataFrame> DataFrame::SelectColumns(
    const std::vector<std::string>& names) const {
  DataFrame result;
  for (const auto& name : names) {
    BBV_ASSIGN_OR_RETURN(size_t index, ColumnIndex(name));
    BBV_RETURN_NOT_OK(result.AddColumn(columns_[index]));
  }
  return result;
}

common::Status DataFrame::AppendRows(const DataFrame& other) {
  if (other.NumCols() != NumCols()) {
    return common::Status::InvalidArgument("schema mismatch in AppendRows");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() != other.columns_[i].name() ||
        columns_[i].type() != other.columns_[i].type()) {
      return common::Status::InvalidArgument(
          "schema mismatch in AppendRows at column '" + columns_[i].name() +
          "'");
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (const auto& cell : other.columns_[i].cells()) {
      columns_[i].Append(cell);
    }
  }
  return common::Status::OK();
}

std::string DataFrame::SchemaString() const {
  std::ostringstream os;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) os << ", ";
    os << columns_[i].name() << ":" << ColumnTypeToString(columns_[i].type());
  }
  return os.str();
}

std::string DataFrame::Head(size_t max_rows) const {
  std::ostringstream os;
  os << SchemaString() << "\n";
  const size_t limit = std::min(max_rows, NumRows());
  for (size_t row = 0; row < limit; ++row) {
    for (size_t col = 0; col < columns_.size(); ++col) {
      if (col > 0) os << " | ";
      os << columns_[col].cell(row).ToString();
    }
    os << "\n";
  }
  if (NumRows() > limit) {
    os << "... (" << NumRows() - limit << " more rows)\n";
  }
  return os.str();
}

}  // namespace bbv::data
