#include "data/column.h"

#include <cstddef>
#include <set>

namespace bbv::data {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kNumeric:
      return "numeric";
    case ColumnType::kCategorical:
      return "categorical";
    case ColumnType::kText:
      return "text";
    case ColumnType::kImage:
      return "image";
  }
  return "unknown";
}

Column Column::Numeric(std::string name, const std::vector<double>& values) {
  std::vector<CellValue> cells;
  cells.reserve(values.size());
  for (double v : values) cells.emplace_back(v);
  return Column(std::move(name), ColumnType::kNumeric, std::move(cells));
}

Column Column::Categorical(std::string name,
                           const std::vector<std::string>& values) {
  std::vector<CellValue> cells;
  cells.reserve(values.size());
  for (const auto& v : values) cells.emplace_back(v);
  return Column(std::move(name), ColumnType::kCategorical, std::move(cells));
}

Column Column::Text(std::string name, const std::vector<std::string>& values) {
  std::vector<CellValue> cells;
  cells.reserve(values.size());
  for (const auto& v : values) cells.emplace_back(v);
  return Column(std::move(name), ColumnType::kText, std::move(cells));
}

Column Column::Image(std::string name,
                     const std::vector<std::vector<double>>& images) {
  std::vector<CellValue> cells;
  cells.reserve(images.size());
  for (const auto& v : images) cells.emplace_back(v);
  return Column(std::move(name), ColumnType::kImage, std::move(cells));
}

void Column::KeepRows(std::span<const size_t> rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    BBV_DCHECK((i == 0 || rows[i - 1] < rows[i]) && rows[i] < cells_.size());
    if (rows[i] != i) cells_[i] = std::move(cells_[rows[i]]);
  }
  cells_.erase(cells_.begin() + static_cast<ptrdiff_t>(rows.size()),
               cells_.end());
}

size_t Column::CountNa() const {
  size_t count = 0;
  for (const auto& cell : cells_) {
    if (cell.is_na()) ++count;
  }
  return count;
}

std::vector<double> Column::NumericValues() const {
  BBV_CHECK(type_ == ColumnType::kNumeric)
      << "NumericValues on column '" << name_ << "' of type "
      << ColumnTypeToString(type_);
  std::vector<double> values;
  values.reserve(cells_.size());
  for (const auto& cell : cells_) {
    if (cell.is_numeric()) values.push_back(cell.AsDouble());
  }
  return values;
}

std::vector<std::string> Column::DistinctStrings() const {
  std::vector<std::string> result;
  std::set<std::string> seen;
  for (const auto& cell : cells_) {
    if (!cell.is_string()) continue;
    if (seen.insert(cell.AsString()).second) {
      result.push_back(cell.AsString());
    }
  }
  return result;
}

}  // namespace bbv::data
