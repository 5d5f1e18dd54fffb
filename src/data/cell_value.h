#ifndef BBV_DATA_CELL_VALUE_H_
#define BBV_DATA_CELL_VALUE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "common/check.h"

namespace bbv::data {

/// Marker type for a missing value (NA / NULL).
struct NaValue {
  bool operator==(const NaValue&) const { return true; }
};

/// A single relational cell: missing, a number, a string (categorical or
/// free text), or an image (row-major pixel intensities in [0, 1]).
class CellValue {
 public:
  /// Missing value.
  CellValue() : value_(NaValue{}) {}

  /// Numeric cell.
  CellValue(double value)  // NOLINT(google-explicit-constructor)
      : value_(value) {}

  /// String cell (categorical level or text).
  CellValue(std::string value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  CellValue(const char* value)  // NOLINT(google-explicit-constructor)
      : value_(std::string(value)) {}

  /// Image cell.
  CellValue(std::vector<double> pixels)  // NOLINT(google-explicit-constructor)
      : value_(std::move(pixels)) {}

  static CellValue Na() { return CellValue(); }

  bool is_na() const { return std::holds_alternative<NaValue>(value_); }
  bool is_numeric() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_image() const {
    return std::holds_alternative<std::vector<double>>(value_);
  }

  double AsDouble() const {
    BBV_CHECK(is_numeric()) << "cell is not numeric";
    return std::get<double>(value_);
  }
  const std::string& AsString() const {
    BBV_CHECK(is_string()) << "cell is not a string";
    return std::get<std::string>(value_);
  }
  const std::vector<double>& AsImage() const {
    BBV_CHECK(is_image()) << "cell is not an image";
    return std::get<std::vector<double>>(value_);
  }
  std::vector<double>& MutableImage() {
    BBV_CHECK(is_image()) << "cell is not an image";
    return std::get<std::vector<double>>(value_);
  }

  bool operator==(const CellValue& other) const { return value_ == other.value_; }

  /// Bit-for-bit identity: numbers and image pixels compare by bit pattern,
  /// strings and NA by value. Unlike operator==, -0.0 differs from 0.0 and a
  /// NaN equals a NaN with the same payload, so a true result means any
  /// function of the cell sees the same input.
  bool BitwiseEquals(const CellValue& other) const {
    if (value_.index() != other.value_.index()) return false;
    if (const double* number = std::get_if<double>(&value_)) {
      return std::bit_cast<uint64_t>(*number) ==
             std::bit_cast<uint64_t>(std::get<double>(other.value_));
    }
    if (const auto* pixels = std::get_if<std::vector<double>>(&value_)) {
      const auto& other_pixels = std::get<std::vector<double>>(other.value_);
      return pixels->size() == other_pixels.size() &&
             (pixels->empty() ||
              std::memcmp(pixels->data(), other_pixels.data(),
                          pixels->size() * sizeof(double)) == 0);
    }
    return value_ == other.value_;  // NA or string
  }

  /// Readable rendering: "NA", the number, the string, or "<image:N>".
  std::string ToString() const;

 private:
  std::variant<NaValue, double, std::string, std::vector<double>> value_;
};

}  // namespace bbv::data

#endif  // BBV_DATA_CELL_VALUE_H_
