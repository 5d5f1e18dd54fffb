#include "data/dataframe.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/cell_value.h"
#include "data/column.h"

namespace bbv::data {
namespace {

DataFrame MakeToyFrame() {
  DataFrame frame;
  BBV_CHECK(frame.AddColumn(Column::Numeric("age", {20, 30, 40})).ok());
  BBV_CHECK(
      frame.AddColumn(Column::Categorical("job", {"a", "b", "a"})).ok());
  return frame;
}

// ---------------------------------------------------------------------------
// CellValue
// ---------------------------------------------------------------------------

TEST(CellValueTest, NaByDefault) {
  CellValue cell;
  EXPECT_TRUE(cell.is_na());
  EXPECT_FALSE(cell.is_numeric());
  EXPECT_EQ(cell.ToString(), "NA");
}

TEST(CellValueTest, NumericCell) {
  CellValue cell(3.5);
  EXPECT_TRUE(cell.is_numeric());
  EXPECT_DOUBLE_EQ(cell.AsDouble(), 3.5);
}

TEST(CellValueTest, StringCell) {
  CellValue cell("hello");
  EXPECT_TRUE(cell.is_string());
  EXPECT_EQ(cell.AsString(), "hello");
  EXPECT_EQ(cell.ToString(), "hello");
}

TEST(CellValueTest, ImageCell) {
  CellValue cell(std::vector<double>{0.0, 0.5, 1.0});
  EXPECT_TRUE(cell.is_image());
  EXPECT_EQ(cell.AsImage().size(), 3u);
  EXPECT_EQ(cell.ToString(), "<image:3>");
}

TEST(CellValueTest, EqualityBetweenKinds) {
  EXPECT_EQ(CellValue::Na(), CellValue::Na());
  EXPECT_EQ(CellValue(1.0), CellValue(1.0));
  EXPECT_FALSE(CellValue(1.0) == CellValue(2.0));
  EXPECT_FALSE(CellValue(1.0) == CellValue("1.0"));
  EXPECT_FALSE(CellValue::Na() == CellValue(0.0));
}

TEST(CellValueTest, BitwiseEqualsSeparatesSignedZeros) {
  // operator== calls them equal; a model may not (1 / x, std::signbit).
  EXPECT_EQ(CellValue(-0.0), CellValue(0.0));
  EXPECT_FALSE(CellValue(-0.0).BitwiseEquals(CellValue(0.0)));
  EXPECT_TRUE(CellValue(-0.0).BitwiseEquals(CellValue(-0.0)));
  EXPECT_TRUE(CellValue(2.5).BitwiseEquals(CellValue(2.5)));
  EXPECT_FALSE(
      CellValue(2.5).BitwiseEquals(CellValue(std::nextafter(2.5, 3.0))));
}

TEST(CellValueTest, BitwiseEqualsComparesNanPayloads) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan =
      std::bit_cast<double>(std::bit_cast<uint64_t>(nan) | uint64_t{1});
  ASSERT_TRUE(std::isnan(other_nan));
  // operator== never calls a NaN equal, not even to itself.
  EXPECT_FALSE(CellValue(nan) == CellValue(nan));
  EXPECT_TRUE(CellValue(nan).BitwiseEquals(CellValue(nan)));
  EXPECT_FALSE(CellValue(nan).BitwiseEquals(CellValue(other_nan)));
}

TEST(CellValueTest, BitwiseEqualsComparesEveryPixel) {
  const std::vector<double> pixels = {0.0, 0.25, 0.5, 1.0};
  std::vector<double> changed = pixels;
  changed[2] = 0.75;
  std::vector<double> signed_zero = pixels;
  signed_zero[0] = -0.0;
  EXPECT_TRUE(CellValue(pixels).BitwiseEquals(CellValue(pixels)));
  EXPECT_FALSE(CellValue(pixels).BitwiseEquals(CellValue(changed)));
  EXPECT_FALSE(CellValue(pixels).BitwiseEquals(CellValue(signed_zero)));
  EXPECT_FALSE(CellValue(pixels).BitwiseEquals(
      CellValue(std::vector<double>(pixels.begin(), pixels.end() - 1))));
  EXPECT_TRUE(CellValue(std::vector<double>{})
                  .BitwiseEquals(CellValue(std::vector<double>{})));
}

TEST(CellValueTest, BitwiseEqualsComparesStringsAndNaByValue) {
  EXPECT_TRUE(CellValue::Na().BitwiseEquals(CellValue::Na()));
  EXPECT_TRUE(CellValue("Married-civ-spouse")
                  .BitwiseEquals(CellValue(std::string("Married-civ-spouse"))));
  EXPECT_FALSE(CellValue("a").BitwiseEquals(CellValue("b")));
  EXPECT_FALSE(CellValue("NA").BitwiseEquals(CellValue::Na()));
  EXPECT_FALSE(CellValue::Na().BitwiseEquals(CellValue("")));
  EXPECT_FALSE(CellValue(1.0).BitwiseEquals(CellValue("1")));
  EXPECT_FALSE(CellValue::Na().BitwiseEquals(CellValue(0.0)));
}

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

TEST(ColumnTest, TypeNames) {
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kNumeric), "numeric");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kCategorical), "categorical");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kText), "text");
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kImage), "image");
}

TEST(ColumnTest, NumericFactoryAndValues) {
  Column column = Column::Numeric("x", {1.0, 2.0});
  EXPECT_EQ(column.type(), ColumnType::kNumeric);
  EXPECT_EQ(column.size(), 2u);
  EXPECT_EQ(column.NumericValues(), (std::vector<double>{1.0, 2.0}));
}

TEST(ColumnTest, NumericValuesSkipNa) {
  Column column = Column::Numeric("x", {1.0, 2.0});
  column.cell(0) = CellValue::Na();
  EXPECT_EQ(column.NumericValues(), (std::vector<double>{2.0}));
  EXPECT_EQ(column.CountNa(), 1u);
}

TEST(ColumnTest, DistinctStringsFirstSeenOrder) {
  const Column column =
      Column::Categorical("c", {"b", "a", "b", "c", "a"});
  EXPECT_EQ(column.DistinctStrings(),
            (std::vector<std::string>{"b", "a", "c"}));
}

TEST(ColumnTest, AppendGrows) {
  Column column("x", ColumnType::kNumeric);
  column.Append(CellValue(1.0));
  column.Append(CellValue::Na());
  EXPECT_EQ(column.size(), 2u);
  EXPECT_TRUE(column.cell(1).is_na());
}

// ---------------------------------------------------------------------------
// DataFrame
// ---------------------------------------------------------------------------

TEST(DataFrameTest, AddColumnAndShape) {
  const DataFrame frame = MakeToyFrame();
  EXPECT_EQ(frame.NumRows(), 3u);
  EXPECT_EQ(frame.NumCols(), 2u);
  EXPECT_TRUE(frame.HasColumn("age"));
  EXPECT_FALSE(frame.HasColumn("salary"));
}

TEST(DataFrameTest, DuplicateColumnRejected) {
  DataFrame frame = MakeToyFrame();
  const auto status = frame.AddColumn(Column::Numeric("age", {1, 2, 3}));
  EXPECT_EQ(status.code(), common::StatusCode::kAlreadyExists);
}

TEST(DataFrameTest, LengthMismatchRejected) {
  DataFrame frame = MakeToyFrame();
  const auto status = frame.AddColumn(Column::Numeric("extra", {1.0}));
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST(DataFrameTest, ColumnLookup) {
  const DataFrame frame = MakeToyFrame();
  EXPECT_EQ(frame.ColumnIndex("job").value(), 1u);
  EXPECT_FALSE(frame.ColumnIndex("zzz").ok());
  EXPECT_EQ(frame.ColumnByName("age").cell(1).AsDouble(), 30.0);
}

TEST(DataFrameTest, ColumnNamesAndTypes) {
  const DataFrame frame = MakeToyFrame();
  EXPECT_EQ(frame.ColumnNames(), (std::vector<std::string>{"age", "job"}));
  EXPECT_EQ(frame.ColumnNamesOfType(ColumnType::kNumeric),
            (std::vector<std::string>{"age"}));
  EXPECT_TRUE(frame.ColumnNamesOfType(ColumnType::kText).empty());
}

TEST(DataFrameTest, SelectRows) {
  const DataFrame frame = MakeToyFrame();
  const DataFrame subset = frame.SelectRows({2, 0});
  EXPECT_EQ(subset.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(subset.ColumnByName("age").cell(0).AsDouble(), 40.0);
  EXPECT_EQ(subset.ColumnByName("job").cell(1).AsString(), "a");
}

DataFrame MakeLongFrame() {
  DataFrame frame;
  BBV_CHECK(frame.AddColumn(Column::Numeric("x", {0, 1, 2, 3, 4})).ok());
  BBV_CHECK(frame
                .AddColumn(Column::Categorical(
                    "level", {"level-zero-longer-than-sso", "one", "two",
                              "three", "level-four-longer-than-sso"}))
                .ok());
  return frame;
}

/// KeepRows must leave exactly what SelectRows copies out.
void ExpectKeepRowsMatchesSelectRows(const std::vector<size_t>& rows) {
  const DataFrame frame = MakeLongFrame();
  DataFrame kept = frame;
  kept.KeepRows(rows);
  const DataFrame selected = frame.SelectRows(rows);
  ASSERT_EQ(kept.NumCols(), selected.NumCols());
  ASSERT_EQ(kept.NumRows(), rows.size());
  for (size_t c = 0; c < kept.NumCols(); ++c) {
    EXPECT_EQ(kept.column(c).name(), selected.column(c).name());
    EXPECT_EQ(kept.column(c).type(), selected.column(c).type());
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_TRUE(kept.column(c).cell(r).BitwiseEquals(
          selected.column(c).cell(r)))
          << "column " << c << " row " << r;
    }
  }
}

TEST(DataFrameTest, KeepRowsEmptyLeavesNoRows) {
  ExpectKeepRowsMatchesSelectRows({});
}

TEST(DataFrameTest, KeepRowsAllRowsIsIdentity) {
  ExpectKeepRowsMatchesSelectRows({0, 1, 2, 3, 4});
}

TEST(DataFrameTest, KeepRowsFirstRow) { ExpectKeepRowsMatchesSelectRows({0}); }

TEST(DataFrameTest, KeepRowsLastRow) { ExpectKeepRowsMatchesSelectRows({4}); }

TEST(DataFrameTest, KeepRowsCompactsScatteredRows) {
  ExpectKeepRowsMatchesSelectRows({1, 3, 4});
  ExpectKeepRowsMatchesSelectRows({0, 2});
}

TEST(DataFrameTest, KeepRowsOnEmptyFrame) {
  DataFrame frame;
  frame.KeepRows({});
  EXPECT_EQ(frame.NumRows(), 0u);
  EXPECT_EQ(frame.NumCols(), 0u);
}

TEST(DataFrameDeathTest, KeepRowsRejectsUnsortedOrOutOfRangeRows) {
  EXPECT_DEATH(MakeLongFrame().KeepRows({2, 1}), "ascending");
  EXPECT_DEATH(MakeLongFrame().KeepRows({1, 1}), "ascending");
  EXPECT_DEATH(MakeLongFrame().KeepRows({5}), "");
}

TEST(DataFrameTest, SelectColumns) {
  const DataFrame frame = MakeToyFrame();
  const auto subset = frame.SelectColumns({"job"});
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(subset->NumCols(), 1u);
  EXPECT_FALSE(frame.SelectColumns({"missing"}).ok());
}

TEST(DataFrameTest, AppendRowsMatchingSchema) {
  DataFrame frame = MakeToyFrame();
  ASSERT_TRUE(frame.AppendRows(MakeToyFrame()).ok());
  EXPECT_EQ(frame.NumRows(), 6u);
}

TEST(DataFrameTest, AppendRowsSchemaMismatchRejected) {
  DataFrame frame = MakeToyFrame();
  DataFrame other;
  BBV_CHECK(other.AddColumn(Column::Numeric("age", {1, 2})).ok());
  EXPECT_FALSE(frame.AppendRows(other).ok());
  DataFrame renamed;
  BBV_CHECK(renamed.AddColumn(Column::Numeric("years", {1.0})).ok());
  BBV_CHECK(renamed.AddColumn(Column::Categorical("job", {"x"})).ok());
  EXPECT_FALSE(frame.AppendRows(renamed).ok());
}

TEST(DataFrameTest, SchemaStringAndHead) {
  const DataFrame frame = MakeToyFrame();
  EXPECT_EQ(frame.SchemaString(), "age:numeric, job:categorical");
  const std::string head = frame.Head(2);
  EXPECT_NE(head.find("20"), std::string::npos);
  EXPECT_NE(head.find("more rows"), std::string::npos);
}

TEST(DataFrameTest, DeepCopySemantics) {
  DataFrame frame = MakeToyFrame();
  DataFrame copy = frame;
  copy.ColumnByName("age").cell(0) = CellValue(99.0);
  EXPECT_DOUBLE_EQ(frame.ColumnByName("age").cell(0).AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(copy.ColumnByName("age").cell(0).AsDouble(), 99.0);
}

}  // namespace
}  // namespace bbv::data
