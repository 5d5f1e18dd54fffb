#ifndef BBV_STATS_QUANTILE_SKETCH_H_
#define BBV_STATS_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace bbv::stats {

/// Deterministic, mergeable quantile summary for streams over a bounded
/// value domain (class probabilities live in [0, 1]).
///
/// Classic rank-error sketches (GK, KLL, q-digest) compact their state based
/// on the order in which values arrive, so splitting one stream into
/// different mini-batch sequences — or merging shard summaries in a
/// different order — can change which tuples survive compaction and hence
/// the answers, even when every answer stays within the error bound. That is
/// fatal for this repository's determinism gate, which requires *byte
/// identical* outputs across any batch split and any BBV_THREADS setting.
///
/// This sketch therefore canonicalizes the GK idea for a bounded domain: it
/// snaps every value to the nearest point of a fixed dyadic grid over
/// [lo, hi] (2^resolution_bits + 1 points) and counts multiplicities per
/// grid cell. The state is a pure function of the input *multiset* — no RNG,
/// no arrival-order dependence — so Add/Merge commute and associate exactly,
/// and serialization is canonical. Memory is O(2^resolution_bits),
/// independent of stream length.
///
/// Error contract: quantization moves each value by at most CellWidth()/2
/// and is monotone, so every order statistic — and every linearly
/// interpolated percentile — of the sketched stream is within
/// ValueErrorBound() = CellWidth()/2 of the exact value computed by
/// SortedView on the full stream. Within the quantized multiset, quantile
/// queries are rank-exact (zero rank error).
///
/// Besides the dense cells the sketch keeps one derived count per block of
/// kBlockCells consecutive cells (the block's total weight). Quantiles skip
/// every block where no requested rank lands, and PackCells,
/// num_nonzero_cells and Merge skip empty blocks, so they cost what the
/// sketch holds rather than the full grid. The counts never reach the
/// serialized bytes.
class QuantileSketch {
 public:
  /// Cells per block of the block index.
  static constexpr size_t kBlockCells = 64;

  struct Options {
    /// Grid resolution: 2^resolution_bits cells spanning [lo, hi]. The
    /// default 12 bits keeps a dense sketch at 32 KiB while resolving
    /// probabilities to ~1.2e-4 — far below the noise floor of the
    /// percentile features fed to the performance predictor. Must lie in
    /// [1, 24].
    int resolution_bits = 12;
    /// Inclusive value domain; values outside are clamped on Add. Must
    /// satisfy lo < hi and both finite.
    double lo = 0.0;
    double hi = 1.0;
  };

  QuantileSketch() : QuantileSketch(Options{}) {}
  explicit QuantileSketch(Options options);

  /// Records `weight` occurrences of `value` (clamped to [lo, hi];
  /// non-finite values are rejected with a BBV_CHECK —
  /// QuantileSketchBank::Observe filters them before they reach the
  /// sketch). Returns the grid cell the value landed in.
  size_t Add(double value, uint64_t weight = 1);

  /// Adds / removes one occurrence per entry of `cells` (grid cell indices
  /// on this sketch's grid, e.g. recorded by Add). RemoveCells is the exact
  /// inverse of AddCells. Both reject an index off the grid, and RemoveCells
  /// rejects removing more than a cell holds; on rejection the sketch is
  /// unchanged.
  common::Status AddCells(std::span<const uint32_t> cells);
  common::Status RemoveCells(std::span<const uint32_t> cells);

  /// Adds the other sketch's multiset into this one. The grids must match
  /// exactly (same resolution and domain); merge is commutative and
  /// associative by construction.
  common::Status Merge(const QuantileSketch& other);

  /// q-th percentile (q in [0, 100]) of the sketched multiset with linear
  /// interpolation between order statistics — the same convention as
  /// stats::SortedView / numpy.percentile. Requires a non-empty sketch.
  double Quantile(double q) const;

  /// Percentiles at several points; one cumulative pass over the block
  /// counts, scanning only the blocks that hold a requested order statistic.
  /// `qs` must be sorted ascending.
  std::vector<double> Quantiles(const std::vector<double>& qs) const;

  /// Total weight added so far.
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Number of grid cells with non-zero weight.
  size_t num_nonzero_cells() const;

  /// Read-only view of the per-grid-point multiplicities (size
  /// 2^resolution_bits + 1), for canonicality tests.
  const std::vector<uint64_t>& cell_counts() const { return cells_; }

  /// Resident size of the sketch state in bytes (dense cells and block
  /// counts).
  size_t MemoryBytes() const;

  /// Width of one grid cell: (hi - lo) / 2^resolution_bits.
  double CellWidth() const;

  /// Maximum distance between any percentile of this sketch and the exact
  /// percentile of the unquantized stream: CellWidth() / 2.
  double ValueErrorBound() const { return CellWidth() / 2.0; }

  const Options& options() const { return options_; }

  /// Grid index of the nearest grid point for `value` clamped to the
  /// domain; requires a finite value.
  static size_t CellIndex(double value, const Options& options);

  /// The sketch's cells as one column of QuantileSketchBank::Save: each
  /// non-empty block as a varint (gap from the previous written block, byte
  /// width) header and its cells at the narrowest width that holds the
  /// block's largest weight, then a zero header. One byte a cell for a block
  /// whose weights stay below 256. Equal multisets write equal bytes.
  /// UnpackCells rebuilds, on `grid` and given the packed sketch's count(),
  /// a sketch that packs to the same bytes, and rejects any other bytes: a
  /// block past the grid, an empty block, a width wider than the block's
  /// largest weight needs, and cells that do not add up to `count`.
  void PackCells(common::BinaryWriter& writer) const;
  static common::Result<QuantileSketch> UnpackCells(
      common::BinaryReader& reader, const Options& grid, uint64_t count);

 private:
  /// Value of grid point `index`.
  double CellValue(size_t index) const;
  /// One past the last cell of `block`.
  size_t BlockEnd(size_t block) const;

  Options options_;
  /// Multiplicity per grid point; size 2^resolution_bits + 1.
  std::vector<uint64_t> cells_;
  /// blocks_[b] is the sum of cells_[b * kBlockCells, (b + 1) * kBlockCells).
  std::vector<uint64_t> blocks_;
  uint64_t count_ = 0;
};

/// One batch of a column-indexed stream mapped to grid cells:
/// cells[k * rows() + i] is the grid cell of value (i, k) on `grid`. This is
/// the form QuantileSketchBank::Observe reports a batch in and the form
/// QuantileSketchWindow keeps, so a value is mapped to its cell once.
struct CellBatch {
  QuantileSketch::Options grid;
  size_t columns = 0;
  std::vector<uint32_t> cells;

  /// Maps every entry of `values` to its cell on `grid`. Rejects a NaN or
  /// +-inf entry.
  static common::Result<CellBatch> Of(const linalg::Matrix& values,
                                      const QuantileSketch::Options& grid);
  size_t rows() const { return columns == 0 ? 0 : cells.size() / columns; }
  bool empty() const { return cells.empty(); }
};

/// A column-indexed bank of sketches over a probability matrix: sketch k
/// summarizes output column k (class k's predicted probability). This is the
/// streaming counterpart of core::PredictionStatistics — the serving layer
/// feeds mini-batches through Observe and reads the concatenated per-class
/// percentile features on demand, in O(num_columns * 2^resolution_bits)
/// memory instead of O(rows).
class QuantileSketchBank {
 public:
  /// An empty bank with zero columns; the first Observe fixes the width.
  QuantileSketchBank() = default;
  QuantileSketchBank(size_t num_columns, QuantileSketch::Options options);

  /// Adds every entry of `values` to the sketch of its column. Rejects a
  /// batch with no rows or no columns, a column-count mismatch with the
  /// bank's width (the first observed batch fixes the width of a
  /// default-constructed bank) and a NaN or +-inf entry, all before any
  /// count moves, so a rejected batch leaves the bank unchanged.
  /// Columns are independent, so the update fans out over the shared thread
  /// pool; results are identical at every BBV_THREADS setting. When `cells`
  /// is non-null it also receives the batch's grid cells, recorded in the
  /// same pass.
  common::Status Observe(const linalg::Matrix& values,
                         CellBatch* cells = nullptr);

  /// Merges another bank of the same shape and grid into this one.
  common::Status Merge(const QuantileSketchBank& other);

  /// Adds / removes a batch given as grid cells. RemoveCells is the exact
  /// inverse of AddCells (counts are integers), so AddCells(b) followed by
  /// RemoveCells(b) restores the bank's bytes. Both reject a batch on
  /// another grid, a column-count mismatch and off-grid cells; RemoveCells
  /// also rejects removing rows the bank does not hold. On rejection the
  /// bank is unchanged. AddCells on a zero-column bank fixes its width.
  common::Status AddCells(const CellBatch& batch);
  common::Status RemoveCells(const CellBatch& batch);

  /// Concatenated per-column percentiles — the sketch-path equivalent of
  /// core::PredictionStatistics. `percentile_points` must be sorted
  /// ascending; requires at least one observed row.
  std::vector<double> PercentileFeatures(
      const std::vector<double>& percentile_points) const;

  size_t num_columns() const { return sketches_.size(); }
  const QuantileSketch& sketch(size_t column) const;
  /// Grid the member sketches live on (also meaningful for a zero-column
  /// bank, where it is the grid future columns will adopt).
  const QuantileSketch::Options& options() const { return options_; }
  /// Rows observed (each row contributes one value per column).
  uint64_t rows_observed() const { return rows_observed_; }
  size_t MemoryBytes() const;
  /// ValueErrorBound of the member sketches; 0 for an empty bank.
  double ValueErrorBound() const;

  /// Load rejects a header whose columns would hold more than this many
  /// bytes of dense cells (1 GiB: 32760 columns at the default 12 bits, 7 at
  /// the maximum 24), before allocating any of them.
  static constexpr uint64_t kMaxLoadedStateBytes = uint64_t{1} << 30;

  /// Canonical bytes: equal multisets produce identical bytes regardless
  /// of Observe/Merge order and thread count. Magic "BBVQB", version 2, the
  /// grid (resolution, lo, hi), varint rows and columns, then each column's
  /// QuantileSketch::PackCells. Load accepts exactly the bytes Save writes
  /// and returns a Status for anything else.
  common::Status Save(common::BinaryWriter& writer) const;
  common::Status Save(std::ostream& out) const;
  static common::Result<QuantileSketchBank> Load(common::BinaryReader& reader);
  static common::Result<QuantileSketchBank> Load(std::istream& in);

 private:
  QuantileSketch::Options options_;
  std::vector<QuantileSketch> sketches_;
  uint64_t rows_observed_ = 0;
};

/// Sliding window over the last `max_batches` batches of a stream, kept as
/// one running bank: each Push adds the new batch's cells and subtracts the
/// cells of the batch that falls out of the window. Counts are integers, so
/// the running bank is byte-identical (Save, PercentileFeatures) to merging
/// the per-batch banks of the batches in the window, at O(rows) per batch
/// instead of O(window * cells), in O(columns * 2^resolution_bits +
/// window * rows * columns) memory.
class QuantileSketchWindow {
 public:
  /// `max_batches` must be positive.
  QuantileSketchWindow(size_t max_batches, QuantileSketch::Options grid);

  /// Adds `batch` and, once more than max_batches batches are held, evicts
  /// the oldest. Returns the evicted batch (empty when none was evicted),
  /// which Undo takes to restore the window. Rejects a batch the bank
  /// rejects (see QuantileSketchBank::AddCells) and an empty batch, leaving
  /// the window unchanged.
  common::Result<CellBatch> Push(CellBatch batch);

  /// Undoes the most recent Push, given the batch it returned.
  void Undo(CellBatch evicted);

  /// Drops every batch.
  void Clear();

  /// Summary of the batches in the window.
  const QuantileSketchBank& bank() const { return bank_; }
  /// Batches in the window (<= max_batches).
  size_t batches() const { return ring_.size(); }

 private:
  size_t max_batches_;
  QuantileSketchBank bank_;
  /// The batches in the window, oldest first.
  std::deque<CellBatch> ring_;
};

}  // namespace bbv::stats

#endif  // BBV_STATS_QUANTILE_SKETCH_H_
