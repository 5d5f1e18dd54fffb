#ifndef BBV_BENCH_E2E_TRACE_H_
#define BBV_BENCH_E2E_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"

namespace bbv::bench::e2e {

/// Bench-side span recorder for traced runs. Spans are opened and closed on
/// the calling thread around calls into the library's public functions, so
/// they nest strictly: a span's self time is its duration minus the
/// durations of its direct children. Per-layer totals are accumulated as
/// spans close; the raw spans (name, start, end, parent, request id) are
/// kept in memory up to a cap and written out by WriteJson at exit.
///
/// A disabled tracer (measured runs) never reads the clock: Scope is a
/// single branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span around one call; `request_id` ties the spans of one request
  /// together (0 when the span serves no single request).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view layer, uint64_t request_id = 0)
        : tracer_(tracer) {
      if (tracer_.enabled_) tracer_.Begin(layer, request_id);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  /// Accumulated time of one layer over every span of that name.
  struct LayerTime {
    double total_seconds = 0.0;
    double self_seconds = 0.0;
    uint64_t spans = 0;
  };
  /// Zero-valued for a layer that never opened a span.
  LayerTime Layer(std::string_view layer) const;

  /// Writes the kept spans, the per-layer totals and `extra_json` (an
  /// already-rendered JSON value, e.g. the library telemetry snapshot) to
  /// `path`. Returns false on I/O failure.
  bool WriteJson(const std::string& path, const std::string& extra_json) const;

 private:
  static constexpr uint32_t kNoSpan = UINT32_MAX;

  struct Span {
    uint32_t layer = 0;
    uint32_t parent = kNoSpan;
    uint64_t request_id = 0;
    double start = 0.0;
    double end = 0.0;
  };
  struct Open {
    uint32_t span = kNoSpan;
    uint32_t layer = 0;
    double start = 0.0;
    double child_seconds = 0.0;
  };
  /// Spans beyond this are aggregated but not kept for export (a traced
  /// serve_fleet run opens about 600k; the cap keeps its file near 60 MB).
  static constexpr size_t kMaxKeptSpans = 1u << 19;

  void Begin(std::string_view layer, uint64_t request_id);
  void End();
  uint32_t LayerIndex(std::string_view layer);

  bool enabled_;
  WallTimer clock_;
  std::vector<std::string> layer_names_;
  std::map<std::string, uint32_t, std::less<>> layer_index_;
  std::vector<LayerTime> layer_times_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_spans_ = 0;
};

}  // namespace bbv::bench::e2e

#endif  // BBV_BENCH_E2E_TRACE_H_
