#include "bench/e2e/trace.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace bbv::bench::e2e {

uint32_t Tracer::LayerIndex(std::string_view layer) {
  const auto it = layer_index_.find(layer);
  if (it != layer_index_.end()) return it->second;
  const auto index = static_cast<uint32_t>(layer_names_.size());
  layer_names_.emplace_back(layer);
  layer_index_.emplace(std::string(layer), index);
  layer_times_.emplace_back();
  return index;
}

void Tracer::Begin(std::string_view layer, uint64_t request_id) {
  Open open;
  open.layer = LayerIndex(layer);
  open.start = clock_.Seconds();
  if (spans_.size() < kMaxKeptSpans) {
    open.span = static_cast<uint32_t>(spans_.size());
    Span span;
    span.layer = open.layer;
    span.request_id = request_id;
    span.start = open.start;
    // The parent is the innermost open span that was kept.
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->span != kNoSpan) {
        span.parent = it->span;
        break;
      }
    }
    spans_.push_back(span);
  } else {
    ++dropped_spans_;
  }
  stack_.push_back(open);
}

void Tracer::End() {
  BBV_CHECK(!stack_.empty());
  const double end = clock_.Seconds();
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration = end - open.start;
  LayerTime& time = layer_times_[open.layer];
  time.total_seconds += duration;
  time.self_seconds += duration - open.child_seconds;
  ++time.spans;
  if (!stack_.empty()) stack_.back().child_seconds += duration;
  if (open.span != kNoSpan) spans_[open.span].end = end;
}

Tracer::LayerTime Tracer::Layer(std::string_view layer) const {
  const auto it = layer_index_.find(layer);
  return it == layer_index_.end() ? LayerTime{} : layer_times_[it->second];
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& extra_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "{\n  \"layers\": {";
  for (size_t i = 0; i < layer_names_.size(); ++i) {
    const LayerTime& time = layer_times_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n    \"%s\": {\"total_s\": %.9g, \"self_s\": %.9g, "
                  "\"spans\": %llu}",
                  i == 0 ? "" : ",", layer_names_[i].c_str(),
                  time.total_seconds, time.self_seconds,
                  static_cast<unsigned long long>(time.spans));
    out << line;
  }
  out << "\n  },\n  \"dropped_spans\": " << dropped_spans_ << ",\n";
  out << "  \"library_telemetry\": "
      << (extra_json.empty() ? "null" : extra_json) << ",\n";
  out << "  \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n    {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                  "\"request\": %llu, \"start\": %.9f, \"end\": %.9f}",
                  i == 0 ? "" : ",", i, layer_names_[span.layer].c_str(),
                  span.parent == kNoSpan ? -1LL
                                         : static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request_id), span.start,
                  span.end);
    out << line;
  }
  out << "\n  ]\n}\n";
  out.flush();
  return out.good();
}

}  // namespace bbv::bench::e2e
