#include "spans.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(steady_ns()) {}

SpanRecorder::Segment::Segment(SpanRecorder& recorder)
    : recorder_(recorder), start_ns_(steady_ns()) {}

SpanRecorder::Segment::~Segment() {
  recorder_.wall_ns_ += steady_ns() - start_ns_;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(recorder), index_(static_cast<int>(recorder.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  span.op = recorder.op_;
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(index_);
  // Stamp last so the bookkeeping above is not charged to the span.
  recorder.spans_[static_cast<std::size_t>(index_)].start_ns = steady_ns();
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[static_cast<std::size_t>(index_)].end_ns = steady_ns();
  recorder_.open_.pop_back();
}

std::map<std::string, std::int64_t> SpanRecorder::total_by_name() const {
  std::map<std::string, std::int64_t> total;
  for (const Span& span : spans_) {
    total[span.name] += span.end_ns - span.start_ns;
  }
  return total;
}

std::map<std::string, std::int64_t> SpanRecorder::self_by_name() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

std::int64_t SpanRecorder::attributed_ns() const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns - origin_ns_
        << ", \"end_ns\": " << span.end_ns - origin_ns_
        << ", \"parent\": " << span.parent << ", \"op\": " << span.op
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
