// In-memory span recorder of the traced replay.
//
// Spans wrap the benchmark's own calls into each module's public
// functions; a span's name starts with its layer ("pebble.lru").  A
// layer's self time is its spans' durations minus the part their child
// spans cover.  The replay is single-threaded, so spans nest strictly.
//
// The replay interleaves its traced ops with untraced reference calls
// (the same op through the entry point), so each pair runs back to back
// on the host.  Only time inside a Segment is the traced wall; time in a
// segment covered by no span at all is "unattributed".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  std::int64_t op = -1;
};

class SpanRecorder {
 public:
  /// A stretch of traced wall time; spans open only inside one.
  class Segment {
   public:
    explicit Segment(SpanRecorder& recorder);
    ~Segment();
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int64_t start_ns_;
  };

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  SpanRecorder();

  /// Tags subsequently opened spans with `op` (-1: set-up, no op).
  void set_op(std::int64_t op) { op_ = op; }

  /// The traced wall: total time inside segments.
  std::int64_t wall_ns() const { return wall_ns_; }

  /// Self time per span name, in nanoseconds.
  std::map<std::string, std::int64_t> self_by_name() const;
  /// Total duration per span name, in nanoseconds.
  std::map<std::string, std::int64_t> total_by_name() const;
  /// Summed duration of root spans (everything attributed to a layer).
  std::int64_t attributed_ns() const;

  /// Writes one JSON object per span (name, start, end, parent, op).
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t op_ = -1;
  std::int64_t origin_ns_ = 0;
  std::int64_t wall_ns_ = 0;
};

/// The layer of a span name: its text before the first '.'.
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
