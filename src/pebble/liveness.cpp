#include "pebble/liveness.hpp"

#include <algorithm>
#include <cstdint>

#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::pebble {

namespace {

/// The first and last row reading one column of a coefficient matrix:
/// the steps over which a quadrant's elements are read.
struct Window {
  std::int64_t first = -1;
  std::int64_t last = -1;
};

/// One Window per column of `coeff`; a zero column keeps last = -1.
std::vector<Window> column_windows(const bilinear::IntMat& coeff) {
  std::vector<Window> windows(coeff.cols);
  for (std::size_t i = 0; i < coeff.rows; ++i) {
    for (std::size_t j = 0; j < coeff.cols; ++j) {
      if (coeff.at(i, j) != 0) {
        if (windows[j].first < 0) {
          windows[j].first = static_cast<std::int64_t>(i);
        }
        windows[j].last = static_cast<std::int64_t>(i);
      }
    }
  }
  return windows;
}

/// The largest live count over the steps (r, e) of one encoder pass, t
/// rows of `sub2` steps: `held` values live throughout, the r sub2 + e + 1
/// encoders made so far, and each operand quadrant's elements from their
/// first read (inputs) or from the start (computed operands) through
/// their last read.  Every term is linear in e within a row, so e = 0
/// and e = sub2 - 1 bound it.
std::int64_t encode_peak(std::int64_t t, std::int64_t sub2,
                         const std::vector<Window>& reads, bool inputs,
                         std::int64_t held) {
  std::int64_t peak = 0;
  for (std::int64_t r = 0; r < t; ++r) {
    for (const std::int64_t e : {std::int64_t{0}, sub2 - 1}) {
      std::int64_t live = held + r * sub2 + e + 1;
      for (const Window& window : reads) {
        const std::int64_t first = inputs ? window.first : -1;
        if (r < first || r > window.last) {
          continue;
        }
        const std::int64_t lo = r == window.last ? e : 0;
        const std::int64_t hi = r == first ? e : sub2 - 1;
        live += hi - lo + 1;
      }
      peak = std::max(peak, live);
    }
  }
  return peak;
}

}  // namespace

LivenessProfile liveness_profile(
    const cdag::Cdag& cdag, const std::vector<graph::VertexId>& schedule) {
  FMM_TRACE_SPAN("pebble.liveness_profile", "pebble");
  const std::size_t nv = cdag.graph.num_vertices();
  const std::size_t steps = schedule.size();
  const auto is_input = [&cdag](graph::VertexId v) {
    return cdag.roles[v] == cdag::Role::kInputA ||
           cdag.roles[v] == cdag::Role::kInputB;
  };
  constexpr std::uint32_t kUnreferenced = UINT32_MAX;

  // Forward pass: validate each step, record every value's last
  // reference, and count the values first referenced at each step.  A
  // non-input vertex is unreferenced exactly until its own step, so an
  // operand still unreferenced at a later step is either an input's
  // first use or a dependency violation.  Step indices stay below the
  // sentinel: with 32-bit vertex ids a schedule has fewer than 2^32 - 1
  // distinct non-input steps, and a longer one fails at a repeat first.
  std::vector<std::uint32_t> last(nv, kUnreferenced);
  std::vector<std::int32_t> delta(steps + 1, 0);
  for (std::size_t i = 0; i < steps; ++i) {
    const graph::VertexId v = schedule[i];
    FMM_CHECK_MSG(v < nv, "invalid schedule at step "
                              << i << ": vertex " << v
                              << " is out of range (the CDAG has " << nv
                              << " vertices)");
    FMM_CHECK_MSG(!is_input(v), "invalid schedule at step "
                                    << i << ": vertex " << v
                                    << " is an input");
    FMM_CHECK_MSG(last[v] == kUnreferenced,
                  "invalid schedule at step " << i << ": vertex " << v
                                              << " is computed twice");
    const auto step = static_cast<std::uint32_t>(i);
    std::int32_t first_referenced = 1;  // v itself
    for (const graph::VertexId u : cdag.graph.in_neighbors(v)) {
      if (last[u] == kUnreferenced) {
        FMM_CHECK_MSG(is_input(u), "invalid schedule at step "
                                       << i << ": vertex " << v
                                       << " is computed before its operand "
                                       << u);
        ++first_referenced;
      }
      last[u] = step;
    }
    last[v] = step;
    delta[i] = first_referenced;
  }
  const std::size_t non_inputs =
      nv - cdag.inputs_a.size() - cdag.inputs_b.size();
  FMM_CHECK_MSG(steps == non_inputs,
                "invalid schedule: " << steps << " steps for the CDAG's "
                                     << non_inputs
                                     << " non-input vertices");

  // Each value dies at the step after its last reference; the running
  // sum is the live count after each step.
  for (const std::uint32_t end : last) {
    if (end != kUnreferenced) {
      --delta[end + 1];
    }
  }
  std::int64_t live = 0;
  std::int64_t peak = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    live += delta[i];
    peak = std::max(peak, live);
  }
  auto& registry = obs::Registry::instance();
  registry.counter("pebble.liveness.profiles").increment();
  registry.gauge("pebble.liveness.peak").record_max(peak);
  return {static_cast<std::size_t>(peak)};
}

std::optional<std::size_t> dfs_liveness_peak(
    const bilinear::BilinearAlgorithm& algorithm, std::size_t n) {
  const cdag::CdagCensus counts = cdag::census(algorithm, n);
  if (!has_dfs_liveness_closed_form(algorithm)) {
    return std::nullopt;
  }
  const std::vector<Window> a_reads = column_windows(algorithm.u());
  const std::vector<Window> b_reads = column_windows(algorithm.v());
  const auto base = static_cast<std::int64_t>(algorithm.n());
  const auto t = static_cast<std::int64_t>(algorithm.num_products());
  // The peak of a sub-problem below the root, its operands and outputs
  // included, from size 1 up; the last level is the root.
  std::int64_t peak = 3;
  for (std::size_t i = 1; i < counts.levels.size(); ++i) {
    const auto sub = static_cast<std::int64_t>(counts.levels[i].first) / base;
    const std::int64_t sub2 = sub * sub;
    const bool root = i + 1 == counts.levels.size();
    peak = std::max(
        {(2 * t - 2) * sub2 + peak,
         encode_peak(t, sub2, a_reads, root, root ? 0 : base * base * sub2),
         encode_peak(t, sub2, b_reads, root, t * sub2)});
  }
  obs::Registry::instance().gauge("pebble.liveness.peak").record_max(peak);
  return static_cast<std::size_t>(peak);
}

bool has_dfs_liveness_closed_form(
    const bilinear::BilinearAlgorithm& algorithm) {
  for (const bilinear::IntMat* coeff :
       {&algorithm.u(), &algorithm.v(), &algorithm.w()}) {
    const std::vector<Window> reads = column_windows(*coeff);
    if (std::any_of(reads.begin(), reads.end(),
                    [](const Window& w) { return w.last < 0; })) {
      return false;
    }
  }
  return true;
}

}  // namespace fmm::pebble
