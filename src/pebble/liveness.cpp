#include "pebble/liveness.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::pebble {

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

}  // namespace fmm::pebble
