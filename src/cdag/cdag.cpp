#include "cdag/cdag.hpp"

#include <sstream>

#include "cdag/builder.hpp"
#include "common/check.hpp"

namespace fmm::cdag {

const char* role_name(Role role) {
  switch (role) {
    case Role::kInputA:
      return "inA";
    case Role::kInputB:
      return "inB";
    case Role::kEncodeA:
      return "encA";
    case Role::kEncodeB:
      return "encB";
    case Role::kProduct:
      return "mul";
    case Role::kDecode:
      return "dec";
    case Role::kOutput:
      return "out";
  }
  return "?";
}

bool Cdag::has_subproblems(std::size_t r) const {
  for (const SubproblemLevel& level : subproblem_levels) {
    if (level.r == r) {
      return true;
    }
  }
  return false;
}

const SubproblemLevel& Cdag::subproblems(std::size_t r) const {
  for (const SubproblemLevel& level : subproblem_levels) {
    if (level.r == r) {
      return level;
    }
  }
  FMM_CHECK_MSG(false,
                "no sub-problems of size " << r << " tracked for n=" << n);
  return subproblem_levels.front();  // unreachable
}

std::vector<graph::VertexId> Cdag::all_inputs() const {
  std::vector<graph::VertexId> result = inputs_a;
  result.insert(result.end(), inputs_b.begin(), inputs_b.end());
  return result;
}

std::span<const graph::VertexId> Cdag::sub_outputs_flat(std::size_t r) const {
  return subproblems(r).output_pool;
}

std::vector<graph::VertexId> Cdag::sub_internal_vertices(std::size_t r) const {
  const SubproblemLevel& level = subproblems(r);
  std::vector<bool> is_output(graph.num_vertices(), false);
  for (const graph::VertexId v : level.output_pool) {
    is_output[v] = true;
  }
  std::vector<graph::VertexId> internal;
  for (std::size_t i = 0; i < level.count; ++i) {
    const auto [begin, end] = level.span_of(i);
    for (graph::VertexId v = begin; v < end; ++v) {
      if (!is_output[v]) {
        internal.push_back(v);
      }
    }
  }
  return internal;
}

std::map<Role, std::size_t> Cdag::role_histogram() const {
  std::map<Role, std::size_t> hist;
  for (const Role role : roles) {
    ++hist[role];
  }
  return hist;
}

std::string Cdag::to_dot(bool allow_large) const {
  std::vector<std::string> labels(roles.size());
  for (std::size_t v = 0; v < roles.size(); ++v) {
    std::ostringstream oss;
    oss << role_name(roles[v]) << v;
    labels[v] = oss.str();
  }
  return graph.to_dot(labels, allow_large);
}

void Cdag::validate() const {
  FMM_CHECK_MSG(graph.num_vertices() == roles.size(),
                "cdag: " << roles.size() << " roles for "
                         << graph.num_vertices() << " vertices");
  FMM_CHECK_MSG(inputs_a.size() == n * n && inputs_b.size() == n * n &&
                    outputs.size() == n * n,
                "cdag: " << inputs_a.size() << " A inputs, "
                         << inputs_b.size() << " B inputs and "
                         << outputs.size() << " outputs for n=" << n);

  for (const graph::VertexId v : inputs_a) {
    FMM_CHECK_MSG(roles[v] == Role::kInputA && graph.in_degree(v) == 0,
                  "cdag: input-A vertex " << v << " has role "
                                          << role_name(roles[v])
                                          << " and in-degree "
                                          << graph.in_degree(v));
  }
  for (const graph::VertexId v : inputs_b) {
    FMM_CHECK_MSG(roles[v] == Role::kInputB && graph.in_degree(v) == 0,
                  "cdag: input-B vertex " << v << " has role "
                                          << role_name(roles[v])
                                          << " and in-degree "
                                          << graph.in_degree(v));
  }
  for (const graph::VertexId v : outputs) {
    FMM_CHECK_MSG(roles[v] == Role::kOutput && graph.out_degree(v) == 0,
                  "cdag: output vertex " << v << " has role "
                                         << role_name(roles[v])
                                         << " and out-degree "
                                         << graph.out_degree(v));
  }
  // Every product vertex multiplies exactly two operands.
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (roles[v] == Role::kProduct) {
      FMM_CHECK_MSG(graph.in_degree(v) == 2,
                    "product vertex " << v << " has in-degree "
                                      << graph.in_degree(v));
    }
  }

  // Lemma 2.2: the levels are exactly census_levels — every size r = b^i
  // up to n, with t^{log_b(n/r)} sub-problems each.
  const auto expected = census_levels(base, num_products, n);
  FMM_CHECK_MSG(subproblem_levels.size() == expected.size(),
                "cdag: " << subproblem_levels.size()
                         << " sub-problem levels, Lemma 2.2 has "
                         << expected.size() << " for n=" << n);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SubproblemLevel& level = subproblem_levels[i];
    const auto [r, count] = expected[i];
    FMM_CHECK_MSG(level.r == r && level.count == count,
                  "cdag: level " << i << " has " << level.count
                                 << " sub-problems of size " << level.r
                                 << ", Lemma 2.2 has " << count
                                 << " of size " << r);
    FMM_CHECK_MSG(
        level.output_pool.size() == count * level.outputs_per_sub() &&
            level.input_pool.size() == count * level.inputs_per_sub() &&
            level.span_begin.size() == count &&
            level.span_end.size() == count,
        "cdag: level " << i << " pools disagree with its " << count
                       << " sub-problems of size " << r);
  }
}

}  // namespace fmm::cdag
