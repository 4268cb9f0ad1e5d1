#include "cdag/cdag.hpp"

#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/math_util.hpp"

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
  FMM_CHECK(graph.num_vertices() == roles.size());
  FMM_CHECK(graph.is_dag());
  FMM_CHECK(inputs_a.size() == n * n);
  FMM_CHECK(inputs_b.size() == n * n);
  FMM_CHECK(outputs.size() == n * n);

  for (const graph::VertexId v : inputs_a) {
    FMM_CHECK(roles[v] == Role::kInputA && graph.in_degree(v) == 0);
  }
  for (const graph::VertexId v : inputs_b) {
    FMM_CHECK(roles[v] == Role::kInputB && graph.in_degree(v) == 0);
  }
  for (const graph::VertexId v : outputs) {
    FMM_CHECK(roles[v] == Role::kOutput && graph.out_degree(v) == 0);
  }
  // Every product vertex multiplies exactly two operands.
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (roles[v] == Role::kProduct) {
      FMM_CHECK_MSG(graph.in_degree(v) == 2,
                    "product vertex " << v << " has in-degree "
                                      << graph.in_degree(v));
    }
  }

  // Lemma 2.2: |V_out(SUB_H^{r x r})| = (n/r)^{log_b t} * r^2, i.e. the
  // number of r x r sub-problems is t^{log_b(n/r)}.
  for (const SubproblemLevel& level : subproblem_levels) {
    const std::size_t r = level.r;
    FMM_CHECK(n % r == 0);
    // levels = log_base(n / r), computed exactly by repeated division.
    int levels = 0;
    for (std::size_t ratio = n / r; ratio > 1; ratio /= base) {
      FMM_CHECK(ratio % base == 0);
      ++levels;
    }
    const auto expected =
        static_cast<std::size_t>(checked_pow(
            static_cast<std::int64_t>(num_products), levels));
    FMM_CHECK_MSG(level.count == expected,
                  "size-" << r << " sub-problem count " << level.count
                          << " != " << expected);
    FMM_CHECK(level.output_pool.size() ==
              level.count * level.outputs_per_sub());
    FMM_CHECK(level.input_pool.size() == level.count * level.inputs_per_sub());
    FMM_CHECK(level.span_begin.size() == level.count &&
              level.span_end.size() == level.count);
  }
}

}  // namespace fmm::cdag
