#include "cdag/json_export.hpp"

#include <span>
#include <sstream>

#include "common/json.hpp"

namespace fmm::cdag {

namespace {

void append_id_array(std::ostringstream& oss,
                     std::span<const graph::VertexId> ids) {
  oss << '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) {
      oss << ',';
    }
    oss << ids[i];
  }
  oss << ']';
}

}  // namespace

std::string to_json(const Cdag& cdag) {
  std::ostringstream oss;
  oss << "{\n";
  oss << "  \"algorithm\": \"" << json_escape(cdag.algorithm_name) << "\",\n";
  oss << "  \"n\": " << cdag.n << ",\n";
  oss << "  \"base\": " << cdag.base << ",\n";
  oss << "  \"products\": " << cdag.num_products << ",\n";

  oss << "  \"vertices\": [";
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    if (v != 0) {
      oss << ',';
    }
    oss << "{\"id\":" << v << ",\"role\":\"" << role_name(cdag.roles[v])
        << "\"}";
  }
  oss << "],\n";

  oss << "  \"edges\": [";
  bool first_edge = true;
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    for (const graph::VertexId w : cdag.graph.out_neighbors(v)) {
      if (!first_edge) {
        oss << ',';
      }
      first_edge = false;
      oss << '[' << v << ',' << w << ']';
    }
  }
  oss << "],\n";

  oss << "  \"inputs_a\": ";
  append_id_array(oss, cdag.inputs_a);
  oss << ",\n  \"inputs_b\": ";
  append_id_array(oss, cdag.inputs_b);
  oss << ",\n  \"outputs\": ";
  append_id_array(oss, cdag.outputs);

  oss << ",\n  \"subproblems\": {";
  bool first_size = true;
  for (const SubproblemLevel& level : cdag.subproblem_levels) {
    if (!first_size) {
      oss << ',';
    }
    first_size = false;
    oss << "\n    \"" << level.r << "\": [";
    for (std::size_t i = 0; i < level.count; ++i) {
      if (i != 0) {
        oss << ',';
      }
      oss << "{\"outputs\":";
      append_id_array(oss, level.outputs_of(i));
      oss << ",\"inputs\":";
      append_id_array(oss, level.inputs_of(i));
      oss << '}';
    }
    oss << ']';
  }
  oss << "\n  }\n}\n";
  return oss.str();
}

}  // namespace fmm::cdag
