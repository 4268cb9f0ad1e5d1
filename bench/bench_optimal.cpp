// O1 — branch-and-bound oracle scaling trajectory (docs/OPTIMAL.md).
// Runs the exact minimum-I/O solver over the instance ladder the
// tentpole targets — Strassen's A-encoder, the FULL Strassen n=2 CDAG
// (33 vertices), the Laderman and rectangular <3,3,6;46> encoder
// sub-CDAGs from the schemes/ zoo (32 / 55 / 64 vertices) — with
// recomputation allowed and forbidden at each M, recording min_io,
// states explored and wall time per cell.
//
// Two acceptance gates are enforced (the bench exits 1 otherwise):
//   1. the full Strassen n=2 CDAG solves EXACTLY within the default
//      state budget, both variants;
//   2. at least one >= 40-vertex encoder sub-CDAG solves exactly, both
//      variants.
//
// `bench_optimal --out report.json` writes a versioned run report: the
// per-cell rows under extra.bench_optimal, plus a small
// optimal+simulate+boundcheck sweep whose certified-chain section
// (extra.sweep) the ctest schema fixture validates end to end.  The
// committed BENCH_optimal.json is this report.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "obs/run_report.hpp"
#include "pebble/optimal.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace fmm;
using pebble::OptimalPebbleOptions;
using pebble::OptimalPebbleResult;
using pebble::PebbleInstance;

/// An encoder sub-CDAG as a pebble instance: the operand entries feed
/// the rank linear combinations, every combination is an output.
PebbleInstance encoder_instance(const bilinear::BilinearAlgorithm& alg,
                                bilinear::Side side) {
  const auto supports = alg.product_supports(side);
  std::size_t num_inputs = 0;
  for (const auto& support : supports) {
    for (const std::size_t x : support) {
      num_inputs = std::max(num_inputs, x + 1);
    }
  }
  PebbleInstance instance;
  graph::GraphBuilder builder(num_inputs + supports.size());
  for (graph::VertexId v = 0; v < static_cast<graph::VertexId>(num_inputs);
       ++v) {
    instance.inputs.push_back(v);
  }
  for (std::size_t r = 0; r < supports.size(); ++r) {
    const auto v = static_cast<graph::VertexId>(num_inputs + r);
    for (const std::size_t x : supports[r]) {
      builder.add_edge(static_cast<graph::VertexId>(x), v);
    }
    instance.outputs.push_back(v);
  }
  instance.graph = builder.freeze();
  return instance;
}

struct CellRow {
  std::string instance;
  std::size_t vertices = 0;
  std::int64_t m = 0;
  bool remat = false;
  OptimalPebbleResult result;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  const std::string zoo = std::string(FMM_SOURCE_ROOT) + "/schemes/";

  std::printf("=== O1: branch-and-bound oracle trajectory (exact minimum "
              "I/O) ===\n\n");

  // The instance ladder, smallest to largest.  M values are chosen so
  // every cell solves exactly in milliseconds with the default budget
  // (the 64-vertex B-encoder needs M large enough that the admissible
  // heuristic stays tight; see docs/OPTIMAL.md).
  struct Spec {
    std::string name;
    PebbleInstance instance;
    std::vector<std::int64_t> m_grid;
  };
  std::vector<Spec> specs;
  specs.push_back({"strassen A-encoder",
                   encoder_instance(bilinear::strassen(),
                                    bilinear::Side::kA),
                   {4, 6}});
  specs.push_back({"strassen n=2 full CDAG",
                   pebble::to_instance(
                       cdag::build_cdag(bilinear::strassen(), 2)),
                   {12, 16}});
  specs.push_back(
      {"laderman A-encoder",
       encoder_instance(bilinear::to_algorithm(bilinear::load_scheme_file(
                            zoo + "laderman_333_23.json")),
                        bilinear::Side::kA),
       {10}});
  const bilinear::BilinearAlgorithm rect = bilinear::to_algorithm(
      bilinear::load_scheme_file(zoo + "rect_336_46.json"));
  specs.push_back({"rect<3,3,6;46> A-encoder",
                   encoder_instance(rect, bilinear::Side::kA),
                   {10}});
  specs.push_back({"rect<3,3,6;46> B-encoder",
                   encoder_instance(rect, bilinear::Side::kB),
                   {19}});

  Table table({"Instance", "Vertices", "M", "Remat", "Min I/O",
               "Optimality", "States", "Wall s"});
  std::vector<CellRow> rows;
  bool strassen_full_exact = true;
  bool big_encoder_exact = false;
  bool saw_strassen_full = false;
  for (const Spec& spec : specs) {
    for (const std::int64_t m : spec.m_grid) {
      for (const bool remat : {true, false}) {
        OptimalPebbleOptions options;
        options.cache_size = m;
        options.allow_recomputation = remat;
        CellRow row;
        row.instance = spec.name;
        row.vertices = spec.instance.graph.num_vertices();
        row.m = m;
        row.remat = remat;
        Stopwatch watch;
        try {
          row.result = pebble::optimal_io(spec.instance, options);
        } catch (const CheckError& e) {
          std::fprintf(stderr, "FATAL: %s M=%lld: %s\n",
                       spec.name.c_str(),
                       static_cast<long long>(m), e.what());
          return 1;
        }
        row.seconds = watch.seconds();
        rows.push_back(row);
        const bool exact = row.result.optimality ==
                           OptimalPebbleResult::Optimality::kExact;
        if (spec.name == "strassen n=2 full CDAG") {
          saw_strassen_full = true;
          strassen_full_exact = strassen_full_exact && exact;
        }
        if (row.vertices >= 40 && spec.name.find("encoder") !=
                                      std::string::npos) {
          // Both variants of at least one cell must be exact; since the
          // variants share a (spec, m) cell this flag is only latched
          // on the no-remat arm after the remat arm also succeeded.
          if (!remat && exact && rows.size() >= 2 &&
              rows[rows.size() - 2].result.optimality ==
                  OptimalPebbleResult::Optimality::kExact) {
            big_encoder_exact = true;
          }
        }
        table.begin_row();
        table.add_cell(spec.name);
        table.add_cell(row.vertices);
        table.add_cell(m);
        table.add_cell(remat ? "yes" : "no");
        table.add_cell(row.result.min_io);
        table.add_cell(pebble::optimality_name(row.result.optimality));
        table.add_cell(row.result.states_explored);
        table.add_cell(format_double(row.seconds));
      }
    }
  }
  table.print_console(std::cout);

  std::printf("\nacceptance: strassen n=2 full CDAG exact (both "
              "variants): %s; >=40-vertex encoder exact (both "
              "variants): %s\n",
              saw_strassen_full && strassen_full_exact ? "yes" : "NO",
              big_encoder_exact ? "yes" : "NO");
  if (!saw_strassen_full || !strassen_full_exact || !big_encoder_exact) {
    std::fprintf(stderr, "FATAL: oracle acceptance gate failed\n");
    return 1;
  }

  if (cli.wants_report()) {
    // Certified-chain sweep for the report: optimal + simulate +
    // boundcheck on the Strassen n=2 cells, so extra.sweep carries the
    // optimal rows and the chain aggregate the schema checker
    // cross-derives.
    sweep::SweepSpec spec;
    spec.algorithms = {"strassen"};
    spec.n_grid = {2};
    spec.m_grid = {12, 16};
    spec.kinds = {sweep::TaskKind::kOptimal, sweep::TaskKind::kSimulate,
                  sweep::TaskKind::kBoundCheck};
    spec.base_seed = cli.seed;
    const sweep::SweepResult swept = sweep::run_sweep(spec);

    obs::RunReport report("bench_optimal");
    report.set_param("experiment",
                     "O1 branch-and-bound oracle trajectory");
    report.set_param("seed", static_cast<std::int64_t>(cli.seed));
    report.set_result("cells", static_cast<std::int64_t>(rows.size()));
    report.set_result("strassen_full_exact", strassen_full_exact);
    report.set_result("big_encoder_exact", big_encoder_exact);
    report.set_result("all_chains_hold", swept.all_chains_hold);
    double total_seconds = 0.0;
    std::ostringstream cells;
    cells << "{\"cells\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CellRow& row = rows[i];
      total_seconds += row.seconds;
      cells << (i == 0 ? "\n" : ",\n") << "      {\"instance\": \""
            << json_escape(row.instance) << "\", \"vertices\": "
            << row.vertices << ", \"m\": " << row.m << ", \"remat\": "
            << (row.remat ? "true" : "false") << ", \"min_io\": "
            << row.result.min_io << ", \"optimality\": \""
            << pebble::optimality_name(row.result.optimality)
            << "\", \"states_explored\": " << row.result.states_explored
            << ", \"wall_s\": ";
      write_double(cells, row.seconds);
      cells << "}";
    }
    cells << "\n    ]}";
    report.add_phase_seconds("solve", total_seconds);
    report.add_raw_section("bench_optimal", cells.str());
    swept.attach_to(report);
    obs::finalize_run(cli, report);
  }
  return 0;
}
