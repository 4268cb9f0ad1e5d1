// N1 — snapshot store: mmap-load vs rebuild of frozen CDAGs.
//
// The snapshot store's reason to exist is that H^{n x n} is expensive
// to BUILD but its frozen form is just flat arrays — so a cold worker
// should mount a published snapshot instead of rebuilding.  This bench
// measures, for Strassen n in {16, 32, 64} and Laderman n = 27:
//
//   rebuild     — cdag::build_cdag from the resolved scheme;
//   publish     — SnapshotStore::publish of the built CDAG: the layout
//                 and checksums, streamed to a tmp file and renamed
//                 (recorded, not gated);
//   load(full)  — snapshot load re-deriving every checksum (the
//                 SnapshotStore production path: one streaming pass at
//                 memory bandwidth, still far cheaper than building);
//   load(mapped)— Verify::kMapped zero-copy load (header/table/
//                 metadata checks only, large sections mapped untouched
//                 — the O(1) cold-start path, docs/SNAPSHOTS.md).
//
// Two claims, both enforced (the bench exits 1 otherwise):
//   1. identity: every loaded CDAG equals the built one (graph content
//      equality) and pebble::simulate produces bit-identical SimResults
//      on the identical DFS schedule — a snapshot is not an
//      approximation of the CDAG, it IS the CDAG;
//   2. speed: at Strassen n = 64 the MAPPED load is >= 100x faster
//      than the rebuild.  The full-verify load is recorded in the
//      report but not gated: re-hashing 24 MB has a bandwidth floor no
//      format can cheat, and its win (~15x here) is not the zero-copy
//      promise.
//
// `bench_snapshot --out report.json` writes a versioned run report:
// extra.snapshot carries the store accounting for the schema checker,
// extra.bench_snapshot the per-case rows.  The committed
// BENCH_snapshot.json is this report.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cdag/builder.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "snapshot/store.hpp"
#include "sweep/sweep.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct CaseResult {
  std::string label;
  std::size_t n = 0;
  std::size_t vertices = 0;
  std::uint64_t snapshot_bytes = 0;
  double build_ms = 0.0;
  double publish_ms = 0.0;
  double load_full_ms = 0.0;
  double load_mapped_ms = 0.0;
};

bool sim_identical(const fmm::cdag::Cdag& a, const fmm::cdag::Cdag& b) {
  const auto schedule = fmm::pebble::dfs_schedule(a);
  if (schedule != fmm::pebble::dfs_schedule(b)) {
    return false;
  }
  fmm::pebble::SimOptions options;
  options.cache_size = 256;
  const fmm::pebble::SimResult ra =
      fmm::pebble::simulate(a, schedule, options);
  const fmm::pebble::SimResult rb =
      fmm::pebble::simulate(b, schedule, options);
  return ra.loads == rb.loads && ra.stores == rb.stores &&
         ra.weighted_io == rb.weighted_io &&
         ra.computations == rb.computations &&
         ra.recomputations == rb.recomputations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fmm;
  namespace fs = std::filesystem;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  const std::string laderman = std::string("file:") + FMM_SOURCE_ROOT +
                               "/schemes/laderman_333_23.json";
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();

  std::printf("=== N1: snapshot load vs CDAG rebuild ===\n\n");

  const std::string store_dir =
      (fs::temp_directory_path() / "bench_snapshot_store").string();
  fs::remove_all(store_dir);
  snapshot::SnapshotStore store({store_dir, 0, snapshot::Verify::kFull});

  struct Case {
    std::string algorithm;
    std::string label;
    std::size_t n;
  };
  const std::vector<Case> cases = {
      {"strassen", "strassen", 16},
      {"strassen", "strassen", 32},
      {"strassen", "strassen", 64},
      {laderman, "laderman", 27},
  };
  constexpr int kLoadReps = 5;

  std::vector<CaseResult> results;
  for (const Case& c : cases) {
    CaseResult row;
    row.label = c.label;
    row.n = c.n;
    const std::string fingerprint =
        sweep::resolve_traits(c.algorithm).fingerprint;

    const auto build_start = Clock::now();
    const cdag::Cdag built =
        cdag::build_cdag(sweep::resolve_algorithm(c.algorithm), c.n);
    row.build_ms = ms_since(build_start);
    row.vertices = built.graph.num_vertices();

    const auto publish_start = Clock::now();
    if (!store.publish(fingerprint, c.n, built)) {
      std::fprintf(stderr, "FATAL: publish failed for %s n=%zu\n",
                   c.label.c_str(), c.n);
      return 1;
    }
    row.publish_ms = ms_since(publish_start);
    const std::string path = store.path_for(fingerprint, c.n);
    row.snapshot_bytes = static_cast<std::uint64_t>(fs::file_size(path));

    // Best-of-k loads: on a shared VM the first rep pays page-cache
    // warmup; the minimum is the reproducible cost.
    row.load_full_ms = 1e100;
    row.load_mapped_ms = 1e100;
    cdag::Cdag loaded_full;
    cdag::Cdag loaded_mapped;
    for (int rep = 0; rep < kLoadReps; ++rep) {
      auto start = Clock::now();
      loaded_full = snapshot::load_snapshot_file(path,
                                                 snapshot::Verify::kFull);
      row.load_full_ms = std::min(row.load_full_ms, ms_since(start));
      start = Clock::now();
      loaded_mapped =
          snapshot::load_snapshot_file(path, snapshot::Verify::kMapped);
      row.load_mapped_ms = std::min(row.load_mapped_ms, ms_since(start));
    }

    // Gate 1: identity.  The loaded CDAGs must BE the built one.
    if (!(loaded_full.graph == built.graph) ||
        !(loaded_mapped.graph == built.graph)) {
      std::fprintf(stderr, "FATAL: %s n=%zu loaded graph differs from "
                           "built graph\n",
                   c.label.c_str(), c.n);
      return 1;
    }
    if (!sim_identical(built, loaded_full) ||
        !sim_identical(built, loaded_mapped)) {
      std::fprintf(stderr, "FATAL: %s n=%zu simulation diverges between "
                           "built and loaded CDAGs\n",
                   c.label.c_str(), c.n);
      return 1;
    }
    results.push_back(row);
  }

  Table table({"Case", "n", "Vertices", "Snapshot MB", "Build ms",
               "Publish ms", "Load(full) ms", "Load(mmap) ms",
               "mmap speedup"});
  for (const CaseResult& row : results) {
    table.begin_row();
    table.add_cell(row.label);
    table.add_cell(static_cast<std::int64_t>(row.n));
    table.add_cell(static_cast<std::int64_t>(row.vertices));
    table.add_cell(format_double(
        static_cast<double>(row.snapshot_bytes) / (1024.0 * 1024.0)));
    table.add_cell(format_double(row.build_ms));
    table.add_cell(format_double(row.publish_ms));
    table.add_cell(format_double(row.load_full_ms));
    table.add_cell(format_double(row.load_mapped_ms));
    table.add_cell(format_double(row.build_ms / row.load_mapped_ms));
  }
  table.print_console(std::cout);

  // Gate 2: the zero-copy promise at the headline size.
  const CaseResult& gate = results[2];  // strassen n=64
  const double mapped_speedup = gate.build_ms / gate.load_mapped_ms;
  if (mapped_speedup < 100.0) {
    std::fprintf(stderr, "FATAL: mapped load at strassen n=64 is only "
                         "%.1fx faster than rebuild (gate: >= 100x; "
                         "build %.3f ms, load %.3f ms)\n",
                 mapped_speedup, gate.build_ms, gate.load_mapped_ms);
    return 1;
  }
  std::printf("\nidentity: loaded == built (graphs and SimResults) for "
              "all %zu cases\n", results.size());
  std::printf("gate: mapped load %.1fx faster than rebuild at strassen "
              "n=64 (>= 100x required)\n", mapped_speedup);
  std::printf("full-verify load: %.1fx (recorded, not gated — checksum "
              "re-derivation has a bandwidth floor)\n",
              gate.build_ms / gate.load_full_ms);

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("bench_snapshot");
    report.set_param("experiment", "N1 snapshot load vs rebuild");
    report.set_param("snapshot_dir", store.directory());
    report.set_param("cases",
                     static_cast<std::int64_t>(results.size()));
    report.set_result("mapped_speedup_n64", mapped_speedup);
    report.set_result("full_speedup_n64",
                      gate.build_ms / gate.load_full_ms);
    report.set_result("build_ms_n64", gate.build_ms);
    report.set_result("load_mapped_ms_n64", gate.load_mapped_ms);
    report.set_result("byte_identical", true);
    report.add_bound_check("snapshot_mapped_speedup_n64",
                           /*bound=*/100.0, /*measured=*/mapped_speedup);
    report.add_raw_section("snapshot", store.stats_json());
    std::ostringstream rows;
    rows << "{\"cases\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& row = results[i];
      rows << (i == 0 ? "\n" : ",\n") << "      {\"case\": \""
           << json_escape(row.label) << "\", \"n\": " << row.n
           << ", \"vertices\": " << row.vertices
           << ", \"snapshot_bytes\": " << row.snapshot_bytes
           << ", \"build_ms\": ";
      write_double(rows, row.build_ms);
      rows << ", \"publish_ms\": ";
      write_double(rows, row.publish_ms);
      rows << ", \"load_full_ms\": ";
      write_double(rows, row.load_full_ms);
      rows << ", \"load_mapped_ms\": ";
      write_double(rows, row.load_mapped_ms);
      rows << "}";
    }
    rows << "\n    ]}";
    report.add_raw_section("bench_snapshot", rows.str());
    obs::finalize_run(cli, report);
  }
  return 0;
}
