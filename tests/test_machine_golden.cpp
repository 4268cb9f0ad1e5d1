// Golden SimResults for the two-level machine.
//
// Every cell of a fixed grid (algorithm × M × schedule × replacement ×
// write-back, plus the recomputation runner) is pinned exactly: loads,
// stores, weighted I/O, computations, recomputations, the
// pebble.evictions / pebble.drops counter deltas, and fingerprints of the
// summary's compute order and I/O prefix.  A cell that throws pins the
// message of its CheckError instead.  The tightest M (max in-degree + 1)
// drives the victim search through the pinned working set.
//
// These values were captured before the kernel moved to flat arrays, and
// the Strassen n = 32 Belady cells with the indexed-heap Belady kernel
// that the next-use bitset replaced; any change to eviction order or
// tie-breaking shows up here as a diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm::pebble {
namespace {

// Thrashing recomputation cells stop here instead of at the default
// 2^26, which keeps the whole grid to a few seconds.
constexpr std::int64_t kRematLimit = 1 << 18;

struct Instance {
  std::string name;
  bilinear::BilinearAlgorithm alg;
  std::size_t n;
};

std::vector<Instance> instances() {
  const std::string laderman =
      std::string("file:") + FMM_SOURCE_ROOT + "/schemes/laderman_333_23.json";
  auto& registry = bilinear::SchemeRegistry::instance();
  return {{"strassen", bilinear::strassen(), 4},
          {"strassen", bilinear::strassen(), 8},
          {"strassen", bilinear::strassen(), 16},
          {"winograd", bilinear::winograd(), 8},
          {"laderman", registry.resolve(laderman), 9}};
}

std::int64_t tightest_cache(const cdag::Cdag& cdag) {
  std::size_t max_in = 0;
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    max_in = std::max(max_in, cdag.graph.in_degree(v));
  }
  return static_cast<std::int64_t>(max_in) + 1;
}

template <typename T>
std::string fingerprint_of(const std::vector<T>& values) {
  std::ostringstream text;
  for (const T value : values) {
    text << value << ',';
  }
  return fingerprint64(text.str());
}

std::int64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Runs one cell and renders everything it pins as one line.
template <typename Run>
std::string render(Run&& run) {
  const std::int64_t evictions = counter("pebble.evictions");
  const std::int64_t drops = counter("pebble.drops");
  try {
    const SimResult r = run();
    std::ostringstream out;
    out << "L=" << r.loads << " S=" << r.stores << " W=" << r.weighted_io
        << " C=" << r.computations << " R=" << r.recomputations
        << " E=" << counter("pebble.evictions") - evictions
        << " D=" << counter("pebble.drops") - drops
        << " order=" << fingerprint_of(r.summary.compute_order)
        << " io=" << fingerprint_of(r.summary.io_before)
        << " total=" << r.summary.total_io;
    return out.str();
  } catch (const CheckError& e) {
    // Pin the message (a bare check's condition), never its file:line.
    const std::string what = e.what();
    const std::string::size_type dash = what.find(" — ");
    return "error: " + (dash == std::string::npos
                            ? what.substr(0, what.find(" at "))
                            : what.substr(dash + std::string(" — ").size()));
  }
}

std::vector<graph::VertexId> schedule_of(const cdag::Cdag& cdag,
                                         const std::string& kind) {
  if (kind == "bfs") {
    return bfs_schedule(cdag);
  }
  if (kind == "random") {
    Rng rng(7);
    return random_topological_schedule(cdag, rng);
  }
  return dfs_schedule(cdag);
}

struct Mode {
  const char* name;
  ReplacementPolicy replacement;
  WritebackPolicy writeback;
  bool remat;
};

const Mode kModes[] = {
    {"lru/live", ReplacementPolicy::kLru, WritebackPolicy::kWritebackLive,
     false},
    {"lru/droprecomp", ReplacementPolicy::kLru,
     WritebackPolicy::kDropRecomputable, false},
    {"opt/live", ReplacementPolicy::kBelady, WritebackPolicy::kWritebackLive,
     false},
    {"opt/droprecomp", ReplacementPolicy::kBelady,
     WritebackPolicy::kDropRecomputable, false},
    {"remat/dropall", ReplacementPolicy::kLru,
     WritebackPolicy::kDropIntermediates, true},
    {"remat/droprecomp", ReplacementPolicy::kLru,
     WritebackPolicy::kDropRecomputable, true},
};

/// Runs one cell and renders it.
std::string run_cell(const cdag::Cdag& cdag,
                     const std::vector<graph::VertexId>& schedule,
                     std::int64_t m, const Mode& mode) {
  SimOptions options;
  options.cache_size = m;
  options.replacement = mode.replacement;
  options.writeback = mode.writeback;
  return render([&] {
    return mode.remat ? simulate_with_recomputation(cdag, schedule, options,
                                                    kRematLimit)
                      : simulate(cdag, schedule, options);
  });
}

/// The grid's values of M for `cdag`.  Laderman's tightest M is 8, so
/// its row set has three M values.
std::set<std::int64_t> grid_sizes(const cdag::Cdag& cdag) {
  return {tightest_cache(cdag), 8, 64, 1024};
}

/// Every cell of the grid, keyed "alg/n/M/schedule/mode".
std::map<std::string, std::string> run_grid() {
  std::map<std::string, std::string> cells;
  for (const Instance& instance : instances()) {
    const cdag::Cdag cdag = cdag::build_cdag(instance.alg, instance.n);
    for (const std::int64_t m : grid_sizes(cdag)) {
      for (const char* kind : {"dfs", "bfs", "random"}) {
        const auto schedule = schedule_of(cdag, kind);
        for (const Mode& mode : kModes) {
          cells[instance.name + "/" + std::to_string(instance.n) + "/" +
                std::to_string(m) + "/" + kind + "/" + mode.name] =
              run_cell(cdag, schedule, m, mode);
        }
      }
    }
  }
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), 8);
  SimOptions options;
  options.cache_size = 16;
  options.write_cost = 5;
  cells["strassen/8/16/dfs/lru/live/w5"] =
      render([&] { return simulate(cdag, dfs_schedule(cdag), options); });
  return cells;
}

/// The Belady cells at Strassen n = 32, keyed like run_grid's.  Its
/// reference strings (334,515 references) are the grid's first to need
/// a fourth level in the kernel's next-use bitset.
std::map<std::string, std::string> run_belady_n32_grid() {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), 32);
  std::map<std::string, std::string> cells;
  for (const char* kind : {"dfs", "bfs", "random"}) {
    const auto schedule = schedule_of(cdag, kind);
    for (const std::int64_t m : {64, 4096}) {
      for (const Mode& mode : kModes) {
        if (mode.replacement == ReplacementPolicy::kBelady) {
          cells["strassen/32/" + std::to_string(m) + "/" + kind + "/" +
                mode.name] = run_cell(cdag, schedule, m, mode);
        }
      }
    }
  }
  return cells;
}

// clang-format off
const std::map<std::string, std::string> kGolden = {
    {"laderman/9/1024/bfs/lru/droprecomp", "error: operand 415 of vertex 993 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/1024/bfs/lru/live", "L=1581 S=1500 W=3081 C=2289 R=0 E=2846 D=384 order=fc8286d26d9add1c io=5e6afc9eed8bcba6 total=3081"},
    {"laderman/9/1024/bfs/opt/droprecomp", "L=207 S=126 W=333 C=2289 R=0 E=1472 D=1145 order=fc8286d26d9add1c io=f1d04f8d286efcf6 total=333"},
    {"laderman/9/1024/bfs/opt/live", "L=207 S=126 W=333 C=2289 R=0 E=1472 D=1145 order=fc8286d26d9add1c io=f1d04f8d286efcf6 total=333"},
    {"laderman/9/1024/bfs/remat/dropall", "L=727 S=81 W=808 C=8726 R=6437 E=8429 D=7715 order=530cdf3f4c4c8073 io=a095166894db0b08 total=808"},
    {"laderman/9/1024/bfs/remat/droprecomp", "L=1478 S=1343 W=2821 C=2495 R=206 E=2949 D=747 order=77678b7d95b7cc8e io=e06e926177407c94 total=2821"},
    {"laderman/9/1024/dfs/lru/droprecomp", "error: operand 216 of vertex 1044 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/1024/dfs/lru/live", "L=559 S=478 W=1037 C=2289 R=0 E=1824 D=1129 order=007de77e54c232f6 io=7623e62d6b812059 total=1037"},
    {"laderman/9/1024/dfs/opt/droprecomp", "L=162 S=81 W=243 C=2289 R=0 E=1427 D=1347 order=007de77e54c232f6 io=4f586f7ed9b26d29 total=243"},
    {"laderman/9/1024/dfs/opt/live", "L=162 S=81 W=243 C=2289 R=0 E=1427 D=1347 order=007de77e54c232f6 io=4f586f7ed9b26d29 total=243"},
    {"laderman/9/1024/dfs/remat/dropall", "L=494 S=81 W=575 C=5249 R=2960 E=4719 D=4297 order=e9aca4f2e8ba5e5d io=742efca9bd33a2a8 total=575"},
    {"laderman/9/1024/dfs/remat/droprecomp", "L=431 S=207 W=638 C=2577 R=288 E=1984 D=1679 order=d39c503011001f9f io=d3bbc9ef220957c8 total=638"},
    {"laderman/9/1024/random/lru/droprecomp", "error: operand 381 of vertex 687 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/1024/random/lru/live", "L=1159 S=1018 W=2177 C=2289 R=0 E=2424 D=771 order=3b5d1d3911733240 io=a8e407020ce04ac2 total=2177"},
    {"laderman/9/1024/random/opt/droprecomp", "L=162 S=81 W=243 C=2289 R=0 E=1427 D=1305 order=3b5d1d3911733240 io=fb75fad0e9efff7c total=243"},
    {"laderman/9/1024/random/opt/live", "L=162 S=81 W=243 C=2289 R=0 E=1427 D=1305 order=3b5d1d3911733240 io=fb75fad0e9efff7c total=243"},
    {"laderman/9/1024/random/remat/dropall", "L=805 S=81 W=886 C=9402 R=7113 E=9183 D=8455 order=8f0ebdec86afbcef io=09425f3356d595bd total=886"},
    {"laderman/9/1024/random/remat/droprecomp", "L=1183 S=919 W=2102 C=2522 R=233 E=2681 D=1120 order=b8306e9deac2ba66 io=4f8838cd2fe58d4b total=2102"},
    {"laderman/9/64/bfs/lru/droprecomp", "error: operand 207 of vertex 971 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/64/bfs/lru/live", "L=2987 S=2289 W=5276 C=2289 R=0 E=5212 D=0 order=fc8286d26d9add1c io=af80d09e6293bc9f total=5276"},
    {"laderman/9/64/bfs/opt/droprecomp", "error: operand 326 of vertex 1993 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/64/bfs/opt/live", "L=2259 S=2158 W=4417 C=2289 R=0 E=4484 D=129 order=fc8286d26d9add1c io=f19b0377a7076931 total=4417"},
    {"laderman/9/64/bfs/remat/dropall", "error: operands of vertex 2376 keep thrashing: M too small"},
    {"laderman/9/64/bfs/remat/droprecomp", "L=3128 S=1875 W=5003 C=3203 R=914 E=6267 D=1328 order=58528bca322f16ba io=e628412321392e4e total=5003"},
    {"laderman/9/64/dfs/lru/droprecomp", "error: operand 162 of vertex 576 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/64/dfs/lru/live", "L=1889 S=1369 W=3258 C=2289 R=0 E=4114 D=920 order=007de77e54c232f6 io=0aa92db64e8837e7 total=3258"},
    {"laderman/9/64/dfs/opt/droprecomp", "error: operand 162 of vertex 576 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/64/dfs/opt/live", "L=815 S=668 W=1483 C=2289 R=0 E=3040 D=1620 order=007de77e54c232f6 io=a1cbb86d4a1a6212 total=1483"},
    {"laderman/9/64/dfs/remat/dropall", "error: operands of vertex 2371 keep thrashing: M too small"},
    {"laderman/9/64/dfs/remat/droprecomp", "L=2420 S=982 W=3402 C=2703 R=414 E=5059 D=1721 order=698120cd7b3e97b9 io=f1ec6a742410d091 total=3402"},
    {"laderman/9/64/random/lru/droprecomp", "error: operand 352 of vertex 2232 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/64/random/lru/live", "L=5269 S=2232 W=7501 C=2289 R=0 E=7494 D=52 order=3b5d1d3911733240 io=08e495fbee7dda33 total=7501"},
    {"laderman/9/64/random/opt/droprecomp", "error: operand 573 of vertex 2328 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/64/random/opt/live", "L=3356 S=1951 W=5307 C=2289 R=0 E=5581 D=321 order=3b5d1d3911733240 io=5d609eb2fd45a554 total=5307"},
    {"laderman/9/64/random/remat/dropall", "error: operands of vertex 2442 keep thrashing: M too small"},
    {"laderman/9/64/random/remat/droprecomp", "L=7212 S=1833 W=9045 C=4448 R=2159 E=11596 D=2610 order=373fdbf7e32ee242 io=db32d5d3b3c4cfbd total=9045"},
    {"laderman/9/8/bfs/lru/droprecomp", "error: operand 207 of vertex 971 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/8/bfs/lru/live", "L=4040 S=2289 W=6329 C=2289 R=0 E=6321 D=0 order=fc8286d26d9add1c io=5ece67a514a6edae total=6329"},
    {"laderman/9/8/bfs/opt/droprecomp", "error: operand 207 of vertex 971 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/8/bfs/opt/live", "L=3655 S=2284 W=5939 C=2289 R=0 E=5936 D=5 order=fc8286d26d9add1c io=039e5b78a5380ff3 total=5939"},
    {"laderman/9/8/bfs/remat/dropall", "error: operands of vertex 975 keep thrashing: M too small"},
    {"laderman/9/8/bfs/remat/droprecomp", "error: operands of vertex 975 keep thrashing: M too small"},
    {"laderman/9/8/dfs/lru/droprecomp", "error: operand 162 of vertex 576 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/8/dfs/lru/live", "L=4252 S=2289 W=6541 C=2289 R=0 E=6533 D=0 order=007de77e54c232f6 io=77bee3b466f521aa total=6541"},
    {"laderman/9/8/dfs/opt/droprecomp", "error: operand 162 of vertex 576 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/8/dfs/opt/live", "L=3362 S=2128 W=5490 C=2289 R=0 E=5643 D=161 order=007de77e54c232f6 io=4db92b5784bb4620 total=5490"},
    {"laderman/9/8/dfs/remat/dropall", "error: operands of vertex 576 keep thrashing: M too small"},
    {"laderman/9/8/dfs/remat/droprecomp", "error: operands of vertex 576 keep thrashing: M too small"},
    {"laderman/9/8/random/lru/droprecomp", "error: operand 573 of vertex 2329 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/8/random/lru/live", "L=5874 S=2282 W=8156 C=2289 R=0 E=8155 D=7 order=3b5d1d3911733240 io=6489981c887cd95e total=8156"},
    {"laderman/9/8/random/opt/droprecomp", "error: operand 352 of vertex 2232 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"laderman/9/8/random/opt/live", "L=5633 S=2264 W=7897 C=2289 R=0 E=7914 D=25 order=3b5d1d3911733240 io=1b9cd40bdfb62d98 total=7897"},
    {"laderman/9/8/random/remat/dropall", "error: operands of vertex 1472 keep thrashing: M too small"},
    {"laderman/9/8/random/remat/droprecomp", "error: operands of vertex 1472 keep thrashing: M too small"},
    {"strassen/16/1024/bfs/lru/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/1024/bfs/lru/live", "L=15258 S=14951 W=30209 C=15271 R=0 E=29505 D=0 order=63899204a7946027 io=4c0b8eed6160ff44 total=30209"},
    {"strassen/16/1024/bfs/opt/droprecomp", "L=8481 S=8225 W=16706 C=15271 R=0 E=22728 D=6095 order=63899204a7946027 io=4273132a2abe98e1 total=16706"},
    {"strassen/16/1024/bfs/opt/live", "L=8481 S=8225 W=16706 C=15271 R=0 E=22728 D=6095 order=63899204a7946027 io=4273132a2abe98e1 total=16706"},
    {"strassen/16/1024/bfs/remat/dropall", "error: recomputation thrash: exceeded 262144 computations; increase M or the limit"},
    {"strassen/16/1024/bfs/remat/droprecomp", "L=14895 S=14055 W=28950 C=16167 R=896 E=30038 D=1792 order=21e8f6828e9026c3 io=ad2ace8427d5c05c total=28950"},
    {"strassen/16/1024/dfs/lru/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/1024/dfs/lru/live", "L=2848 S=2592 W=5440 C=15271 R=0 E=17095 D=12343 order=3eb18db0f58aff97 io=ce216ecbfe3ded22 total=5440"},
    {"strassen/16/1024/dfs/opt/droprecomp", "error: operand 927 of vertex 13589 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/1024/dfs/opt/live", "L=513 S=257 W=770 C=15271 R=0 E=14760 D=13992 order=3eb18db0f58aff97 io=3ce7aa0d5d67632e total=770"},
    {"strassen/16/1024/dfs/remat/dropall", "error: operands of vertex 15527 keep thrashing: M too small"},
    {"strassen/16/1024/dfs/remat/droprecomp", "L=3438 S=1838 W=5276 C=16135 R=864 E=18549 D=13961 order=84e09da9c046f8f9 io=29a6dceb68ef3164 total=5276"},
    {"strassen/16/1024/random/lru/droprecomp", "error: operand 743 of vertex 7462 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/1024/random/lru/live", "L=21339 S=13533 W=34872 C=15271 R=0 E=35586 D=1419 order=32967eb3221d7ee5 io=3d3d8856a2693ca6 total=34872"},
    {"strassen/16/1024/random/opt/droprecomp", "error: operand 1295 of vertex 11692 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/1024/random/opt/live", "L=8420 S=7203 W=15623 C=15271 R=0 E=22667 D=7263 order=32967eb3221d7ee5 io=a5835cfe235a393e total=15623"},
    {"strassen/16/1024/random/remat/dropall", "error: recomputation thrash: exceeded 262144 computations; increase M or the limit"},
    {"strassen/16/1024/random/remat/droprecomp", "L=21989 S=12754 W=34743 C=16799 R=1528 E=37764 D=3726 order=dec6bb33d9dda38f io=00e6aa70a9ab5596 total=34743"},
    {"strassen/16/5/bfs/lru/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/5/bfs/lru/live", "L=25218 S=15271 W=40489 C=15271 R=0 E=40484 D=0 order=63899204a7946027 io=59b8c79e92403055 total=40489"},
    {"strassen/16/5/bfs/opt/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/5/bfs/opt/live", "L=23563 S=15269 W=38832 C=15271 R=0 E=38829 D=2 order=63899204a7946027 io=0db954ad60492f5a total=38832"},
    {"strassen/16/5/bfs/remat/dropall", "error: operands of vertex 6670 keep thrashing: M too small"},
    {"strassen/16/5/bfs/remat/droprecomp", "L=26562 S=14375 W=40937 C=17287 R=2016 E=43844 D=2912 order=7ffd10e9f359b98d io=f0a8c21e298f24d9 total=40937"},
    {"strassen/16/5/dfs/lru/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/5/dfs/lru/live", "L=25740 S=14928 W=40668 C=15271 R=0 E=41006 D=343 order=3eb18db0f58aff97 io=1f5af7dcf41edfe4 total=40668"},
    {"strassen/16/5/dfs/opt/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/5/dfs/opt/live", "L=20713 S=13899 W=34612 C=15271 R=0 E=35979 D=1372 order=3eb18db0f58aff97 io=52a131b028b3165a total=34612"},
    {"strassen/16/5/dfs/remat/dropall", "error: operands of vertex 1632 keep thrashing: M too small"},
    {"strassen/16/5/dfs/remat/droprecomp", "L=27660 S=14032 W=41692 C=17959 R=2688 E=45614 D=3927 order=082ed150bf83e96b io=cb6b35e20ddfd800 total=41692"},
    {"strassen/16/5/random/lru/droprecomp", "error: operand 1179 of vertex 7602 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/5/random/lru/live", "L=30475 S=15264 W=45739 C=15271 R=0 E=45741 D=7 order=32967eb3221d7ee5 io=63fcb387a4184301 total=45739"},
    {"strassen/16/5/random/opt/droprecomp", "error: operand 1262 of vertex 9658 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/5/random/opt/live", "L=29893 S=15227 W=45120 C=15271 R=0 E=45159 D=44 order=32967eb3221d7ee5 io=1721dd0b26375557 total=45120"},
    {"strassen/16/5/random/remat/dropall", "error: operands of vertex 2167 keep thrashing: M too small"},
    {"strassen/16/5/random/remat/droprecomp", "L=32389 S=14368 W=46757 C=17954 R=2683 E=50338 D=3586 order=61fd457ca92d9023 io=150c11b971272c3f total=46757"},
    {"strassen/16/64/bfs/lru/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/64/bfs/lru/live", "L=20850 S=15271 W=36121 C=15271 R=0 E=36057 D=0 order=63899204a7946027 io=e674ee1d3d47d678 total=36121"},
    {"strassen/16/64/bfs/opt/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/64/bfs/opt/live", "L=17355 S=15133 W=32488 C=15271 R=0 E=32562 D=138 order=63899204a7946027 io=800fd6951d279242 total=32488"},
    {"strassen/16/64/bfs/remat/dropall", "error: operands of vertex 4142 keep thrashing: M too small"},
    {"strassen/16/64/bfs/remat/droprecomp", "L=21110 S=14375 W=35485 C=16871 R=1600 E=37917 D=2496 order=9da7b4c29119c39d io=32bebaa1337a41a6 total=35485"},
    {"strassen/16/64/dfs/lru/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/64/dfs/lru/live", "L=11117 S=7627 W=18744 C=15271 R=0 E=26324 D=7644 order=3eb18db0f58aff97 io=e41172061e3737f7 total=18744"},
    {"strassen/16/64/dfs/opt/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/64/dfs/opt/live", "L=4977 S=3859 W=8836 C=15271 R=0 E=20184 D=11412 order=3eb18db0f58aff97 io=01c3bd6ddac6b4cc total=8836"},
    {"strassen/16/64/dfs/remat/dropall", "error: operands of vertex 1863 keep thrashing: M too small"},
    {"strassen/16/64/dfs/remat/droprecomp", "L=13359 S=6731 W=20090 C=17936 R=2665 E=31231 D=11205 order=35c5f281e6b91f2d io=12c901e3493cac3c total=20090"},
    {"strassen/16/64/random/lru/droprecomp", "error: operand 1262 of vertex 9658 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/64/random/lru/live", "L=29762 S=15189 W=44951 C=15271 R=0 E=44969 D=76 order=32967eb3221d7ee5 io=cb4f503417d181b7 total=44951"},
    {"strassen/16/64/random/opt/droprecomp", "error: operand 1322 of vertex 11707 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/64/random/opt/live", "L=23748 S=14059 W=37807 C=15271 R=0 E=38955 D=1201 order=32967eb3221d7ee5 io=154675afdd021657 total=37807"},
    {"strassen/16/64/random/remat/dropall", "error: operands of vertex 13438 keep thrashing: M too small"},
    {"strassen/16/64/random/remat/droprecomp", "L=31507 S=14293 W=45800 C=17880 R=2609 E=49323 D=3581 order=744b6c57d2e79915 io=a6d1079bffeb457c total=45800"},
    {"strassen/16/8/bfs/lru/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/8/bfs/lru/live", "L=24659 S=15271 W=39930 C=15271 R=0 E=39922 D=0 order=63899204a7946027 io=8957e9e28ee18530 total=39930"},
    {"strassen/16/8/bfs/opt/droprecomp", "error: operand 640 of vertex 5474 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/8/bfs/opt/live", "L=22089 S=15266 W=37355 C=15271 R=0 E=37352 D=5 order=63899204a7946027 io=adf4a88ad7955fa1 total=37355"},
    {"strassen/16/8/bfs/remat/dropall", "error: operands of vertex 6814 keep thrashing: M too small"},
    {"strassen/16/8/bfs/remat/droprecomp", "L=25643 S=14375 W=40018 C=17287 R=2016 E=42922 D=2912 order=7ffd10e9f359b98d io=50851734d7d8bb94 total=40018"},
    {"strassen/16/8/dfs/lru/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/8/dfs/lru/live", "L=23339 S=14928 W=38267 C=15271 R=0 E=38602 D=343 order=3eb18db0f58aff97 io=a3b3db075b70b21b total=38267"},
    {"strassen/16/8/dfs/opt/droprecomp", "error: operand 512 of vertex 1408 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/8/dfs/opt/live", "L=16618 S=11278 W=27896 C=15271 R=0 E=31881 D=3993 order=3eb18db0f58aff97 io=f9b6a29d2697c0a7 total=27896"},
    {"strassen/16/8/dfs/remat/dropall", "error: operands of vertex 1688 keep thrashing: M too small"},
    {"strassen/16/8/dfs/remat/droprecomp", "L=25259 S=14032 W=39291 C=17959 R=2688 E=43210 D=3927 order=082ed150bf83e96b io=d0699d764dfcac35 total=39291"},
    {"strassen/16/8/random/lru/droprecomp", "error: operand 1179 of vertex 7602 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/8/random/lru/live", "L=30438 S=15262 W=45700 C=15271 R=0 E=45701 D=9 order=32967eb3221d7ee5 io=45363c6c76a9958b total=45700"},
    {"strassen/16/8/random/opt/droprecomp", "error: operand 1262 of vertex 9658 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/16/8/random/opt/live", "L=28937 S=15070 W=44007 C=15271 R=0 E=44200 D=200 order=32967eb3221d7ee5 io=cc183986d1806a3b total=44007"},
    {"strassen/16/8/random/remat/dropall", "error: operands of vertex 2756 keep thrashing: M too small"},
    {"strassen/16/8/random/remat/droprecomp", "L=32346 S=14366 W=46712 C=17951 R=2680 E=50289 D=3585 order=8864057ebda9051e io=8ec42c6f5dc8c84e total=46712"},
    {"strassen/4/1024/bfs/lru/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=a7deb94511f6e70f io=296f17c0538313f8 total=48"},
    {"strassen/4/1024/bfs/lru/live", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=a7deb94511f6e70f io=296f17c0538313f8 total=48"},
    {"strassen/4/1024/bfs/opt/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=a7deb94511f6e70f io=296f17c0538313f8 total=48"},
    {"strassen/4/1024/bfs/opt/live", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=a7deb94511f6e70f io=296f17c0538313f8 total=48"},
    {"strassen/4/1024/bfs/remat/dropall", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=a7deb94511f6e70f io=296f17c0538313f8 total=48"},
    {"strassen/4/1024/bfs/remat/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=a7deb94511f6e70f io=296f17c0538313f8 total=48"},
    {"strassen/4/1024/dfs/lru/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=8fe23a690ed93c2d io=a260f304f64f19b4 total=48"},
    {"strassen/4/1024/dfs/lru/live", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=8fe23a690ed93c2d io=a260f304f64f19b4 total=48"},
    {"strassen/4/1024/dfs/opt/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=8fe23a690ed93c2d io=a260f304f64f19b4 total=48"},
    {"strassen/4/1024/dfs/opt/live", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=8fe23a690ed93c2d io=a260f304f64f19b4 total=48"},
    {"strassen/4/1024/dfs/remat/dropall", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=8fe23a690ed93c2d io=a260f304f64f19b4 total=48"},
    {"strassen/4/1024/dfs/remat/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=8fe23a690ed93c2d io=a260f304f64f19b4 total=48"},
    {"strassen/4/1024/random/lru/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=b294de6a4c995ab1 io=bd618dd45de2ea83 total=48"},
    {"strassen/4/1024/random/lru/live", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=b294de6a4c995ab1 io=bd618dd45de2ea83 total=48"},
    {"strassen/4/1024/random/opt/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=b294de6a4c995ab1 io=bd618dd45de2ea83 total=48"},
    {"strassen/4/1024/random/opt/live", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=b294de6a4c995ab1 io=bd618dd45de2ea83 total=48"},
    {"strassen/4/1024/random/remat/dropall", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=b294de6a4c995ab1 io=bd618dd45de2ea83 total=48"},
    {"strassen/4/1024/random/remat/droprecomp", "L=32 S=16 W=48 C=247 R=0 E=0 D=0 order=b294de6a4c995ab1 io=bd618dd45de2ea83 total=48"},
    {"strassen/4/5/bfs/lru/droprecomp", "error: operand 40 of vertex 140 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/5/bfs/lru/live", "L=386 S=247 W=633 C=247 R=0 E=628 D=0 order=a7deb94511f6e70f io=f5a12754f2e5ce38 total=633"},
    {"strassen/4/5/bfs/opt/droprecomp", "error: operand 40 of vertex 140 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/5/bfs/opt/live", "L=337 S=245 W=582 C=247 R=0 E=579 D=2 order=a7deb94511f6e70f io=2475a1d5ee960814 total=582"},
    {"strassen/4/5/bfs/remat/dropall", "error: operands of vertex 132 keep thrashing: M too small"},
    {"strassen/4/5/bfs/remat/droprecomp", "L=471 S=191 W=662 C=365 R=118 E=831 D=174 order=3fe02d71df7b458f io=0657d697d137c8c2 total=662"},
    {"strassen/4/5/dfs/lru/droprecomp", "error: operand 32 of vertex 88 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/5/dfs/lru/live", "L=396 S=240 W=636 C=247 R=0 E=638 D=7 order=8fe23a690ed93c2d io=c47895a6fec05876 total=636"},
    {"strassen/4/5/dfs/opt/droprecomp", "error: operand 32 of vertex 88 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/5/dfs/opt/live", "L=297 S=219 W=516 C=247 R=0 E=539 D=28 order=8fe23a690ed93c2d io=a0b9f4e4da5eeb3d total=516"},
    {"strassen/4/5/dfs/remat/dropall", "error: operands of vertex 102 keep thrashing: M too small"},
    {"strassen/4/5/dfs/remat/droprecomp", "L=565 S=184 W=749 C=397 R=150 E=957 D=213 order=616a3213e04aea0f io=c2e15e30195346a4 total=749"},
    {"strassen/4/5/random/lru/droprecomp", "error: operand 68 of vertex 146 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/5/random/lru/live", "L=463 S=242 W=705 C=247 R=0 E=705 D=5 order=b294de6a4c995ab1 io=a1a8273fa05c4b8f total=705"},
    {"strassen/4/5/random/opt/droprecomp", "error: operand 68 of vertex 146 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/5/random/opt/live", "L=405 S=235 W=640 C=247 R=0 E=647 D=12 order=b294de6a4c995ab1 io=5e3e01552addedaa total=640"},
    {"strassen/4/5/random/remat/dropall", "error: operands of vertex 186 keep thrashing: M too small"},
    {"strassen/4/5/random/remat/droprecomp", "L=578 S=189 W=767 C=406 R=159 E=979 D=217 order=1b1d1db35befd222 io=ab0d25dbdbe25d52 total=767"},
    {"strassen/4/64/bfs/lru/droprecomp", "error: operand 40 of vertex 140 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/64/bfs/lru/live", "L=243 S=227 W=470 C=247 R=0 E=426 D=0 order=a7deb94511f6e70f io=2e46c9b2c29a7dc3 total=470"},
    {"strassen/4/64/bfs/opt/droprecomp", "L=68 S=52 W=120 C=247 R=0 E=251 D=138 order=a7deb94511f6e70f io=6cd867784307c0fc total=120"},
    {"strassen/4/64/bfs/opt/live", "L=68 S=52 W=120 C=247 R=0 E=251 D=138 order=a7deb94511f6e70f io=6cd867784307c0fc total=120"},
    {"strassen/4/64/bfs/remat/dropall", "error: operands of vertex 278 keep thrashing: M too small"},
    {"strassen/4/64/bfs/remat/droprecomp", "L=220 S=171 W=391 C=303 R=56 E=459 D=112 order=9f2c24f3dc5fb499 io=63afde4a3b14c8e0 total=391"},
    {"strassen/4/64/dfs/lru/droprecomp", "error: operand 32 of vertex 88 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/64/dfs/lru/live", "L=108 S=92 W=200 C=247 R=0 E=291 D=131 order=8fe23a690ed93c2d io=f8cc3063a7b5cff7 total=200"},
    {"strassen/4/64/dfs/opt/droprecomp", "error: operand 57 of vertex 242 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/64/dfs/opt/live", "L=33 S=17 W=50 C=247 R=0 E=216 D=168 order=8fe23a690ed93c2d io=7796be63ca6a7c30 total=50"},
    {"strassen/4/64/dfs/remat/dropall", "error: operands of vertex 263 keep thrashing: M too small"},
    {"strassen/4/64/dfs/remat/droprecomp", "L=129 S=40 W=169 C=301 R=54 E=366 D=237 order=f01fff41dc14a7aa io=a7066bb47b04f601 total=169"},
    {"strassen/4/64/random/lru/droprecomp", "error: operand 60 of vertex 100 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/64/random/lru/live", "L=226 S=172 W=398 C=247 R=0 E=409 D=52 order=b294de6a4c995ab1 io=8c3cdd32e1598c00 total=398"},
    {"strassen/4/64/random/opt/droprecomp", "error: operand 65 of vertex 122 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/64/random/opt/live", "L=60 S=44 W=104 C=247 R=0 E=243 D=147 order=b294de6a4c995ab1 io=8160611e511e0d0b total=104"},
    {"strassen/4/64/random/remat/dropall", "error: operands of vertex 266 keep thrashing: M too small"},
    {"strassen/4/64/random/remat/droprecomp", "L=231 S=136 W=367 C=310 R=63 E=477 D=151 order=f78311eeaf634037 io=70088fe584cdec65 total=367"},
    {"strassen/4/8/bfs/lru/droprecomp", "error: operand 40 of vertex 140 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/8/bfs/lru/live", "L=365 S=247 W=612 C=247 R=0 E=604 D=0 order=a7deb94511f6e70f io=dbde253aa175d02d total=612"},
    {"strassen/4/8/bfs/opt/droprecomp", "error: operand 40 of vertex 140 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/8/bfs/opt/live", "L=288 S=239 W=527 C=247 R=0 E=527 D=7 order=a7deb94511f6e70f io=74dfd5db9f9f14ec total=527"},
    {"strassen/4/8/bfs/remat/dropall", "error: operands of vertex 137 keep thrashing: M too small"},
    {"strassen/4/8/bfs/remat/droprecomp", "L=407 S=191 W=598 C=358 R=111 E=757 D=167 order=affb17162e012dc3 io=194ae1ff0faf4016 total=598"},
    {"strassen/4/8/dfs/lru/droprecomp", "error: operand 32 of vertex 88 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/8/dfs/lru/live", "L=347 S=240 W=587 C=247 R=0 E=586 D=7 order=8fe23a690ed93c2d io=bbebcc28bf38835f total=587"},
    {"strassen/4/8/dfs/opt/droprecomp", "error: operand 32 of vertex 88 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/8/dfs/opt/live", "L=218 S=166 W=384 C=247 R=0 E=457 D=81 order=8fe23a690ed93c2d io=ab28c418736cb294 total=384"},
    {"strassen/4/8/dfs/remat/dropall", "error: operands of vertex 109 keep thrashing: M too small"},
    {"strassen/4/8/dfs/remat/droprecomp", "L=481 S=184 W=665 C=352 R=105 E=825 D=168 order=83d61e9502e8314f io=e70f0d75c6f3e2b7 total=665"},
    {"strassen/4/8/random/lru/droprecomp", "error: operand 68 of vertex 146 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/8/random/lru/live", "L=446 S=242 W=688 C=247 R=0 E=685 D=4 order=b294de6a4c995ab1 io=b5efdad782be82bf total=688"},
    {"strassen/4/8/random/opt/droprecomp", "error: operand 72 of vertex 171 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/4/8/random/opt/live", "L=330 S=212 W=542 C=247 R=0 E=569 D=34 order=b294de6a4c995ab1 io=c53fe7bdb180b9d6 total=542"},
    {"strassen/4/8/random/remat/dropall", "error: operands of vertex 186 keep thrashing: M too small"},
    {"strassen/4/8/random/remat/droprecomp", "L=538 S=187 W=725 C=400 R=153 E=930 D=212 order=4242360052a06ff2 io=8b955311257addf4 total=725"},
    {"strassen/8/1024/bfs/lru/droprecomp", "L=360 S=296 W=656 C=2017 R=0 E=1353 D=920 order=f5338d8aaf160482 io=c02e74a46b3e550b total=656"},
    {"strassen/8/1024/bfs/lru/live", "L=360 S=296 W=656 C=2017 R=0 E=1353 D=920 order=f5338d8aaf160482 io=c02e74a46b3e550b total=656"},
    {"strassen/8/1024/bfs/opt/droprecomp", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=f5338d8aaf160482 io=5a55558c01856dd3 total=192"},
    {"strassen/8/1024/bfs/opt/live", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=f5338d8aaf160482 io=5a55558c01856dd3 total=192"},
    {"strassen/8/1024/bfs/remat/dropall", "L=706 S=64 W=770 C=9620 R=7603 E=9302 D=8639 order=61f1507205a38c37 io=9b930ed02a5815ac total=770"},
    {"strassen/8/1024/bfs/remat/droprecomp", "L=360 S=296 W=656 C=2017 R=0 E=1353 D=920 order=f5338d8aaf160482 io=c02e74a46b3e550b total=656"},
    {"strassen/8/1024/dfs/lru/droprecomp", "error: operand 176 of vertex 1093 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/1024/dfs/lru/live", "L=288 S=224 W=512 C=2017 R=0 E=1281 D=977 order=2d48ae1a8361ebf2 io=060a54d6ca477ba3 total=512"},
    {"strassen/8/1024/dfs/opt/droprecomp", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=2d48ae1a8361ebf2 io=9c02445b0e645cd8 total=192"},
    {"strassen/8/1024/dfs/opt/live", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=2d48ae1a8361ebf2 io=9c02445b0e645cd8 total=192"},
    {"strassen/8/1024/dfs/remat/dropall", "L=301 S=64 W=365 C=4365 R=2348 E=3642 D=3397 order=622e060d446a2aa0 io=8dde43602cbe2147 total=365"},
    {"strassen/8/1024/dfs/remat/droprecomp", "L=268 S=112 W=380 C=2141 R=124 E=1385 D=1245 order=da68c6491e0aa748 io=4e58e4ed5abba715 total=380"},
    {"strassen/8/1024/random/lru/droprecomp", "error: operand 344 of vertex 1874 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/1024/random/lru/live", "L=543 S=472 W=1015 C=2017 R=0 E=1536 D=824 order=fa4f24d3aa848f58 io=f04d72a7d6540fdb total=1015"},
    {"strassen/8/1024/random/opt/droprecomp", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=fa4f24d3aa848f58 io=0da2e3de36a2dbb9 total=192"},
    {"strassen/8/1024/random/opt/live", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=fa4f24d3aa848f58 io=0da2e3de36a2dbb9 total=192"},
    {"strassen/8/1024/random/remat/dropall", "L=850 S=64 W=914 C=10559 R=8542 E=10385 D=9563 order=c7085607dbd76c79 io=c558b3e0481f3fd7 total=914"},
    {"strassen/8/1024/random/remat/droprecomp", "L=571 S=456 W=1027 C=2047 R=30 E=1594 D=880 order=eb77ee69fd893767 io=c52d8a7a4ccef808 total=1027"},
    {"strassen/8/16/dfs/lru/live/w5", "L=2473 S=1611 W=10528 C=2017 R=0 E=4474 D=406 order=2d48ae1a8361ebf2 io=81035fa8bee042df total=4084"},
    {"strassen/8/5/bfs/lru/droprecomp", "error: operand 160 of vertex 854 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/5/bfs/lru/live", "L=3284 S=2017 W=5301 C=2017 R=0 E=5296 D=0 order=f5338d8aaf160482 io=b7445c72e42192ba total=5301"},
    {"strassen/8/5/bfs/opt/droprecomp", "error: operand 160 of vertex 854 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/5/bfs/opt/live", "L=2986 S=2015 W=5001 C=2017 R=0 E=4998 D=2 order=f5338d8aaf160482 io=cb81120f0858f61b total=5001"},
    {"strassen/8/5/bfs/remat/dropall", "error: operands of vertex 1006 keep thrashing: M too small"},
    {"strassen/8/5/bfs/remat/droprecomp", "L=3644 S=1793 W=5437 C=2521 R=504 E=6160 D=728 order=f2d01e4f914d209a io=c1e06d2e8edfc324 total=5437"},
    {"strassen/8/5/dfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/5/dfs/lru/live", "L=3348 S=1968 W=5316 C=2017 R=0 E=5360 D=49 order=2d48ae1a8361ebf2 io=a51ac3a7752431d3 total=5316"},
    {"strassen/8/5/dfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/5/dfs/opt/live", "L=2633 S=1821 W=4454 C=2017 R=0 E=4645 D=196 order=2d48ae1a8361ebf2 io=f6f6eeca11bbc9e4 total=4454"},
    {"strassen/8/5/dfs/remat/dropall", "error: operands of vertex 408 keep thrashing: M too small"},
    {"strassen/8/5/dfs/remat/droprecomp", "L=3828 S=1744 W=5572 C=2689 R=672 E=6512 D=945 order=0ff084e50acc1512 io=b27b70465303eeeb total=5572"},
    {"strassen/8/5/random/lru/droprecomp", "error: operand 250 of vertex 396 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/5/random/lru/live", "L=3985 S=2010 W=5995 C=2017 R=0 E=5997 D=7 order=fa4f24d3aa848f58 io=3a696ae5eded4bd8 total=5995"},
    {"strassen/8/5/random/opt/droprecomp", "error: operand 250 of vertex 396 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/5/random/opt/live", "L=3783 S=1987 W=5770 C=2017 R=0 E=5795 D=30 order=fa4f24d3aa848f58 io=d9bf39d71a84cb1a total=5770"},
    {"strassen/8/5/random/remat/dropall", "error: operands of vertex 685 keep thrashing: M too small"},
    {"strassen/8/5/random/remat/droprecomp", "L=4461 S=1787 W=6248 C=2680 R=663 E=7136 D=893 order=819bde9db3b8915c io=c7ac3e92c1e10c3e total=6248"},
    {"strassen/8/64/bfs/lru/droprecomp", "error: operand 160 of vertex 854 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/64/bfs/lru/live", "L=2490 S=2017 W=4507 C=2017 R=0 E=4443 D=0 order=f5338d8aaf160482 io=ae2a9346cd67ca0c total=4507"},
    {"strassen/8/64/bfs/opt/droprecomp", "error: operand 174 of vertex 848 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/64/bfs/opt/live", "L=1848 S=1763 W=3611 C=2017 R=0 E=3801 D=226 order=f5338d8aaf160482 io=60c378e744b33306 total=3611"},
    {"strassen/8/64/bfs/remat/dropall", "error: operands of vertex 845 keep thrashing: M too small"},
    {"strassen/8/64/bfs/remat/droprecomp", "L=2499 S=1793 W=4292 C=2366 R=349 E=4801 D=573 order=7f7a6e4d60a84460 io=0c5d33b79d2543d5 total=4292"},
    {"strassen/8/64/dfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/64/dfs/lru/live", "L=1259 S=925 W=2184 C=2017 R=0 E=3212 D=1092 order=2d48ae1a8361ebf2 io=f0359b3016cf3958 total=2184"},
    {"strassen/8/64/dfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/64/dfs/opt/live", "L=457 S=391 W=848 C=2017 R=0 E=2410 D=1626 order=2d48ae1a8361ebf2 io=ee0c6397df55855b total=848"},
    {"strassen/8/64/dfs/remat/dropall", "error: operands of vertex 583 keep thrashing: M too small"},
    {"strassen/8/64/dfs/remat/droprecomp", "L=1445 S=727 W=2172 C=2241 R=224 E=3622 D=1514 order=3c2e765304cefb60 io=030a6705eafb15e2 total=2172"},
    {"strassen/8/64/random/lru/droprecomp", "error: operand 140 of vertex 374 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/64/random/lru/live", "L=3516 S=1947 W=5463 C=2017 R=0 E=5469 D=65 order=fa4f24d3aa848f58 io=e9fb1b4ab77ebc7d total=5463"},
    {"strassen/8/64/random/opt/droprecomp", "error: operand 257 of vertex 628 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/64/random/opt/live", "L=2097 S=1497 W=3594 C=2017 R=0 E=4050 D=493 order=fa4f24d3aa848f58 io=dcde8c07206daec9 total=3594"},
    {"strassen/8/64/random/remat/dropall", "error: operands of vertex 1821 keep thrashing: M too small"},
    {"strassen/8/64/random/remat/droprecomp", "L=3814 S=1727 W=5541 C=2602 R=585 E=6352 D=870 order=208afa7e81172a44 io=422466d81f51493e total=5541"},
    {"strassen/8/8/bfs/lru/droprecomp", "error: operand 160 of vertex 854 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/8/bfs/lru/live", "L=3180 S=2017 W=5197 C=2017 R=0 E=5189 D=0 order=f5338d8aaf160482 io=dea66b17478feaa8 total=5197"},
    {"strassen/8/8/bfs/opt/droprecomp", "error: operand 160 of vertex 854 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/8/bfs/opt/live", "L=2726 S=2012 W=4738 C=2017 R=0 E=4735 D=5 order=f5338d8aaf160482 io=92f90e748bbc2692 total=4738"},
    {"strassen/8/8/bfs/remat/dropall", "error: operands of vertex 799 keep thrashing: M too small"},
    {"strassen/8/8/bfs/remat/droprecomp", "L=3454 S=1793 W=5247 C=2513 R=496 E=5959 D=720 order=ed8847100070bd72 io=f2a9a678e0305425 total=5247"},
    {"strassen/8/8/dfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/8/dfs/lru/live", "L=3005 S=1968 W=4973 C=2017 R=0 E=5014 D=49 order=2d48ae1a8361ebf2 io=1e9b854064571dd0 total=4973"},
    {"strassen/8/8/dfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/8/dfs/opt/live", "L=2052 S=1447 W=3499 C=2017 R=0 E=4061 D=570 order=2d48ae1a8361ebf2 io=c8ed4ef4eba3e3c1 total=3499"},
    {"strassen/8/8/dfs/remat/dropall", "error: operands of vertex 422 keep thrashing: M too small"},
    {"strassen/8/8/dfs/remat/droprecomp", "L=3485 S=1744 W=5229 C=2689 R=672 E=6166 D=945 order=0ff084e50acc1512 io=ebd17e1f5b650b15 total=5229"},
    {"strassen/8/8/random/lru/droprecomp", "error: operand 250 of vertex 396 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/8/random/lru/live", "L=3957 S=2008 W=5965 C=2017 R=0 E=5966 D=9 order=fa4f24d3aa848f58 io=dd05ebe16568fcac total=5965"},
    {"strassen/8/8/random/opt/droprecomp", "error: operand 173 of vertex 853 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/8/8/random/opt/live", "L=3500 S=1940 W=5440 C=2017 R=0 E=5509 D=77 order=fa4f24d3aa848f58 io=5e192cecac461ff9 total=5440"},
    {"strassen/8/8/random/remat/dropall", "error: operands of vertex 1908 keep thrashing: M too small"},
    {"strassen/8/8/random/remat/droprecomp", "L=4417 S=1785 W=6202 C=2673 R=656 E=7082 D=888 order=1d21ca56f2306266 io=feb3622934eea7e5 total=6202"},
    {"winograd/8/1024/bfs/lru/droprecomp", "L=434 S=370 W=804 C=2017 R=0 E=1427 D=846 order=72d7535d27ec6e10 io=44197599e343adb1 total=804"},
    {"winograd/8/1024/bfs/lru/live", "L=434 S=370 W=804 C=2017 R=0 E=1427 D=846 order=72d7535d27ec6e10 io=44197599e343adb1 total=804"},
    {"winograd/8/1024/bfs/opt/droprecomp", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=72d7535d27ec6e10 io=5a55558c01856dd3 total=192"},
    {"winograd/8/1024/bfs/opt/live", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=72d7535d27ec6e10 io=5a55558c01856dd3 total=192"},
    {"winograd/8/1024/bfs/remat/dropall", "L=728 S=64 W=792 C=8899 R=6882 E=8603 D=7921 order=162b515cd43df418 io=ec9b16de76e9959a total=792"},
    {"winograd/8/1024/bfs/remat/droprecomp", "L=434 S=370 W=804 C=2017 R=0 E=1427 D=846 order=72d7535d27ec6e10 io=44197599e343adb1 total=804"},
    {"winograd/8/1024/dfs/lru/droprecomp", "error: operand 176 of vertex 1093 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/1024/dfs/lru/live", "L=288 S=224 W=512 C=2017 R=0 E=1281 D=977 order=2d48ae1a8361ebf2 io=2c097d7c358d80b3 total=512"},
    {"winograd/8/1024/dfs/opt/droprecomp", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=2d48ae1a8361ebf2 io=b521d4e487f106c3 total=192"},
    {"winograd/8/1024/dfs/opt/live", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=2d48ae1a8361ebf2 io=b521d4e487f106c3 total=192"},
    {"winograd/8/1024/dfs/remat/dropall", "L=383 S=64 W=447 C=4821 R=2804 E=4180 D=3846 order=3592483340a7a0cb io=7a795a1976a477ac total=447"},
    {"winograd/8/1024/dfs/remat/droprecomp", "L=280 S=128 W=408 C=2133 R=116 E=1389 D=1205 order=7ad1cb2f50cc286a io=e8a2b6fb8518a7bd total=408"},
    {"winograd/8/1024/random/lru/droprecomp", "error: operand 280 of vertex 886 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/1024/random/lru/live", "L=547 S=470 W=1017 C=2017 R=0 E=1540 D=828 order=8ac41fcf7ed4099e io=0404efe2f4fa3504 total=1017"},
    {"winograd/8/1024/random/opt/droprecomp", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=8ac41fcf7ed4099e io=404ea1adc8b4526e total=192"},
    {"winograd/8/1024/random/opt/live", "L=128 S=64 W=192 C=2017 R=0 E=1121 D=1058 order=8ac41fcf7ed4099e io=404ea1adc8b4526e total=192"},
    {"winograd/8/1024/random/remat/dropall", "L=709 S=64 W=773 C=9739 R=7722 E=9424 D=8772 order=cf60205deaba535f io=77ba2938f6e36fc5 total=773"},
    {"winograd/8/1024/random/remat/droprecomp", "L=583 S=457 W=1040 C=2064 R=47 E=1623 D=901 order=8af289f7c4f3c200 io=8b0af42c68e27467 total=1040"},
    {"winograd/8/5/bfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/5/bfs/lru/live", "L=3128 S=2017 W=5145 C=2017 R=0 E=5140 D=0 order=72d7535d27ec6e10 io=8e9adc8093a659e8 total=5145"},
    {"winograd/8/5/bfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/5/bfs/opt/live", "L=2899 S=2015 W=4914 C=2017 R=0 E=4911 D=2 order=72d7535d27ec6e10 io=be9f2cfd2c996dae total=4914"},
    {"winograd/8/5/bfs/remat/dropall", "error: operands of vertex 360 keep thrashing: M too small"},
    {"winograd/8/5/bfs/remat/droprecomp", "error: operands of vertex 360 keep thrashing: M too small"},
    {"winograd/8/5/dfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/5/dfs/lru/live", "L=3465 S=2017 W=5482 C=2017 R=0 E=5477 D=0 order=2d48ae1a8361ebf2 io=7fe11f63923dcc46 total=5482"},
    {"winograd/8/5/dfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/5/dfs/opt/live", "L=2963 S=1870 W=4833 C=2017 R=0 E=4975 D=147 order=2d48ae1a8361ebf2 io=2f46a845a316f01b total=4833"},
    {"winograd/8/5/dfs/remat/dropall", "error: operands of vertex 360 keep thrashing: M too small"},
    {"winograd/8/5/dfs/remat/droprecomp", "error: operands of vertex 360 keep thrashing: M too small"},
    {"winograd/8/5/random/lru/droprecomp", "error: operand 134 of vertex 358 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/5/random/lru/live", "L=4536 S=2014 W=6550 C=2017 R=0 E=6548 D=3 order=8ac41fcf7ed4099e io=4cf5b92ab906af18 total=6550"},
    {"winograd/8/5/random/opt/droprecomp", "error: operand 151 of vertex 606 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/5/random/opt/live", "L=4435 S=2009 W=6444 C=2017 R=0 E=6447 D=8 order=8ac41fcf7ed4099e io=47152599790fd2e9 total=6444"},
    {"winograd/8/5/random/remat/dropall", "error: operands of vertex 362 keep thrashing: M too small"},
    {"winograd/8/5/random/remat/droprecomp", "error: operands of vertex 362 keep thrashing: M too small"},
    {"winograd/8/64/bfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/64/bfs/lru/live", "L=2441 S=2017 W=4458 C=2017 R=0 E=4394 D=0 order=72d7535d27ec6e10 io=d71bbdadcc9f2019 total=4458"},
    {"winograd/8/64/bfs/opt/droprecomp", "error: operand 142 of vertex 362 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/64/bfs/opt/live", "L=1805 S=1741 W=3546 C=2017 R=0 E=3758 D=240 order=72d7535d27ec6e10 io=1b41918261b26569 total=3546"},
    {"winograd/8/64/bfs/remat/dropall", "error: operands of vertex 588 keep thrashing: M too small"},
    {"winograd/8/64/bfs/remat/droprecomp", "L=2441 S=1793 W=4234 C=2362 R=345 E=4739 D=569 order=4465d2af3e8490e3 io=bf4ed424d7a25223 total=4234"},
    {"winograd/8/64/dfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/64/dfs/lru/live", "L=1197 S=904 W=2101 C=2017 R=0 E=3150 D=1113 order=2d48ae1a8361ebf2 io=7963bc88e01913d1 total=2101"},
    {"winograd/8/64/dfs/opt/droprecomp", "error: operand 141 of vertex 363 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/64/dfs/opt/live", "L=436 S=370 W=806 C=2017 R=0 E=2389 D=1633 order=2d48ae1a8361ebf2 io=aa9d30b39d80eee5 total=806"},
    {"winograd/8/64/dfs/remat/dropall", "error: operands of vertex 588 keep thrashing: M too small"},
    {"winograd/8/64/dfs/remat/droprecomp", "L=1481 S=708 W=2189 C=2249 R=232 E=3666 D=1541 order=5b1aaf1a6252c900 io=cb59de9fc4bbd6bf total=2189"},
    {"winograd/8/64/random/lru/droprecomp", "error: operand 258 of vertex 643 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/64/random/lru/live", "L=3862 S=1924 W=5786 C=2017 R=0 E=5815 D=86 order=8ac41fcf7ed4099e io=0999d403c4d50be4 total=5786"},
    {"winograd/8/64/random/opt/droprecomp", "error: operand 152 of vertex 623 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/64/random/opt/live", "L=2248 S=1511 W=3759 C=2017 R=0 E=4201 D=479 order=8ac41fcf7ed4099e io=2aeccf1eca77af46 total=3759"},
    {"winograd/8/64/random/remat/dropall", "error: operands of vertex 845 keep thrashing: M too small"},
    {"winograd/8/64/random/remat/droprecomp", "L=4389 S=1715 W=6104 C=2685 R=668 E=7010 D=963 order=207a748968ce2815 io=60fe8f645e6dde37 total=6104"},
    {"winograd/8/8/bfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/8/bfs/lru/live", "L=2941 S=2017 W=4958 C=2017 R=0 E=4950 D=0 order=72d7535d27ec6e10 io=03bc646a09e4473a total=4958"},
    {"winograd/8/8/bfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/8/bfs/opt/live", "L=2619 S=2012 W=4631 C=2017 R=0 E=4628 D=5 order=72d7535d27ec6e10 io=0db7303f92aba9a9 total=4631"},
    {"winograd/8/8/bfs/remat/dropall", "error: operands of vertex 1842 keep thrashing: M too small"},
    {"winograd/8/8/bfs/remat/droprecomp", "error: operands of vertex 1842 keep thrashing: M too small"},
    {"winograd/8/8/dfs/lru/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/8/dfs/lru/live", "L=3262 S=2017 W=5279 C=2017 R=0 E=5271 D=0 order=2d48ae1a8361ebf2 io=5e2cd0a3b987a958 total=5279"},
    {"winograd/8/8/dfs/opt/droprecomp", "error: operand 128 of vertex 352 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/8/dfs/opt/live", "L=2193 S=1429 W=3622 C=2017 R=0 E=4202 D=588 order=2d48ae1a8361ebf2 io=da3a9ccaac323127 total=3622"},
    {"winograd/8/8/dfs/remat/dropall", "error: operands of vertex 410 keep thrashing: M too small"},
    {"winograd/8/8/dfs/remat/droprecomp", "error: operands of vertex 854 keep thrashing: M too small"},
    {"winograd/8/8/random/lru/droprecomp", "error: operand 138 of vertex 364 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/8/random/lru/live", "L=4502 S=2013 W=6515 C=2017 R=0 E=6511 D=4 order=8ac41fcf7ed4099e io=a1112f13098b5f92 total=6515"},
    {"winograd/8/8/random/opt/droprecomp", "error: operand 272 of vertex 874 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"winograd/8/8/random/opt/live", "L=4028 S=1947 W=5975 C=2017 R=0 E=6037 D=70 order=8ac41fcf7ed4099e io=d7fca17b414bc967 total=5975"},
    {"winograd/8/8/random/remat/dropall", "error: operands of vertex 767 keep thrashing: M too small"},
    {"winograd/8/8/random/remat/droprecomp", "error: operands of vertex 1350 keep thrashing: M too small"},
};

const std::map<std::string, std::string> kGoldenBeladyN32 = {
    {"strassen/32/4096/bfs/opt/droprecomp", "L=76706 S=75682 W=152388 C=111505 R=0 E=184115 D=32050 order=0ab816df01ed9522 io=152382495f6a9033 total=152388"},
    {"strassen/32/4096/bfs/opt/live", "L=76706 S=75682 W=152388 C=111505 R=0 E=184115 D=32050 order=0ab816df01ed9522 io=152382495f6a9033 total=152388"},
    {"strassen/32/4096/dfs/opt/droprecomp", "error: operand 3711 of vertex 97577 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/32/4096/dfs/opt/live", "L=2049 S=1025 W=3074 C=111505 R=0 E=109458 D=106386 order=9e7c5a97a99a13ec io=6d4975fc589f89c7 total=3074"},
    {"strassen/32/4096/random/opt/droprecomp", "error: operand 4329 of vertex 21528 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/32/4096/random/opt/live", "L=83582 S=67473 W=151055 C=111505 R=0 E=190991 D=41037 order=5a246fc2d9cfe67a io=87bb8f79ddc346db total=151055"},
    {"strassen/32/64/bfs/opt/droprecomp", "error: operand 2560 of vertex 36302 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/32/64/bfs/opt/live", "L=140011 S=111444 W=251455 C=111505 R=0 E=251452 D=61 order=0ab816df01ed9522 io=6c2819bc659696ed total=251455"},
    {"strassen/32/64/dfs/opt/droprecomp", "error: operand 2048 of vertex 5632 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/32/64/dfs/opt/live", "L=43501 S=31562 W=75063 C=111505 R=0 E=154942 D=79943 order=9e7c5a97a99a13ec io=4bb16b93d192a3c6 total=75063"},
    {"strassen/32/64/random/opt/droprecomp", "error: operand 2883 of vertex 51608 is neither resident nor in slow memory: illegal schedule (missing recomputation?)"},
    {"strassen/32/64/random/opt/live", "L=202032 S=108652 W=310684 C=111505 R=0 E=313473 D=2837 order=5a246fc2d9cfe67a io=ee7f20528e3d2fa0 total=310684"},
};
// clang-format on

void expect_golden(const std::map<std::string, std::string>& cells,
                   const std::map<std::string, std::string>& golden) {
  for (const auto& [key, actual] : cells) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden row: {\"" << key << "\", \"" << actual
                    << "\"},";
      continue;
    }
    EXPECT_EQ(actual, it->second) << key;
  }
  EXPECT_EQ(cells.size(), golden.size());
}

TEST(MachineGolden, EveryCellMatchesTheCapturedResult) {
  expect_golden(run_grid(), kGolden);
}

TEST(MachineGolden, BeladyAtStrassen32MatchesTheCapturedResult) {
  expect_golden(run_belady_n32_grid(), kGoldenBeladyN32);
}

// Belady's MIN minimizes faults, and a first reference faults under every
// policy, so loads are what the policy decides: on every kWritebackLive
// cell of the grid Belady loads no more than LRU on the same schedule
// and M.  (Stores can go either way.)
TEST(Machine, BeladyNeverLoadsMoreThanLru) {
  int cells = 0;
  for (const Instance& instance : instances()) {
    const cdag::Cdag cdag = cdag::build_cdag(instance.alg, instance.n);
    for (const std::int64_t m : grid_sizes(cdag)) {
      for (const char* kind : {"dfs", "bfs", "random"}) {
        const auto schedule = schedule_of(cdag, kind);
        SimOptions lru;
        lru.cache_size = m;
        SimOptions belady = lru;
        belady.replacement = ReplacementPolicy::kBelady;
        EXPECT_LE(simulate(cdag, schedule, belady).loads,
                  simulate(cdag, schedule, lru).loads)
            << instance.name << "/" << instance.n << "/" << m << "/" << kind;
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 57);
}

}  // namespace
}  // namespace fmm::pebble
