// Golden CDAGs: every byte build_cdag emits, pinned per (scheme, n).
//
// Each cell pins |V| and |E|; fingerprints of the bytes of the four CSR
// arrays, the roles and the input and output id lists; every sub-problem
// level's r, count and four pools; and the metric deltas one build
// records.  The pebble machines iterate neighbors in CSR order and
// dfs_schedule relies on the recursive vertex numbering, so any change to
// numbering, per-vertex in-neighbor order or per-source out-neighbor
// order shows up here as a diff.  The values were captured from the
// builder that returned one vector per operand block, before the
// recursion moved to id ranges and level pools.
//
// Each cell also pins census == build: the closed-form |V|, |E|, role
// histogram, levels and footprint equal what the build holds.
//
// The same binary bounds the heap allocations of one build (a build may
// allocate only the arrays it returns) and runs builds on several threads
// at once, two of them on the same key, to catch scratch memory shared
// between concurrent builders (run_sweep and the service build on their
// pool threads).  It also pins what a snapshot publish writes: every
// cell's published file is serialize_snapshot's bytes, streamed from the
// CDAG's arrays without a buffer the size of the file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "snapshot/format.hpp"
#include "snapshot/store.hpp"
#include "sweep/sweep.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::int64_t> g_allocated_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<std::int64_t>(size),
                              std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line so that, once a delete is inlined next to a new, the
// compiler does not see operator new's pointer reach free() and warn.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every plain, array and nothrow operator new is counted and served by
// malloc, and every matching delete frees: replacing only some forms
// would pair a sanitizer's new with this free.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace fmm::cdag {
namespace {

struct Golden {
  /// sweep::resolve_algorithm key; "file:" paths are relative to the
  /// source root.
  const char* scheme;
  std::size_t n;
  std::size_t vertices;
  std::size_t edges;
  /// Byte fingerprints of out_offsets, in_offsets, out_edges, in_edges,
  /// roles, inputs_a, inputs_b and outputs.
  const char* arrays;
  /// Per level, ascending r: "r=<r> count=<count>" and byte fingerprints
  /// of output_pool, input_pool, span_begin and span_end.
  const char* levels;
};

// clang-format off
const Golden kGolden[] = {
    {"strassen", 1, 3, 2,
     "90dcd21a6fa446d4 c81577ca0d6add87 a6c82e33918d54e5 08cd4c29d1e47d34 "
     "d949ae186c0c4ff4 4d25767f9dce13f5 ad2aca7747985764 8d1ace904a398d17",
     "r=1 count=1 8d1ace904a398d17 08cd4c29d1e47d34 "
     "8d1ace904a398d17 ed202287f403d086;"},
    {"strassen", 2, 33, 50,
     "9701b5f0c5135af1 80cd9160bb47cd65 fc35938a57a7e457 c350983d2a7a2463 "
     "ffab71ef27218b5c 30d77e22c5da0365 cdecc98111d84ee5 7383c0ed721b2319",
     "r=1 count=7 2114553215b05908 78986d54eead9e64 "
     "2114553215b05908 4b2c0e7e5c5de083;"
     "r=2 count=1 7383c0ed721b2319 66b04c3323ce3f25 "
     "4cfad6c24f7bf87d add5496c80e0c544;"},
    {"strassen", 8, 2145, 4034,
     "de1ef555203d13cf 2e4e4ae667c96712 4ac8428c074c553b d4d2854edb384513 "
     "24d3b7102e32a3b0 f5f45328a8ebdb25 221c366d7ec93f25 9659f7ff920c50a5",
     "r=1 count=343 63b5ebf420679c11 54e325ce6e2ea35f "
     "63b5ebf420679c11 ca804b9f526d35fb;"
     "r=2 count=49 fe5eb0c466f2a10f e0089077eec0de9d "
     "7cddedb352a8b884 b0c629402ec1fa66;"
     "r=4 count=7 73c4e00ecf6fe565 da1169cafe4dfbc5 "
     "be2a49031d540b24 ac7018d8fcd3e8a2;"
     "r=8 count=1 9659f7ff920c50a5 709f2462c272f725 "
     "4a7b7aaab8ac5c75 67347381e70ff42c;"},
    {"strassen", 32, 113553, 223010,
     "e577611142c63f59 77a8d64c3a928cc1 d2bdd2c8a1964c81 9e2595785a395f61 "
     "7b7c1b4f93944a40 b132ca6ceb3d4c25 2b0f81da5ef27c25 8e052943b66ff191",
     "r=1 count=16807 ef095b084081a64e 1a57eefd2b4f2fff "
     "ef095b084081a64e f9e979a822f64290;"
     "r=2 count=2401 8f3e2641ff924d03 8d06a31c97450196 "
     "033a8ba2f438501d 0ee14777f994bd7d;"
     "r=4 count=343 a1300160fae5c94b 17b5f11506f5ac21 "
     "b90270ae3ebd9357 20906996da481fef;"
     "r=8 count=49 a75832e653f7b452 cc2fb7d7b954f64c "
     "aa136d73a65367ad 03b7d659a3b59548;"
     "r=16 count=7 2114f78a7f7ac6d9 8a92ff6e1ac1f125 "
     "8d4f6fbb691b9882 a149e4b48f0026cd;"
     "r=32 count=1 8e052943b66ff191 a684a9f7204da525 "
     "07d99e7f768e1e9d b4b2f22587c821a4;"},
    {"winograd", 16, 15783, 34832,
     "36d54657a2bbf579 b2f602091dac4ddf fd2a63e2ee275e9c f398d4376bb5cd73 "
     "2b9c6ceff80e4fa6 8084b7f6c938af25 44bd65e517d1c225 1a167e610bd28a92",
     "r=1 count=2401 62d56cab2462dff8 4400988eb3a6ff21 "
     "62d56cab2462dff8 697387888a06d70f;"
     "r=2 count=343 7cd068fd7d5fccab 4a38f71a32a15cd7 "
     "306fd7bef4d194cb 39969594bf173953;"
     "r=4 count=49 0272b8f32743afdb f85e7ce995bcd85e "
     "89ec1eba5030abbc 7cb43951c17afdf0;"
     "r=8 count=7 8778bbe92ebc81d2 2acffb2fec9eb0a5 "
     "76c07528aa9cd51d 015a1ea7a379c50d;"
     "r=16 count=1 1a167e610bd28a92 f1a76199f5a84e25 "
     "3bd2807f93fe169f 0bedac86b95ba349;"},
    {"strassen-dual", 8, 2145, 4034,
     "de1ef555203d13cf eccf2b59edbba673 6a5b4a270cbe75a2 823cfac8d8ae8edb "
     "24d3b7102e32a3b0 f5f45328a8ebdb25 221c366d7ec93f25 9659f7ff920c50a5",
     "r=1 count=343 63b5ebf420679c11 54e325ce6e2ea35f "
     "63b5ebf420679c11 ca804b9f526d35fb;"
     "r=2 count=49 fe5eb0c466f2a10f e0089077eec0de9d "
     "7cddedb352a8b884 b0c629402ec1fa66;"
     "r=4 count=7 73c4e00ecf6fe565 da1169cafe4dfbc5 "
     "be2a49031d540b24 ac7018d8fcd3e8a2;"
     "r=8 count=1 9659f7ff920c50a5 709f2462c272f725 "
     "4a7b7aaab8ac5c75 67347381e70ff42c;"},
    {"strassen-perm", 8, 2145, 4034,
     "de1ef555203d13cf 2e4e4ae667c96712 ba265d9636a96433 404cc0906f994263 "
     "24d3b7102e32a3b0 f5f45328a8ebdb25 221c366d7ec93f25 9659f7ff920c50a5",
     "r=1 count=343 63b5ebf420679c11 54e325ce6e2ea35f "
     "63b5ebf420679c11 ca804b9f526d35fb;"
     "r=2 count=49 fe5eb0c466f2a10f e0089077eec0de9d "
     "7cddedb352a8b884 b0c629402ec1fa66;"
     "r=4 count=7 73c4e00ecf6fe565 da1169cafe4dfbc5 "
     "be2a49031d540b24 ac7018d8fcd3e8a2;"
     "r=8 count=1 9659f7ff920c50a5 709f2462c272f725 "
     "4a7b7aaab8ac5c75 67347381e70ff42c;"},
    {"winograd-dual", 8, 2145, 4592,
     "2024b52e27e4d163 d08c2d5021e90f35 b74fe477856a44c2 5d5dc357a7bd5339 "
     "24d3b7102e32a3b0 f5f45328a8ebdb25 221c366d7ec93f25 9659f7ff920c50a5",
     "r=1 count=343 63b5ebf420679c11 54e325ce6e2ea35f "
     "63b5ebf420679c11 ca804b9f526d35fb;"
     "r=2 count=49 fe5eb0c466f2a10f e0089077eec0de9d "
     "7cddedb352a8b884 b0c629402ec1fa66;"
     "r=4 count=7 73c4e00ecf6fe565 da1169cafe4dfbc5 "
     "be2a49031d540b24 ac7018d8fcd3e8a2;"
     "r=8 count=1 9659f7ff920c50a5 709f2462c272f725 "
     "4a7b7aaab8ac5c75 67347381e70ff42c;"},
    {"strassen-alt", 8, 2145, 3476,
     "0517404e032d428a 8972eb7c2eeb6abd cfb5fcbc656e7672 e279a1ffe8b543fc "
     "24d3b7102e32a3b0 f5f45328a8ebdb25 221c366d7ec93f25 9659f7ff920c50a5",
     "r=1 count=343 63b5ebf420679c11 54e325ce6e2ea35f "
     "63b5ebf420679c11 ca804b9f526d35fb;"
     "r=2 count=49 fe5eb0c466f2a10f e0089077eec0de9d "
     "7cddedb352a8b884 b0c629402ec1fa66;"
     "r=4 count=7 73c4e00ecf6fe565 da1169cafe4dfbc5 "
     "be2a49031d540b24 ac7018d8fcd3e8a2;"
     "r=8 count=1 9659f7ff920c50a5 709f2462c272f725 "
     "4a7b7aaab8ac5c75 67347381e70ff42c;"},
    {"winograd-alt", 8, 2145, 3476,
     "ea421d270dcaa73b 25edc39f449905ba e4101604149d35c0 ccc542955922f5a5 "
     "24d3b7102e32a3b0 f5f45328a8ebdb25 221c366d7ec93f25 9659f7ff920c50a5",
     "r=1 count=343 63b5ebf420679c11 54e325ce6e2ea35f "
     "63b5ebf420679c11 ca804b9f526d35fb;"
     "r=2 count=49 fe5eb0c466f2a10f e0089077eec0de9d "
     "7cddedb352a8b884 b0c629402ec1fa66;"
     "r=4 count=7 73c4e00ecf6fe565 da1169cafe4dfbc5 "
     "be2a49031d540b24 ac7018d8fcd3e8a2;"
     "r=8 count=1 9659f7ff920c50a5 709f2462c272f725 "
     "4a7b7aaab8ac5c75 67347381e70ff42c;"},
    {"classic", 8, 2880, 3712,
     "d1583bdeae055adb c75ce7962eff19eb 3c222f8441e83799 457f3b8e0d0b27e5 "
     "61c404c69745a365 f5f45328a8ebdb25 221c366d7ec93f25 2b31ae52426b8165",
     "r=1 count=512 85776da15466f03d e811f134472247b5 "
     "85776da15466f03d 9268141f841816d8;"
     "r=2 count=64 5f36f26ffc66af01 3f4aed67344ac845 "
     "6727de3ae0953090 e7dc6b8cf39ead0d;"
     "r=4 count=8 efca50d5b5a11ae5 1f6efc52549b5da5 "
     "a1cc483d262754ce 190f072096f95e30;"
     "r=8 count=1 2b31ae52426b8165 709f2462c272f725 "
     "4a7b7aaab8ac5c75 ec882f94f54546dc;"},
    {"classic-3x3x3", 9, 3159, 4374,
     "81b04ad89212fa32 e4adc6a660c432cb 1642fdfee4df1930 7b322dd750950c1c "
     "b80f41808d555ed1 b15e21db04acd545 006ff581dddbb694 5473963123505287",
     "r=1 count=729 284454d2e28e339a 391e876ff5d0a634 "
     "284454d2e28e339a d78290fd347924bf;"
     "r=3 count=27 11ff10357337e5a6 252574441ce72534 "
     "3de47e4b482a1634 7093ad7d118ece60;"
     "r=9 count=1 5473963123505287 560a0b4253d3d8b4 "
     "8b1b51b09e604377 8e3121019f97c63e;"},
    {"strassen-squared", 16, 10323, 32882,
     "424b6da260e14054 6ffdccf6a3941930 10ed056b13fc23fc b84877e13fa948c9 "
     "c6508cd807f37682 8084b7f6c938af25 44bd65e517d1c225 e4674f98f41a2120",
     "r=1 count=2401 e8f7c6f11a93abe8 2ad6baeea59bf027 "
     "e8f7c6f11a93abe8 91222fe014aa5df5;"
     "r=4 count=49 2f8e62cb53437744 c7dc508561b33225 "
     "305eac1afc0d0d1e 73114f5463e5e988;"
     "r=16 count=1 e4674f98f41a2120 f1a76199f5a84e25 "
     "3bd2807f93fe169f 45f11d23a90e888e;"},
    {"file:schemes/hk_style_222_7.json", 16, 15783, 30542,
     "6625093c60ee6ee4 bd30e3e88b2a47df f7ae8e0c36b626b7 2efcc741ced0604d "
     "2b9c6ceff80e4fa6 8084b7f6c938af25 44bd65e517d1c225 1a167e610bd28a92",
     "r=1 count=2401 62d56cab2462dff8 4400988eb3a6ff21 "
     "62d56cab2462dff8 697387888a06d70f;"
     "r=2 count=343 7cd068fd7d5fccab 4a38f71a32a15cd7 "
     "306fd7bef4d194cb 39969594bf173953;"
     "r=4 count=49 0272b8f32743afdb f85e7ce995bcd85e "
     "89ec1eba5030abbc 7cb43951c17afdf0;"
     "r=8 count=7 8778bbe92ebc81d2 2acffb2fec9eb0a5 "
     "76c07528aa9cd51d 015a1ea7a379c50d;"
     "r=16 count=1 1a167e610bd28a92 f1a76199f5a84e25 "
     "3bd2807f93fe169f 0bedac86b95ba349;"},
    {"file:schemes/laderman_333_23.json", 9, 2451, 5954,
     "25fead2d06b7220e 82de91cb22817fd6 34f536a895d9fadd c828cabc628136e8 "
     "1c66eba6d63eee39 b15e21db04acd545 006ff581dddbb694 756b6f6ae6425bd4",
     "r=1 count=529 fe400ef4dc21b218 ebea8890510f84dc "
     "fe400ef4dc21b218 799d1f4830de3d5b;"
     "r=3 count=23 60b7dc9ff9c5c30c 218220d6cb0a7394 "
     "2e8a71ff9cd09c4c 7ed371546d3faedb;"
     "r=9 count=1 756b6f6ae6425bd4 560a0b4253d3d8b4 "
     "8b1b51b09e604377 38163a389e65d619;"},
    {"file:schemes/laderman_333_23.json", 27, 58560, 149335,
     "424b176a49c2aea0 43c256ab270a71f4 a3a1a135367748da 563580ff89684126 "
     "dfb5c83edb275767 2d0ef38833f6ee5f 95b92582ae7efaaa a122731206af6259",
     "r=1 count=12167 903535d16540825d 7eab737139794b72 "
     "903535d16540825d 864ae6d12cefb98e;"
     "r=3 count=529 89b22d368a4bb568 b3c1da1b2c63df3c "
     "6f05c487a7c1b5d1 bd282bc72f793e6a;"
     "r=9 count=23 8f364062df6d9f5e 79b019f78259fc28 "
     "9df70e7328e0dad2 207a9eed668419de;"
     "r=27 count=1 a122731206af6259 e44741de132c10a8 "
     "5f76ab35e9341330 bacc30c47d7a5ba9;"},
};
// clang-format on

bilinear::BilinearAlgorithm resolve(const std::string& scheme) {
  if (scheme.starts_with("file:")) {
    return sweep::resolve_algorithm(std::string("file:") + FMM_SOURCE_ROOT +
                                    "/" + scheme.substr(5));
  }
  return sweep::resolve_algorithm(scheme);
}

const Golden& golden_cell(std::string_view scheme, std::size_t n) {
  for (const Golden& golden : kGolden) {
    if (golden.scheme == scheme && golden.n == n) {
      return golden;
    }
  }
  throw std::invalid_argument("no golden cell");
}

template <typename T>
std::string bytes_fingerprint(std::span<const T> values) {
  return fingerprint64(std::string_view(
      reinterpret_cast<const char*>(values.data()), values.size_bytes()));
}

std::string render_arrays(const Cdag& cdag) {
  const graph::CsrGraph& g = cdag.graph;
  std::ostringstream out;
  out << bytes_fingerprint(g.out_offset_array()) << ' '
      << bytes_fingerprint(g.in_offset_array()) << ' '
      << bytes_fingerprint(g.out_edge_array()) << ' '
      << bytes_fingerprint(g.in_edge_array()) << ' '
      << bytes_fingerprint(std::span<const Role>(cdag.roles)) << ' '
      << bytes_fingerprint(std::span<const graph::VertexId>(cdag.inputs_a))
      << ' '
      << bytes_fingerprint(std::span<const graph::VertexId>(cdag.inputs_b))
      << ' '
      << bytes_fingerprint(std::span<const graph::VertexId>(cdag.outputs));
  return out.str();
}

std::string render_levels(const Cdag& cdag) {
  std::ostringstream out;
  for (const SubproblemLevel& level : cdag.subproblem_levels) {
    using Pool = std::span<const graph::VertexId>;
    out << "r=" << level.r << " count=" << level.count << ' '
        << bytes_fingerprint(Pool(level.output_pool)) << ' '
        << bytes_fingerprint(Pool(level.input_pool)) << ' '
        << bytes_fingerprint(Pool(level.span_begin)) << ' '
        << bytes_fingerprint(Pool(level.span_end)) << ';';
  }
  return out.str();
}

std::int64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

std::string describe(const Golden& golden) {
  return std::string(golden.scheme) + " n=" + std::to_string(golden.n);
}

TEST(CdagGolden, BuildsMatchPinnedBytes) {
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(describe(golden));
    const bilinear::BilinearAlgorithm alg = resolve(golden.scheme);
    const std::int64_t builds = counter("cdag.builds");
    const std::int64_t vertices = counter("cdag.vertices_built");
    const std::int64_t edges = counter("cdag.edges_built");
    const std::int64_t freezes = counter("graph.csr.freezes");
    const Cdag cdag = build_cdag(alg, golden.n);
    EXPECT_EQ(cdag.graph.num_vertices(), golden.vertices);
    EXPECT_EQ(cdag.graph.num_edges(), golden.edges);
    EXPECT_EQ(render_arrays(cdag), golden.arrays);
    EXPECT_EQ(render_levels(cdag), golden.levels);
    EXPECT_EQ(counter("cdag.builds") - builds, 1);
    EXPECT_EQ(counter("cdag.vertices_built") - vertices,
              static_cast<std::int64_t>(golden.vertices));
    EXPECT_EQ(counter("cdag.edges_built") - edges,
              static_cast<std::int64_t>(golden.edges));
    EXPECT_EQ(counter("graph.csr.freezes") - freezes, 1);

    const CdagCensus counts = census(alg, golden.n);
    EXPECT_EQ(counts.vertices, golden.vertices);
    EXPECT_EQ(counts.edges, golden.edges);
    EXPECT_EQ(counts.roles, cdag.role_histogram());
    ASSERT_EQ(counts.levels.size(), cdag.subproblem_levels.size());
    for (std::size_t i = 0; i < counts.levels.size(); ++i) {
      EXPECT_EQ(counts.levels[i].first, cdag.subproblem_levels[i].r);
      EXPECT_EQ(counts.levels[i].second, cdag.subproblem_levels[i].count);
    }
    EXPECT_EQ(counts.memory_bytes, service::cdag_memory_bytes(cdag));
  }
}

TEST(CdagGolden, StrassenBuildAllocatesOnlyItsArrays) {
  // A build allocates O(levels) arrays, not one vector per operand,
  // encoder, product and decoder block: at n = 32 that was ~95k calls.
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const std::int64_t before = g_allocations.load();
  const Cdag cdag = build_cdag(alg, 32);
  const std::int64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(cdag.graph.num_vertices(), golden_cell("strassen", 32).vertices);
  EXPECT_LE(allocations, 1000);
}

/// A fresh snapshot store under the test's temporary directory.
snapshot::SnapshotStore fresh_store(const std::string& tag) {
  const std::string dir = std::string(testing::TempDir()) + "golden_" + tag;
  std::filesystem::remove_all(dir);
  return snapshot::SnapshotStore({dir, 0, snapshot::Verify::kFull});
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CdagGolden, PublishedFilesEqualSerializedBytes) {
  snapshot::SnapshotStore store = fresh_store("publish");
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(describe(golden));
    const Cdag cdag = build_cdag(resolve(golden.scheme), golden.n);
    const std::string key = std::string("golden-") + std::to_string(
        &golden - kGolden);
    ASSERT_TRUE(store.publish(key, golden.n, cdag));
    EXPECT_EQ(file_bytes(store.path_for(key, golden.n)),
              snapshot::serialize_snapshot(cdag));
  }
}

TEST(CdagGolden, StrassenPublishAllocatesUnder64KiB) {
  // Publish streams the header, the table and the CDAG's own arrays into
  // the file; nothing the size of the 3.4 MB file is allocated.
  snapshot::SnapshotStore store = fresh_store("publish_bytes");
  const Cdag cdag = build_cdag(bilinear::strassen(), 32);
  const std::int64_t before = g_allocated_bytes.load();
  ASSERT_TRUE(store.publish("strassen", 32, cdag));
  const std::int64_t bytes = g_allocated_bytes.load() - before;
  EXPECT_GT(std::filesystem::file_size(store.path_for("strassen", 32)),
            3u << 20);
  EXPECT_LT(bytes, 64 * 1024);
}

TEST(CdagGolden, ConcurrentBuildsMatchSerial) {
  // Four builders start together, two on the same key; each result must
  // match its serially pinned bytes.
  const std::vector<const Golden*> cells = {
      &golden_cell("strassen", 32), &golden_cell("strassen", 32),
      &golden_cell("file:schemes/laderman_333_23.json", 27),
      &golden_cell("winograd", 16)};
  std::vector<bilinear::BilinearAlgorithm> algs;
  for (const Golden* golden : cells) {
    algs.push_back(resolve(golden->scheme));
  }
  std::vector<std::size_t> vertices(cells.size());
  std::vector<std::size_t> edges(cells.size());
  std::vector<std::string> arrays(cells.size());
  std::vector<std::string> levels(cells.size());
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < cells.size()) {
        std::this_thread::yield();
      }
      const Cdag cdag = build_cdag(algs[i], cells[i]->n);
      vertices[i] = cdag.graph.num_vertices();
      edges[i] = cdag.graph.num_edges();
      arrays[i] = render_arrays(cdag);
      levels[i] = render_levels(cdag);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("thread " + std::to_string(i) + ": " + describe(*cells[i]));
    EXPECT_EQ(vertices[i], cells[i]->vertices);
    EXPECT_EQ(edges[i], cells[i]->edges);
    EXPECT_EQ(arrays[i], cells[i]->arrays);
    EXPECT_EQ(levels[i], cells[i]->levels);
  }
}

}  // namespace
}  // namespace fmm::cdag
