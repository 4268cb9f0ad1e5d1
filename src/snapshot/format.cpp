#include "snapshot/format.hpp"

#include <cstring>
#include <fstream>
#include <tuple>
#include <utility>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/file_io.hpp"
#include "common/frozen_array.hpp"
#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "graph/csr.hpp"

namespace fmm::snapshot {

namespace {

constexpr std::size_t kLanes = 8;

enum SectionKind : std::uint32_t {
  kMeta = 0,
  kLevelMeta = 1,
  kOutOffsets = 2,
  kInOffsets = 3,
  kOutEdges = 4,
  kInEdges = 5,
  kRoles = 6,
  kInputsA = 7,
  kInputsB = 8,
  kOutputs = 9,
  kOutputPool = 10,
  kInputPool = 11,
  kSpanBegin = 12,
  kSpanEnd = 13,
};

// Refusal caps: a header passing its checksum can still carry absurd
// counts (deliberate tampering recomputes checksums); these bound every
// derived allocation and multiplication before it happens.
constexpr std::uint64_t kMaxSections = 4096;
constexpr std::uint64_t kMaxLevels = 64;
constexpr std::uint64_t kMaxNameBytes = 4096;
constexpr std::uint64_t kMaxN = 1ull << 24;
constexpr std::uint64_t kMaxBase = 1ull << 10;
constexpr std::uint64_t kMaxProducts = 1ull << 20;

std::size_t align_up(std::size_t x) {
  return (x + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

void put_u32(std::string& out, std::size_t at, std::uint32_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_u64(std::string& out, std::size_t at, std::uint64_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::uint64_t snap_checksum(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lanes[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) {
    lanes[j] = kFnvTruncatedBasis ^ (j + 1);
  }
  constexpr std::size_t kBlock = kLanes * sizeof(std::uint64_t);
  std::size_t i = 0;
  for (; i + kBlock <= size; i += kBlock) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      std::uint64_t w;
      std::memcpy(&w, p + i + j * sizeof(std::uint64_t), sizeof(w));
      lanes[j] = (lanes[j] ^ w) * kFnvPrime;
    }
  }
  for (; i < size; ++i) {
    lanes[0] = (lanes[0] ^ p[i]) * kFnvPrime;
  }
  std::uint64_t h = kFnvTruncatedBasis;
  for (std::size_t j = 0; j < kLanes; ++j) {
    h = (h ^ lanes[j]) * kFnvPrime;
  }
  h = (h ^ static_cast<std::uint64_t>(size)) * kFnvPrime;
  return h;
}

std::string serialize_snapshot(const cdag::Cdag& cdag) {
  const graph::CsrGraph& g = cdag.graph;
  const std::size_t nv = g.num_vertices();
  const std::size_t ne = g.num_edges();
  FMM_CHECK_MSG(cdag.roles.size() == nv,
                "snapshot: roles/vertex count disagree (" << cdag.roles.size()
                    << " vs " << nv << ")");
  FMM_CHECK_MSG(cdag.algorithm_name.size() <= kMaxNameBytes,
                "snapshot: algorithm name too long");
  FMM_CHECK_MSG(cdag.subproblem_levels.size() <= kMaxLevels,
                "snapshot: too many sub-problem levels");

  std::string meta;
  const auto meta_u64 = [&meta](std::uint64_t v) {
    char b[sizeof(v)];
    std::memcpy(b, &v, sizeof(v));
    meta.append(b, sizeof(v));
  };
  meta_u64(cdag.n);
  meta_u64(cdag.base);
  meta_u64(cdag.num_products);
  meta_u64(nv);
  meta_u64(ne);
  meta_u64(cdag.subproblem_levels.size());
  meta_u64(cdag.algorithm_name.size());
  meta += cdag.algorithm_name;

  std::string level_meta;
  for (const cdag::SubproblemLevel& level : cdag.subproblem_levels) {
    char b[16];
    const auto r = static_cast<std::uint64_t>(level.r);
    const auto count = static_cast<std::uint64_t>(level.count);
    std::memcpy(b, &r, 8);
    std::memcpy(b + 8, &count, 8);
    level_meta.append(b, sizeof(b));
  }

  struct Section {
    std::uint32_t kind;
    std::uint32_t level;
    const void* data;
    std::size_t length;
  };
  std::vector<Section> sections;
  const auto add = [&sections](std::uint32_t kind, std::uint32_t level,
                               const void* data, std::size_t length) {
    sections.push_back({kind, level, data, length});
  };
  add(kMeta, 0, meta.data(), meta.size());
  add(kLevelMeta, 0, level_meta.data(), level_meta.size());
  const auto oo = g.out_offset_array();
  const auto io = g.in_offset_array();
  const auto oe = g.out_edge_array();
  const auto ie = g.in_edge_array();
  add(kOutOffsets, 0, oo.data(), oo.size_bytes());
  add(kInOffsets, 0, io.data(), io.size_bytes());
  add(kOutEdges, 0, oe.data(), oe.size_bytes());
  add(kInEdges, 0, ie.data(), ie.size_bytes());
  add(kRoles, 0, cdag.roles.data(), cdag.roles.size());
  add(kInputsA, 0, cdag.inputs_a.data(),
      cdag.inputs_a.size() * sizeof(graph::VertexId));
  add(kInputsB, 0, cdag.inputs_b.data(),
      cdag.inputs_b.size() * sizeof(graph::VertexId));
  add(kOutputs, 0, cdag.outputs.data(),
      cdag.outputs.size() * sizeof(graph::VertexId));
  for (std::size_t i = 0; i < cdag.subproblem_levels.size(); ++i) {
    const cdag::SubproblemLevel& level = cdag.subproblem_levels[i];
    const auto li = static_cast<std::uint32_t>(i);
    add(kOutputPool, li, level.output_pool.data(),
        level.output_pool.size() * sizeof(graph::VertexId));
    add(kInputPool, li, level.input_pool.data(),
        level.input_pool.size() * sizeof(graph::VertexId));
    add(kSpanBegin, li, level.span_begin.data(),
        level.span_begin.size() * sizeof(graph::VertexId));
    add(kSpanEnd, li, level.span_end.data(),
        level.span_end.size() * sizeof(graph::VertexId));
  }

  // Canonical layout: sections packed in order, each 64-byte aligned,
  // zero padding in the gaps, no trailing pad after the last section.
  const std::size_t table_end =
      kHeaderBytes + sections.size() * kSectionEntryBytes;
  std::vector<std::size_t> offsets(sections.size());
  std::size_t cursor = align_up(table_end);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    offsets[i] = cursor;
    cursor = align_up(cursor + sections[i].length);
  }
  const std::size_t file_bytes =
      offsets.back() + sections.back().length;

  std::string out(file_bytes, '\0');
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].length > 0) {
      std::memcpy(out.data() + offsets[i], sections[i].data,
                  sections[i].length);
    }
  }
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::size_t at = kHeaderBytes + i * kSectionEntryBytes;
    put_u32(out, at, sections[i].kind);
    put_u32(out, at + 4, sections[i].level);
    put_u64(out, at + 8, offsets[i]);
    put_u64(out, at + 16, sections[i].length);
    put_u64(out, at + 24,
            snap_checksum(out.data() + offsets[i], sections[i].length));
  }
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  put_u32(out, 8, kFormatVersion);
  put_u32(out, 12, kEndianTag);
  put_u64(out, 16, file_bytes);
  put_u32(out, 24, static_cast<std::uint32_t>(sections.size()));
  // bytes 28..32 and 40..48 are reserved zeros (already zero-filled).
  put_u64(out, 32,
          snap_checksum(out.data() + kHeaderBytes,
                        sections.size() * kSectionEntryBytes));
  put_u64(out, 48, snap_checksum(out.data(), 48));
  return out;
}

cdag::Cdag deserialize_snapshot(std::span<const std::byte> bytes,
                                std::shared_ptr<const void> keep_alive,
                                Verify verify) {
  const std::byte* base_ptr = bytes.data();

  // --- header -----------------------------------------------------------
  FMM_CHECK_MSG(bytes.size() >= kHeaderBytes,
                "snapshot: truncated (" << bytes.size()
                    << " bytes, header needs " << kHeaderBytes << ")");
  FMM_CHECK_MSG(std::memcmp(base_ptr, kMagic, sizeof(kMagic)) == 0,
                "snapshot: bad magic (not an fmm.snap file)");
  const std::uint32_t version = get_u32(base_ptr + 8);
  FMM_CHECK_MSG(version == kFormatVersion,
                "snapshot: unsupported format version " << version
                    << " (this reader speaks " << kFormatVersion << ")");
  const std::uint32_t endian = get_u32(base_ptr + 12);
  FMM_CHECK_MSG(endian == kEndianTag,
                "snapshot: foreign endianness tag " << endian);
  const std::uint64_t file_bytes = get_u64(base_ptr + 16);
  FMM_CHECK_MSG(file_bytes == bytes.size(),
                "snapshot: header declares " << file_bytes
                    << " bytes, file has " << bytes.size());
  const std::uint32_t section_count = get_u32(base_ptr + 24);
  FMM_CHECK_MSG(get_u32(base_ptr + 28) == 0 && get_u64(base_ptr + 40) == 0,
                "snapshot: reserved header bytes nonzero");
  for (std::size_t i = 56; i < kHeaderBytes; ++i) {
    FMM_CHECK_MSG(base_ptr[i] == std::byte{0},
                  "snapshot: header padding nonzero at byte " << i);
  }
  FMM_CHECK_MSG(snap_checksum(base_ptr, 48) == get_u64(base_ptr + 48),
                "snapshot: header checksum mismatch");

  // --- section table ----------------------------------------------------
  FMM_CHECK_MSG(section_count >= 2 && section_count <= kMaxSections,
                "snapshot: implausible section count " << section_count);
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(section_count) * kSectionEntryBytes;
  FMM_CHECK_MSG(kHeaderBytes + table_bytes <= bytes.size(),
                "snapshot: section table overruns file");
  FMM_CHECK_MSG(snap_checksum(base_ptr + kHeaderBytes, table_bytes) ==
                    get_u64(base_ptr + 32),
                "snapshot: section table checksum mismatch");

  struct Entry {
    std::uint32_t kind = 0;
    std::uint32_t level = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Entry> entries(section_count);
  for (std::size_t i = 0; i < section_count; ++i) {
    const std::byte* e = base_ptr + kHeaderBytes + i * kSectionEntryBytes;
    entries[i] = {get_u32(e), get_u32(e + 4), get_u64(e + 8),
                  get_u64(e + 16), get_u64(e + 24)};
  }

  // Canonical layout: packed in table order, 64-byte aligned, zero
  // padding in gaps, file ends exactly at the last section's end.  This
  // leaves no byte of the file outside some checksum or a must-be-zero
  // region.
  std::uint64_t cursor = align_up(kHeaderBytes + table_bytes);
  std::uint64_t prev_end = kHeaderBytes + table_bytes;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    FMM_CHECK_MSG(e.offset == cursor,
                  "snapshot: section " << i << " at offset " << e.offset
                      << " breaks canonical layout (expected " << cursor
                      << ")");
    FMM_CHECK_MSG(e.length <= bytes.size() &&
                      e.offset <= bytes.size() - e.length,
                  "snapshot: section " << i << " overruns file");
    for (std::uint64_t b = prev_end; b < e.offset; ++b) {
      FMM_CHECK_MSG(base_ptr[b] == std::byte{0},
                    "snapshot: nonzero padding byte before section " << i);
    }
    prev_end = e.offset + e.length;
    cursor = align_up(prev_end);
  }
  FMM_CHECK_MSG(prev_end == bytes.size(),
                "snapshot: " << (bytes.size() - prev_end)
                             << " trailing bytes after last section");

  const auto verify_section = [&](const Entry& e, const char* what) {
    FMM_CHECK_MSG(snap_checksum(base_ptr + e.offset, e.length) == e.checksum,
                  "snapshot: " << what << " section checksum mismatch");
  };

  // --- meta -------------------------------------------------------------
  FMM_CHECK_MSG(entries[0].kind == kMeta && entries[1].kind == kLevelMeta,
                "snapshot: first sections are not meta/level_meta");
  verify_section(entries[0], "meta");
  verify_section(entries[1], "level_meta");
  FMM_CHECK_MSG(entries[0].length >= 56, "snapshot: meta section too short");
  const std::byte* meta = base_ptr + entries[0].offset;
  const std::uint64_t n = get_u64(meta);
  const std::uint64_t base = get_u64(meta + 8);
  const std::uint64_t num_products = get_u64(meta + 16);
  const std::uint64_t nv = get_u64(meta + 24);
  const std::uint64_t ne = get_u64(meta + 32);
  const std::uint64_t num_levels = get_u64(meta + 40);
  const std::uint64_t name_len = get_u64(meta + 48);
  FMM_CHECK_MSG(n >= 1 && n <= kMaxN, "snapshot: implausible n " << n);
  FMM_CHECK_MSG(base >= 2 && base <= kMaxBase,
                "snapshot: implausible base " << base);
  FMM_CHECK_MSG(num_products >= 1 && num_products <= kMaxProducts,
                "snapshot: implausible product count " << num_products);
  FMM_CHECK_MSG(nv < graph::kNoVertex,
                "snapshot: vertex count " << nv << " overflows VertexId");
  FMM_CHECK_MSG(ne <= UINT32_MAX,
                "snapshot: edge count " << ne << " overflows CSR offsets");
  FMM_CHECK_MSG(num_levels >= 1 && num_levels <= kMaxLevels,
                "snapshot: implausible level count " << num_levels);
  FMM_CHECK_MSG(name_len <= kMaxNameBytes &&
                    entries[0].length == 56 + name_len,
                "snapshot: meta section length disagrees with name length");
  // Lemma 2.2 fixes every level from (n, base, num_products).
  std::vector<std::pair<std::size_t, std::size_t>> levels;
  try {
    levels = cdag::census_levels(base, num_products, n);
  } catch (const CheckError& e) {
    FMM_CHECK_MSG(false, "snapshot: meta has no Lemma 2.2 levels: "
                             << e.what());
  }
  FMM_CHECK_MSG(num_levels == levels.size(),
                "snapshot: level count " << num_levels << " disagrees with "
                    << levels.size() << " Lemma 2.2 levels of n " << n
                    << " in base " << base);

  // --- level meta -------------------------------------------------------
  FMM_CHECK_MSG(entries[1].length == num_levels * 16,
                "snapshot: level_meta length disagrees with level count");
  const std::byte* lm = base_ptr + entries[1].offset;
  for (std::size_t i = 0; i < num_levels; ++i) {
    const std::uint64_t r = get_u64(lm + i * 16);
    const std::uint64_t count = get_u64(lm + i * 16 + 8);
    FMM_CHECK_MSG(r == levels[i].first && count == levels[i].second,
                  "snapshot: level " << i << " (r " << r << ", count "
                      << count << ") disagrees with Lemma 2.2 (r "
                      << levels[i].first << ", count " << levels[i].second
                      << ")");
    // Every sub-problem owns at least one distinct vertex, so any
    // genuine writer satisfies count <= V; refusing here also bounds
    // the pool-length products below.
    FMM_CHECK_MSG(count <= nv,
                  "snapshot: level " << i << " count exceeds vertex count");
  }

  // --- expected canonical section list ---------------------------------
  FMM_CHECK_MSG(section_count == 10 + 4 * num_levels,
                "snapshot: section count " << section_count
                    << " disagrees with level count " << num_levels);
  const std::uint64_t vid = sizeof(graph::VertexId);
  const auto n2 = static_cast<std::uint64_t>(checked_mul(
      static_cast<std::int64_t>(n), static_cast<std::int64_t>(n)));
  struct Expect {
    std::uint32_t kind;
    std::uint32_t level;
    std::uint64_t length;
  };
  std::vector<Expect> expect;
  expect.push_back({kOutOffsets, 0, (nv + 1) * vid});
  expect.push_back({kInOffsets, 0, (nv + 1) * vid});
  expect.push_back({kOutEdges, 0, ne * vid});
  expect.push_back({kInEdges, 0, ne * vid});
  expect.push_back({kRoles, 0, nv});
  expect.push_back({kInputsA, 0, n2 * vid});
  expect.push_back({kInputsB, 0, n2 * vid});
  expect.push_back({kOutputs, 0, n2 * vid});
  for (std::size_t i = 0; i < num_levels; ++i) {
    const auto [r, count] = levels[i];  // r <= n <= kMaxN
    const auto input_pool = static_cast<std::uint64_t>(
        checked_mul(checked_mul(static_cast<std::int64_t>(count),
                                static_cast<std::int64_t>(r * r)),
                    static_cast<std::int64_t>(2 * vid)));
    const auto li = static_cast<std::uint32_t>(i);
    expect.push_back({kOutputPool, li, input_pool / 2});
    expect.push_back({kInputPool, li, input_pool});
    expect.push_back({kSpanBegin, li, count * vid});
    expect.push_back({kSpanEnd, li, count * vid});
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const Entry& e = entries[i + 2];
    FMM_CHECK_MSG(e.kind == expect[i].kind && e.level == expect[i].level,
                  "snapshot: section " << (i + 2)
                      << " breaks the canonical section order");
    FMM_CHECK_MSG(e.length == expect[i].length,
                  "snapshot: section (kind " << e.kind << ", level "
                      << e.level << ") length " << e.length
                      << " disagrees with metadata (" << expect[i].length
                      << ")");
  }

  // --- payload integrity ------------------------------------------------
  // kFull re-derives every checksum (one streaming pass at memory
  // bandwidth); kMapped verifies only the small sections whose values
  // get used as indices below, leaving the large flat sections unread.
  const auto entry_at = [&](std::size_t i) -> const Entry& {
    return entries[i + 2];
  };
  if (verify == Verify::kFull) {
    for (std::size_t i = 0; i < expect.size(); ++i) {
      verify_section(entry_at(i), "array");
    }
  } else {
    verify_section(entry_at(5), "inputs_a");
    verify_section(entry_at(6), "inputs_b");
    verify_section(entry_at(7), "outputs");
  }

  // --- reconstruction ---------------------------------------------------
  const auto u32_view = [&](const Entry& e) {
    return std::span<const std::uint32_t>(
        reinterpret_cast<const std::uint32_t*>(base_ptr + e.offset),
        static_cast<std::size_t>(e.length / vid));
  };
  cdag::Cdag cdag;
  cdag.n = static_cast<std::size_t>(n);
  cdag.base = static_cast<std::size_t>(base);
  cdag.num_products = static_cast<std::size_t>(num_products);
  cdag.algorithm_name.assign(
      reinterpret_cast<const char*>(meta + 56),
      static_cast<std::size_t>(name_len));

  cdag.graph = graph::CsrGraph::from_frozen_parts(
      {u32_view(entry_at(0)), keep_alive},
      {u32_view(entry_at(1)), keep_alive},
      {u32_view(entry_at(2)), keep_alive},
      {u32_view(entry_at(3)), keep_alive},
      verify == Verify::kFull
          ? graph::CsrGraph::PartsValidation::kValidate
          : graph::CsrGraph::PartsValidation::kTrustChecksummed);
  FMM_CHECK_MSG(cdag.graph.num_vertices() == nv &&
                    cdag.graph.num_edges() == ne,
                "snapshot: reconstructed graph shape disagrees with meta");

  const Entry& roles_entry = entry_at(4);
  const auto* roles_ptr =
      reinterpret_cast<const cdag::Role*>(base_ptr + roles_entry.offset);
  cdag.roles.assign(roles_ptr, roles_ptr + nv);
  if (verify == Verify::kFull) {
    for (std::size_t v = 0; v < nv; ++v) {
      FMM_CHECK_MSG(static_cast<std::uint8_t>(cdag.roles[v]) <=
                        static_cast<std::uint8_t>(cdag::Role::kOutput),
                    "snapshot: vertex " << v << " has invalid role");
    }
  }

  const auto id_list = [&](const Entry& e, const char* what) {
    const auto view = u32_view(e);
    std::vector<graph::VertexId> ids(view.begin(), view.end());
    for (const graph::VertexId v : ids) {
      FMM_CHECK_MSG(v < nv, "snapshot: " << what << " id " << v
                                         << " out of range " << nv);
    }
    return ids;
  };
  cdag.inputs_a = id_list(entry_at(5), "inputs_a");
  cdag.inputs_b = id_list(entry_at(6), "inputs_b");
  cdag.outputs = id_list(entry_at(7), "outputs");

  cdag.subproblem_levels.resize(num_levels);
  for (std::size_t i = 0; i < num_levels; ++i) {
    cdag::SubproblemLevel& level = cdag.subproblem_levels[i];
    std::tie(level.r, level.count) = levels[i];
    level.output_pool = {u32_view(entry_at(8 + 4 * i)), keep_alive};
    level.input_pool = {u32_view(entry_at(9 + 4 * i)), keep_alive};
    level.span_begin = {u32_view(entry_at(10 + 4 * i)), keep_alive};
    level.span_end = {u32_view(entry_at(11 + 4 * i)), keep_alive};
    if (verify == Verify::kFull) {
      for (const graph::VertexId v : level.output_pool) {
        FMM_CHECK_MSG(v < nv, "snapshot: level " << i
                                                 << " output id out of range");
      }
      for (const graph::VertexId v : level.input_pool) {
        FMM_CHECK_MSG(v < nv, "snapshot: level " << i
                                                 << " input id out of range");
      }
      for (std::size_t s = 0; s < level.count; ++s) {
        FMM_CHECK_MSG(level.span_begin[s] <= level.span_end[s] &&
                          level.span_end[s] <= nv,
                      "snapshot: level " << i << " sub-problem " << s
                                         << " span out of range");
      }
    }
  }
  return cdag;
}

void write_snapshot_file(const cdag::Cdag& cdag, const std::string& path) {
  write_file_checked(path, serialize_snapshot(cdag));
}

#ifdef __unix__

namespace {

/// Shared owner of one read-only mapping; the last FrozenArray view (or
/// the Cdag holding it) to let go unmaps the file.
struct Mapping {
  void* addr = nullptr;
  std::size_t size = 0;
  ~Mapping() {
    if (addr != nullptr) {
      ::munmap(addr, size);
    }
  }
};

}  // namespace

cdag::Cdag load_snapshot_file(const std::string& path, Verify verify) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  FMM_CHECK_MSG(fd >= 0, "snapshot: cannot open " << path);
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    FMM_CHECK_MSG(false, "snapshot: cannot stat " << path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    FMM_CHECK_MSG(false, "snapshot: truncated (" << size << " bytes): "
                                                 << path);
  }
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  if (verify == Verify::kFull) {
    flags |= MAP_POPULATE;  // the verify pass reads every page anyway
  }
#endif
  void* addr = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
  ::close(fd);
  FMM_CHECK_MSG(addr != MAP_FAILED, "snapshot: mmap failed for " << path);
  auto mapping = std::make_shared<Mapping>();
  mapping->addr = addr;
  mapping->size = size;
  return deserialize_snapshot(
      {static_cast<const std::byte*>(addr), size}, mapping, verify);
}

#else  // !__unix__

cdag::Cdag load_snapshot_file(const std::string& path, Verify verify) {
  std::ifstream in(path, std::ios::binary);
  FMM_CHECK_MSG(in.is_open(), "snapshot: cannot open " << path);
  auto buffer = std::make_shared<std::string>(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(buffer->data()), buffer->size()},
      buffer, verify);
}

#endif  // __unix__

}  // namespace fmm::snapshot
