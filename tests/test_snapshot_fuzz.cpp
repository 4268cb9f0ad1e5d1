// Malformed-snapshot fuzz battery (src/snapshot/format.hpp): every byte
// of an fmm.snap file is covered by exactly one of {header checksum,
// table checksum, a section checksum, must-be-zero padding}, so EVERY
// mutation — truncation, bit flip, zeroed word, tampered metadata with
// recomputed checksums, version/endianness forgery — must be refused by
// the Verify::kFull reader with a one-line CheckError, never accepted
// and never dereferenced out of bounds (the sanitize preset runs this
// battery under ASan/UBSan in CI).  The pristine file must keep
// round-tripping bit-identically after the battery, proving the mutants
// never touched shared state.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "snapshot/format.hpp"

namespace fmm::snapshot {
namespace {

const std::string& pristine_bytes() {
  static const std::string bytes =
      serialize_snapshot(cdag::build_cdag(bilinear::strassen(), 8));
  return bytes;
}

cdag::Cdag deserialize_copy(const std::string& bytes, Verify verify) {
  auto keep = std::make_shared<std::string>(bytes);
  return deserialize_snapshot(
      {reinterpret_cast<const std::byte*>(keep->data()), keep->size()},
      keep, verify);
}

/// Asserts the mutant is refused with a single-line diagnostic.  Returns
/// the message for optional content checks.
std::string expect_refused(const std::string& mutant, const char* what) {
  try {
    deserialize_copy(mutant, Verify::kFull);
  } catch (const CheckError& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.find('\n'), std::string::npos)
        << what << ": diagnostic must be one line, got: " << message;
    EXPECT_FALSE(message.empty()) << what;
    return message;
  }
  ADD_FAILURE() << what << ": mutant was ACCEPTED";
  return {};
}

std::uint32_t read_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void write_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

void write_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// Recomputes every section checksum from the (possibly tampered)
/// table, then the table checksum, then the header checksum — the
/// strongest adversary: one who forges all integrity metadata and can
/// only be refused by the structural validation layer.
void fix_checksums(std::string& bytes) {
  const std::uint32_t section_count = read_u32(bytes, 24);
  const std::uint64_t table_bytes =
      std::uint64_t{section_count} * kSectionEntryBytes;
  // A forged section_count can point the table past the buffer; the
  // reader refuses that before ever reading the table, so the helper
  // only fixes what fits.
  if (kHeaderBytes + table_bytes <= bytes.size()) {
    for (std::uint32_t i = 0; i < section_count; ++i) {
      const std::size_t at = kHeaderBytes + i * kSectionEntryBytes;
      const std::uint64_t offset = read_u64(bytes, at + 8);
      const std::uint64_t length = read_u64(bytes, at + 16);
      if (offset <= bytes.size() && length <= bytes.size() - offset) {
        write_u64(bytes, at + 24,
                  snap_checksum(bytes.data() + offset, length));
      }
    }
    write_u64(bytes, 32,
              snap_checksum(bytes.data() + kHeaderBytes,
                            static_cast<std::size_t>(table_bytes)));
  }
  write_u64(bytes, 48, snap_checksum(bytes.data(), 48));
}

TEST(SnapshotFuzz, PristineRoundTripsBitIdentically) {
  const std::string& bytes = pristine_bytes();
  const cdag::Cdag loaded = deserialize_copy(bytes, Verify::kFull);
  EXPECT_EQ(bytes, serialize_snapshot(loaded));
  const cdag::Cdag mapped = deserialize_copy(bytes, Verify::kMapped);
  EXPECT_EQ(bytes, serialize_snapshot(mapped));
}

TEST(SnapshotFuzz, EveryTruncationIsRefused) {
  const std::string& bytes = pristine_bytes();
  // Boundary-dense truncation points: inside the header, inside the
  // table, at section boundaries, and a seeded spread over the payload.
  std::vector<std::size_t> cuts = {0,  1,  8,  63, 64, 65,
                                   kHeaderBytes + kSectionEntryBytes - 1};
  Rng rng(0x5eed5a9u);
  for (int i = 0; i < 48; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.uniform(bytes.size())));
  }
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    expect_refused(bytes.substr(0, cut),
                   ("truncate to " + std::to_string(cut)).c_str());
  }
  // Appending trailing bytes must also be refused (file_bytes pins the
  // exact length).
  expect_refused(bytes + std::string(8, '\0'), "trailing bytes");
}

TEST(SnapshotFuzz, EveryBitFlipIsRefused) {
  const std::string& bytes = pristine_bytes();
  Rng rng(0xb17f11bu);
  for (int i = 0; i < 192; ++i) {
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform(bytes.size()));
    const int bit = static_cast<int>(rng.uniform(8));
    std::string mutant = bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit));
    expect_refused(mutant, ("bit flip at byte " + std::to_string(at) +
                            " bit " + std::to_string(bit))
                               .c_str());
  }
}

TEST(SnapshotFuzz, ZeroedWordsAreRefused) {
  const std::string& bytes = pristine_bytes();
  Rng rng(0x2e20edu);
  int mutations = 0;
  for (int i = 0; i < 64; ++i) {
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform(bytes.size() - 8));
    std::string mutant = bytes;
    if (std::memcmp(mutant.data() + at, "\0\0\0\0\0\0\0\0", 8) == 0) {
      continue;  // zeroing zeros is not a mutation
    }
    std::memset(mutant.data() + at, 0, 8);
    expect_refused(mutant,
                   ("zeroed u64 at " + std::to_string(at)).c_str());
    ++mutations;
  }
  EXPECT_GT(mutations, 0);
}

TEST(SnapshotFuzz, ForeignMagicVersionAndEndiannessAreRefused) {
  const std::string& bytes = pristine_bytes();
  {
    std::string mutant = bytes;
    mutant[0] = 'X';
    fix_checksums(mutant);
    const std::string msg = expect_refused(mutant, "bad magic");
    EXPECT_NE(msg.find("magic"), std::string::npos) << msg;
  }
  {
    std::string mutant = bytes;
    write_u32(mutant, 8, kFormatVersion + 1);
    fix_checksums(mutant);
    const std::string msg = expect_refused(mutant, "future version");
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
  }
  {
    std::string mutant = bytes;
    write_u32(mutant, 12, 0x04030201u);  // byte-swapped endian tag
    fix_checksums(mutant);
    const std::string msg = expect_refused(mutant, "foreign endianness");
    EXPECT_NE(msg.find("endian"), std::string::npos) << msg;
  }
}

TEST(SnapshotFuzz, TamperedChecksumFieldsAreRefused) {
  const std::string& bytes = pristine_bytes();
  // Corrupt each checksum field WITHOUT fixing it up.
  for (const std::size_t at : {std::size_t{32}, std::size_t{48},
                               kHeaderBytes + kSectionEntryBytes - 8}) {
    std::string mutant = bytes;
    write_u64(mutant, at, read_u64(mutant, at) ^ 0xdeadbeefu);
    expect_refused(mutant,
                   ("checksum field at " + std::to_string(at)).c_str());
  }
}

TEST(SnapshotFuzz, OversizedCountsWithForgedChecksumsAreRefused) {
  const std::string& bytes = pristine_bytes();
  // Locate the meta section (canonically section 0, right after the
  // table) and tamper each u64 field to an absurd value, forging all
  // checksums so only the cap/consistency layer can refuse.
  const std::uint64_t meta_offset = read_u64(bytes, kHeaderBytes + 8);
  const char* fields[] = {"n",        "base",       "num_products",
                          "vertices", "edges",      "levels",
                          "name_len"};
  for (std::size_t f = 0; f < 7; ++f) {
    std::string mutant = bytes;
    write_u64(mutant, meta_offset + 8 * f, 1ull << 62);
    fix_checksums(mutant);
    expect_refused(mutant,
                   (std::string("oversized meta field ") + fields[f])
                       .c_str());
  }
  // Oversized section count (header) and section length (table).
  {
    std::string mutant = bytes;
    write_u32(mutant, 24, 1u << 30);
    fix_checksums(mutant);
    expect_refused(mutant, "oversized section count");
  }
  {
    std::string mutant = bytes;
    write_u64(mutant, kHeaderBytes + 16, 1ull << 62);
    fix_checksums(mutant);
    expect_refused(mutant, "oversized section length");
  }
  {
    // Break canonical layout: shift section 0's offset by one
    // alignment quantum (still in bounds, checksums forged).
    std::string mutant = bytes;
    write_u64(mutant, kHeaderBytes + 8,
              read_u64(mutant, kHeaderBytes + 8) + kSectionAlignment);
    fix_checksums(mutant);
    expect_refused(mutant, "non-canonical section offset");
  }
}

TEST(SnapshotFuzz, TamperedLevelStructureIsRefused) {
  const std::string& bytes = pristine_bytes();
  // level_meta is canonically section 1; its (r, count) pairs must be
  // cdag::census_levels' (b^i, t^(L-1-i)) even with forged checksums.
  // Strassen n = 8 has four levels; tamper r and count at each, both
  // ways.
  const std::uint64_t lm_offset =
      read_u64(bytes, kHeaderBytes + kSectionEntryBytes + 8);
  ASSERT_EQ(read_u64(bytes, kHeaderBytes + kSectionEntryBytes + 16), 64u);
  for (std::size_t level = 0; level < 4; ++level) {
    for (const std::size_t field : {std::size_t{0}, std::size_t{8}}) {
      for (const std::uint64_t delta : {std::uint64_t{1}, ~std::uint64_t{0}}) {
        const std::size_t at = lm_offset + 16 * level + field;
        std::string mutant = bytes;
        write_u64(mutant, at, read_u64(mutant, at) + delta);
        fix_checksums(mutant);
        expect_refused(mutant, ("tampered level " + std::to_string(level) +
                                (field == 0 ? " r " : " count ") +
                                (delta == 1 ? "+1" : "-1"))
                                   .c_str());
      }
    }
  }
  // The meta section's level count (its sixth u64) off by one.
  const std::uint64_t meta_offset = read_u64(bytes, kHeaderBytes + 8);
  for (const std::uint64_t delta : {std::uint64_t{1}, ~std::uint64_t{0}}) {
    std::string mutant = bytes;
    write_u64(mutant, meta_offset + 40,
              read_u64(mutant, meta_offset + 40) + delta);
    fix_checksums(mutant);
    expect_refused(mutant, delta == 1 ? "meta levels +1" : "meta levels -1");
  }
}

TEST(SnapshotFuzz, NonzeroPaddingIsRefused) {
  const std::string& bytes = pristine_bytes();
  // Header pad bytes [56, 64) must be zero.
  {
    std::string mutant = bytes;
    mutant[60] = 1;
    expect_refused(mutant, "nonzero header padding");
  }
  // Find an actual inter-section pad byte via the table: end of section
  // 0 up to the 64-byte boundary (meta is never 64-aligned in practice
  // — its length is 56 + name length).
  const std::uint64_t s0_end = read_u64(bytes, kHeaderBytes + 8) +
                               read_u64(bytes, kHeaderBytes + 16);
  if (s0_end % kSectionAlignment != 0) {
    std::string mutant = bytes;
    mutant[s0_end] = 1;
    fix_checksums(mutant);  // padding is outside every checksum
    expect_refused(mutant, "nonzero inter-section padding");
  }
}

TEST(SnapshotFuzz, MutantsNeverPoisonSubsequentLoads) {
  // After the whole battery, the pristine bytes still load and
  // re-serialize bit-identically (no global state was corrupted).
  const std::string& bytes = pristine_bytes();
  EXPECT_EQ(bytes,
            serialize_snapshot(deserialize_copy(bytes, Verify::kFull)));
}

}  // namespace
}  // namespace fmm::snapshot
