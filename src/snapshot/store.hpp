// Content-addressed snapshot store — the fabric's shared second-level
// CDAG cache.
//
// A store is a directory of fmm.snap files named
// `<scheme-fingerprint>-n<N>.fmmsnap`: the scheme fingerprint (the same
// FNV-1a content hash the service cache keys on, see
// src/service/cache.hpp) plus the problem size fully determine the
// frozen CDAG, so a filename IS a cache key and files never need
// invalidation — only eviction.  Multiple processes (the fork/exec
// worker fabric) share one directory: writers publish atomically
// (stream to `<name>.tmp.<pid>`, then rename — the same
// crash-consistency discipline as resilience::CheckpointWriter), so
// readers either see a complete, checksummed file or no file at all.
//
// Load misses are cheap (one stat); corrupt, truncated or
// version-mismatched files are refused by the format layer's
// validation, counted, quarantined aside (renamed `*.quarantined` so
// the next process doesn't trip on them) and reported as a miss — the
// caller then rebuilds and republishes.  An optional byte budget evicts
// oldest-mtime snapshots after each publish (never the file just
// published, never the last file standing).
//
// Registry metrics: snapshot.lookups / hits / misses / publishes /
// evictions / corrupt_rejected (counters), snapshot.files /
// snapshot.store_bytes (gauges, refreshed on every store operation).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "snapshot/format.hpp"

namespace fmm::snapshot {

struct SnapshotStoreConfig {
  /// Directory holding the `.fmmsnap` files; created if missing.
  std::string directory;
  /// Evict oldest snapshots after a publish pushes the directory past
  /// this many bytes; 0 means unlimited.
  std::uint64_t byte_budget = 0;
  /// Verification depth for loads.  kFull (default) re-derives every
  /// checksum — the safe production path; kMapped is the O(1)
  /// cold-start path for stores whose files were fully verified when
  /// published (see docs/SNAPSHOTS.md for the trust model).
  Verify load_verify = Verify::kFull;
};

class SnapshotStore {
 public:
  explicit SnapshotStore(SnapshotStoreConfig config);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// `<fingerprint>-n<N>.fmmsnap` — the content address.
  static std::string snapshot_filename(const std::string& fingerprint,
                                       std::size_t n);

  /// Absolute path of the snapshot for (fingerprint, n).
  std::string path_for(const std::string& fingerprint, std::size_t n) const;

  /// Loads the snapshot for (fingerprint, n) if present and valid.
  /// A refused file (corrupt/truncated/foreign version) is quarantined
  /// and reported as a miss with a one-line stderr diagnostic.
  std::optional<cdag::Cdag> try_load(const std::string& fingerprint,
                                     std::size_t n);

  /// Atomically publishes `cdag` unless a snapshot for (fingerprint, n)
  /// already exists (first writer wins — callers in other processes may
  /// have raced us), streaming it from the CDAG's arrays
  /// (write_snapshot_file).  Returns true if this call published.
  /// Applies the byte budget afterwards.
  bool publish(const std::string& fingerprint, std::size_t n,
               const cdag::Cdag& cdag);

  const std::string& directory() const { return config_.directory; }

  /// Store stats as a versioned JSON object (schema fmm.snapshot v1):
  /// directory, the snapshot.* counter values, and a live file/byte
  /// census — the run report's `extra.snapshot` section.
  std::string stats_json() const;

 private:
  /// Oldest-mtime eviction down to the byte budget; `protect` (a
  /// filename) is never evicted, nor is the last remaining file.
  void evict_to_budget_locked(const std::string& protect);

  /// Refreshes the snapshot.files / snapshot.store_bytes gauges.
  void refresh_census_locked() const;

  SnapshotStoreConfig config_;
  mutable std::mutex mutex_;
};

}  // namespace fmm::snapshot
