// Content-addressed cache for the query service.
//
// Two kinds of entries share one budgeted store:
//
//   cdag/<fp>    — a frozen, read-only cdag::Cdag; <fp> is the FNV-1a
//                  fingerprint of "scheme:<scheme-fingerprint>|n", where
//                  the scheme fingerprint is the content hash of the
//                  resolved bilinear scheme (bilinear::SchemeTraits) —
//                  NOT the user-supplied algorithm spelling, so
//                  "strassen" and "file:schemes/strassen_222_7.json"
//                  share one entry.  Building H^{n x n} costs
//                  milliseconds-to-seconds; a warm hit is a shared_ptr
//                  copy.
//   result/<fp>  — the RENDERED result-JSON string of a completed
//                  bound/simulate/liveness/cdag request; <fp> is the
//                  fingerprint of the request's canonical JSON echo
//                  (protocol.hpp, id excluded).  Caching the bytes, not
//                  a struct, is what makes the byte-identical response
//                  contract trivially safe: a hit replays exactly what
//                  a cold run rendered.
//
// The store is a sharded LRU: each shard owns a mutex, an LRU list and
// a byte tally; keys map to shards by fingerprint, so unrelated
// requests never contend.  Budget accounting uses real footprints
// (cdag_memory_bytes for CDAGs, string size for payloads), and
// eviction never removes the entry being inserted — a single entry
// larger than the whole budget is admitted alone rather than thrashing.
// A zero budget disables retention entirely (every lookup misses); the
// bench's "cold" arm and sweep's ephemeral sources use that.
//
// CDAG builds are single-flighted per key: concurrent requests for the
// same missing CDAG wait on the one in-flight build instead of
// duplicating it.  Hits/misses/evictions feed the obs metrics registry
// (service.cache.*), so run reports expose cache effectiveness.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <condition_variable>

#include "cdag/cdag.hpp"

namespace fmm::service {

struct CacheConfig {
  /// Independent LRU shards (>= 1); keys spread by fingerprint.
  std::size_t shards = 8;
  /// Total retained bytes across shards (split evenly); 0 disables
  /// retention — every lookup misses and nothing is kept.
  std::size_t memory_budget_bytes = 256ull << 20;
};

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
};

/// Budget-relevant footprint of a frozen CDAG: the CSR graph plus the
/// role array, vertex lists and sub-problem pools (cdag::census counts it).
std::size_t cdag_memory_bytes(const cdag::Cdag& cdag);

class ContentCache {
 public:
  explicit ContentCache(CacheConfig config = {});

  ContentCache(const ContentCache&) = delete;
  ContentCache& operator=(const ContentCache&) = delete;

  /// Content address of the (algorithm, n) CDAG: "cdag/" + FNV-1a hex.
  static std::string cdag_key(const std::string& algorithm, std::size_t n);
  /// Content address of a rendered result payload, from the request's
  /// canonical (id-free) JSON echo: "result/" + FNV-1a hex.
  static std::string result_key(const std::string& canonical_request);

  /// The CDAG at `key`, running `build` on a miss (single-flight: one
  /// concurrent build per key, later callers wait and share it).
  /// Exceptions from `build` propagate and cache nothing.
  std::shared_ptr<const cdag::Cdag> get_or_build_cdag(
      const std::string& key, const std::function<cdag::Cdag()>& build);

  /// Looks up a rendered payload; returns nullptr on miss.
  std::shared_ptr<const std::string> get_payload(const std::string& key);
  /// Retains a rendered payload under `key` (no-op at zero budget).
  void put_payload(const std::string& key, std::string payload);

  /// Point-in-time totals across shards (also mirrored in the metrics
  /// registry as service.cache.*).
  CacheStats stats() const;

  const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    // Exactly one of the two payload kinds is set.
    std::shared_ptr<const cdag::Cdag> cdag;
    std::shared_ptr<const std::string> payload;
    std::string key;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
    // Single-flight state for CDAG builds.
    std::unordered_set<std::string> building;
    std::condition_variable build_done;
  };

  Shard& shard_for(const std::string& key);
  /// Inserts at the front of `shard`'s LRU and evicts from the back
  /// until the shard budget holds (never evicting the new entry).
  /// Caller holds the shard mutex.
  void insert_locked(Shard& shard, Entry entry);
  void touch_locked(Shard& shard, std::list<Entry>::iterator it);

  CacheConfig config_;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fmm::service
