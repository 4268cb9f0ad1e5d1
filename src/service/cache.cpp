#include "service/cache.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace fmm::service {

namespace {

obs::Counter& hits_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("service.cache.hits");
  return c;
}

obs::Counter& misses_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("service.cache.misses");
  return c;
}

obs::Counter& evictions_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("service.cache.evictions");
  return c;
}

}  // namespace

std::size_t cdag_memory_bytes(const cdag::Cdag& cdag) {
  std::size_t bytes = cdag.graph.memory_bytes();
  bytes += cdag.roles.size() * sizeof(cdag::Role);
  bytes += (cdag.inputs_a.size() + cdag.inputs_b.size() +
            cdag.outputs.size()) *
           sizeof(graph::VertexId);
  for (const cdag::SubproblemLevel& level : cdag.subproblem_levels) {
    bytes += (level.output_pool.size() + level.input_pool.size() +
              level.span_begin.size() + level.span_end.size()) *
             sizeof(graph::VertexId);
  }
  return bytes;
}

ContentCache::ContentCache(CacheConfig config) : config_(config) {
  FMM_CHECK_MSG(config_.shards >= 1,
                "cache: shards must be >= 1, got " << config_.shards);
  shard_budget_ = config_.memory_budget_bytes / config_.shards;
  if (config_.memory_budget_bytes > 0 && shard_budget_ == 0) {
    shard_budget_ = 1;  // tiny budgets still admit one entry per shard
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string ContentCache::cdag_key(const std::string& algorithm,
                                   std::size_t n) {
  return "cdag/" + fingerprint64(algorithm + "|" +
                                             std::to_string(n));
}

std::string ContentCache::result_key(const std::string& canonical_request) {
  return "result/" + fingerprint64(canonical_request);
}

ContentCache::Shard& ContentCache::shard_for(const std::string& key) {
  // The key's tail is already an FNV-1a hex fingerprint, so a cheap
  // polynomial re-hash spreads shards evenly.
  return *shards_[fnv1a64(key, kFnvTruncatedBasis) % shards_.size()];
}

void ContentCache::touch_locked(Shard& shard,
                                std::list<Entry>::iterator it) {
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
}

void ContentCache::insert_locked(Shard& shard, Entry entry) {
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index[shard.lru.front().key] = shard.lru.begin();
  // Evict least-recently-used entries until the budget holds — but
  // never the entry just inserted; one oversized entry living alone
  // beats rebuilding it on every request.
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_counter().increment();
  }
}

std::shared_ptr<const cdag::Cdag> ContentCache::get_or_build_cdag(
    const std::string& key, const std::function<cdag::Cdag()>& build) {
  obs::PhaseFrame* frame = obs::current_phase_frame();
  if (config_.memory_budget_bytes == 0) {
    misses_counter().increment();
    const ScopedNsAccumulator build_timer(
        frame != nullptr ? &frame->cdag_build_ns : nullptr);
    return std::make_shared<const cdag::Cdag>(build());
  }
  Shard& shard = shard_for(key);
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      touch_locked(shard, it->second);
      hits_counter().increment();
      return it->second->cdag;
    }
    if (!shard.building.count(key)) {
      break;
    }
    // Single-flight: wait for the in-flight build of this key.  If it
    // throws, waiters wake to no entry and no builder, and retry.
    // The waited time is attributed to the current request's span so
    // coalesced requests are distinguishable from fresh builds.
    const ScopedNsAccumulator wait_timer(
        frame != nullptr ? &frame->singleflight_wait_ns : nullptr);
    shard.build_done.wait(lock);
  }
  misses_counter().increment();
  shard.building.insert(key);
  lock.unlock();
  std::shared_ptr<const cdag::Cdag> built;
  try {
    const ScopedNsAccumulator build_timer(
        frame != nullptr ? &frame->cdag_build_ns : nullptr);
    built = std::make_shared<const cdag::Cdag>(build());
  } catch (...) {
    lock.lock();
    shard.building.erase(key);
    shard.build_done.notify_all();
    throw;
  }
  Entry entry;
  entry.cdag = built;
  entry.key = key;
  entry.bytes = cdag_memory_bytes(*built);
  lock.lock();
  shard.building.erase(key);
  shard.build_done.notify_all();
  if (!shard.index.count(key)) {
    insert_locked(shard, std::move(entry));
  }
  return built;
}

std::shared_ptr<const std::string> ContentCache::get_payload(
    const std::string& key) {
  if (config_.memory_budget_bytes == 0) {
    misses_counter().increment();
    return nullptr;
  }
  Shard& shard = shard_for(key);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_counter().increment();
    return nullptr;
  }
  touch_locked(shard, it->second);
  hits_counter().increment();
  return it->second->payload;
}

void ContentCache::put_payload(const std::string& key, std::string payload) {
  if (config_.memory_budget_bytes == 0) {
    return;
  }
  Shard& shard = shard_for(key);
  Entry entry;
  entry.key = key;
  entry.bytes = key.size() + payload.size() + sizeof(Entry);
  entry.payload = std::make_shared<const std::string>(std::move(payload));
  const std::scoped_lock lock(shard.mutex);
  if (shard.index.count(key)) {
    return;  // another thread landed the identical bytes first
  }
  insert_locked(shard, std::move(entry));
}

CacheStats ContentCache::stats() const {
  CacheStats stats;
  stats.hits = hits_counter().value();
  stats.misses = misses_counter().value();
  stats.evictions = evictions_counter().value();
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    stats.entries += static_cast<std::int64_t>(shard->lru.size());
    stats.bytes += static_cast<std::int64_t>(shard->bytes);
  }
  auto& registry = obs::Registry::instance();
  registry.gauge("service.cache.entries").set(stats.entries);
  registry.gauge("service.cache.bytes").set(stats.bytes);
  return stats;
}

}  // namespace fmm::service
