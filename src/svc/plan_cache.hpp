// Content-addressed cache of serialized recovery plans.
//
// Keys are the canonical request strings of protocol.hpp
// (canonical_key), values the deterministic JSON payloads the Engine
// serializes — the same bytes that go onto the wire and that a repeat
// request must reproduce exactly. Because payloads are deterministic
// (timing fields are zeroed before serialization), a hit is
// indistinguishable from a recompute except for latency.
//
// Eviction is strict LRU under a byte budget: every entry is charged
// key.size() + payload.size() (payloads are stored without spare
// capacity, so the charge is what stays resident), inserts evict
// least-recently-used
// entries until the total fits, and an entry larger than the whole
// budget is simply not stored (counted, never cached). Hit/miss/
// eviction counters and the resident-bytes gauge live in the
// obs::MetricsRegistry handed to the constructor, so the service's
// `metrics` verb exposes cache effectiveness without extra plumbing.
//
// Thread-safe: one mutex around the index; the server's connection
// threads probe and fill it concurrently.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"

namespace pm::svc {

class PlanCache {
 public:
  /// The counters and the gauge live in `metrics`, which must outlive
  /// the cache.
  PlanCache(std::size_t byte_budget, obs::MetricsRegistry& metrics);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the payload and refreshes recency, or nullopt on a miss.
  std::optional<std::string> get(const std::string& key);

  /// Like get(), but a miss is not counted — for front-end fast paths
  /// that fall back to the full solve path (which counts the miss when
  /// it probes again). A present entry still counts as a hit and is
  /// refreshed.
  std::optional<std::string> peek(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting LRU entries until the
  /// budget holds. Oversized payloads are dropped, not cached.
  void put(const std::string& key, std::string payload);

  /// Drops every entry (keeps the counters).
  void clear();

  std::size_t byte_budget() const { return byte_budget_; }
  std::size_t bytes() const;
  std::size_t entries() const;
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::uint64_t evictions() const { return evictions_.value(); }

 private:
  /// Charged size of one entry.
  static std::size_t cost(const std::string& key,
                          const std::string& payload) {
    return key.size() + payload.size();
  }
  void evict_until_fits_locked();

  const std::size_t byte_budget_;

  mutable std::mutex mutex_;
  /// MRU at the front; each node owns (key, payload).
  std::list<std::pair<std::string, std::string>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  std::size_t bytes_ = 0;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& oversize_;
  obs::Gauge& bytes_gauge_;
};

}  // namespace pm::svc
