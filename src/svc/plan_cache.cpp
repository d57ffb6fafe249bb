#include "svc/plan_cache.hpp"

namespace pm::svc {

PlanCache::PlanCache(std::size_t byte_budget, obs::MetricsRegistry* metrics)
    : byte_budget_(byte_budget),
      hits_(metrics != nullptr
                ? metrics->counter("svc_cache_hits_total",
                                   "plan cache lookups served from cache")
                : own_hits_),
      misses_(metrics != nullptr
                  ? metrics->counter("svc_cache_misses_total",
                                     "plan cache lookups that missed")
                  : own_misses_),
      evictions_(metrics != nullptr
                     ? metrics->counter("svc_cache_evictions_total",
                                        "entries evicted by the LRU budget")
                     : own_evictions_),
      oversize_(metrics != nullptr
                    ? metrics->counter(
                          "svc_cache_oversize_total",
                          "payloads larger than the whole cache budget")
                    : own_oversize_),
      bytes_gauge_(metrics != nullptr
                       ? metrics->gauge("svc_cache_bytes",
                                        "resident cache size in bytes")
                       : own_bytes_) {}

std::optional<std::string> PlanCache::get(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.inc();
  return it->second->second;
}

std::optional<std::string> PlanCache::peek(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.inc();
  return it->second->second;
}

void PlanCache::put(const std::string& key, std::string payload) {
  // Entries are charged size(); spare capacity moved in would be
  // resident but uncharged.
  payload.shrink_to_fit();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cost(key, payload) > byte_budget_) {
    oversize_.inc();
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: recharge the (possibly different) payload size.
    bytes_ -= cost(key, it->second->second);
    it->second->second = std::move(payload);
    bytes_ += cost(key, it->second->second);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.emplace_front(key, std::move(payload));
    index_[key] = lru_.begin();
    bytes_ += cost(key, lru_.front().second);
  }
  evict_until_fits_locked();
  bytes_gauge_.set(static_cast<double>(bytes_));
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  bytes_gauge_.set(0.0);
}

std::size_t PlanCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t PlanCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void PlanCache::evict_until_fits_locked() {
  while (bytes_ > byte_budget_ && !lru_.empty()) {
    const auto& [key, payload] = lru_.back();
    bytes_ -= cost(key, payload);
    index_.erase(key);
    lru_.pop_back();
    evictions_.inc();
  }
}

}  // namespace pm::svc
