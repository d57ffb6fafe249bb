// A sorted-vector map for small, hot key sets: one contiguous array,
// binary-search lookup, iteration in key order (like std::map, so code
// whose output depends on iteration order keeps it). Insertion and
// erasure shift the tail, which is cheap for the few hundred trivially
// copyable entries this is meant for.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pm::util {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

  const_iterator find(const K& key) const {
    const auto it = lower(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  bool contains(const K& key) const { return find(key) != items_.end(); }

  const V& at(const K& key) const {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }

  /// The value at `key`, value-initialized on first access.
  V& operator[](const K& key) {
    const auto pos = lower(key) - items_.begin();
    auto it = items_.begin() + pos;
    if (it == items_.end() || it->first != key) {
      it = items_.insert(it, value_type(key, V{}));
    }
    return it->second;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(const K& key) {
    const auto it = find(key);
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }

 private:
  const_iterator lower(const K& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& k) { return item.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace pm::util
