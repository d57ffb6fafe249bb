// Epoch-guarded memo cache for the path-diversity hot path.
//
// sdwan::Network evaluates path_diversity(i, dst) for every switch of every
// flow path — tens of thousands of queries on an all-pairs flow set, but
// against only O(n) distinct destinations. Each uncached path_diversity call
// pays a fresh BFS from dst before the bounded DFS; this cache computes the
// per-destination hop-distance vector once and memoizes the (src, dst)
// diversity result, so repeated queries cost one vector lookup.
//
// Entries are keyed on Graph::epoch(): any structural mutation (add_edge)
// invalidates the whole cache on the next query, so a cache can outlive
// graph construction without ever serving stale counts.
//
// The cache is NOT internally synchronized. Each thread (each
// sdwan::Network under construction, each pool worker building its own
// scenario) owns its own instance; sharing one across threads requires
// external locking.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/path_count.hpp"

namespace pm::graph {

class DiversityCache {
 public:
  explicit DiversityCache(PathCountOptions options = {})
      : options_(options) {}

  const PathCountOptions& options() const { return options_; }

  /// Memoized path_diversity(g, src, dst, options()). First query against a
  /// given dst computes and caches hop_distances(g, dst); later queries for
  /// any src reuse it.
  std::int64_t diversity(const Graph& g, NodeId src, NodeId dst);

  /// The cached hop-distance vector from every node to `dst` (computing it
  /// on first use). Valid until the next mutation of `g` or query against a
  /// different graph.
  const std::vector<int>& distances(const Graph& g, NodeId dst);

 private:
  /// Rebinds the cache to (g, g.epoch()), clearing it if either changed.
  void sync(const Graph& g);

  PathCountOptions options_;
  const Graph* graph_ = nullptr;  // identity only; never dereferenced stale
  std::uint64_t epoch_ = 0;
  std::vector<std::vector<int>> dist_;        // [dst] -> hops; empty = unset
  std::vector<std::vector<std::int64_t>> memo_;  // [dst][src]; -1 = unset
};

}  // namespace pm::graph
