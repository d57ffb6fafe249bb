#include "graph/diversity_cache.hpp"

namespace pm::graph {

void DiversityCache::sync(const Graph& g) {
  if (graph_ == &g && epoch_ == g.epoch() &&
      dist_.size() == static_cast<std::size_t>(g.node_count())) {
    return;
  }
  graph_ = &g;
  epoch_ = g.epoch();
  dist_.assign(static_cast<std::size_t>(g.node_count()), {});
  memo_.assign(static_cast<std::size_t>(g.node_count()), {});
}

const std::vector<int>& DiversityCache::distances(const Graph& g,
                                                  NodeId dst) {
  g.check_node(dst);
  sync(g);
  auto& d = dist_[static_cast<std::size_t>(dst)];
  if (d.empty() && g.node_count() > 0) d = hop_distances(g, dst);
  return d;
}

std::int64_t DiversityCache::diversity(const Graph& g, NodeId src,
                                       NodeId dst) {
  g.check_node(src);
  g.check_node(dst);
  sync(g);
  auto& row = memo_[static_cast<std::size_t>(dst)];
  if (row.empty()) {
    row.assign(static_cast<std::size_t>(g.node_count()), -1);
  }
  auto& slot = row[static_cast<std::size_t>(src)];
  if (slot >= 0) return slot;
  slot = path_diversity(g, src, dst, options_, distances(g, dst));
  return slot;
}

}  // namespace pm::graph
