// Fork-join parallel_map primitive for the sweep drivers.
//
// Determinism contract (DESIGN.md "Parallel execution & caching"): the
// sweep drivers treat every scenario — topology x failure-count x seed x
// algorithm — as an independent task whose inputs are fully determined
// by its submission index. parallel_map(items, fn) calls fn(index, item)
// exactly once per item, collects results in submission order and
// rethrows the lowest-index exception, so a task function that reads
// only its arguments (seeding any RNG from the index, never from shared
// state) produces output byte-identical to the serial loop it replaced,
// regardless of thread count or scheduling.
//
// Threads: a TaskPool holds no threads. Each run_indexed call starts
// min(jobs, n) - 1 helper threads, the calling thread works alongside
// them, and every helper is joined before the call returns. --jobs=1
// therefore starts no thread at all and runs everything inline. Calls are
// independent: concurrent callers and nested calls from inside a task
// each start their own helpers, so none waits for another's slots.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace pm::util {

class TaskPool {
 public:
  /// `jobs` < 1 is clamped to 1.
  explicit TaskPool(int jobs = 1);

  /// Maximum concurrent tasks of one call (helpers + the calling thread).
  int jobs() const { return jobs_; }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to report 0).
  static int hardware_jobs();

  /// Runs fn(i) for every i in [0, n) and returns when all have finished.
  /// If any task threw, rethrows the exception of the lowest failing index
  /// after every index has been attempted. A helper that cannot be started
  /// is not an error: the threads already running drain its share.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const;

  /// Applies fn(index, item) to every item; results in submission order.
  /// The result type must be move-constructible.
  template <typename T, typename Fn>
  auto parallel_map(const std::vector<T>& items, Fn&& fn) const
      -> std::vector<decltype(fn(std::size_t{0}, items[0]))> {
    using R = decltype(fn(std::size_t{0}, items[0]));
    std::vector<std::optional<R>> slots(items.size());
    run_indexed(items.size(),
                [&](std::size_t i) { slots[i].emplace(fn(i, items[i])); });
    std::vector<R> out;
    out.reserve(items.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  int jobs_;
};

}  // namespace pm::util
