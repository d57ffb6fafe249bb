#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

namespace pm::util {

TaskPool::TaskPool(int jobs) : jobs_(std::max(1, jobs)) {}

int TaskPool::hardware_jobs() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void TaskPool::run_indexed(std::size_t n,
                           const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  const std::size_t wanted =
      std::min(static_cast<std::size_t>(jobs_), n) - 1;
  helpers.reserve(wanted);
  try {
    while (helpers.size() < wanted) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // Out of threads: the helpers already started and the caller cover the
    // remaining indices.
  }
  drain();
  for (std::thread& helper : helpers) helper.join();

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace pm::util
