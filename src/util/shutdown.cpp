#include "util/shutdown.hpp"

#include <atomic>
#include <csignal>

namespace pm::util {

namespace {

std::atomic<bool> g_shutdown{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free flag");

void pm_shutdown_handler(int signum) {
  if (g_shutdown.exchange(true, std::memory_order_relaxed)) {
    // Second signal: give up on graceful flushing and let the default
    // disposition terminate the process.
    std::signal(signum, SIG_DFL);
    std::raise(signum);
  }
}

}  // namespace

void install_shutdown_handler() {
  std::signal(SIGINT, pm_shutdown_handler);
  std::signal(SIGTERM, pm_shutdown_handler);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

}  // namespace pm::util
