// JSONL-over-loopback-TCP front end of the recovery service.
//
// Threading model:
//   * an acceptor thread polls the listening socket (100 ms tick, so
//     stop() and SIGINT are honored promptly) and spawns one thread per
//     connection;
//   * connection threads read newline-delimited requests, answer
//     `health`/`metrics` inline, and push `solve` requests through
//     admission control into a bounded queue;
//   * EngineConfig::jobs worker threads (--jobs) each pop the oldest
//     queued request and run Engine::solve on it, so up to `jobs`
//     misses compute at once and a request waits only while every
//     worker is busy.
//
// Admission control contract (DESIGN.md "Recovery service"): a cache
// hit is answered inline on the connection thread before admission —
// warm requests never consume a queue slot, stay fast under backlog,
// and cannot be shed. A solve that needs compute and arrives while the
// queue holds max_queue requests is shed immediately with a structured
// `overloaded` error — the server never queues unboundedly and never
// blocks a client to create backpressure it cannot see. Deadlines are
// stamped at admission, so time spent queued counts against them; an
// expired request is answered `deadline_exceeded` without computing.
// Malformed lines are answered `bad_request` and the connection stays
// open — one bad client line never takes the server down.
//
// Shutdown: stop() (or run_until_shutdown() observing
// util::shutdown_requested()) closes the listening socket, lets the
// workers complete every already-queued request, answers in-flight
// connections, then joins all threads — a graceful drain, not an abort.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/engine.hpp"

namespace pm::svc {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Bounded queue depth; a solve arriving on a full queue is shed with
  /// an `overloaded` error.
  int max_queue = 64;
  /// Deadline applied to solve requests that carry none; <= 0 = none.
  double default_deadline_ms = 0.0;
};

class Server {
 public:
  /// The engine must outlive the server.
  Server(Engine& engine, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1, listens, spawns the acceptor and the workers.
  /// Throws std::runtime_error when the socket cannot be set up.
  void start();

  /// The bound port (resolves config.port == 0 after start()).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Graceful drain; idempotent. Completes queued requests, then joins
  /// every thread.
  void stop();

  /// start() if needed, then block until stop() is called from another
  /// thread or util::shutdown_requested() turns true (SIGINT/SIGTERM).
  void run_until_shutdown();

 private:
  struct PendingSolve {
    SolveJob job;
    std::promise<SolveOutcome> promise;
  };
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptor_loop();
  void worker_loop();
  void connection_loop(Connection* connection);
  /// Handles one request line; returns the response line (no newline).
  std::string handle_line(const std::string& line);
  std::string handle_solve(const Request& request);
  /// Joins connection threads that have finished (called on the
  /// acceptor's tick so idle servers do not accumulate dead threads).
  void reap_finished_connections();

  Engine& engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<PendingSolve>> queue_;

  obs::Counter& requests_solve_;
  obs::Counter& requests_health_;
  obs::Counter& requests_metrics_;
  obs::Counter& bad_requests_;
  obs::Counter& shed_;
  obs::Gauge& queue_depth_;
  obs::Gauge& connections_gauge_;
};

}  // namespace pm::svc
