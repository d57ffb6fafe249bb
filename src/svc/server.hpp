// JSONL-over-loopback-TCP front end of the recovery service.
//
// Threading model: one request thread per connection, plus an acceptor.
//   * the acceptor blocks in accept() and spawns one thread per
//     connection; stop() wakes it by shutting the listening socket down;
//   * a connection thread reads newline-delimited requests and answers
//     each one itself: `health`/`metrics` and cache hits at once, and a
//     `solve` that misses by computing it once admission control lets
//     it. Admitted misses compute in admission (FIFO) order, at most
//     EngineConfig::jobs (--jobs) of them at once.
//
// Admission control contract (DESIGN.md "Recovery service"): a cache
// hit is answered before admission — warm requests never take a queue
// slot, stay fast under backlog, and cannot be shed. A solve that needs
// compute and arrives while max_queue admitted solves are waiting for a
// compute slot is shed immediately with a structured `overloaded` error
// — the server never queues unboundedly and never blocks a client to
// create backpressure it cannot see. Deadlines are stamped at admission,
// so time spent waiting counts against them; an expired request is
// answered `deadline_exceeded` without computing. Malformed lines are
// answered `bad_request` and the connection stays open — one bad client
// line never takes the server down.
//
// Shutdown: stop() (or run_until_shutdown() observing
// util::shutdown_requested()) closes the listening socket, lets every
// connection finish the requests it already admitted, then joins all
// threads — a graceful drain, not an abort.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "svc/engine.hpp"

namespace pm::svc {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Admitted solves that may wait for a compute slot; a solve arriving
  /// while this many wait is shed with an `overloaded` error.
  int max_queue = 64;
};

class Server {
 public:
  /// The engine must outlive the server.
  Server(Engine& engine, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1, listens and spawns the acceptor.
  /// Throws std::runtime_error for a port outside [0, 65535], a
  /// negative max_queue, or when the socket cannot be set up.
  void start();

  /// The bound port (resolves config.port == 0 after start()).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Graceful drain; idempotent. Completes admitted requests, then joins
  /// every thread.
  void stop();

  /// start() if needed, then block until stop() is called from another
  /// thread or util::shutdown_requested() turns true (SIGINT/SIGTERM).
  void run_until_shutdown();

 private:
  struct Connection {
    int fd = -1;  ///< -1 once closed; closed under connections_mutex_.
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptor_loop();
  void connection_loop(Connection* connection);
  /// Handles one request line; returns the response line (no newline).
  std::string handle_line(const std::string& line);
  std::string handle_solve(const Request& request);
  /// Joins connection threads that have finished (called after each
  /// accept so a busy server does not accumulate dead threads).
  void reap_finished_connections();

  Engine& engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;

  std::thread acceptor_;
  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
  int open_connections_ = 0;  ///< Guarded by connections_mutex_.

  // Admitted misses hold FIFO tickets; ticket t may compute once every
  // earlier ticket has started and fewer than max(1, jobs) solves are
  // computing. Waiting = next_ticket_ - next_to_compute_.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t next_to_compute_ = 0;
  int computing_ = 0;

  obs::Counter& requests_solve_;
  obs::Counter& requests_health_;
  obs::Counter& requests_metrics_;
  obs::Counter& bad_requests_;
  obs::Counter& shed_;
  obs::Gauge& queue_depth_;
  obs::Gauge& connections_gauge_;
};

}  // namespace pm::svc
