#include "svc/server.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/log.hpp"
#include "util/shutdown.hpp"

namespace pm::svc {

namespace {

/// Hard cap on one request line; a client exceeding it is answered
/// bad_request and disconnected (it is not speaking the protocol).
constexpr std::size_t kMaxLineBytes = 1u << 20;

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, std::string line) {
  line += '\n';
  return send_all(fd, line);
}

/// Splices the deterministic payload verbatim into the response line so
/// cached and recomputed answers stay byte-identical end to end.
std::string solve_response_line(const util::JsonValue& id,
                                const SolveOutcome& outcome) {
  if (!outcome.ok) {
    return error_response(id, outcome.error_code, outcome.error_message);
  }
  std::string line;
  // Room for the head, the payload and write_line's newline.
  line.reserve(128 + outcome.key.size() + outcome.payload.size());
  util::JsonWriter w(line);
  open_response(w, id, true);
  w.key("cached").boolean(outcome.cache_hit);
  w.key("key").string(outcome.key);
  w.key("solve_ms").number(outcome.solve_ms);
  w.key("result").raw(outcome.payload);
  w.end_object();
  return line;
}

}  // namespace

Server::Server(Engine& engine, ServerConfig config)
    : engine_(engine),
      config_(config),
      requests_solve_(engine.metrics().counter(
          "svc_requests_total", "requests received by verb",
          {{"verb", "solve"}})),
      requests_health_(engine.metrics().counter(
          "svc_requests_total", "requests received by verb",
          {{"verb", "health"}})),
      requests_metrics_(engine.metrics().counter(
          "svc_requests_total", "requests received by verb",
          {{"verb", "metrics"}})),
      bad_requests_(engine.metrics().counter(
          "svc_bad_requests_total",
          "lines answered with a bad_request error")),
      shed_(engine.metrics().counter(
          "svc_shed_total",
          "solve requests shed by admission control (queue full)")),
      queue_depth_(engine.metrics().gauge("svc_queue_depth",
                                          "solve requests waiting")),
      connections_gauge_(engine.metrics().gauge("svc_connections",
                                                "open client connections")) {
}

Server::~Server() { stop(); }

void Server::start() {
  if (config_.port < 0 || config_.port > 65535) {
    throw std::runtime_error("svc::Server: port " +
                             std::to_string(config_.port) +
                             " is outside [0, 65535]");
  }
  if (config_.max_queue < 0) {
    throw std::runtime_error("svc::Server: max_queue " +
                             std::to_string(config_.max_queue) +
                             " is negative");
  }
  if (running_.exchange(true)) return;
  stopping_.store(false);
#ifdef M_ARENA_MAX
  // A payload is built by the connection thread that computed it, kept
  // in the cache and freed by whichever connection thread evicts it
  // later, so threads free memory another one allocated. glibc's
  // default of one malloc arena per thread then holds the sum of every
  // arena's peak; one shared arena holds the peak of their sum (about
  // 35 MB less resident on the Waxman-150 miss workload, at no measured
  // cost in throughput).
  mallopt(M_ARENA_MAX, 1);
#endif

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    throw std::runtime_error("svc::Server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw std::runtime_error(
        "svc::Server: cannot listen on 127.0.0.1:" +
        std::to_string(config_.port) + " (" + std::strerror(errno) + ")");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  acceptor_ = std::thread([this] { acceptor_loop(); });
  obs::log().info("svc: listening on 127.0.0.1:" + std::to_string(port_));
}

void Server::stop() {
  // Serialized: destructor, run_until_shutdown() and explicit callers
  // may all reach here; the first does the drain, the rest wait on the
  // mutex and find running_ false.
  const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!running_.load()) return;
  stopping_.store(true);
  // Stop accepting: shutting the listening socket down makes a blocked
  // accept() return at once.
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Unblock connection reads; each loop answers what it already holds,
  // computing any miss it admitted, and exits. The acceptor is gone, so
  // the list can be taken whole; it is joined outside the lock, which a
  // closing connection takes to update the gauge.
  std::list<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& c : connections_) {
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
    connections.swap(connections_);
  }
  for (const auto& c : connections) c->thread.join();
  running_.store(false);
  obs::log().info("svc: server stopped");
}

void Server::run_until_shutdown() {
  if (!running_.load()) start();
  while (!stopping_.load() && !util::shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  stop();
}

void Server::acceptor_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) continue;
    reap_finished_connections();
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(connection));
    connections_gauge_.set(static_cast<double>(++open_connections_));
    raw->thread = std::thread([this, raw] { connection_loop(raw); });
  }
}

void Server::reap_finished_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::connection_loop(Connection* connection) {
  const int fd = connection->fd;
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    // Bytes before `scan` were already searched and hold no newline, so
    // each byte is scanned once however a line is split across reads.
    std::size_t scan = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', scan);
         nl != std::string::npos; nl = buffer.find('\n', scan)) {
      std::string line = buffer.substr(start, nl - start);
      start = scan = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!write_line(fd, handle_line(line))) {
        alive = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      bad_requests_.inc();
      write_line(fd, error_response(util::JsonValue(), kErrBadRequest,
                                    "request line exceeds 1 MiB"));
      break;
    }
  }
  {
    // Closed under the lock stop() shuts reads down under, so stop()
    // never reaches a descriptor number that was closed and reused.
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    ::close(fd);
    connection->fd = -1;
    connections_gauge_.set(static_cast<double>(--open_connections_));
  }
  connection->done.store(true);
}

std::string Server::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    bad_requests_.inc();
    return error_response(util::JsonValue(), e.code(), e.what());
  }

  switch (request.verb) {
    case Verb::kHealth: {
      requests_health_.inc();
      const sdwan::Network& net = engine_.network();
      std::string line;
      util::JsonWriter w(line);
      open_response(w, request.id, true);
      w.key("result").begin_object();
      w.key("status").string("ok");
      w.key("switches").number(net.switch_count());
      w.key("controllers").number(net.controller_count());
      w.key("flows").number(net.flow_count());
      w.key("diameter_hops").number(engine_.diameter_hops());
      w.key("cache_entries")
          .number(static_cast<double>(engine_.cache().entries()));
      w.key("cache_bytes").number(static_cast<double>(engine_.cache().bytes()));
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        w.key("queue_depth")
            .number(static_cast<double>(next_ticket_ - next_to_compute_));
      }
      w.end_object();
      w.end_object();
      return line;
    }
    case Verb::kMetrics: {
      requests_metrics_.inc();
      std::string line;
      util::JsonWriter w(line);
      open_response(w, request.id, true);
      w.key("result").raw(engine_.metrics().to_json());
      w.end_object();
      return line;
    }
    case Verb::kSolve:
      requests_solve_.inc();
      return handle_solve(request);
  }
  return error_response(request.id, kErrInternal, "unhandled verb");
}

std::string Server::handle_solve(const Request& request) {
  // Fast path: cache hits are answered at once and never take a queue
  // slot, so admission control and deadlines govern only requests that
  // actually compute.
  if (auto cached = engine_.try_cached(request.solve)) {
    return solve_response_line(request.id, *cached);
  }
  // Stamped at admission: waiting time counts against the budget.
  const SolveJob job{request.solve, deadline_after(request.solve.deadline_ms)};
  const int slots = std::max(1, engine_.config().jobs);
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (stopping_.load()) {
      return error_response(request.id, kErrShuttingDown,
                            "server is shutting down");
    }
    if (next_ticket_ - next_to_compute_ >=
        static_cast<std::uint64_t>(config_.max_queue)) {
      shed_.inc();
      return error_response(request.id, kErrOverloaded,
                            "request queue full (" +
                                std::to_string(config_.max_queue) +
                                " pending); retry later");
    }
    const std::uint64_t ticket = next_ticket_++;
    queue_depth_.set(static_cast<double>(next_ticket_ - next_to_compute_));
    queue_cv_.wait(lock, [&] {
      return ticket == next_to_compute_ && computing_ < slots;
    });
    ++next_to_compute_;
    ++computing_;
    queue_depth_.set(static_cast<double>(next_ticket_ - next_to_compute_));
    // The next ticket may start too if a slot is still free.
    queue_cv_.notify_all();
  }
  struct SlotRelease {
    Server& server;
    ~SlotRelease() {
      const std::lock_guard<std::mutex> lock(server.queue_mutex_);
      --server.computing_;
      server.queue_cv_.notify_all();
    }
  };
  SolveOutcome outcome;
  {
    const SlotRelease release{*this};
    outcome = engine_.solve(job);
  }
  return solve_response_line(request.id, outcome);
}

}  // namespace pm::svc
