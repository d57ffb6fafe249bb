#include "svc/server.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
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
    return error_response(id, outcome.error_code, outcome.error_message)
        .to_string(0);
  }
  util::JsonValue head = util::JsonValue::object();
  if (!id.is_null()) head["id"] = id;
  head["ok"] = util::JsonValue(true);
  head["cached"] = util::JsonValue(outcome.cache_hit);
  head["key"] = util::JsonValue(outcome.key);
  head["solve_ms"] = util::JsonValue(outcome.solve_ms);
  std::string line = head.to_string(0);
  line.pop_back();  // strip '}' to splice the result member in
  // Room for the payload, the closing brace and write_line's newline.
  line.reserve(line.size() + outcome.payload.size() + 16);
  line += ",\"result\":";
  line += outcome.payload;
  line += '}';
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
  if (running_.exchange(true)) return;
  stopping_.store(false);
#ifdef M_ARENA_MAX
  // A payload is built on a worker, written by a connection thread and
  // evicted by whichever worker fills the cache next, so every thread
  // frees memory another one allocated. glibc's default of one malloc
  // arena per thread then holds the sum of every arena's peak; one
  // shared arena holds the peak of their sum (about 35 MB less resident
  // on the Waxman-150 miss workload, at no measured cost in throughput).
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

  for (int i = 0; i < std::max(1, engine_.config().jobs); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
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
  // Stop accepting; the acceptor notices stopping_ on its next tick.
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unblock connection reads; their loops answer what they already hold
  // and exit.
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& c : connections_) {
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& c : connections_) {
      if (c->thread.joinable()) c->thread.join();
    }
    connections_.clear();
  }
  // Workers drain the remaining queue, then exit. Notifying under the
  // lock means no worker can miss the wake-up between its check of
  // stopping_ and its wait.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
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
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    reap_finished_connections();
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(connection));
    raw->thread = std::thread([this, raw] { connection_loop(raw); });
    connections_gauge_.set(static_cast<double>(connections_.size()));
  }
}

void Server::reap_finished_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  connections_gauge_.set(static_cast<double>(connections_.size()));
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
                                    "request line exceeds 1 MiB")
                         .to_string(0));
      break;
    }
  }
  ::close(fd);
  connection->done.store(true);
}

std::string Server::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    bad_requests_.inc();
    return error_response(util::JsonValue(), e.code(), e.what())
        .to_string(0);
  }

  switch (request.verb) {
    case Verb::kHealth: {
      requests_health_.inc();
      util::JsonValue head = util::JsonValue::object();
      if (!request.id.is_null()) head["id"] = request.id;
      head["ok"] = util::JsonValue(true);
      util::JsonValue result = util::JsonValue::object();
      result["status"] = util::JsonValue("ok");
      result["switches"] = util::JsonValue(engine_.network().switch_count());
      result["controllers"] =
          util::JsonValue(engine_.network().controller_count());
      result["flows"] = util::JsonValue(engine_.network().flow_count());
      result["ospf_tables"] = util::JsonValue(
          static_cast<std::int64_t>(engine_.legacy_tables().size()));
      result["diameter_hops"] = util::JsonValue(engine_.diameter_hops());
      result["cache_entries"] = util::JsonValue(
          static_cast<std::int64_t>(engine_.cache().entries()));
      result["cache_bytes"] = util::JsonValue(
          static_cast<std::int64_t>(engine_.cache().bytes()));
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        result["queue_depth"] =
            util::JsonValue(static_cast<std::int64_t>(queue_.size()));
      }
      head["result"] = std::move(result);
      return head.to_string(0);
    }
    case Verb::kMetrics: {
      requests_metrics_.inc();
      util::JsonValue head = util::JsonValue::object();
      if (!request.id.is_null()) head["id"] = request.id;
      head["ok"] = util::JsonValue(true);
      head["result"] = engine_.metrics().to_json();
      return head.to_string(0);
    }
    case Verb::kSolve:
      requests_solve_.inc();
      return handle_solve(request);
  }
  return error_response(request.id, kErrInternal, "unhandled verb")
      .to_string(0);
}

std::string Server::handle_solve(const Request& request) {
  // Fast path: cache hits are answered inline on the connection thread,
  // skipping the queue -> worker round trip entirely. They
  // never consume a queue slot, so admission control and deadlines
  // govern only requests that actually compute.
  if (auto cached = engine_.try_cached(request.solve)) {
    return solve_response_line(request.id, *cached);
  }
  auto pending = std::make_unique<PendingSolve>();
  pending->job.params = request.solve;
  double deadline_ms = request.solve.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = config_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    // Stamped at admission: queueing time counts against the budget.
    pending->job.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }
  std::future<SolveOutcome> future = pending->promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_.load()) {
      return error_response(request.id, kErrShuttingDown,
                            "server is shutting down")
          .to_string(0);
    }
    if (queue_.size() >= static_cast<std::size_t>(config_.max_queue)) {
      shed_.inc();
      return error_response(
                 request.id, kErrOverloaded,
                 "request queue full (" +
                     std::to_string(config_.max_queue) +
                     " pending); retry later")
          .to_string(0);
    }
    queue_.push_back(std::move(pending));
    queue_depth_.set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  return solve_response_line(request.id, future.get());
}

void Server::worker_loop() {
  while (true) {
    std::unique_ptr<PendingSolve> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load();
      });
      if (queue_.empty()) return;  // stopping, and nothing left to drain
      pending = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.set(static_cast<double>(queue_.size()));
    }
    pending->promise.set_value(engine_.solve(pending->job));
  }
}

}  // namespace pm::svc
