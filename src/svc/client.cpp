#include "svc/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace pm::svc {

Client::Client(const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    throw std::runtime_error("svc::Client: port " + std::to_string(port) +
                             " is outside [1, 65535]");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("svc::Client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("svc::Client: bad host address '" + host +
                             "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("svc::Client: cannot connect to " + host +
                             ":" + std::to_string(port) + " (" + error +
                             ")");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::roundtrip_line(const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("svc::Client: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }

  char chunk[64 * 1024];
  // Bytes before `scan` were already searched and hold no newline, so a
  // response split over many reads is scanned once, not once per read.
  std::size_t scan = 0;
  while (true) {
    const std::size_t nl = buffer_.find('\n', scan);
    if (nl != std::string::npos) {
      std::string response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return response;
    }
    scan = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error(
          "svc::Client: connection closed before a response line");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

util::JsonValue Client::health() {
  return util::JsonValue::parse(roundtrip_line(R"({"verb":"health"})"));
}

util::JsonValue Client::metrics() {
  return util::JsonValue::parse(roundtrip_line(R"({"verb":"metrics"})"));
}

}  // namespace pm::svc
