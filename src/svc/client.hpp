// Thin blocking client for the JSONL recovery service: one TCP
// connection, one request line out, one response line back. Used by
// examples/pm_client, perfbench's serve workloads and the in-process
// server tests; anything that can write a line of JSON to a socket (netcat,
// a five-line Python script) speaks the same protocol.
#pragma once

#include <string>

#include "util/json.hpp"

namespace pm::svc {

class Client {
 public:
  /// Connects immediately. Throws std::runtime_error when the server is
  /// unreachable.
  Client(const std::string& host, int port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one raw line (newline appended) and returns the raw response
  /// line (newline stripped). Throws std::runtime_error when the
  /// connection drops mid-exchange.
  std::string roundtrip_line(const std::string& line);

  /// Serializes `request` compactly, exchanges it, parses the response.
  util::JsonValue request(const util::JsonValue& request_doc);

  /// Convenience verbs.
  util::JsonValue health();
  util::JsonValue metrics();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< Bytes past the last returned line.
};

}  // namespace pm::svc
