// Wire protocol of the recovery service: JSONL over loopback TCP.
//
// One request per line, one response per line, both complete JSON
// objects. Requests name a verb:
//
//   {"verb":"solve","failed":[3,4],"algorithm":"pm","deadline_ms":250,
//    "id":"req-1"}
//   {"verb":"metrics"}
//   {"verb":"health"}
//
// Responses echo the request id (when one was given) and either carry a
// result (a solve's is its cached payload, spliced in verbatim) or a
// structured error:
//
//   {"id":"req-1","ok":true,"cached":false,"key":"...","solve_ms":3.1,
//    "result":{...}}
//   {"id":"req-1","ok":false,
//    "error":{"code":"overloaded","message":"..."}}
//
// Error codes are part of the admission-control contract (DESIGN.md
// "Recovery service"): `bad_request` (malformed line, unknown verb or
// algorithm, invalid failure set), `overloaded` (the bounded request
// queue is full — resend later), `deadline_exceeded` (the request's
// deadline passed before its connection thread could start computing
// it), `shutting_down` (server stopping when the request arrived),
// `internal` (bug guard; the failing request is reported, the server
// stays up).
#pragma once

#include <string>
#include <vector>

#include "sdwan/types.hpp"
#include "util/json.hpp"

namespace pm::svc {

inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrInternal = "internal";

/// Malformed request; `code` is one of the wire error codes above.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

enum class Verb { kSolve, kMetrics, kHealth };

/// Parameters of a solve request. `failed` is kept as received;
/// canonical_key() (and the Engine) sort and dedup it, so permuted
/// failure sets are one cache entry.
struct SolveParams {
  std::vector<sdwan::ControllerId> failed;
  std::string algorithm = "pm";  ///< pm | naive | retroflow | pg.
  int retroflow_candidates = 2;  ///< RetroFlow's mapping-candidate knob.
  /// Wall-clock budget from admission to dispatch; <= 0 means none.
  double deadline_ms = 0.0;
};

struct Request {
  Verb verb = Verb::kHealth;
  /// Echoed verbatim in the response; null when the request had none.
  util::JsonValue id;
  SolveParams solve;  ///< Only meaningful when verb == kSolve.
};

/// Algorithm names a solve request may carry, in wire spelling.
const std::vector<std::string>& known_algorithms();

/// Parses one request line. Throws ProtocolError (code bad_request) on
/// malformed JSON, a non-object document, an unknown verb or algorithm,
/// or a failure set that is not an array of integers.
Request parse_request(const std::string& line);

/// Canonical content-address of a solve request: the sorted, deduped
/// failure set plus every knob that changes the plan, rendered as a
/// stable string (e.g. "algo=pm|failed=3,4|rfc=2"). Requests that differ
/// only in failure-set order or duplicates share a key; deadline_ms is
/// excluded — it shapes scheduling, never the plan.
std::string canonical_key(const SolveParams& params);

/// Opens a response object and writes its head, `{"id":...,"ok":<ok>`
/// (`id` omitted when null); the caller adds the rest and closes it.
void open_response(util::JsonWriter& w, const util::JsonValue& id, bool ok);

/// The line {"id":...,"ok":false,"error":{"code":...,"message":...}}.
std::string error_response(const util::JsonValue& id,
                           const std::string& code,
                           const std::string& message);

}  // namespace pm::svc
