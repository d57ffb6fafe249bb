#include "svc/protocol.hpp"

#include <algorithm>

namespace pm::svc {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw ProtocolError(kErrBadRequest, message);
}

std::vector<sdwan::ControllerId> parse_failed(const util::JsonValue& doc) {
  if (!doc.contains("failed")) return {};
  const util::JsonValue& arr = doc.at("failed");
  if (arr.type() != util::JsonValue::Type::kArray) {
    bad("'failed' must be an array of controller ids");
  }
  std::vector<sdwan::ControllerId> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.push_back(arr.at(i).as_int());
  }
  return out;
}

}  // namespace

const std::vector<std::string>& known_algorithms() {
  static const std::vector<std::string> algorithms = {"pm", "naive",
                                                      "retroflow", "pg"};
  return algorithms;
}

Request parse_request(const std::string& line) {
  util::JsonValue doc;
  try {
    doc = util::JsonValue::parse(line);
  } catch (const util::JsonError& e) {
    bad(std::string("malformed JSON: ") + e.what());
  }
  if (doc.type() != util::JsonValue::Type::kObject) {
    bad("request must be a JSON object");
  }

  Request request;
  if (doc.contains("id")) request.id = doc.at("id");

  if (!doc.contains("verb")) bad("missing 'verb'");
  const util::JsonValue& verb = doc.at("verb");
  if (verb.type() != util::JsonValue::Type::kString) {
    bad("'verb' must be a string");
  }
  try {
    if (verb.as_string() == "health") {
      request.verb = Verb::kHealth;
    } else if (verb.as_string() == "metrics") {
      request.verb = Verb::kMetrics;
    } else if (verb.as_string() == "solve") {
      request.verb = Verb::kSolve;
      SolveParams& p = request.solve;
      p.failed = parse_failed(doc);
      if (doc.contains("algorithm")) {
        p.algorithm = doc.at("algorithm").as_string();
      }
      const auto& known = known_algorithms();
      if (std::find(known.begin(), known.end(), p.algorithm) ==
          known.end()) {
        bad("unknown algorithm '" + p.algorithm + "'");
      }
      if (doc.contains("retroflow_candidates")) {
        p.retroflow_candidates = doc.at("retroflow_candidates").as_int();
        if (p.retroflow_candidates < 1) {
          bad("'retroflow_candidates' must be >= 1");
        }
      }
      if (doc.contains("deadline_ms")) {
        p.deadline_ms = doc.at("deadline_ms").as_number();
      }
    } else {
      bad("unknown verb '" + verb.as_string() + "'");
    }
  } catch (const std::logic_error& e) {
    // Wrong field type or missing key inside a known verb.
    bad(std::string("invalid request field: ") + e.what());
  }
  return request;
}

std::string canonical_key(const SolveParams& params) {
  std::vector<sdwan::ControllerId> failed = params.failed;
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());

  std::string key = "algo=" + params.algorithm + "|failed=";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(failed[i]);
  }
  // Only knobs that change the resulting plan take part in the address.
  if (params.algorithm == "retroflow") {
    key += "|rfc=" + std::to_string(params.retroflow_candidates);
  }
  return key;
}

util::JsonValue error_response(const util::JsonValue& id,
                               const std::string& code,
                               const std::string& message) {
  util::JsonValue out = util::JsonValue::object();
  if (!id.is_null()) out["id"] = id;
  out["ok"] = util::JsonValue(false);
  util::JsonValue error = util::JsonValue::object();
  error["code"] = util::JsonValue(code);
  error["message"] = util::JsonValue(message);
  out["error"] = std::move(error);
  return out;
}

}  // namespace pm::svc
