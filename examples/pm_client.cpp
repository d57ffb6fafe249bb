// pm_client — thin command-line client for pm_server.
//
// Prints one raw response line per request to stdout (pipe into jq or
// python for inspection). Exit code: 0 when every response said
// ok=true, 1 when the server answered a structured error, 2 on usage or
// connection problems.
//
// Usage:
//   ./build/examples/pm_client --port=7071 --failed=3,4 [--algorithm=pm]
//     [--deadline-ms=250] [--retroflow-candidates=2] [--repeat=2]
//   ./build/examples/pm_client --port=7071 --verb=health|metrics
//   ./build/examples/pm_client --port=7071 --raw='{"verb":"solve",...}'
//
// --failed takes controller ids (the wire field; ATT: 0-5), not the node
// ids of every other program's --fail: `--failed=3,4` is `--fail=13,20`.
//
// --repeat sends the same request N times on one connection — the
// second answer demonstrates the plan cache (\"cached\":true, same
// result bytes).
#include <climits>
#include <iostream>
#include <vector>

#include "obs/obs.hpp"
#include "svc/client.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  const std::string host = args.get_string("host", "127.0.0.1");
  const auto port = static_cast<int>(args.get_int("port", 7071, 1, 65535));
  const std::string raw = args.get_string("raw", "");
  const std::string verb = args.get_string("verb", "solve");
  std::vector<long long> failed;
  if (raw.empty() && verb == "solve") {
    failed = args.get_ints("failed", "", 0, INT_MAX);
  }
  const std::string algorithm = args.get_string("algorithm", "pm");
  const double deadline_ms =
      args.get_double("deadline-ms", 0.0, 0.0, util::kUnbounded);
  const long long retroflow_candidates =
      args.get_int("retroflow-candidates", 2, 1, INT_MAX);
  const long long repeat = args.get_int("repeat", 1, 1, INT_MAX);
  obs::apply_log_level_flag(args);

  std::string line = raw;
  if (line.empty()) {
    util::JsonWriter w(line);
    w.begin_object();
    w.key("verb").string(verb);
    if (verb == "solve") {
      w.key("failed").begin_array();
      for (const long long id : failed) w.number(static_cast<double>(id));
      w.end_array();
      w.key("algorithm").string(algorithm);
      if (deadline_ms > 0.0) w.key("deadline_ms").number(deadline_ms);
      if (algorithm == "retroflow") {
        w.key("retroflow_candidates")
            .number(static_cast<double>(retroflow_candidates));
      }
    }
    w.end_object();
  }

  try {
    svc::Client client(host, port);
    bool all_ok = true;
    for (long long i = 0; i < repeat; ++i) {
      const std::string response = client.roundtrip_line(line);
      std::cout << response << "\n";
      try {
        const util::JsonValue doc = util::JsonValue::parse(response);
        all_ok &= doc.contains("ok") && doc.at("ok").as_bool();
      } catch (const std::exception&) {
        all_ok = false;
      }
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "pm_client: " << e.what() << "\n";
    return 2;
  }
}
