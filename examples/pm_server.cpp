// pm_server — the recovery service, resident on the ATT backbone.
//
// Builds the evaluation network once, then serves "controllers {c...}
// just died — give me the plan" requests over JSONL/loopback-TCP until
// SIGINT/SIGTERM (graceful drain: queued requests are answered, caches
// and counters are reported, then the process exits 0).
//
// Usage:
//   ./build/examples/pm_server [--port=7071] [--port-file=port.txt]
//     [--jobs=N] [--cache-mb=64] [--max-queue=64] [--deadline-ms=0]
//     [--log-level=info]
//
// --jobs sets the solver workers: up to N uncached requests compute at
// once, each on its own worker; cache hits never wait for one.
// --port=0 binds an ephemeral port; --port-file writes the resolved
// port for scripts (the CI smoke job uses exactly that). Try it:
//   printf '%s\n' '{"verb":"solve","failed":[3,4]}' | nc 127.0.0.1 7071
#include <fstream>
#include <iostream>

#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/shutdown.hpp"

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  svc::ServerConfig server_config;
  server_config.port = static_cast<int>(args.get_int("port", 7071));
  server_config.max_queue =
      static_cast<int>(args.get_int("max-queue", 64));
  server_config.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  const std::string port_file = args.get_string("port-file", "");
  svc::EngineConfig engine_config;
  engine_config.jobs = util::parse_jobs_flag(args);
  engine_config.cache_bytes =
      static_cast<std::size_t>(args.get_int("cache-mb", 64)) << 20;
  obs::apply_log_level_flag(args);
  for (const auto& unused : args.unused()) {
    obs::log().warn("unrecognized flag --" + unused);
  }

  util::install_shutdown_handler();

  svc::Engine engine(core::make_att_network(), engine_config);
  svc::Server server(engine, server_config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "pm_server: " << e.what() << "\n";
    return 2;
  }
  std::cout << "pm_server: listening on 127.0.0.1:" << server.port()
            << " (jobs=" << engine_config.jobs
            << ", cache=" << (engine_config.cache_bytes >> 20)
            << " MiB, queue=" << server_config.max_queue << ")"
            << std::endl;
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }

  server.run_until_shutdown();

  const svc::PlanCache& cache = engine.cache();
  std::cout << "pm_server: drained and stopped — cache "
            << cache.entries() << " plans / " << cache.bytes()
            << " bytes, " << cache.hits() << " hits / " << cache.misses()
            << " misses / " << cache.evictions() << " evictions"
            << std::endl;
  return 0;
}
