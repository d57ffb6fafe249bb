// pm_server — the recovery service, resident on the ATT backbone.
//
// Builds the evaluation network once, then serves "controllers {c...}
// just died — give me the plan" requests over JSONL/loopback-TCP until
// SIGINT/SIGTERM (graceful drain: queued requests are answered, caches
// and counters are reported, then the process exits 0).
//
// Usage: kUsage below, which --help prints.
#include <climits>
#include <cstdint>
#include <iostream>

#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/shutdown.hpp"

namespace {

constexpr const char* kUsage =
    R"(usage: pm_server [--port=7071] [--port-file=port.txt] [--jobs=N]
                 [--cache-mb=64] [--max-queue=64] [--log-level=info]

--jobs sets how many uncached requests compute at once, each on the
connection thread that received it, in admission order; --max-queue
bounds how many more may wait. Cache hits never wait.
--port=0 binds an ephemeral port; --port-file writes the resolved port
for scripts. Try it:
  printf '%s\n' '{"verb":"solve","failed":[3,4]}' | nc 127.0.0.1 7071
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace pm;
  util::CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  svc::ServerConfig server_config;
  server_config.port = static_cast<int>(args.get_int("port", 7071, 0, 65535));
  server_config.max_queue =
      static_cast<int>(args.get_int("max-queue", 64, 0, INT_MAX));
  const std::string port_file = args.get_string("port-file", "");
  svc::EngineConfig engine_config;
  engine_config.jobs = util::parse_jobs_flag(args);
  const long long cache_mb = args.get_int(
      "cache-mb", 64, 0, static_cast<long long>(SIZE_MAX >> 20));
  engine_config.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  obs::apply_log_level_flag(args);

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
  if (!port_file.empty() &&
      !obs::write_file(
          port_file,
          [&](std::ostream& out) { out << server.port() << "\n"; },
          "port")) {
    return 2;
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
