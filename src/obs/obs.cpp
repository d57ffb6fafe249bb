#include "obs/obs.hpp"

#include <filesystem>
#include <fstream>

#include "util/strings.hpp"

namespace pm::obs {

namespace {

void set_level_from(util::CliArgs& args) {
  const std::string name = args.get_string("log-level", "");
  if (name.empty()) return;
  if (const auto level = parse_log_level(name)) {
    log().set_level(*level);
  } else {
    log().warn("unknown --log-level '" + name + "' (want quiet|error|" +
               "warn|info|debug); keeping " +
               log_level_name(log().level()));
  }
}

std::optional<std::string> path_flag(util::CliArgs& args,
                                     const std::string& name) {
  if (!args.has(name)) return std::nullopt;
  const std::string path = args.get_string(name, "");
  if (path.empty()) {
    log().warn("--" + name + " needs a file path; ignored");
    return std::nullopt;
  }
  return path;
}

bool cannot_write(const std::string& path, const char* what) {
  log().error(std::string("cannot write ") + what + " to " + path);
  return false;
}

void warn_unread(const util::CliArgs& args) {
  for (const auto& token : args.unused()) {
    log().warn((util::starts_with(token, "--") ? "unrecognized flag "
                                               : "unrecognized argument ") +
               token);
  }
}

}  // namespace

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body,
                const char* what) {
  std::ofstream out(path);
  if (out) {
    body(out);
    out.flush();
  }
  if (!out) return cannot_write(path, what);
  log().info(std::string(what) + " written to " + path);
  return true;
}

bool check_writable(const std::string& path, const char* what) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) return cannot_write(path, what);
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

ObsOptions parse_obs_flags(util::CliArgs& args) {
  set_level_from(args);
  ObsOptions o;
  o.trace_out = path_flag(args, "trace-out");
  o.trace_jsonl = path_flag(args, "trace-jsonl");
  o.metrics_out = path_flag(args, "metrics-out");
  o.metrics_json = path_flag(args, "metrics-json");
  warn_unread(args);
  return o;
}

void apply_log_level_flag(util::CliArgs& args) {
  set_level_from(args);
  warn_unread(args);
}

bool write_outputs(const ObsOptions& options, const Context& ctx) {
  bool ok = true;
  const auto write = [&](const std::optional<std::string>& path,
                         const char* what,
                         const std::function<void(std::ostream&)>& body) {
    if (path) ok &= write_file(*path, body, what);
  };
  write(options.trace_out, "chrome trace",
        [&](std::ostream& out) { ctx.tracer.write_chrome_trace(out); });
  write(options.trace_jsonl, "trace jsonl",
        [&](std::ostream& out) { ctx.tracer.write_jsonl(out); });
  write(options.metrics_out, "prometheus metrics",
        [&](std::ostream& out) { ctx.metrics.write_prometheus(out); });
  write(options.metrics_json, "metrics json",
        [&](std::ostream& out) { out << ctx.metrics.to_json(2) << "\n"; });
  return ok;
}

}  // namespace pm::obs
