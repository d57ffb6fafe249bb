#include "obs/obs.hpp"

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
  if (!out) {
    log().error(std::string("cannot write ") + what + " to " + path);
    return false;
  }
  log().info(std::string(what) + " written to " + path);
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

void write_outputs(const ObsOptions& options, const Context& ctx) {
  if (options.trace_out) {
    write_file(*options.trace_out,
               [&](std::ostream& out) { ctx.tracer.write_chrome_trace(out); },
               "chrome trace");
  }
  if (options.trace_jsonl) {
    write_file(*options.trace_jsonl,
               [&](std::ostream& out) { ctx.tracer.write_jsonl(out); },
               "trace jsonl");
  }
  if (options.metrics_out) {
    write_file(*options.metrics_out,
               [&](std::ostream& out) { ctx.metrics.write_prometheus(out); },
               "prometheus metrics");
  }
  if (options.metrics_json) {
    write_file(*options.metrics_json,
               [&](std::ostream& out) {
                 out << ctx.metrics.to_json().to_string(2) << "\n";
               },
               "metrics json");
  }
}

}  // namespace pm::obs
