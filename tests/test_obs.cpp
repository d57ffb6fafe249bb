// Tests for the observability layer (src/obs): metrics registry,
// deterministic tracer, leveled logger — plus the report-as-view
// contract between ControlSimulation and its registry.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/pm_algorithm.hpp"
#include "core/scenario.hpp"
#include "ctrl/simulation.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace pm::obs {
namespace {

// ---------------------------------------------------------------------
// metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, CounterFindOrCreateIsStable) {
  MetricsRegistry m;
  Counter& c = m.counter("pm_x_total", "help text");
  c.inc();
  c.inc(4);
  EXPECT_EQ(m.counter("pm_x_total").value(), 5u);
  EXPECT_EQ(&m.counter("pm_x_total"), &c);
  EXPECT_EQ(m.counter_value("pm_x_total"), 5u);
  EXPECT_EQ(m.counter_value("missing"), 0u);
}

TEST(Metrics, LabelsDistinguishSeries) {
  MetricsRegistry m;
  m.counter("pm_msgs_total", "", {{"kind", "heartbeat"}}).inc(7);
  m.counter("pm_msgs_total", "", {{"kind", "flow-mod"}}).inc(2);
  EXPECT_EQ(m.counter_value("pm_msgs_total", {{"kind", "heartbeat"}}), 7u);
  EXPECT_EQ(m.counter_value("pm_msgs_total", {{"kind", "flow-mod"}}), 2u);
  const auto by_kind = m.counters_by_label("pm_msgs_total", "kind");
  ASSERT_EQ(by_kind.size(), 2u);
  EXPECT_EQ(by_kind.at("heartbeat"), 7u);
  EXPECT_EQ(by_kind.at("flow-mod"), 2u);
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry m;
  m.counter("pm_thing");
  EXPECT_THROW(m.gauge("pm_thing"), std::logic_error);
}

TEST(Metrics, GaugeOverwrites) {
  MetricsRegistry m;
  m.gauge("pm_level").set(3.5);
  m.gauge("pm_level").set(-1.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("pm_level"), -1.0);
}

TEST(Metrics, HistogramBucketsAndSum) {
  MetricsRegistry m;
  Histogram& h = m.histogram("pm_lat_ms", "", {1.0, 5.0, 10.0});
  for (double v : {0.5, 1.0, 2.0, 7.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 110.5);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);  // <= 1
  EXPECT_EQ(h.bucket_counts()[1], 1u);  // <= 5
  EXPECT_EQ(h.bucket_counts()[2], 1u);  // <= 10
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // +Inf
}

TEST(Metrics, FindHistogramRegistersNothing) {
  MetricsRegistry m;
  m.histogram("pm_fed_ms", "fed", {1.0}).observe(0.5);
  std::ostringstream before;
  m.write_prometheus(before);
  EXPECT_EQ(m.find_histogram("pm_never_fed_ms"), nullptr);
  EXPECT_EQ(m.find_histogram("pm_fed_ms", {{"kind", "x"}}), nullptr);
  EXPECT_EQ(m.series_count(), 1u);
  std::ostringstream after;
  m.write_prometheus(after);
  EXPECT_EQ(after.str(), before.str());
  const Histogram* fed = m.find_histogram("pm_fed_ms");
  ASSERT_NE(fed, nullptr);
  EXPECT_EQ(fed->count(), 1u);
  EXPECT_EQ(fed, &m.histogram("pm_fed_ms", "", {}));
}

TEST(Metrics, PrometheusExportIsSortedAndCumulative) {
  MetricsRegistry m;
  // Register out of sorted order; export must sort by identity.
  m.gauge("pm_z_level", "a gauge").set(2.0);
  m.counter("pm_a_total", "a counter").inc(3);
  Histogram& h = m.histogram("pm_h_ms", "a histogram", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  std::ostringstream out;
  m.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_LT(text.find("pm_a_total"), text.find("pm_h_ms"));
  EXPECT_LT(text.find("pm_h_ms"), text.find("pm_z_level"));
  EXPECT_NE(text.find("# TYPE pm_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pm_h_ms histogram"), std::string::npos);
  // Cumulative buckets: le="10" covers both samples; +Inf as well.
  EXPECT_NE(text.find("pm_h_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("pm_h_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("pm_h_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("pm_h_ms_count 2"), std::string::npos);
}

TEST(Metrics, JsonExportParses) {
  MetricsRegistry m;
  m.counter("pm_a_total", "", {{"kind", "x"}}).inc(1);
  m.histogram("pm_h_ms", "", {2.0}).observe(1.0);
  const auto json = util::JsonValue::parse(m.to_json(2));
  ASSERT_EQ(json.size(), 2u);
  EXPECT_EQ(json.at(0).at("name").as_string(), "pm_a_total");
  EXPECT_EQ(json.at(0).at("labels").at("kind").as_string(), "x");
  EXPECT_EQ(json.at(1).at("type").as_string(), "histogram");
  EXPECT_EQ(json.at(1).at("count").as_int(), 1);
}

TEST(Metrics, FormatLabelsCanonical) {
  EXPECT_EQ(format_labels({}), "");
  EXPECT_EQ(format_labels({{"a", "1"}, {"b", "two"}}), "{a=\"1\",b=\"two\"}");
}

// ---------------------------------------------------------------------
// tracer
// ---------------------------------------------------------------------

void record_canonical_events(Tracer& t) {
  t.set_track_name(1, "channel");
  t.set_track_name(10, "controller C0");
  t.instant(1.5, "channel", "send", 1, {{"kind", "heartbeat"}, {"seq", 7}});
  t.instant(2.5, "channel", "recv", 1, {{"latency_ms", 0.75}});
  t.complete(2.0, 2.0, "wave", "wave", 3, {{"epoch", 1}});
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.instant(1.0, "c", "n", 1);
  t.complete(1.0, 1.0, "c", "n", 1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, IdenticalEventSequencesExportByteIdentically) {
  Tracer a;
  Tracer b;
  a.set_enabled(true);
  b.set_enabled(true);
  record_canonical_events(a);
  record_canonical_events(b);
  std::ostringstream ca, cb, ja, jb;
  a.write_chrome_trace(ca);
  b.write_chrome_trace(cb);
  a.write_jsonl(ja);
  b.write_jsonl(jb);
  EXPECT_EQ(ca.str(), cb.str());
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(Tracer, ChromeTraceParsesAndCarriesMetadata) {
  Tracer t;
  t.set_enabled(true);
  record_canonical_events(t);
  std::ostringstream out;
  t.write_chrome_trace(out);
  const auto json = util::JsonValue::parse(out.str());
  ASSERT_TRUE(json.contains("traceEvents"));
  const auto& events = json.at("traceEvents");
  // 2 thread_name metadata records + 3 events.
  ASSERT_EQ(events.size(), 5u);
  // Metadata first, naming the tracks.
  EXPECT_EQ(events.at(0).at("ph").as_string(), "M");
  EXPECT_EQ(events.at(0).at("name").as_string(), "thread_name");
  // The first real event: instant at ts = 1.5 ms = 1500 us.
  const auto& first = events.at(2);
  EXPECT_EQ(first.at("ph").as_string(), "i");
  EXPECT_DOUBLE_EQ(first.at("ts").as_number(), 1500.0);
  EXPECT_EQ(first.at("args").at("kind").as_string(), "heartbeat");
}

TEST(Tracer, JsonlLinesParseStandalone) {
  Tracer t;
  t.set_enabled(true);
  record_canonical_events(t);
  std::ostringstream out;
  t.write_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto json = util::JsonValue::parse(line);
    EXPECT_TRUE(json.contains("ts_ms"));
    EXPECT_TRUE(json.contains("ph"));
    EXPECT_TRUE(json.contains("name"));
    ++lines;
  }
  EXPECT_EQ(lines, t.size());
}

// ---------------------------------------------------------------------
// logger
// ---------------------------------------------------------------------

TEST(Log, LevelsFilterAndFormat) {
  Logger& logger = log();
  std::ostringstream captured;
  logger.set_stream(&captured);
  logger.set_level(LogLevel::kWarn);
  logger.error("boom");
  logger.warn("careful");
  logger.info("ignored");
  logger.debug("ignored too");
  logger.set_stream(nullptr);
  logger.set_level(LogLevel::kInfo);
  EXPECT_EQ(captured.str(), "[error] boom\n[warn] careful\n");
}

TEST(Log, QuietSilencesEverything) {
  Logger& logger = log();
  std::ostringstream captured;
  logger.set_stream(&captured);
  logger.set_level(LogLevel::kQuiet);
  logger.error("nope");
  logger.set_stream(nullptr);
  logger.set_level(LogLevel::kInfo);
  EXPECT_EQ(captured.str(), "");
}

TEST(Log, ParseNamesAndAliases) {
  EXPECT_EQ(parse_log_level("quiet"), LogLevel::kQuiet);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kQuiet);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_FALSE(parse_log_level("shout").has_value());
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "info");
}

// ---------------------------------------------------------------------
// flag parsing
// ---------------------------------------------------------------------

TEST(ObsFlags, LogLevelParseLeavesTraceAndMetricsFlagsUnrecognized) {
  const char* argv[] = {"bench", "--trace-out=t.json",
                        "--trace-jsonl=t.jsonl", "--metrics-out=m.prom",
                        "--metrics-json=m.json", "--profile-out=p.json"};
  util::CliArgs log_args(6, argv);
  apply_log_level_flag(log_args);
  EXPECT_EQ(log_args.unused(),
            (std::vector<std::string>{argv + 1, argv + 6}));

  // --profile-out is no flag at all: even a program with a Context warns.
  util::CliArgs all_args(6, argv);
  const ObsOptions all = parse_obs_flags(all_args);
  EXPECT_EQ(all.trace_out.value_or(""), "t.json");
  EXPECT_EQ(all_args.unused(),
            (std::vector<std::string>{"--profile-out=p.json"}));
}

// ---------------------------------------------------------------------
// report/registry agreement + simulation tracing
// ---------------------------------------------------------------------

ctrl::RecoveryPolicy pm_policy() {
  return [](const sdwan::FailureState& state,
            const core::RecoveryPlan* previous) {
    core::PmOptions opts;
    opts.seed = previous;
    return core::run_pm(state, opts);
  };
}

TEST(ObsIntegration, ReportAndRegistryAgree) {
  const sdwan::Network net = core::make_att_network();
  ctrl::ControlSimulation sim(net, pm_policy());
  sim.fail_controller_at(3, 500.0);
  const ctrl::SimulationReport report = sim.run(5000.0);
  const MetricsRegistry& m = sim.observability().metrics;
  EXPECT_EQ(report.messages_sent, m.counter_value("pm_messages_sent_total"));
  EXPECT_EQ(report.recovery_waves,
            m.counter_value("pm_recovery_waves_total"));
  EXPECT_DOUBLE_EQ(report.detected_at.value_or(-1.0),
                   m.gauge_value("pm_detected_at_ms"));
  EXPECT_DOUBLE_EQ(report.converged_at.value_or(-1.0),
                   m.gauge_value("pm_converged_at_ms"));
  EXPECT_EQ(report.all_flows_deliverable,
            m.gauge_value("pm_all_flows_deliverable") != 0.0);
  EXPECT_EQ(report.messages_by_kind,
            m.counters_by_label("pm_messages_total", "kind"));
  // Sanity: the run actually did something.
  EXPECT_GT(report.messages_sent, 0u);
  EXPECT_GE(report.recovery_waves, 1u);
  EXPECT_TRUE(report.all_flows_deliverable);
}

TEST(ObsIntegration, TracedRunsAreDeterministic) {
  const sdwan::Network net = core::make_att_network();
  auto traced_run = [&] {
    ctrl::ControlSimulation sim(net, pm_policy());
    sim.observability().tracer.set_enabled(true);
    sim.observability().detailed_metrics = true;
    sim.fail_controller_at(3, 500.0);
    sim.fail_controller_at(4, 2000.0);
    sim.run(5000.0);
    std::ostringstream trace, metrics;
    sim.observability().tracer.write_chrome_trace(trace);
    sim.observability().metrics.write_prometheus(metrics);
    return std::pair{trace.str(), metrics.str()};
  };
  const auto [trace_a, metrics_a] = traced_run();
  const auto [trace_b, metrics_b] = traced_run();
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  // And the trace is real: it parses and contains protocol events.
  const auto json = util::JsonValue::parse(trace_a);
  EXPECT_GT(json.at("traceEvents").size(), 100u);
  // Detailed metrics recorded per-message latency.
  EXPECT_NE(metrics_a.find("pm_message_latency_ms_count"),
            std::string::npos);
  EXPECT_NE(metrics_a.find("pm_wave_convergence_ms_count"),
            std::string::npos);
}

TEST(ObsIntegration, UntracedRunRecordsNoEvents) {
  const sdwan::Network net = core::make_att_network();
  ctrl::ControlSimulation sim(net, pm_policy());
  sim.fail_controller_at(3, 500.0);
  sim.run(3000.0);
  EXPECT_EQ(sim.observability().tracer.size(), 0u);
  // Hot-path metrics stayed off; summary metrics still published.
  EXPECT_EQ(sim.observability().metrics.counter_value(
                "pm_message_latency_ms"),
            0u);
  EXPECT_GT(sim.observability().metrics.series_count(), 10u);
}

}  // namespace
}  // namespace pm::obs
