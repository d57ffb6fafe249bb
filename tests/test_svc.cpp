// Tests for the recovery service: request canonicalization, the
// byte-budgeted LRU plan cache, engine determinism (cached ==
// recomputed, concurrent == serial, payloads == the committed golden
// case reports), deadline handling, line framing, and a loopback server
// smoke covering the admission-control contract and the graceful drain
// end to end.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "svc/client.hpp"
#include "svc/engine.hpp"
#include "svc/plan_cache.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "topo/generators.hpp"
#include "topo/placement.hpp"

#ifndef PM_TEST_DATA_DIR
#define PM_TEST_DATA_DIR "tests/data"
#endif

namespace pm {
namespace {

using svc::Engine;
using svc::EngineConfig;
using svc::PlanCache;
using svc::SolveParams;
using util::JsonValue;

// ---------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------

TEST(SvcProtocol, CanonicalKeyIgnoresOrderAndDuplicates) {
  SolveParams a;
  a.failed = {4, 3};
  SolveParams b;
  b.failed = {3, 4, 3};
  SolveParams c;
  c.failed = {3, 4};
  EXPECT_EQ(svc::canonical_key(a), svc::canonical_key(c));
  EXPECT_EQ(svc::canonical_key(b), svc::canonical_key(c));
  EXPECT_EQ(svc::canonical_key(c), "algo=pm|failed=3,4");
}

TEST(SvcProtocol, CanonicalKeySeparatesAlgorithmsAndKnobs) {
  SolveParams pm_params;
  pm_params.failed = {3};
  SolveParams naive = pm_params;
  naive.algorithm = "naive";
  EXPECT_NE(svc::canonical_key(pm_params), svc::canonical_key(naive));

  SolveParams retro = pm_params;
  retro.algorithm = "retroflow";
  SolveParams retro3 = retro;
  retro3.retroflow_candidates = 3;
  // The candidates knob changes retroflow plans, so it is in the key...
  EXPECT_NE(svc::canonical_key(retro), svc::canonical_key(retro3));
  // ...but it is irrelevant to (and excluded from) other algorithms.
  SolveParams pm_knob = pm_params;
  pm_knob.retroflow_candidates = 7;
  EXPECT_EQ(svc::canonical_key(pm_params), svc::canonical_key(pm_knob));
}

TEST(SvcProtocol, DeadlineExcludedFromKey) {
  SolveParams a;
  a.failed = {3};
  SolveParams b = a;
  b.deadline_ms = 250.0;
  EXPECT_EQ(svc::canonical_key(a), svc::canonical_key(b));
}

TEST(SvcProtocol, ParseRejectsMalformedRequests) {
  EXPECT_THROW(svc::parse_request("not json"), svc::ProtocolError);
  EXPECT_THROW(svc::parse_request("[1,2]"), svc::ProtocolError);
  EXPECT_THROW(svc::parse_request(R"({"verb":"nope"})"),
               svc::ProtocolError);
  EXPECT_THROW(
      svc::parse_request(R"({"verb":"solve","failed":[3],"algorithm":"x"})"),
      svc::ProtocolError);
  EXPECT_THROW(
      svc::parse_request(R"({"verb":"solve","failed":["three"]})"),
      svc::ProtocolError);
}

// ---------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------

TEST(SvcPlanCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget fits exactly two of these entries (key 1 byte + payload 9).
  PlanCache cache(20);
  cache.put("a", "123456789");
  cache.put("b", "123456789");
  EXPECT_EQ(cache.entries(), 2u);
  // Touch "a" so "b" is the LRU victim.
  EXPECT_TRUE(cache.get("a").has_value());
  cache.put("c", "123456789");
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(SvcPlanCache, CountsHitsAndMisses) {
  PlanCache cache(1024);
  EXPECT_FALSE(cache.get("k").has_value());
  cache.put("k", "v");
  EXPECT_TRUE(cache.get("k").has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // peek() counts hits but never misses.
  EXPECT_FALSE(cache.peek("absent").has_value());
  EXPECT_TRUE(cache.peek("k").has_value());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SvcPlanCache, OversizedPayloadIsNeverStored) {
  PlanCache cache(8);
  cache.put("k", "way too large for the budget");
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.get("k").has_value());
}

TEST(SvcPlanCache, PutRefreshesExistingEntry) {
  PlanCache cache(64);
  cache.put("k", "old");
  cache.put("k", "newer");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(*cache.get("k"), "newer");
  EXPECT_EQ(cache.bytes(), 1u + 5u);
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

EngineConfig small_engine_config() {
  EngineConfig config;
  config.jobs = 2;
  return config;
}

TEST(SvcEngine, CachedPayloadIsByteIdenticalAcrossAlgorithms) {
  Engine engine(core::make_att_network(), small_engine_config());
  for (const std::string& algorithm : svc::known_algorithms()) {
    SolveParams params;
    params.failed = {3, 4};
    params.algorithm = algorithm;
    const auto cold = engine.solve(params);
    ASSERT_TRUE(cold.ok) << algorithm << ": " << cold.error_message;
    EXPECT_FALSE(cold.cache_hit) << algorithm;
    const auto warm = engine.solve(params);
    ASSERT_TRUE(warm.ok) << algorithm;
    EXPECT_TRUE(warm.cache_hit) << algorithm;
    EXPECT_EQ(warm.payload, cold.payload) << algorithm;
    // A permuted failure set is the same canonical request.
    SolveParams permuted = params;
    permuted.failed = {4, 3};
    const auto aliased = engine.solve(permuted);
    EXPECT_TRUE(aliased.cache_hit) << algorithm;
    EXPECT_EQ(aliased.payload, cold.payload) << algorithm;
  }
}

TEST(SvcEngine, TryCachedOnlyAnswersResidentKeys) {
  Engine engine(core::make_att_network(), small_engine_config());
  SolveParams params;
  params.failed = {3};
  EXPECT_FALSE(engine.try_cached(params).has_value());
  const auto cold = engine.solve(params);
  ASSERT_TRUE(cold.ok);
  const auto hit = engine.try_cached(params);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->payload, cold.payload);
}

TEST(SvcEngine, RejectsInvalidFailureSets) {
  Engine engine(core::make_att_network(), small_engine_config());
  SolveParams out_of_range;
  out_of_range.failed = {99};
  const auto a = engine.solve(out_of_range);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error_code, svc::kErrBadRequest);

  SolveParams all_dead;
  all_dead.failed = {0, 1, 2, 3, 4, 5};
  const auto b = engine.solve(all_dead);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.error_code, svc::kErrBadRequest);
}

TEST(SvcEngine, ExpiredDeadlineReturnsDeadlineExceeded) {
  Engine engine(core::make_att_network(), small_engine_config());
  svc::SolveJob job;
  job.params.failed = {3};
  job.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);
  const auto outcome = engine.solve(job);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, svc::kErrDeadlineExceeded);
  // The expired request never computed or filled the cache.
  EXPECT_FALSE(engine.try_cached(job.params).has_value());
}

TEST(SvcEngine, ConcurrentSolvesMatchSerialSolves) {
  // Every thread walks the same overlapping requests (one failure set
  // under several algorithms, permuted duplicates) from its own starting
  // point, so threads race on the FailureState LRU — kept shallow here so
  // it also evicts under contention — and on filling the same cache keys.
  std::vector<SolveParams> requests;
  for (const auto& failed : std::vector<std::vector<sdwan::ControllerId>>{
           {3}, {4}, {3, 4}, {4, 3}, {0, 5}, {3, 4, 3}}) {
    for (const std::string& algorithm : svc::known_algorithms()) {
      SolveParams params;
      params.failed = failed;
      params.algorithm = algorithm;
      requests.push_back(params);
    }
  }

  Engine serial_engine(core::make_att_network(), small_engine_config());
  std::map<std::string, std::string> expected;
  for (const SolveParams& params : requests) {
    const auto one = serial_engine.solve(params);
    ASSERT_TRUE(one.ok) << one.error_message;
    expected[one.key] = one.payload;
  }

  EngineConfig config = small_engine_config();
  config.state_cache_entries = 2;
  Engine engine(core::make_att_network(), config);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<svc::SolveOutcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t r = (i + t * 5) % requests.size();
        outcomes[t].push_back(engine.solve(requests[r]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(outcomes[t].size(), requests.size());
    for (const auto& outcome : outcomes[t]) {
      ASSERT_TRUE(outcome.ok) << outcome.error_message;
      EXPECT_EQ(outcome.payload, expected.at(outcome.key))
          << "thread " << t << ", " << outcome.key;
    }
  }
  EXPECT_EQ(engine.cache().entries(), expected.size());
}

TEST(SvcEngine, PayloadsCarryNoSpareCapacity) {
  // The cache charges payload.size(); a payload with spare capacity would
  // keep more resident than svc_cache_bytes and the budget admit.
  Engine engine(core::make_att_network(), small_engine_config());
  std::size_t charged = 0;
  for (const std::string& algorithm : svc::known_algorithms()) {
    SolveParams params;
    params.failed = {3, 4};
    params.algorithm = algorithm;
    const auto cold = engine.solve(params);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.payload.capacity(), cold.payload.size()) << algorithm;
    charged += cold.key.size() + cold.payload.size();
  }
  EXPECT_EQ(engine.cache().bytes(), charged);
}

// ---------------------------------------------------------------------
// Golden case reports
//
// Generated by case_report_to_json(...).to_string(0) before the engine
// switched to the streaming writer; the engine must keep every byte.
// ---------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(SvcGolden, AttThreeFourCaseReportsMatchFiles) {
  Engine engine(core::make_att_network(), small_engine_config());
  for (const std::string& algorithm : svc::known_algorithms()) {
    SolveParams params;
    params.failed = {3, 4};
    params.algorithm = algorithm;
    const auto outcome = engine.solve(params);
    ASSERT_TRUE(outcome.ok) << outcome.error_message;
    const std::string golden =
        read_file(std::string(PM_TEST_DATA_DIR) + "/case_report_" +
                  algorithm + "_att_3_4.json");
    EXPECT_EQ(outcome.payload + "\n", golden) << algorithm;
  }
}

/// One line of a case_report_digests_*.txt file:
/// algorithm failed-set digest.
struct DigestLine {
  std::string text;
  SolveParams params;
  std::string digest;
};

std::vector<DigestLine> read_digest_lines(const std::string& file) {
  std::istringstream lines(
      read_file(std::string(PM_TEST_DATA_DIR) + "/" + file));
  std::vector<DigestLine> out;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    DigestLine entry;
    entry.text = line;
    std::istringstream fields(line);
    std::string failed_csv;
    fields >> entry.params.algorithm >> failed_csv >> entry.digest;
    std::istringstream ids(failed_csv);
    for (std::string id; std::getline(ids, id, ',');) {
      entry.params.failed.push_back(std::stoi(id));
    }
    out.push_back(std::move(entry));
  }
  return out;
}

void expect_digest(Engine& engine, const DigestLine& line) {
  const auto outcome = engine.solve(line.params);
  ASSERT_TRUE(outcome.ok) << line.text << ": " << outcome.error_message;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(outcome.payload)));
  EXPECT_EQ(hex, line.digest) << line.text;
}

TEST(SvcGolden, AttCaseReportDigestsMatchUpToTwoFailures) {
  Engine engine(core::make_att_network(), small_engine_config());
  const auto lines = read_digest_lines("case_report_digests_att_k2.txt");
  // C(6,1) + C(6,2) failure sets, four algorithms each.
  ASSERT_EQ(lines.size(), (6u + 15u) * 4u);
  for (const DigestLine& line : lines) expect_digest(engine, line);
}

// The serve_misses_waxman150 network: waxman(150, 0.5, 0.25, 1) with 12
// k-center controllers at 1.15x the peak normal load. Plans here hold
// thousands of assignments and run controllers out of residual capacity,
// which the ATT digests never do.
sdwan::Network make_waxman150_network() {
  topo::Topology topology = topo::waxman(150, 0.5, 0.25, 1);
  topo::Domains domains = topo::k_center_domains(topology, 12);
  sdwan::NetworkConfig config;
  config.controller_capacity = 1e9;
  double max_load = 0.0;
  {
    const sdwan::Network probe(topology, domains, config);
    for (int j = 0; j < probe.controller_count(); ++j) {
      max_load = std::max(max_load, probe.normal_load(j));
    }
  }
  config.controller_capacity = 1.15 * max_load;
  return sdwan::Network(std::move(topology), std::move(domains), config);
}

const char kWaxmanDigests[] = "case_report_digests_waxman150_k2.txt";

TEST(SvcGolden, WaxmanCaseReportDigestsMatchSingleAndSampledPairs) {
  Engine engine(make_waxman150_network(), small_engine_config());
  const auto lines = read_digest_lines(kWaxmanDigests);
  // C(12,1) + C(12,2) failure sets, four algorithms each.
  ASSERT_EQ(lines.size(), (12u + 66u) * 4u);
  const std::vector<std::vector<sdwan::ControllerId>> sampled_pairs = {
      {0, 1}, {2, 9}, {3, 4}, {5, 11}, {6, 10}, {10, 11}};
  std::size_t checked = 0;
  for (const DigestLine& line : lines) {
    const auto& failed = line.params.failed;
    if (failed.size() != 1 &&
        std::find(sampled_pairs.begin(), sampled_pairs.end(), failed) ==
            sampled_pairs.end()) {
      continue;
    }
    expect_digest(engine, line);
    ++checked;
  }
  EXPECT_EQ(checked, (12u + sampled_pairs.size()) * 4u);
}

TEST(SvcGolden, DISABLED_WaxmanCaseReportDigestsMatchUpToTwoFailures) {
  Engine engine(make_waxman150_network(), small_engine_config());
  const auto lines = read_digest_lines(kWaxmanDigests);
  ASSERT_EQ(lines.size(), (12u + 66u) * 4u);
  for (const DigestLine& line : lines) expect_digest(engine, line);
}

// ---------------------------------------------------------------------
// Server smoke over loopback
// ---------------------------------------------------------------------

class SvcServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.jobs = 1;
    engine_ = std::make_unique<Engine>(core::make_att_network(), config);
    svc::ServerConfig server_config;
    server_config.port = 0;  // ephemeral
    server_ = std::make_unique<svc::Server>(*engine_, server_config);
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<svc::Server> server_;
};

TEST_F(SvcServerTest, HealthReportsResidentModel) {
  svc::Client client("127.0.0.1", server_->port());
  const JsonValue health = client.health();
  ASSERT_TRUE(health.at("ok").as_bool());
  const JsonValue& result = health.at("result");
  EXPECT_EQ(result.at("status").as_string(), "ok");
  EXPECT_EQ(result.at("switches").as_int(), 25);
  EXPECT_EQ(result.at("controllers").as_int(), 6);
  EXPECT_EQ(result.at("flows").as_int(), 600);
  EXPECT_GT(result.at("diameter_hops").as_int(), 0);
}

TEST_F(SvcServerTest, ColdThenWarmIsByteIdenticalAndCounted) {
  svc::Client client("127.0.0.1", server_->port());
  const std::string line =
      R"({"verb":"solve","failed":[3,4],"algorithm":"pm","id":"r1"})";
  const std::string cold_raw = client.roundtrip_line(line);
  const std::string warm_raw = client.roundtrip_line(line);
  const JsonValue cold = JsonValue::parse(cold_raw);
  const JsonValue warm = JsonValue::parse(warm_raw);
  ASSERT_TRUE(cold.at("ok").as_bool());
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_FALSE(cold.at("cached").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool());
  EXPECT_EQ(cold.at("id").as_string(), "r1");
  // The result member is spliced verbatim from the cache: identical
  // bytes, not merely an equal tree.
  const auto result_bytes = [](const std::string& raw) {
    const auto pos = raw.find("\"result\":");
    return raw.substr(pos);
  };
  EXPECT_EQ(result_bytes(warm_raw), result_bytes(cold_raw));

  const JsonValue metrics = client.metrics();
  ASSERT_TRUE(metrics.at("ok").as_bool());
  // The metrics verb returns the registry dump: an array of
  // {"name","type","value"} entries.
  bool found = false;
  for (std::size_t i = 0; i < metrics.at("result").size(); ++i) {
    const JsonValue& entry = metrics.at("result").at(i);
    if (entry.at("name").as_string() == "svc_cache_hits_total") {
      EXPECT_GE(entry.at("value").as_number(), 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "svc_cache_hits_total missing from metrics verb";
}

TEST_F(SvcServerTest, MalformedLineKeepsConnectionUsable) {
  svc::Client client("127.0.0.1", server_->port());
  const JsonValue err =
      JsonValue::parse(client.roundtrip_line("this is not json"));
  ASSERT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), svc::kErrBadRequest);
  // Same connection still answers real requests.
  const JsonValue health = client.health();
  EXPECT_TRUE(health.at("ok").as_bool());
}

TEST_F(SvcServerTest, UnknownAlgorithmIsStructuredError) {
  svc::Client client("127.0.0.1", server_->port());
  const JsonValue err = JsonValue::parse(client.roundtrip_line(
      R"({"verb":"solve","failed":[3],"algorithm":"magic"})"));
  ASSERT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), svc::kErrBadRequest);
}

TEST(SvcServer, ZeroQueueShedsUncachedSolves) {
  // max_queue=0: every solve that needs compute is shed deterministically
  // with `overloaded`; cached answers still flow (they bypass the queue).
  EngineConfig config;
  config.jobs = 1;
  Engine engine(core::make_att_network(), config);
  svc::ServerConfig server_config;
  server_config.port = 0;
  server_config.max_queue = 0;
  svc::Server server(engine, server_config);
  server.start();
  {
    svc::Client client("127.0.0.1", server.port());
    const std::string line = R"({"verb":"solve","failed":[3]})";
    const JsonValue shed = JsonValue::parse(client.roundtrip_line(line));
    ASSERT_FALSE(shed.at("ok").as_bool());
    EXPECT_EQ(shed.at("error").at("code").as_string(),
              svc::kErrOverloaded);
    // Warm the cache out of band; the same request now succeeds via the
    // fast path even though the queue admits nothing.
    SolveParams params;
    params.failed = {3};
    ASSERT_TRUE(engine.solve(params).ok);
    const JsonValue warm = JsonValue::parse(client.roundtrip_line(line));
    ASSERT_TRUE(warm.at("ok").as_bool());
    EXPECT_TRUE(warm.at("cached").as_bool());
  }
  server.stop();
}

TEST(SvcServer, StopAnswersEveryQueuedMissAcrossWorkers) {
  // More distinct misses than workers, each on its own connection, so
  // most of them sit in the queue when stop() begins its drain.
  EngineConfig config;
  config.jobs = 2;
  Engine engine(core::make_att_network(), config);
  Engine reference(core::make_att_network(), config);
  svc::ServerConfig server_config;
  server_config.port = 0;
  svc::Server server(engine, server_config);
  server.start();

  std::vector<std::string> lines;
  std::vector<std::string> expected;
  for (int k = 1; k <= 2; ++k) {
    for (const auto& scenario :
         sdwan::enumerate_failures(engine.network(), k)) {
      SolveParams params;
      params.failed = scenario.failed;
      params.algorithm = "pg";
      const auto outcome = reference.solve(params);
      ASSERT_TRUE(outcome.ok);
      expected.push_back(outcome.payload);
      JsonValue failed = JsonValue::array();
      for (const auto j : scenario.failed) failed.push_back(JsonValue(j));
      JsonValue request = JsonValue::object();
      request["verb"] = JsonValue("solve");
      request["failed"] = std::move(failed);
      request["algorithm"] = JsonValue("pg");
      lines.push_back(request.to_string(0));
    }
  }
  const std::size_t n = lines.size();
  std::vector<std::string> responses(n);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.emplace_back([&, i] {
      svc::Client client("127.0.0.1", server.port());
      responses[i] = client.roundtrip_line(lines[i]);
    });
  }

  // Wait until every request is admitted. A worker counts a cache miss
  // only after popping a request, so misses read before the queue depth
  // never count a request twice: their sum reaching n means all n were
  // queued.
  std::int64_t depth = 0;
  {
    svc::Client probe("127.0.0.1", server.port());
    while (true) {
      const std::uint64_t started = engine.cache().misses();
      depth = probe.health().at("result").at("queue_depth").as_int();
      if (started + static_cast<std::uint64_t>(depth) >= n) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  server.stop();
  for (std::thread& client : clients) client.join();
  RecordProperty("queued_at_stop", static_cast<int>(depth));

  for (std::size_t i = 0; i < n; ++i) {
    const JsonValue response = JsonValue::parse(responses[i]);
    ASSERT_TRUE(response.at("ok").as_bool()) << responses[i];
    const std::size_t at = responses[i].find(",\"result\":");
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(responses[i].substr(at + 10, responses[i].size() - at - 11),
              expected[i])
        << lines[i];
  }
  EXPECT_EQ(engine.cache().misses(), n);
}

// ---------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------

/// A loopback listener on an ephemeral port.
int listen_loopback(int& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

/// Writes `bytes` in writes of `piece` bytes, with Nagle off so small
/// writes leave as separate segments.
void send_in_pieces(int fd, const std::string& bytes, std::size_t piece) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  for (std::size_t at = 0; at < bytes.size(); at += piece) {
    const std::size_t len = std::min(piece, bytes.size() - at);
    ASSERT_EQ(::send(fd, bytes.data() + at, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
  }
}

/// Reads one newline-terminated line (newline stripped).
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  return line;
}

TEST(SvcClient, FramesResponsesSplitAcrossWritesOrSharingOne) {
  int port = 0;
  const int listen_fd = listen_loopback(port);
  std::string big(20000, 'x');
  for (std::size_t i = 0; i < big.size(); i += 97) big[i] = 'y';
  std::thread peer([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    EXPECT_EQ(read_line(fd), "first");
    send_in_pieces(fd, big + "\n", 1);
    EXPECT_EQ(read_line(fd), "second");
    send_in_pieces(fd, "two\nthree\n", 64);
    EXPECT_EQ(read_line(fd), "third");
    ::close(fd);
  });
  {
    svc::Client client("127.0.0.1", port);
    EXPECT_EQ(client.roundtrip_line("first"), big);
    EXPECT_EQ(client.roundtrip_line("second"), "two");
    // Already buffered: answered without another byte from the peer.
    EXPECT_EQ(client.roundtrip_line("third"), "three");
  }
  peer.join();
  ::close(listen_fd);
}

TEST_F(SvcServerTest, FramesRequestsSplitAcrossWritesOrSharingOne) {
  const int fd = connect_loopback(server_->port());
  send_in_pieces(fd, R"({"verb":"health","id":1})" "\n", 1);
  send_in_pieces(fd,
                 R"({"verb":"health","id":2})" "\n"
                 R"({"verb":"health","id":3})" "\n",
                 4096);
  for (int id = 1; id <= 3; ++id) {
    const JsonValue response = JsonValue::parse(read_line(fd));
    EXPECT_TRUE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("id").as_int(), id);
  }
  ::close(fd);
}

}  // namespace
}  // namespace pm
