#include <gtest/gtest.h>

#include <cmath>

#include "core/pm_algorithm.hpp"
#include "core/pg.hpp"
#include "core/scenario.hpp"
#include "core/serialize.hpp"
#include "util/json.hpp"

namespace pm {
namespace {

using util::JsonError;
using util::JsonValue;

// ---------------------------------------------------------------------
// JSON value tree
// ---------------------------------------------------------------------

TEST(Json, ScalarsAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).as_bool());
  EXPECT_DOUBLE_EQ(JsonValue(2.5).as_number(), 2.5);
  EXPECT_EQ(JsonValue(42).as_int(), 42);
  EXPECT_EQ(JsonValue("hi").as_string(), "hi");
  EXPECT_THROW(JsonValue(1.0).as_string(), std::logic_error);
  EXPECT_THROW(JsonValue("x").as_number(), std::logic_error);
  EXPECT_EQ(JsonValue(2147483647.0).as_int(), 2147483647);
  EXPECT_EQ(JsonValue(-2147483648.0).as_int(), -2147483647 - 1);
  for (const double v : {4294967299.0, -4294967293.0, 2147483648.0, 1e300,
                         2.5, std::nan("")}) {
    EXPECT_THROW(JsonValue(v).as_int(), std::out_of_range) << v;
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj["zeta"] = JsonValue(1);
  obj["alpha"] = JsonValue(2);
  obj["mid"] = JsonValue(3);
  ASSERT_EQ(obj.members().size(), 3u);
  EXPECT_EQ(obj.members()[0].first, "zeta");
  EXPECT_EQ(obj.members()[2].first, "mid");
  EXPECT_TRUE(obj.contains("alpha"));
  EXPECT_FALSE(obj.contains("omega"));
  EXPECT_THROW(obj.at("omega"), std::out_of_range);
}

TEST(Json, WriterCompactAndPretty) {
  JsonValue obj = JsonValue::object();
  obj["n"] = JsonValue(3);
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(1));
  arr.push_back(JsonValue("two"));
  obj["items"] = std::move(arr);
  EXPECT_EQ(obj.to_string(), R"({"n":3,"items":[1,"two"]})");
  const std::string pretty = obj.to_string(2);
  EXPECT_NE(pretty.find("\n  \"n\": 3"), std::string::npos);
}

TEST(Json, StringEscaping) {
  JsonValue v(std::string("a\"b\\c\nd\x01"));
  EXPECT_EQ(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
  // Round-trip.
  EXPECT_EQ(JsonValue::parse(v.to_string()).as_string(), v.as_string());
}

TEST(Json, NumberFormatting) {
  EXPECT_EQ(JsonValue(42.0).to_string(), "42");
  EXPECT_EQ(JsonValue(-7).to_string(), "-7");
  EXPECT_EQ(JsonValue::parse("2.5e3").as_number(), 2500.0);
}

TEST(Json, ParserHandlesWhitespaceAndNesting) {
  const auto v = JsonValue::parse(R"(
    { "a" : [ 1 , { "b" : null } , true ],
      "c" : "x" }
  )");
  EXPECT_EQ(v.at("a").size(), 3u);
  EXPECT_TRUE(v.at("a").at(1).at("b").is_null());
  EXPECT_TRUE(v.at("a").at(2).as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), JsonError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonError);
  EXPECT_THROW(JsonValue::parse("tru"), JsonError);
  EXPECT_THROW(JsonValue::parse("1 2"), JsonError);   // trailing garbage
  EXPECT_THROW(JsonValue::parse("{a:1}"), JsonError); // unquoted key
  EXPECT_THROW(JsonValue::parse("[1"), JsonError);
  EXPECT_THROW(JsonValue::parse("\"\\u12g4\""), JsonError);
}

TEST(Json, ParserRejectsDeepNesting) {
  // The parser recurses once per level; a hostile document must throw,
  // not overflow the stack.
  EXPECT_THROW(JsonValue::parse(std::string(100000, '[')), JsonError);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(JsonValue::parse(nested(256)));
  EXPECT_THROW(JsonValue::parse(nested(257)), JsonError);
  EXPECT_THROW(JsonValue::parse(std::string(257, '{')), JsonError);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
  // U+00E9 (e-acute) -> two UTF-8 bytes.
  const auto s = JsonValue::parse("\"\\u00e9\"").as_string();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(static_cast<unsigned char>(s[0]), 0xC3u);
  EXPECT_EQ(static_cast<unsigned char>(s[1]), 0xA9u);
}

TEST(Json, NonFiniteNumbersWriteAsNull) {
  // JSON has no NaN/Inf literal; the svc wire protocol depends on every
  // writer output being parseable, so non-finite degrades to null.
  EXPECT_EQ(JsonValue(std::nan("")).to_string(), "null");
  EXPECT_EQ(JsonValue(HUGE_VAL).to_string(), "null");
  EXPECT_EQ(JsonValue(-HUGE_VAL).to_string(), "null");
  JsonValue obj = JsonValue::object();
  obj["bad"] = JsonValue(std::nan(""));
  obj["good"] = JsonValue(1.5);
  const std::string text = obj.to_string();
  EXPECT_EQ(text, R"({"bad":null,"good":1.5})");
  const JsonValue back = JsonValue::parse(text);
  EXPECT_TRUE(back.at("bad").is_null());
  EXPECT_DOUBLE_EQ(back.at("good").as_number(), 1.5);
}

TEST(Json, ControlCharacterSweepRoundTrips) {
  // Every control character (0x00-0x1F) must escape on write, parse
  // back to the same byte, and re-serialize identically.
  for (int c = 0; c < 0x20; ++c) {
    std::string s = "a";
    s += static_cast<char>(c);
    s += "b";
    const JsonValue v(s);
    const std::string once = v.to_string();
    const JsonValue back = JsonValue::parse(once);
    EXPECT_EQ(back.as_string(), s) << "control char " << c;
    EXPECT_EQ(back.to_string(), once) << "control char " << c;
  }
}

TEST(Json, MultiByteUtf8PassthroughAndEscapes) {
  // Raw UTF-8 passes through the writer byte-for-byte...
  const std::string snowman = "\xE2\x98\x83";       // U+2603
  const std::string e_acute = "\xC3\xA9";           // U+00E9
  const JsonValue v(snowman + " " + e_acute);
  const std::string text = v.to_string();
  EXPECT_EQ(text, "\"" + snowman + " " + e_acute + "\"");
  EXPECT_EQ(JsonValue::parse(text).as_string(), v.as_string());
  // ...and the equivalent \uXXXX escapes parse to the same bytes.
  EXPECT_EQ(JsonValue::parse("\"\\u2603 \\u00e9\"").as_string(),
            v.as_string());
  // Escaped + raw forms normalize to identical serialized output.
  EXPECT_EQ(JsonValue::parse("\"\\u2603 \\u00e9\"").to_string(), text);
}

TEST(Json, RoundTripDeepStructure) {
  JsonValue root = JsonValue::object();
  JsonValue inner = JsonValue::array();
  for (int i = 0; i < 10; ++i) {
    JsonValue item = JsonValue::object();
    item["i"] = JsonValue(i);
    item["sq"] = JsonValue(i * i);
    inner.push_back(std::move(item));
  }
  root["items"] = std::move(inner);
  root["flag"] = JsonValue(false);
  const JsonValue reparsed = JsonValue::parse(root.to_string(2));
  EXPECT_EQ(reparsed, root);
}

// ---------------------------------------------------------------------
// Plan serialization
// ---------------------------------------------------------------------

TEST(Serialize, PlanRoundTrip) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3, 4}});
  const core::RecoveryPlan plan = core::run_pm(state);

  const JsonValue json = core::plan_to_json(plan);
  const core::RecoveryPlan back =
      core::plan_from_json(JsonValue::parse(json.to_string(2)));
  EXPECT_EQ(back.algorithm, plan.algorithm);
  EXPECT_EQ(back.mapping, plan.mapping);
  EXPECT_EQ(back.sdn_assignments, plan.sdn_assignments);
  EXPECT_EQ(back.whole_switch_control, plan.whole_switch_control);
  EXPECT_DOUBLE_EQ(back.middle_layer_ms, plan.middle_layer_ms);
  // The deserialized plan still validates against the failure state.
  EXPECT_TRUE(core::validate_plan(state, back).empty());
}

TEST(Serialize, PgPlanKeepsPerPairControllers) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3}});
  const core::RecoveryPlan plan = core::run_pg(state);
  const core::RecoveryPlan back = core::plan_from_json(
      JsonValue::parse(core::plan_to_json(plan).to_string()));
  EXPECT_EQ(back.assignment_controller, plan.assignment_controller);
}

TEST(Serialize, MalformedPlanRejected) {
  EXPECT_THROW(core::plan_from_json(JsonValue::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(core::plan_from_json(JsonValue::parse(
                   R"({"algorithm": 7})")),
               std::runtime_error);
  // A switch id must be an integer in int range, not wrap into one.
  const auto plan_json = [](const std::string& switch_id) {
    return R"({"algorithm":"PM","whole_switch_control":false,)"
           R"("middle_layer_ms":0,"solve_seconds":0,"proven_optimal":false,)"
           R"("mapping":[{"switch":)" +
           switch_id + R"(,"controller":0}],"sdn_assignments":[]})";
  };
  const JsonValue valid = JsonValue::parse(plan_json("3"));
  EXPECT_EQ(core::plan_from_json(valid).mapping.at(3), 0);
  for (const std::string id : {"4294967299", "-4294967293", "1e300", "2.5"}) {
    EXPECT_THROW(core::plan_from_json(JsonValue::parse(plan_json(id))),
                 std::runtime_error)
        << id;
  }
}

TEST(Serialize, MetricsExportCompletes) {
  const sdwan::Network net = core::make_att_network();
  const sdwan::FailureState state(net, {{3}});
  const core::RecoveryPlan plan = core::run_pm(state);
  const auto metrics = core::evaluate_plan(state, plan);
  const JsonValue json = core::case_report_to_json("(13)", plan, metrics);
  EXPECT_EQ(json.at("case").as_string(), "(13)");
  EXPECT_EQ(json.at("metrics").at("algorithm").as_string(), "PM");
  EXPECT_EQ(json.at("metrics").at("total_programmability").as_int(),
            metrics.total_programmability);
  // Parses back as valid JSON.
  EXPECT_NO_THROW(JsonValue::parse(json.to_string(2)));
}

}  // namespace
}  // namespace pm
