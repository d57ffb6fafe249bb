#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace pm::util {
namespace {

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

TEST(Stats, EmptySampleIsAllZero) {
  const BoxStats s = box_stats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleValue) {
  const std::vector<double> v{7.0};
  const BoxStats s = box_stats(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 7.0);
  EXPECT_EQ(s.q1, 7.0);
  EXPECT_EQ(s.median, 7.0);
  EXPECT_EQ(s.q3, 7.0);
  EXPECT_EQ(s.max, 7.0);
  EXPECT_EQ(s.mean, 7.0);
}

TEST(Stats, KnownFiveNumberSummary) {
  // numpy: q1=2.5, median=4.5, q3=6.5 for 1..8 (type-7 quantiles).
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8};
  const BoxStats s = box_stats(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.q3, 6.25);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
}

TEST(Stats, UnsortedInputHandled) {
  const std::vector<double> v{9, 1, 5};
  const BoxStats s = box_stats(v);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.median, 5.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(Stats, QuantileEdges) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, -0.5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.5), 4.0);   // clamped
}

TEST(Stats, AllDuplicatesCollapseTheBox) {
  const std::vector<double> v{4, 4, 4, 4, 4};
  const BoxStats s = box_stats(v);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.q1, 4.0);
  EXPECT_EQ(s.median, 4.0);
  EXPECT_EQ(s.q3, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean, 4.0);
}

TEST(Stats, QuantileSingleElementAndDuplicates) {
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 1.0), 5.0);
  // Ties at the interpolation point still interpolate to the tied value.
  const std::vector<double> dup{1, 2, 2, 2, 9};
  EXPECT_DOUBLE_EQ(quantile_sorted(dup, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(dup, 0.25), 2.0);
}

TEST(Stats, BucketIndexBoundariesAreUpperInclusive) {
  const std::vector<double> bounds{1.0, 5.0, 10.0};
  // Prometheus semantics: bucket b counts v <= upper_bound[b].
  EXPECT_EQ(bucket_index(bounds, 0.5), 0u);
  EXPECT_EQ(bucket_index(bounds, 1.0), 0u);   // exactly on a bound
  EXPECT_EQ(bucket_index(bounds, 1.0001), 1u);
  EXPECT_EQ(bucket_index(bounds, 10.0), 2u);
  EXPECT_EQ(bucket_index(bounds, 11.0), 3u);  // +Inf overflow bucket
  EXPECT_EQ(bucket_index(bounds, std::nan("")), 3u);
}

TEST(Stats, BucketIndexEmptyBounds) {
  EXPECT_EQ(bucket_index({}, 42.0), 0u);  // only the overflow bucket
}

// ---------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, ParseInt) {
  long long v = 0;
  EXPECT_TRUE(parse_int(" 42 ", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("4x", v));
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("3.5", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("-2.5e3", v));
  EXPECT_DOUBLE_EQ(v, -2500.0);
  EXPECT_FALSE(parse_double("nanx", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Strings, JoinAndLowerAndStartsWith) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

// ---------------------------------------------------------------------
// csv
// ---------------------------------------------------------------------

TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotingAndEscaping) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row({"with,comma", "with\"quote", "with\nnewline", "plain"});
  EXPECT_EQ(out.str(),
            "\"with,comma\",\"with\"\"quote\",\"with\nnewline\",plain\n");
}

TEST(Csv, EscapeHelper) {
  EXPECT_EQ(CsvWriter::escape("ok"), "ok");
  EXPECT_EQ(CsvWriter::escape("a\"b"), "\"a\"\"b\"");
}

// ---------------------------------------------------------------------
// table
// ---------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"x", "10"});
  t.add_row({"longer", "9"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 9  |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RaggedRowsPadded) {
  TextTable t({"a"});
  t.add_row({"1", "2", "3"});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("| 1 | 2 | 3 |"), std::string::npos);
}

// ---------------------------------------------------------------------
// cli
// ---------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  // Note: a bare "--flag" followed by a non-flag token consumes the token
  // as its value ("--flag pos" means flag=pos), so boolean flags should
  // come last or use "--flag=true".
  const char* argv[] = {"prog", "pos", "--a=1", "--b", "2", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("a", 0, 0, 9), 1);
  EXPECT_EQ(args.get_int("b", 0, 0, 9), 2);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.unused(), std::vector<std::string>{"pos"});
}

TEST(Cli, FallbacksOnMissingOrMalformed) {
  // A missing flag falls back; a malformed one is refused, not replaced
  // by its fallback.
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_EXIT(args.get_double("n", 2.5, 0.0, 10.0),
              ::testing::ExitedWithCode(2),
              "prog: --n=abc is not a number in \\[0, 10\\]");
  EXPECT_EQ(args.get_int("missing", 7, 0, 1), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5, 0.0, 1.0), 1.5);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
}

TEST(Cli, RefusesRealsOutsideTheirRange) {
  const char* argv[] = {"prog", "--loss=0.O5", "--p=1.5", "--t=-1",
                        "--e=",  "--nan=nan",   "--ok=0.25"};
  CliArgs args(7, argv);
  EXPECT_EXIT(args.get_double("loss", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2),
              "--loss=0.O5 is not a number in \\[0, 1\\]");
  EXPECT_EXIT(args.get_double("p", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2), "--p=1.5 ");
  EXPECT_EXIT(args.get_double("t", 0.0, 0.0, kUnbounded),
              ::testing::ExitedWithCode(2),
              "--t=-1 is not a number in \\[0, inf\\]");
  EXPECT_EXIT(args.get_double("e", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2), "--e= ");
  EXPECT_EXIT(args.get_double("nan", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2), "--nan=nan ");
  EXPECT_DOUBLE_EQ(args.get_double("ok", 0.0, 0.0, 1.0), 0.25);
}

TEST(Cli, RefusesIntegersOutsideTheirRange) {
  const char* argv[] = {"/bin/prog", "--n=abc", "--k=4294967298",
                        "--p=70000", "--e=", "--q=-1"};
  CliArgs args(6, argv);
  // No wrap, no fallback: each prints the flag and exits 2.
  EXPECT_EXIT(args.get_int("n", 5, 0, 10), ::testing::ExitedWithCode(2),
              "prog: --n=abc is not an integer in \\[0, 10\\]");
  EXPECT_EXIT(args.get_int("k", 2, 1, 5), ::testing::ExitedWithCode(2),
              "--k=4294967298 is not an integer in \\[1, 5\\]");
  EXPECT_EXIT(args.get_int("p", 1, 1, 65535), ::testing::ExitedWithCode(2),
              "--p=70000 ");
  EXPECT_EXIT(args.get_int("e", 1, 1, 9), ::testing::ExitedWithCode(2),
              "--e= ");
  EXPECT_EQ(args.get_int("q", 0, -1, 1), -1);  // the bounds are inclusive

  // A list flag: one bad token refuses the whole flag; none is skipped.
  const char* list_argv[] = {"/bin/prog", "--sizes=abc,25", "--cases=1,9",
                             "--gap=1,,2", "--ok=10,25"};
  CliArgs lists(5, list_argv);
  EXPECT_EXIT(lists.get_ints("sizes", "25", 10, 100),
              ::testing::ExitedWithCode(2),
              "prog: --sizes=abc,25: 'abc' is not an integer in "
              "\\[10, 100\\]");
  EXPECT_EXIT(lists.get_ints("cases", "1", 1, 5),
              ::testing::ExitedWithCode(2), "--cases=1,9: '9' ");
  EXPECT_EXIT(lists.get_ints("gap", "1", 1, 5), ::testing::ExitedWithCode(2),
              "--gap=1,,2: '' ");
  EXPECT_EQ(lists.get_ints("ok", "1", 10, 25),
            (std::vector<long long>{10, 25}));
  EXPECT_EQ(lists.get_ints("missing", "1,2,3", 1, 5),
            (std::vector<long long>{1, 2, 3}));
}

TEST(Cli, BoolParsing) {
  const char* argv[] = {"prog", "--x=yes", "--y=0", "--z=TRUE", "--w=Off",
                        "--typo=ture"};
  CliArgs args(6, argv);
  EXPECT_TRUE(args.get_bool("x", false));
  EXPECT_FALSE(args.get_bool("y", true));
  EXPECT_TRUE(args.get_bool("z", false));
  EXPECT_FALSE(args.get_bool("w", true));
  EXPECT_EXIT(args.get_bool("typo", false), ::testing::ExitedWithCode(2),
              "prog: --typo=ture is not a boolean");
}

TEST(Cli, UnusedFlagsReported) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, argv);
  (void)args.get_int("used", 0, 0, 9);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "--typo=2");
}

TEST(Cli, StrayTokensAndUnreadFlagValuesReported) {
  // No program takes positional arguments: a token that is no flag's
  // value is unread, and so is the value an unread flag took.
  const char* argv[] = {"prog", "stray", "--used", "1",
                        "--bogus", "value", "--quiet"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("used", 0, 0, 9), 1);
  EXPECT_TRUE(args.get_bool("quiet", false));
  EXPECT_EQ(args.unused(),
            (std::vector<std::string>{"stray", "--bogus", "value"}));
}

TEST(Cli, NegativeNumberAsSeparateValue) {
  // "--d -3" : "-3" does not start with "--", so it is the value.
  const char* argv[] = {"prog", "--d", "-3"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("d", 0, -9, 9), -3);
}

}  // namespace
}  // namespace pm::util
