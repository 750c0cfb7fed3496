// The bench harness (bench/harness.h): the flag table every bench parses its
// arguments with, the PASS/FAIL checks that set a bench's exit status, the
// JSON report writer the regression gate reads, and the shared helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace oskit::bench {
namespace {

// argv for Flags::Parse, program name first.
struct Argv {
  explicit Argv(std::vector<const char*> words) : words(std::move(words)) {}
  int argc() const { return static_cast<int>(words.size()); }
  const char* const* argv() const { return words.data(); }
  std::vector<const char*> words;
};

// The table napi_rx parses with: one bare block count and --json.
struct NapiFlags {
  size_t blocks = 2048;
  const char* json = nullptr;
  Flags flags{"napi_rx"};
  NapiFlags() {
    flags.Count(&blocks, "blocks").Add("--json", &json, "<path>");
  }
};

TEST(BenchFlagsTest, UsageLineListsTheTable) {
  NapiFlags napi;
  EXPECT_EQ("usage: napi_rx [blocks] [--json <path>]", napi.flags.Usage());
  uint64_t seeds = 0;
  int hosts = 0;
  EXPECT_EQ("usage: c [--seeds N] [--hosts H]",
            Flags("c").Add("--seeds", &seeds).Add("--hosts", &hosts, "H")
                .Usage());
}

TEST(BenchFlagsTest, DefaultsSurviveAnEmptyCommandLine) {
  NapiFlags napi;
  std::string error;
  EXPECT_TRUE(napi.flags.Parse(1, Argv({"napi_rx"}).argv(), &error));
  EXPECT_EQ(2048u, napi.blocks);
  EXPECT_EQ(nullptr, napi.json);
}

TEST(BenchFlagsTest, PositionalCountAndFlagsInAnyOrder) {
  NapiFlags napi;
  std::string error;
  Argv args({"napi_rx", "--json", "out.json", "512"});
  ASSERT_TRUE(napi.flags.Parse(args.argc(), args.argv(), &error)) << error;
  EXPECT_EQ(512u, napi.blocks);
  EXPECT_STREQ("out.json", napi.json);
}

TEST(BenchFlagsTest, OnlyOnePositionalCount) {
  NapiFlags napi;
  std::string error;
  Argv args({"napi_rx", "12", "13"});
  EXPECT_FALSE(napi.flags.Parse(args.argc(), args.argv(), &error));
  EXPECT_EQ("unexpected argument 13", error);

  uint64_t seeds = 0;
  Argv bare({"fault_campaign", "8"});
  EXPECT_FALSE(Flags("fault_campaign")
                   .Add("--seeds", &seeds)
                   .Parse(bare.argc(), bare.argv(), &error));
  EXPECT_EQ("unexpected argument 8", error);
}

TEST(BenchFlagsTest, IntegersParseBaseZero) {
  uint64_t seed = 0;
  int hosts = 0;
  std::string stack;
  Flags flags("http_campaign");
  flags.Add("--seed", &seed, "S").Add("--hosts", &hosts).Add("--stack", &stack);
  std::string error;
  Argv args({"http_campaign", "--seed", "0x51", "--hosts", "010", "--stack",
             "stripe,cache"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv(), &error)) << error;
  EXPECT_EQ(0x51u, seed);
  EXPECT_EQ(8, hosts);  // octal, as strtoull base 0 reads it
  EXPECT_EQ("stripe,cache", stack);
}

TEST(BenchFlagsTest, UnknownFlagIsRejected) {
  NapiFlags napi;
  std::string error;
  Argv args({"napi_rx", "--jsn", "x"});
  EXPECT_FALSE(napi.flags.Parse(args.argc(), args.argv(), &error));
  EXPECT_EQ("unknown flag --jsn", error);
  EXPECT_EQ(2048u, napi.blocks);
}

TEST(BenchFlagsTest, MissingValueIsRejected) {
  NapiFlags napi;
  std::string error;
  Argv args({"napi_rx", "--json"});
  EXPECT_FALSE(napi.flags.Parse(args.argc(), args.argv(), &error));
  EXPECT_EQ("missing value for --json", error);
}

TEST(BenchFlagsTest, JunkNumbersAreRejected) {
  for (const char* junk :
       {"12x", "abc", "", "-1", "0x", "99999999999999999999"}) {
    uint64_t seeds = 7;
    std::string error;
    Argv args({"fault_campaign", "--seeds", junk});
    EXPECT_FALSE(Flags("fault_campaign")
                     .Add("--seeds", &seeds)
                     .Parse(args.argc(), args.argv(), &error))
        << junk;
    EXPECT_EQ(std::string("bad value for --seeds: ") + junk, error);
  }
  int hosts = 0;
  std::string error;
  Argv too_big({"c10k", "--hosts", "4294967296"});
  EXPECT_FALSE(Flags("c10k").Add("--hosts", &hosts).Parse(
      too_big.argc(), too_big.argv(), &error));
  NapiFlags napi;
  Argv bad_count({"napi_rx", "2k"});
  EXPECT_FALSE(napi.flags.Parse(bad_count.argc(), bad_count.argv(), &error));
  EXPECT_EQ("bad blocks: 2k", error);
}

TEST(BenchFlagsDeathTest, BadCommandLineExitsTwoWithUsage) {
  // `napi_rx --jsn x` used to run with 0 blocks: every word but --json went
  // through strtoul.  Now it is refused.
  NapiFlags napi;
  char prog[] = "napi_rx";
  char flag[] = "--jsn";
  char value[] = "x";
  char* argv[] = {prog, flag, value, nullptr};
  EXPECT_EXIT(napi.flags.ParseOrExit(3, argv), ::testing::ExitedWithCode(2),
              "napi_rx: unknown flag --jsn\nusage: napi_rx \\[blocks\\] "
              "\\[--json <path>\\]");
}

TEST(BenchCheckTest, CheckAndFailPrintAndSetTheExitCode) {
  g_failures = 0;
  ::testing::internal::CaptureStdout();
  EXPECT_TRUE(Check(true, "  ratio: %.2f", 1.5));
  EXPECT_EQ(0, ExitCode());
  EXPECT_FALSE(Check(false, "  floor: %d", 4));
  Fail("seed %d: %s", 3, "lost data");
  EXPECT_EQ("  ratio: 1.50  PASS\n  floor: 4  FAIL\nFAIL: seed 3: lost data\n",
            ::testing::internal::GetCapturedStdout());
  EXPECT_EQ(2, Failures());
  EXPECT_EQ(1, ExitCode());
  g_failures = 0;
}

TEST(BenchCheckTest, EvidenceChecklistFailsRowsWithoutCounters) {
  g_failures = 0;
  Aggregate agg = {{"a", 0}, {"b", 3}};
  ::testing::internal::CaptureStdout();
  CheckEvidence(agg, {{"b moved", {"a", "b"}}, {"c moved", {"a", "c"}}}, 10);
  EXPECT_EQ(
      "  b moved               3 ok\n"
      "  c moved               0 MISSING\n"
      "FAIL: aggregate: no evidence that c moved\n",
      ::testing::internal::GetCapturedStdout());
  EXPECT_EQ(1, Failures());
  g_failures = 0;
}

TEST(BenchReportTest, FieldsKeepTheirPrecision) {
  Report r;
  r.Field("bench", "x")
      .Field("count", uint64_t{18446744073709551615u})
      .Field("delta", -3)
      .Field("ratio", 1.0 / 3, 4)
      .Field("floor", 4.0, 1)
      .Field("factor", 8.0, 2)
      .Field("rate", 2.7, 0)
      .Field("pass", true);
  EXPECT_EQ(
      "{\n"
      "  \"bench\": \"x\",\n"
      "  \"count\": 18446744073709551615,\n"
      "  \"delta\": -3,\n"
      "  \"ratio\": 0.3333,\n"
      "  \"floor\": 4.0,\n"
      "  \"factor\": 8.00,\n"
      "  \"rate\": 3,\n"
      "  \"pass\": true\n"
      "}\n",
      r.Text());
}

TEST(BenchReportTest, NestedAndInlineObjects) {
  Report r;
  r.Object("latency_us", Report::Layout::kInline)
      .Field("p50", 1.26, 1)
      .Field("p99", 9.0, 1)
      .End()
      .Object("empty", Report::Layout::kInline)
      .End()
      .Array("rows");
  for (int i = 0; i < 2; ++i) {
    r.Object(nullptr, Report::Layout::kInline).Field("i", i).End();
  }
  r.End().Object("counters").Field("net.tcp.out", 7);
  r.Object("inner").Field("say \"hi\"", "a\\b").End();
  r.End();
  EXPECT_EQ(
      "{\n"
      "  \"latency_us\": {\"p50\": 1.3, \"p99\": 9.0},\n"
      "  \"empty\": {},\n"
      "  \"rows\": [\n"
      "    {\"i\": 0},\n"
      "    {\"i\": 1}\n"
      "  ],\n"
      "  \"counters\": {\n"
      "    \"net.tcp.out\": 7,\n"
      "    \"inner\": {\n"
      "      \"say \\\"hi\\\"\": \"a\\\\b\"\n"
      "    }\n"
      "  }\n"
      "}\n",
      r.Text());
}

TEST(BenchReportTest, WriteRoundTripsAndReportsFailures) {
  Report r;
  r.Field("bench", "roundtrip");
  std::string path = ::testing::TempDir() + "bench_harness_report.json";
  ASSERT_TRUE(r.Write(path.c_str()));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(r.Text(), text.str());
  std::remove(path.c_str());

  // fopen fails.
  EXPECT_FALSE(r.Write("/nonexistent-dir/report.json"));
  // fopen succeeds but the data never lands: the write or the close fails.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    EXPECT_FALSE(r.Write("/dev/full"));
  }
  g_failures = 0;
  EXPECT_EQ(2, Finish(r, "/nonexistent-dir/report.json"));
  EXPECT_EQ(0, Finish(r, nullptr));
}

TEST(BenchHelpersTest, PercentileTakesTheLowerNearestRank) {
  EXPECT_EQ(0, Percentile({}, 0.5));
  std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(5, Percentile(sorted, 0.50));  // floor(0.5 * 9) = 4
  EXPECT_EQ(9, Percentile(sorted, 0.99));  // floor(0.99 * 9) = 8
  EXPECT_EQ(10, Percentile(sorted, 1.0));
}

TEST(BenchHelpersTest, PatternByteAndMergeSnapshot) {
  EXPECT_EQ(static_cast<uint8_t>(7 * 131 + 600 * 29 + 1), PatternByte(7, 600));
  Aggregate agg = {{"net.tcp.out", 1}};
  trace::CounterSnapshot snap = {{"net.tcp.out", 2}, {"fault.nic.tx.drop", 5}};
  MergeSnapshot(snap, &agg, "fault.");
  EXPECT_EQ((Aggregate{{"net.tcp.out", 3}}), agg);
  MergeSnapshot(snap, &agg);
  EXPECT_EQ((Aggregate{{"fault.nic.tx.drop", 5}, {"net.tcp.out", 5}}), agg);
}

}  // namespace
}  // namespace oskit::bench
