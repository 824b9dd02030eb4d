#include "runner/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace mci::runner {
namespace {

Cli makeCli(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  auto cli = makeCli({"--simtime=5000", "--seed=7"});
  EXPECT_DOUBLE_EQ(cli.getDouble("simtime", 0), 5000.0);
  EXPECT_EQ(cli.getInt("seed", 0), 7);
}

TEST(Cli, ParsesSpaceForm) {
  auto cli = makeCli({"--threads", "4"});
  EXPECT_EQ(cli.getInt("threads", 0), 4);
}

TEST(Cli, FallbacksWhenAbsent) {
  auto cli = makeCli({});
  EXPECT_DOUBLE_EQ(cli.getDouble("simtime", 123.0), 123.0);
  EXPECT_EQ(cli.getInt("seed", 42), 42);
  EXPECT_EQ(cli.getStr("mode", "def"), "def");
  EXPECT_FALSE(cli.has("csv"));
}

TEST(Cli, BareFlagIsPresent) {
  auto cli = makeCli({"--csv"});
  EXPECT_TRUE(cli.has("csv"));
}

TEST(Cli, BareFlagFollowedByFlag) {
  auto cli = makeCli({"--csv", "--seed=1"});
  EXPECT_TRUE(cli.has("csv"));
  EXPECT_EQ(cli.getInt("seed", 0), 1);
}

TEST(Cli, StringValues) {
  auto cli = makeCli({"--workload=HOTCOLD"});
  EXPECT_EQ(cli.getStr("workload", ""), "HOTCOLD");
}

TEST(Cli, UnknownArgsReported) {
  auto cli = makeCli({"--typo=3", "--seed=1"});
  (void)cli.getInt("seed", 0);
  const auto unknown = cli.unknownArgs();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Cli, GetSchemeParsesValidNames) {
  auto cli = makeCli({"--scheme=BS"});
  const auto kind = cli.getScheme("scheme", schemes::SchemeKind::kAaw);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, schemes::SchemeKind::kBs);
}

TEST(Cli, GetSchemeFallsBackWhenAbsent) {
  auto cli = makeCli({});
  const auto kind = cli.getScheme("scheme", schemes::SchemeKind::kAfw);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, schemes::SchemeKind::kAfw);
}

TEST(Cli, GetSchemeRejectsTypos) {
  // A typo'd scheme must not silently run the default: the caller gets
  // nullopt (and the valid set is printed to stderr) so it can exit.
  auto cli = makeCli({"--scheme=AWW"});
  EXPECT_FALSE(cli.getScheme("scheme", schemes::SchemeKind::kAaw).has_value());
}

TEST(Cli, QueriedArgsNotReportedUnknown) {
  auto cli = makeCli({"--seed=1"});
  (void)cli.getInt("seed", 0);
  EXPECT_TRUE(cli.unknownArgs().empty());
}

TEST(Cli, GetIntBoundedParsesValidValues) {
  auto cli = makeCli({"--shards=3", "--shard-index", "2"});
  EXPECT_EQ(cli.getIntBounded("shards", 1, 1, 1024), 3);
  EXPECT_EQ(cli.getIntBounded("shard-index", 0, 0, 2), 2);
}

TEST(Cli, GetIntBoundedFallsBackWhenAbsent) {
  auto cli = makeCli({});
  EXPECT_EQ(cli.getIntBounded("shards", 1, 1, 1024), 1);
  // The fallback is the caller's, not clamped: bounds apply to user input.
  EXPECT_EQ(cli.getIntBounded("shards", 0, 1, 1024), 0);
}

TEST(Cli, GetIntBoundedRejectsTypos) {
  // `--shards banana` must not silently run a default-size cluster: the
  // caller gets nullopt (and the accepted range is printed to stderr), the
  // same contract as getScheme.
  EXPECT_FALSE(
      makeCli({"--shards=banana"}).getIntBounded("shards", 1, 1, 1024));
  EXPECT_FALSE(makeCli({"--shards=3x"}).getIntBounded("shards", 1, 1, 1024));
  EXPECT_FALSE(makeCli({"--shards="}).getIntBounded("shards", 1, 1, 1024));
}

TEST(Cli, GetIntBoundedRejectsOutOfRangeValues) {
  EXPECT_FALSE(makeCli({"--shards=0"}).getIntBounded("shards", 1, 1, 1024));
  EXPECT_FALSE(makeCli({"--shards=1025"}).getIntBounded("shards", 1, 1, 1024));
  EXPECT_FALSE(
      makeCli({"--shard-index=-1"}).getIntBounded("shard-index", 0, 0, 3));
  EXPECT_EQ(makeCli({"--shards=1024"}).getIntBounded("shards", 1, 1, 1024),
            1024);
}

TEST(Cli, NumericGettersParseTheWholeToken) {
  auto cli = makeCli({"--dbsize=1000", "--period=2.5", "--gap=-3",
                      "--scale=1e3"});
  EXPECT_EQ(cli.getInt("dbsize", 0), 1000);
  EXPECT_DOUBLE_EQ(cli.getDouble("period", 0), 2.5);
  EXPECT_EQ(cli.getInt("gap", 0), -3);
  EXPECT_DOUBLE_EQ(cli.getDouble("scale", 0), 1000.0);  // a real number
  EXPECT_FALSE(cli.rejectUnknownArgs("prog"));
}

TEST(Cli, MalformedIntegersFallBackAndAreRejected) {
  // Each of these used to parse as a prefix ("1e3" -> 1, "2e4" -> 2) or as
  // 0 ("banana"); now the fallback comes back and the value is recorded.
  for (const char* bad : {"1e3", "2e4", "banana", "3x", "", "1.5",
                          "99999999999999999999"}) {
    auto cli = makeCli({"--seed", bad});
    EXPECT_EQ(cli.getInt("seed", 42), 42) << bad;
    EXPECT_TRUE(cli.unknownArgs().empty()) << bad;  // known, just malformed
    EXPECT_TRUE(cli.rejectUnknownArgs("prog")) << bad;
  }
}

TEST(Cli, MalformedDoublesFallBackAndAreRejected) {
  for (const char* bad : {"fast", "2.5s", "", "nan", "inf"}) {
    auto cli = makeCli({"--timescale", bad});
    EXPECT_DOUBLE_EQ(cli.getDouble("timescale", 1.0), 1.0) << bad;
    EXPECT_TRUE(cli.rejectUnknownArgs("prog")) << bad;
  }
}

TEST(Cli, RejectUnknownArgsNamesTheBadValue) {
  auto cli = makeCli({"--clients", "banana", "--seed=7"});
  (void)cli.getInt("clients", 8);
  EXPECT_EQ(cli.getInt("seed", 0), 7);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(cli.rejectUnknownArgs("mci_live_server"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err, "mci_live_server: bad value for --clients: 'banana'\n");
}

TEST(Cli, GetIntBoundedRejectsScientificNotation) {
  EXPECT_FALSE(makeCli({"--swarm-clients=2e4"})
                   .getIntBounded("swarm-clients", 100000, 1, 1 << 30));
}

}  // namespace
}  // namespace mci::runner
