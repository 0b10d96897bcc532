/**
 * @file
 * Tests for the shared harness CLI: flag parsing, validation, and the
 * mapping onto runner options.
 */

#include <gtest/gtest.h>

#include "exp/cli.hh"

namespace ich
{
namespace exp
{
namespace
{

CliOptions
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "harness");
    return parseCli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, Defaults)
{
    CliOptions cli = parse({});
    EXPECT_EQ(cli.jobs, 0);
    EXPECT_FALSE(cli.seed.has_value());
    EXPECT_FALSE(cli.trials.has_value());
    EXPECT_FALSE(cli.json);
    EXPECT_FALSE(cli.csv);
    EXPECT_EQ(cli.outDir, "results");
    EXPECT_FALSE(cli.list);
    EXPECT_FALSE(cli.help);
    EXPECT_TRUE(cli.scenarios.empty());
}

TEST(Cli, AllFlags)
{
    CliOptions cli = parse({"--jobs", "8", "--seed", "42", "--trials",
                            "16", "--json", "--csv", "--list", "--help",
                            "sweep-a", "sweep-b"});
    EXPECT_EQ(cli.jobs, 8);
    EXPECT_EQ(cli.seed, std::uint64_t{42});
    EXPECT_EQ(cli.trials, 16);
    EXPECT_TRUE(cli.json);
    EXPECT_TRUE(cli.csv);
    EXPECT_TRUE(cli.list);
    EXPECT_TRUE(cli.help);
    EXPECT_EQ(cli.scenarios,
              (std::vector<std::string>{"sweep-a", "sweep-b"}));
}

TEST(Cli, ShortFlags)
{
    CliOptions cli = parse({"-j", "3"});
    EXPECT_EQ(cli.jobs, 3);
    EXPECT_EQ(parse({"-j", "1024"}).jobs, 1024); // the cap itself
    EXPECT_TRUE(parse({"-h"}).help);
}

TEST(Cli, OutImpliesMachineReports)
{
    CliOptions cli = parse({"--out", "run7"});
    EXPECT_EQ(cli.outDir, "run7");
    EXPECT_TRUE(cli.json);
    EXPECT_TRUE(cli.csv);

    // Explicit format selection is not widened by --out, in either
    // flag order.
    CliOptions only_json = parse({"--json", "--out", "run8"});
    EXPECT_TRUE(only_json.json);
    EXPECT_FALSE(only_json.csv);
    CliOptions only_json_after = parse({"--out", "run8", "--json"});
    EXPECT_TRUE(only_json_after.json);
    EXPECT_FALSE(only_json_after.csv);
}

TEST(Cli, Rejections)
{
    EXPECT_THROW(parse({"--jobs"}), std::invalid_argument);
    EXPECT_THROW(parse({"--jobs", "zero"}), std::invalid_argument);
    EXPECT_THROW(parse({"--jobs", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--jobs", "12x"}), std::invalid_argument);
    EXPECT_THROW(parse({"--jobs", "1025"}), std::invalid_argument);
    EXPECT_THROW(parse({"--seed", "-4"}), std::invalid_argument);
    EXPECT_THROW(parse({"--trials", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--out", ""}), std::invalid_argument);
    EXPECT_THROW(parse({"--frobnicate"}), std::invalid_argument);
    // Removed flags must fail loudly, not fall back to a serial run.
    EXPECT_THROW(parse({"--shard", "2"}), std::invalid_argument);
    EXPECT_THROW(parse({"--shard-worker"}), std::invalid_argument);
}

TEST(Cli, ToRunnerOptions)
{
    RunnerOptions opts =
        toRunnerOptions(parse({"--jobs", "5", "--seed", "9"}));
    EXPECT_EQ(opts.jobs, 5);
    EXPECT_EQ(opts.seed, std::uint64_t{9});
    EXPECT_FALSE(opts.trials.has_value());
}

TEST(Cli, WantScenario)
{
    CliOptions all = parse({});
    EXPECT_TRUE(wantScenario(all, "anything"));

    CliOptions some = parse({"a1", "a3"});
    EXPECT_TRUE(wantScenario(some, "a1"));
    EXPECT_FALSE(wantScenario(some, "a2"));
}

TEST(Cli, UsageMentionsEveryFlag)
{
    std::string usage = cliUsage("prog");
    for (const char *flag : {"--jobs", "--seed", "--trials", "--json",
                             "--csv", "--out", "--list", "--help"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

} // namespace
} // namespace exp
} // namespace ich
