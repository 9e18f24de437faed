// Tests for the choreographer front end's option table: number parsing,
// the argv grammar, per-kind applicability and the batch manifest grammar.
// Nothing here runs a job, so a rejected count never reaches a ThreadPool.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/options.hpp"

namespace {

using namespace choreo;
using cli::Options;
using cli::UsageError;

Options parse(const std::vector<std::string>& args) {
  Options options;
  cli::parse_args(args, options);
  return options;
}

std::vector<cli::Job> manifest(const std::string& text,
                               const Options& defaults = {}) {
  std::istringstream in(text);
  return cli::read_manifest(in, "m.txt", defaults);
}

TEST(CliNumbers, CountsAreNonNegativeDecimals) {
  EXPECT_EQ(cli::parse_count("0"), 0u);
  EXPECT_EQ(cli::parse_count("12"), 12u);
  for (const char* bad : {"-1", "+1", " 1", "", "3x", "1.5", "0x10",
                          "99999999999999999999999"}) {
    EXPECT_THROW(cli::parse_count(bad), UsageError) << bad;
  }
}

TEST(CliNumbers, NumbersAreFinite) {
  EXPECT_DOUBLE_EQ(cli::parse_number("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(cli::parse_number("-2e3"), -2000.0);
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999",
                          "", "2s", "abc", "1.5.2"}) {
    EXPECT_THROW(cli::parse_number(bad), UsageError) << bad;
  }
}

TEST(CliArgs, BadValuesAreUsageErrors) {
  const std::vector<std::vector<std::string>> bad = {
      {"--batch", "m.txt", "--workers", "-1"},
      {"--batch", "m.txt", "--repeat", "-1"},
      {"x.xmi", "--timeout", "nan"},
      {"x.xmi", "--timeout", "inf"},
      {"x.xmi", "--threads", "2 "},
      {"x.xmi", "--default-rate", "1r"},
      {"x.xmi", "--solver", "lu"},
      {"x.xmi", "--aggregation", "quotient"},
      {"x.pepa", "--sweep", "locs"},
      {"x.xmi", "--no-such-flag"},
      {"x.xmi", "--timeout"},
      {"x.xmi", "y.xmi"},
  };
  for (const auto& args : bad) {
    EXPECT_THROW(parse(args), UsageError) << args.back();
  }
}

TEST(CliArgs, FillsTheJob) {
  const Options options = parse({"--threads", "4", "m.pepa", "--aggregation",
                                 "exact", "--sweep", "a=1,2", "--sweep-zip",
                                 "--timeout", "2.5", "-o", "t.json"});
  EXPECT_EQ(options.job.input, "m.pepa");
  EXPECT_EQ(options.job.threads, 4u);
  EXPECT_EQ(options.job.analysis.aggregation, chor::Aggregation::kExact);
  ASSERT_EQ(options.job.sweep.axes.size(), 1u);
  EXPECT_EQ(options.job.sweep.combine, sweep::Combine::kZip);
  EXPECT_DOUBLE_EQ(options.job.timeout_seconds, 2.5);
  EXPECT_EQ(options.job.output, "t.json");
  EXPECT_EQ(parse({"x.xmi"}).job.threads, 1u);
}

TEST(CliArgs, OptionsApplyOnlyToTheirKinds) {
  const Options states = parse({"m.pepa", "--states", "--lump"});
  EXPECT_NO_THROW(cli::check_applies(states.job, cli::kModel));
  EXPECT_NO_THROW(cli::check_applies(states.job, cli::kNet));
  EXPECT_THROW(cli::check_applies(states.job, cli::kProject), UsageError);
  EXPECT_THROW(cli::check_applies(states.job, cli::kFluid), UsageError);
  EXPECT_THROW(cli::check_applies(states.job, cli::kQueued), UsageError);
  const Options passage = parse({"m.pepanet", "--passage-to", "P"});
  EXPECT_THROW(cli::check_applies(passage.job, cli::kNet), UsageError);
  const Options workers = parse({"x.xmi", "--workers", "2"});
  EXPECT_THROW(cli::check_applies(workers.job, cli::kProject), UsageError);
  EXPECT_NO_THROW(cli::check_applies(workers.job, cli::kBatch));
}

TEST(CliManifest, LinesOverrideTheDefaults) {
  const Options defaults =
      parse({"--batch", "m.txt", "--solver", "jacobi", "--timeout", "5",
             "--workers", "3"});
  const auto jobs = manifest(
      "a.xmi --timeout 7 --name first\n"
      "\n"
      "b.pepa --sweep locs=1,2 -o t.json\n",
      defaults);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].input, "a.xmi");
  EXPECT_EQ(jobs[0].name, "first");
  EXPECT_DOUBLE_EQ(jobs[0].timeout_seconds, 7.0);
  EXPECT_EQ(jobs[0].analysis.solver.method, ctmc::Method::kJacobi);
  EXPECT_DOUBLE_EQ(jobs[1].timeout_seconds, 5.0);
  EXPECT_EQ(jobs[1].analysis.solver.method, ctmc::Method::kJacobi);
  EXPECT_EQ(jobs[1].sweep.axes.size(), 1u);
  EXPECT_EQ(jobs[1].output, "t.json");
}

TEST(CliManifest, CommentsAreFieldsStartingWithHash) {
  const auto jobs = manifest(
      "# a whole-line comment\n"
      "a.xmi -o build//pda.xmi # a trailing comment\n"
      "   #indented comment\n"
      "dir#1/b.xmi -o out#2.xmi#not-a-comment\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].output, "build//pda.xmi");
  EXPECT_EQ(jobs[1].input, "dir#1/b.xmi");
  EXPECT_EQ(jobs[1].output, "out#2.xmi#not-a-comment");
}

TEST(CliManifest, RejectsRunOptionsAndSingleJobOptions) {
  for (const char* line :
       {"a.xmi --workers 2\n", "a.xmi --batch other.txt\n",
        "a.xmi --report\n", "m.pepa --states\n", "--solver sor\n",
        "a.xmi --repeat -1\n"}) {
    try {
      manifest(std::string("# header\n") + line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const UsageError& error) {
      EXPECT_EQ(std::string(error.what()).rfind("m.txt:2: ", 0), 0u)
          << error.what();
    }
  }
}

}  // namespace
