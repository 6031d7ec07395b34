//===- tests/LintFixtureTest.cpp - crafty-lint fixture corpus -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden tests for the crafty-lint analyzer (tools/crafty-lint). Each
/// fixture under tests/lint/fixtures/ is one translation unit with either
/// seeded violations of a single rule or the clean counterparts that must
/// stay silent; the expected diagnostics live beside them in
/// tests/lint/expected/ as `line:rule` pairs. A final test runs the tool
/// over the real src/ tree against the committed baseline, pinning the
/// "tree is clean" property CI enforces.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

struct LintRun {
  int ExitCode = -1;
  std::string Output;
};

LintRun runLint(const std::string &Args) {
  LintRun R;
  std::string Cmd = std::string(CRAFTY_LINT_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Output.append(Buf, N);
  int Rc = pclose(P);
  R.ExitCode = WIFEXITED(Rc) ? WEXITSTATUS(Rc) : -1;
  return R;
}

/// Reduces tool output ("file:line: rule: message [in func]") to the
/// golden form: one "line:rule" entry per finding, in output order.
std::vector<std::string> findings(const std::string &Out) {
  std::vector<std::string> F;
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("crafty-lint:", 0) == 0 || Line.empty())
      continue;
    size_t C1 = Line.find(':');
    if (C1 == std::string::npos)
      continue;
    size_t C2 = Line.find(':', C1 + 1);
    size_t C3 = Line.find(':', C2 + 2);
    if (C2 == std::string::npos || C3 == std::string::npos)
      continue;
    std::string LineNo = Line.substr(C1 + 1, C2 - C1 - 1);
    std::string Rule = Line.substr(C2 + 2, C3 - C2 - 2);
    F.push_back(LineNo + ":" + Rule);
  }
  return F;
}

std::vector<std::string> golden(const std::string &Name) {
  std::ifstream In(std::string(CRAFTY_LINT_EXPECTED_DIR) + "/" + Name +
                   ".txt");
  EXPECT_TRUE(In.good()) << "missing golden file for " << Name;
  std::vector<std::string> G;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      G.push_back(Line);
  return G;
}

class LintFixture : public ::testing::TestWithParam<const char *> {};

TEST_P(LintFixture, MatchesGolden) {
  const std::string Name = GetParam();
  LintRun R = runLint(std::string(CRAFTY_LINT_FIXTURE_DIR) + "/" + Name +
                      ".cpp --root " CRAFTY_LINT_FIXTURE_DIR
                      " --include-dir " CRAFTY_LINT_SRC_DIR);
  std::vector<std::string> Expected = golden(Name);
  EXPECT_EQ(findings(R.Output), Expected) << R.Output;
  // Exit code contract: 1 when findings exist, 0 when clean.
  EXPECT_EQ(R.ExitCode, Expected.empty() ? 0 : 1) << R.Output;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LintFixture,
    ::testing::Values("pm_raw_store_pos", "pm_raw_store_neg",
                      "htm_unsafe_call_pos", "htm_unsafe_call_neg",
                      "flush_without_drain_pos", "flush_without_drain_neg",
                      "unbounded_tx_writes_pos", "unbounded_tx_writes_neg",
                      "persist_ordering_pos", "persist_ordering_neg",
                      "pm_escape_pos", "pm_escape_neg",
                      "tx_capacity_pos", "tx_capacity_neg",
                      "suppression"),
    [](const ::testing::TestParamInfo<const char *> &I) {
      return std::string(I.param);
    });

/// The SARIF artifact the CI code-scanning upload consumes: well-formed,
/// carries all seven rule metadata entries, and locates each finding.
TEST(LintSarif, EmitsFindingsWithRuleMetadata) {
  std::string Path = ::testing::TempDir() + "/crafty_lint_fixture.sarif";
  std::remove(Path.c_str());
  LintRun R = runLint(std::string(CRAFTY_LINT_FIXTURE_DIR) +
                      "/pm_raw_store_pos.cpp --root " CRAFTY_LINT_FIXTURE_DIR
                      " --include-dir " CRAFTY_LINT_SRC_DIR " --sarif " +
                      Path);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << R.Output;
  std::stringstream SS;
  SS << In.rdbuf();
  const std::string S = SS.str();
  EXPECT_NE(S.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(S.find("\"name\": \"crafty-lint\""), std::string::npos);
  for (const char *Rule :
       {"pm-raw-store", "htm-unsafe-call", "flush-without-drain",
        "unbounded-tx-writes", "persist-ordering", "pm-escape",
        "tx-capacity"})
    EXPECT_NE(S.find(std::string("\"id\": \"") + Rule + "\""),
              std::string::npos)
        << "missing rule metadata for " << Rule;
  EXPECT_NE(S.find("pm_raw_store_pos.cpp"), std::string::npos);
  EXPECT_NE(S.find("\"startLine\""), std::string::npos);
}

/// The property the CI lint lane enforces: the real tree produces no
/// findings beyond the committed baseline.
TEST(LintTree, SrcIsCleanAgainstBaseline) {
  LintRun R = runLint("--scan " CRAFTY_LINT_SRC_DIR
                      " --restrict src/ --root " CRAFTY_LINT_REPO_ROOT
                      " --baseline " CRAFTY_LINT_REPO_ROOT
                      "/tools/crafty-lint/baseline.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

/// Baseline hygiene contract: an entry the tree no longer produces is a
/// hard failure, and --prune-baseline is the escape hatch that rewrites
/// the file keeping only entries that still match.
TEST(LintBaseline, StaleEntryFailsAndPruneRemovesIt) {
  std::string Path = ::testing::TempDir() + "/crafty_lint_stale.json";
  {
    std::ofstream Out(Path);
    Out << "{ \"tool\": \"crafty-lint\", \"entries\": [\n"
           "  { \"rule\": \"pm-raw-store\", \"file\": \"no_such_file.cpp\",\n"
           "    \"function\": \"ghost\", \"justification\": \"obsolete\" }\n"
           "] }\n";
  }
  const std::string Args = std::string(CRAFTY_LINT_FIXTURE_DIR) +
                           "/pm_raw_store_neg.cpp --root "
                           CRAFTY_LINT_FIXTURE_DIR
                           " --include-dir " CRAFTY_LINT_SRC_DIR
                           " --baseline " + Path;
  LintRun Stale = runLint(Args);
  EXPECT_EQ(Stale.ExitCode, 1) << Stale.Output;
  EXPECT_NE(Stale.Output.find("stale baseline entry"), std::string::npos)
      << Stale.Output;

  LintRun Pruned = runLint(Args + " --prune-baseline");
  EXPECT_EQ(Pruned.ExitCode, 0) << Pruned.Output;
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str().find("ghost"), std::string::npos)
      << "pruned baseline still holds the stale entry: " << SS.str();
}

/// Reads a `--capacity-report` file into function -> bound.
std::map<std::string, std::string>
readCapacityReport(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "no capacity report at " << Path;
  std::map<std::string, std::string> Bounds;
  std::string Bound, Name;
  while (In >> Bound >> Name)
    Bounds[Name] = Bound;
  return Bounds;
}

/// A switch costs its most expensive arm, not the sum of its arms; an arm
/// without a break adds to the arm it falls into.
TEST(LintCapacity, SwitchCostsItsWorstArm) {
  std::string Path = ::testing::TempDir() + "/crafty_lint_switch.txt";
  std::remove(Path.c_str());
  LintRun R = runLint(std::string(CRAFTY_LINT_FIXTURE_DIR) +
                      "/tx_capacity_switch.cpp --root " CRAFTY_LINT_FIXTURE_DIR
                      " --include-dir " CRAFTY_LINT_SRC_DIR
                      " --capacity-report " +
                      Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::map<std::string, std::string> Bounds = readCapacityReport(Path);
  EXPECT_EQ(Bounds["txTwoArms"], "3");
  EXPECT_EQ(Bounds["txFallThrough"], "4");
}

/// The static side of the capacity contract that
/// KvStore.TxCapacityStaticBoundCoversDynamicWrites pins dynamically:
/// the analyzer's interprocedural bounds for the shard's annotated
/// transaction bodies equal the CRAFTY_TX_CAPACITY declarations in
/// KvShard.h (33 / 53 words).
TEST(LintTree, CapacityReportMatchesDeclaredShardBudgets) {
  std::string Path = ::testing::TempDir() + "/crafty_lint_capacity.txt";
  std::remove(Path.c_str());
  LintRun R = runLint("--scan " CRAFTY_LINT_SRC_DIR
                      " --restrict src/ --root " CRAFTY_LINT_REPO_ROOT
                      " --baseline " CRAFTY_LINT_REPO_ROOT
                      "/tools/crafty-lint/baseline.json --capacity-report " +
                      Path);
  std::map<std::string, std::string> Bounds = readCapacityReport(Path);
  ASSERT_FALSE(Bounds.empty()) << R.Output;
  EXPECT_EQ(Bounds["KvShard::writeCellTx"], "33");
  // 33 + map-slot words + displaced-heap-extent free (freeCellExtentTx).
  EXPECT_EQ(Bounds["KvShard::setInTx"], "53");
  // The execution engine stays finite only through its CRAFTY_TX_BOUND
  // chunk annotation (a regression there shows up as "unbounded" here),
  // and its op switch costs its worst arm: BatchTxnLimit x setInTx.
  EXPECT_EQ(Bounds["KvShard::runCycle"], "1696");
  // The heap's metadata transactions must stay tiny regardless of object
  // size -- that is the whole point of stage-then-publish: 2 bitmap
  // words + epoch counter + 16 page epochs + 3 WAL words.
  EXPECT_EQ(Bounds["DurableHeap::allocInTx"], "22");
  EXPECT_EQ(Bounds["DurableHeap::freeExtentInTx"], "2");
  EXPECT_EQ(Bounds["DurableHeap::closeWalInTx"], "1");
}

} // namespace
