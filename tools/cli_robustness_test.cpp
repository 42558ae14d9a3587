#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <vector>

/// CLI robustness for the developer tools (docs/FAULTS.md "Streaming
/// mode" notes the CI jobs that depend on these exit codes):
///
///   * chaos_campaign / stream_soak reject malformed or negative
///     numeric arguments with a usage message and exit code 2 — an
///     atoi-style silent zero would make a typo'd campaign "pass" CI;
///   * trace_analyzer diff/check on a missing, truncated, or non-JSON
///     metrics file prints a one-line diagnosis naming the file and
///     exits 2 instead of dying on an uncaught exception;
///   * the pattern_explorer example does the same for a missing or
///     malformed --load file and an unknown --pattern kind, and every
///     other example for an unknown option or a bad or out-of-range
///     numeric value (never an abort).
///
/// Binary paths are injected by tools/CMakeLists.txt (the examples' only
/// when examples are built).

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else {
    result.exit_code = -WTERMSIG(status);  // crashed — never acceptable
  }
  return result;
}

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

TEST(ChaosCampaignCli, RejectsMalformedNumericArgs) {
  const std::string bin = CM5_CHAOS_CAMPAIGN_BIN;
  const char* bad_args[] = {
      "--runs abc",  "--runs -5",  "--runs 0",    "--runs 10x",
      "--runs 1e3",  "--nodes -8", "--nodes foo", "--nodes 8q",
      "--jobs -1",   "--jobs 2.5", "--seed -3",   "--seed 9bad",
      "--repro -2",  "--repro x",
  };
  for (const char* args : bad_args) {
    const RunResult r = run(bin + " " + args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("invalid value"), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos)
        << args << "\n" << r.output;
  }
  // Missing value for a numeric flag is also a usage error.
  const RunResult r = run(bin + " --runs");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(ChaosCampaignCli, WellFormedTinyCampaignStillRuns) {
  const std::string out = temp_path("cli_robustness_chaos.json");
  const RunResult r = run(std::string(CM5_CHAOS_CAMPAIGN_BIN) +
                          " --runs 3 --nodes 4 --seed 5 --jobs 1 --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("zero invariant violations"), std::string::npos)
      << r.output;
  std::remove(out.c_str());
}

TEST(StreamSoakCli, RejectsMalformedNumericArgs) {
  const std::string bin = CM5_STREAM_SOAK_BIN;
  const char* bad_args[] = {
      "--requests abc", "--requests -1", "--requests 0", "--nodes 3",
      "--nodes -16",    "--seed -1",     "--seed zz",    "--policy bogus",
  };
  for (const char* args : bad_args) {
    const RunResult r = run(bin + " " + args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(TraceAnalyzerCli, MissingFileIsOneLineDiagnosisNamingTheFile) {
  const std::string bin = CM5_TRACE_ANALYZER_BIN;
  const std::string missing = temp_path("cli_robustness_no_such_file.json");
  std::remove(missing.c_str());
  for (const std::string& mode : std::vector<std::string>{
           "check ", "show ", "diff " + missing + " "}) {
    const RunResult r = run(bin + " " + mode + missing);
    EXPECT_EQ(r.exit_code, 2) << mode << "\n" << r.output;
    EXPECT_NE(r.output.find(missing), std::string::npos)
        << "diagnosis must name the file:\n" << r.output;
    // One line, not a stack of them (and certainly not a crash dump).
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
        << r.output;
  }
}

TEST(TraceAnalyzerCli, TruncatedJsonIsDiagnosedNotThrown) {
  const std::string path = temp_path("cli_robustness_truncated.json");
  write_text(path, "{\"bench\": \"x\", \"rows\": [");
  const RunResult r = run(std::string(CM5_TRACE_ANALYZER_BIN) + " check " +
                          path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(path), std::string::npos)
      << "diagnosis must name the file:\n" << r.output;
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
      << r.output;
  std::remove(path.c_str());
}

TEST(TraceAnalyzerCli, TruncatedTraceFileIsDiagnosedWithExit2) {
  // A CM5TRACE event file whose writer died mid-run: no `end` trailer,
  // last event line cut short. show and check must exit 2 with a
  // one-line diagnosis naming the file and saying it is truncated —
  // not report "0 violations" on a partial stream.
  const std::string path = temp_path("cli_robustness_truncated.cm5trace");
  write_text(path,
             "CM5TRACE 1 nprocs=2\n"
             "e 1 100 0 1 64 5\n"
             "e 4 200 0 1");
  for (const std::string& mode : std::vector<std::string>{"show", "check"}) {
    const RunResult r =
        run(std::string(CM5_TRACE_ANALYZER_BIN) + " " + mode + " " + path);
    EXPECT_EQ(r.exit_code, 2) << mode << "\n" << r.output;
    EXPECT_NE(r.output.find(path), std::string::npos)
        << "diagnosis must name the file:\n" << r.output;
    EXPECT_NE(r.output.find("truncated"), std::string::npos) << r.output;
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
        << r.output;
  }
  std::remove(path.c_str());
}

TEST(TraceAnalyzerCli, WellFormedTraceFileShowsAndChecks) {
  const std::string path = temp_path("cli_robustness_ok.cm5trace");
  write_text(path,
             "CM5TRACE 1 nprocs=2\n"
             "e 1 100 0 1 64 5\n"
             "e 4 200 0 1 64 5\n"
             "e 5 300 0 1 64 5\n"
             "e 8 300 0 -1 0 0\n"
             "e 8 300 1 -1 0 0\n"
             "end 5\n");
  const RunResult shown =
      run(std::string(CM5_TRACE_ANALYZER_BIN) + " show " + path);
  EXPECT_EQ(shown.exit_code, 0) << shown.output;
  EXPECT_NE(shown.output.find("CM5TRACE v1"), std::string::npos)
      << shown.output;
  const RunResult checked =
      run(std::string(CM5_TRACE_ANALYZER_BIN) + " check " + path);
  EXPECT_EQ(checked.exit_code, 0) << checked.output;
  EXPECT_NE(checked.output.find("0 violation(s)"), std::string::npos)
      << checked.output;
  std::remove(path.c_str());
}

TEST(TraceAnalyzerCli, NonJsonFileIsDiagnosedNotThrown) {
  const std::string path = temp_path("cli_robustness_not_json.txt");
  write_text(path, "this is not json at all\n");
  for (const std::string& mode : std::vector<std::string>{
           "check", "diff " + path}) {
    const RunResult r = run(std::string(CM5_TRACE_ANALYZER_BIN) + " " + mode +
                            " " + path);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find(path), std::string::npos)
        << "diagnosis must name the file:\n" << r.output;
  }
  std::remove(path.c_str());
}

#ifdef CM5_PATTERN_EXPLORER_BIN
/// Runs example `bin` with `args`; it must exit 2 with one line on
/// stderr containing `expect`.
void expect_example_diagnosis(const std::string& bin, const std::string& args,
                              const std::string& expect) {
  const RunResult r = run(bin + " " + args);
  EXPECT_EQ(r.exit_code, 2) << bin << " " << args << "\n" << r.output;
  EXPECT_NE(r.output.find(expect), std::string::npos)
      << bin << " " << args << "\n" << r.output;
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
      << bin << " " << args << "\n" << r.output;
}

void expect_explorer_diagnosis(const std::string& args,
                               const std::string& expect) {
  expect_example_diagnosis(CM5_PATTERN_EXPLORER_BIN, args, expect);
}

TEST(PatternExplorerCli, MissingLoadFileIsDiagnosedWithExit2) {
  const std::string missing = temp_path("cli_robustness_no_such_pattern.txt");
  std::remove(missing.c_str());
  expect_explorer_diagnosis("--load " + missing, missing);
}

TEST(PatternExplorerCli, MalformedLoadFileIsDiagnosedWithExit2) {
  const std::string path = temp_path("cli_robustness_bad_pattern.txt");
  write_text(path, "not-a-pattern v9\nnprocs 4\n");
  expect_explorer_diagnosis("--load " + path, path);
  std::remove(path.c_str());
}

TEST(PatternExplorerCli, UnknownPatternKindIsDiagnosedWithExit2) {
  expect_explorer_diagnosis("--pattern bogus", "unknown pattern kind: bogus");
}

TEST(ExampleCli, Fft2dDemoRejectsBadSizes) {
  const std::string bin = CM5_FFT2D_DEMO_BIN;
  expect_example_diagnosis(bin, "--n abc", "option --n: not an integer: abc");
  expect_example_diagnosis(bin, "--n 1000", "option --n");
  expect_example_diagnosis(bin, "--n 4 --procs 8", "option --n");
  expect_example_diagnosis(bin, "--procs 3", "option --procs");
  expect_example_diagnosis(bin, "--procs 0", "option --procs");
}

TEST(ExampleCli, CgDemoRejectsBadNodeAndVertexCounts) {
  const std::string bin = CM5_CG_DEMO_BIN;
  expect_example_diagnosis(bin, "--procs 0", "option --procs");
  expect_example_diagnosis(bin, "--procs 3", "option --procs");
  expect_example_diagnosis(bin, "--vertices 0", "option --vertices");
  expect_example_diagnosis(bin, "--procs 64 --vertices 16", "option --procs");
}

TEST(ExampleCli, EulerDemoRejectsBadNodeVertexAndStepCounts) {
  const std::string bin = CM5_EULER_DEMO_BIN;
  expect_example_diagnosis(bin, "--procs -4", "option --procs");
  expect_example_diagnosis(bin, "--vertices 0", "option --vertices");
  expect_example_diagnosis(bin, "--steps -1", "option --steps");
  expect_example_diagnosis(bin, "--procs 64 --vertices 16", "option --procs");
}

TEST(ExampleCli, PartiDemoRejectsBadSizes) {
  const std::string bin = CM5_PARTI_DEMO_BIN;
  expect_example_diagnosis(bin, "--procs 0", "option --procs");
  expect_example_diagnosis(bin, "--procs 3", "option --procs");
  expect_example_diagnosis(bin, "--elements 15", "option --elements");
  expect_example_diagnosis(bin, "--accesses -1", "option --accesses");
}

TEST(ExampleCli, QuickstartRejectsUnknownOptionAndBadSizes) {
  const std::string bin = CM5_QUICKSTART_BIN;
  expect_example_diagnosis(bin, "--bogus 1", "unknown option: --bogus");
  expect_example_diagnosis(bin, "--procs 0", "option --procs");
  expect_example_diagnosis(bin, "--bytes -1", "option --bytes");
}

TEST(ExampleCli, CollectivesTourRejectsBadNodeCounts) {
  const std::string bin = CM5_COLLECTIVES_TOUR_BIN;
  expect_example_diagnosis(bin, "--procs 0", "option --procs");
  expect_example_diagnosis(bin, "--procs 3", "option --procs");
}
#endif

}  // namespace
