// End-to-end fixture tests for tools/zombie_lint.cc: write snippets into a
// temporary tree, run the real linter binary over it, and assert on the exit
// code and the reported rules. The binary path is injected by CMake via
// ZOMBIE_LINT_BINARY.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace zombie {
namespace {

namespace fs = std::filesystem;

#ifndef ZOMBIE_LINT_BINARY
#error "ZOMBIE_LINT_BINARY must be defined by the build"
#endif

struct LintRun {
  int exit_code;
  std::string output;
};

// Runs the linter on `root` and captures combined stdout+stderr.
LintRun RunLint(const fs::path& root) {
  std::string cmd = std::string(ZOMBIE_LINT_BINARY) + " " + root.string() +
                    " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 512> buf;
  while (pipe != nullptr &&
         std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  int raw = pipe != nullptr ? pclose(pipe) : -1;
  int code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return {code, output};
}

class ZombieLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("zombie_lint_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
  }

  void TearDown() override { fs::remove_all(root_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
  }

  fs::path src() const { return root_ / "src"; }

  fs::path root_;
};

TEST_F(ZombieLintTest, CleanFilePasses) {
  WriteFile("src/good.cc",
            "#include <string>\n"
            "namespace zombie {\n"
            "int Add(int a, int b) { return a + b; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RejectsThrowRandAndCout) {
  WriteFile("src/bad.cc",
            "#include <cstdlib>\n"
            "#include <iostream>\n"
            "namespace zombie {\n"
            "int Roll() {\n"
            "  if (rand() > 100) throw 1;\n"
            "  std::cout << \"rolled\\n\";\n"
            "  return 0;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-throw"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("no-raw-random"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("no-stdout"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, AllowCommentSuppressesFinding) {
  WriteFile("src/suppressed.cc",
            "namespace zombie {\n"
            "int Roll(int (*rand)());  // zombie-lint: allow(no-raw-random)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, SuppressionIsPerRule) {
  // The allow() names a different rule, so the finding must still fire.
  WriteFile("src/wrong_rule.cc",
            "namespace zombie {\n"
            "int Roll(int (*rand)());  // zombie-lint: allow(no-stdout)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-random"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, TokensInCommentsAndStringsDoNotTrigger) {
  WriteFile("src/commented.cc",
            "// This comment mentions throw, rand(), and std::cout freely.\n"
            "/* block comment: srand random_device printf */\n"
            "namespace zombie {\n"
            "const char* Help() { return \"try rand() or std::cout\"; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, SubstringIdentifiersDoNotTrigger) {
  // "operand", "entry", "catchup" contain banned tokens as substrings only.
  // (Locals, not globals, so no-mutable-global stays quiet too.)
  WriteFile("src/substrings.cc",
            "namespace zombie {\n"
            "int Sum() {\n"
            "  int operand = 0;\n"
            "  int entry = 1;\n"
            "  int catchup = 2;\n"
            "  int sprintf_like = 3;\n"
            "  return operand + entry + catchup + sprintf_like;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RandomImplFileIsExempt) {
  WriteFile("src/util/random.cc",
            "namespace zombie {\n"
            "unsigned Seed() { return 42; /* may mention rand_r */ }\n"
            "int Entropy() { return srand(1), 0; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RejectsRawClockNow) {
  WriteFile("src/core/timer.cc",
            "#include <chrono>\n"
            "namespace zombie {\n"
            "long Now() {\n"
            "  return std::chrono::steady_clock::now().time_since_epoch()\n"
            "      .count();\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-clock"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, RejectsSystemAndHighResolutionClockNow) {
  WriteFile("src/core/clocks.cc",
            "#include <chrono>\n"
            "namespace zombie {\n"
            "auto A() { return std::chrono::system_clock::now(); }\n"
            "auto B() { return std::chrono::high_resolution_clock::now(); }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("system_clock"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("high_resolution_clock"), std::string::npos)
      << run.output;
}

TEST_F(ZombieLintTest, ClockTypeWithoutNowDoesNotTrigger) {
  // Declaring a time_point type is not a clock read.
  WriteFile("src/core/types.cc",
            "#include <chrono>\n"
            "namespace zombie {\n"
            "using TimePoint = std::chrono::steady_clock::time_point;\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, ClockImplAndObsFilesAreExemptFromRawClock) {
  const char* body =
      "#include <chrono>\n"
      "namespace zombie {\n"
      "long Now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n"
      "}\n"
      "}  // namespace zombie\n";
  WriteFile("src/util/clock.cc", body);
  WriteFile("src/obs/sampler.cc", body);
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, AllowCommentSuppressesRawClock) {
  WriteFile("src/core/special.cc",
            "#include <chrono>\n"
            "namespace zombie {\n"
            "auto T() { return std::chrono::steady_clock::now(); }"
            "  // zombie-lint: allow(no-raw-clock)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RejectsStringVectorOnHotPath) {
  WriteFile("src/featureeng/bad_tokens.cc",
            "#include <string>\n"
            "#include <vector>\n"
            "namespace zombie {\n"
            "std::vector<std::string> CollectTokens();\n"
            "}  // namespace zombie\n");
  WriteFile("src/core/bad_core.cc",
            "#include <string>\n"
            "#include <vector>\n"
            "namespace zombie {\n"
            "std::vector<std::string> Names();\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-hot-path-string-copy"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("bad_tokens.cc"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("bad_core.cc"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, StringVectorMatchToleratesWhitespace) {
  WriteFile("src/core/spaced.cc",
            "#include <string>\n"
            "#include <vector>\n"
            "namespace zombie {\n"
            "std::vector< std::string > Spaced();\n"
            "std::vector<\n"
            "    std::string>\n"
            "Wrapped();\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The single-line spelling must be caught despite the extra spaces, and —
  // since the linter matches token sequences, not lines — the declaration
  // wrapped across lines 5-7 must be caught too.
  EXPECT_NE(run.output.find("spaced.cc:4"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("spaced.cc:5"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, StringVectorOutsideHotPathIsFine) {
  // util/ and text/ may own strings; only featureeng/ and core/ are hot.
  WriteFile("src/util/strings.cc",
            "#include <string>\n"
            "#include <vector>\n"
            "namespace zombie {\n"
            "std::vector<std::string> Split();\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, AllowCommentSuppressesStringVector) {
  WriteFile("src/core/setup.cc",
            "#include <string>\n"
            "#include <vector>\n"
            "namespace zombie {\n"
            "std::vector<std::string> Labels();"
            "  // zombie-lint: allow(no-hot-path-string-copy)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RejectsRawExtractOutsideFeatureeng) {
  WriteFile("src/core/direct.cc",
            "namespace zombie {\n"
            "void A(P* p, const D& d, const C& c) { p->Extract(d, c); }\n"
            "void B(P& p, const D& d, const C& c) { p.Extract(d, c); }\n"
            "void C2(P& p, const D& d, const C& c) { p . Extract (d, c); }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-extract-outside-service"),
            std::string::npos)
      << run.output;
  // All three spellings (->, ., whitespace-spaced) must be caught.
  EXPECT_NE(run.output.find("direct.cc:2"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("direct.cc:3"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("direct.cc:4"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, RawExtractInsideFeatureengIsFine) {
  // The extraction layer implements the service; it may call Extract.
  WriteFile("src/featureeng/service.cc",
            "namespace zombie {\n"
            "void F(P* p, const D& d, const C& c) { p->Extract(d, c); }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, ExtractLikeIdentifiersDoNotTrigger) {
  // Prefixed/suffixed method names and non-call uses are not findings.
  WriteFile("src/core/lookalikes.cc",
            "namespace zombie {\n"
            "void A(W& w) { w.ExtractAll(); }\n"
            "void B(W& w) { w.ReExtract(); }\n"
            "void C(W& w) { auto f = &W::Extract; (void)f; (void)w; }\n"
            "// comment may say pipeline->Extract(doc) freely\n"
            "const char* D() { return \"call .Extract( here\"; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, AllowCommentSuppressesRawExtract) {
  WriteFile("src/core/special_extract.cc",
            "namespace zombie {\n"
            "void F(P* p, const D& d, const C& c) { p->Extract(d, c); }"
            "  // zombie-lint: allow(no-raw-extract-outside-service)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, HeaderGuardMustMatchPath) {
  WriteFile("src/util/widget.h",
            "#ifndef WRONG_GUARD_H\n"
            "#define WRONG_GUARD_H\n"
            "#endif  // WRONG_GUARD_H\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("header-guard"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("ZOMBIE_UTIL_WIDGET_H_"), std::string::npos)
      << run.output;
}

TEST_F(ZombieLintTest, CorrectHeaderGuardPasses) {
  WriteFile("src/util/widget.h",
            "#ifndef ZOMBIE_UTIL_WIDGET_H_\n"
            "#define ZOMBIE_UTIL_WIDGET_H_\n"
            "#endif  // ZOMBIE_UTIL_WIDGET_H_\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, MissingHeaderGuardIsReported) {
  WriteFile("src/util/bare.h", "namespace zombie {}\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("missing #ifndef"), std::string::npos)
      << run.output;
}

// --- suppression matching is exact per rule token -------------------------

TEST_F(ZombieLintTest, SuppressionRequiresExactRuleToken) {
  // A longer rule name sharing the real one as a prefix must not suppress.
  WriteFile("src/prefix_rule.cc",
            "namespace zombie {\n"
            "int Roll(int (*rand)());  // zombie-lint: allow(no-raw-random-x)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-random"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, SuppressionPrefixOfRuleDoesNotSuppress) {
  // A shorter prefix of the rule name must not suppress either.
  WriteFile("src/short_rule.cc",
            "namespace zombie {\n"
            "int Roll(int (*rand)());  // zombie-lint: allow(no-raw)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-random"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, SuppressionAcceptsCommaList) {
  WriteFile("src/multi_rule.cc",
            "namespace zombie {\n"
            "int Roll(int (*rand)()) { return 0; }"
            "  // zombie-lint: allow(no-stdout, no-raw-random)\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// --- no-unordered-iteration -----------------------------------------------

TEST_F(ZombieLintTest, RejectsRangeForOverUnorderedMap) {
  WriteFile("src/core/iter.cc",
            "#include <unordered_map>\n"
            "namespace zombie {\n"
            "int Sum(const std::unordered_map<int, int>& m) {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : m) s += kv.second;\n"
            "  return s;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-unordered-iteration"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("iter.cc:5"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, UnorderedMemberDeclaredInHeaderIsCaughtInCc) {
  // The declaration and the iteration live in different files; the include
  // graph must connect them.
  WriteFile("src/core/tally.h",
            "#ifndef ZOMBIE_CORE_TALLY_H_\n"
            "#define ZOMBIE_CORE_TALLY_H_\n"
            "#include <unordered_map>\n"
            "namespace zombie {\n"
            "class Tally {\n"
            " public:\n"
            "  int Sum() const;\n"
            " private:\n"
            "  std::unordered_map<int, int> counts_;\n"
            "};\n"
            "}  // namespace zombie\n"
            "#endif  // ZOMBIE_CORE_TALLY_H_\n");
  WriteFile("src/core/tally.cc",
            "#include \"core/tally.h\"\n"
            "namespace zombie {\n"
            "int Tally::Sum() const {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : counts_) s += kv.second;\n"
            "  return s;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-unordered-iteration"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("tally.cc:5"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, UnorderedIterationOutsideRestrictedDirsIsFine) {
  WriteFile("src/util/freq.cc",
            "#include <unordered_map>\n"
            "namespace zombie {\n"
            "int Sum(const std::unordered_map<int, int>& m) {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : m) s += kv.second;\n"
            "  return s;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, UnorderedLookupWithoutIterationIsFine) {
  WriteFile("src/core/lookup.cc",
            "#include <unordered_map>\n"
            "namespace zombie {\n"
            "int Get(const std::unordered_map<int, int>& m, int k) {\n"
            "  auto it = m.find(k);\n"
            "  return it == m.end() ? 0 : it->second;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// --- no-detached-thread ----------------------------------------------------

TEST_F(ZombieLintTest, RejectsRawThreadAndDetach) {
  WriteFile("src/core/spawner.cc",
            "#include <thread>\n"
            "namespace zombie {\n"
            "void Go() {\n"
            "  std::thread t([] {});\n"
            "  t.detach();\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-detached-thread"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("spawner.cc:4"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("spawner.cc:5"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, ThreadPoolFilesMayConstructThreads) {
  WriteFile("src/util/thread_pool.cc",
            "#include <thread>\n"
            "#include <vector>\n"
            "namespace zombie {\n"
            "void Spawn(std::vector<std::thread>* ts) {"
            " ts->emplace_back([] {}); }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, ThreadTypeLevelUsesAreFine) {
  WriteFile("src/core/par.cc",
            "#include <thread>\n"
            "namespace zombie {\n"
            "unsigned N() { return std::thread::hardware_concurrency(); }\n"
            "std::thread::id Id() { return std::thread::id{}; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// --- no-nondet-float -------------------------------------------------------

TEST_F(ZombieLintTest, RejectsStdReduceAndFastMathPragma) {
  WriteFile("src/ml/fast.cc",
            "#include <numeric>\n"
            "#include <vector>\n"
            "#pragma float_control(precise, off)\n"
            "namespace zombie {\n"
            "double Sum(const std::vector<double>& v) {\n"
            "  return std::reduce(v.begin(), v.end(), 0.0);\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-nondet-float"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("fast.cc:3"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("fast.cc:6"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, AccumulateAndContractOffAreFine) {
  WriteFile("src/ml/seq.cc",
            "#include <numeric>\n"
            "#include <vector>\n"
            "#pragma STDC FP_CONTRACT OFF\n"
            "namespace zombie {\n"
            "double Sum(const std::vector<double>& v) {\n"
            "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RejectsExecutionHeaderInclude) {
  WriteFile("src/ml/parstl.cc",
            "#include <execution>\n"
            "namespace zombie {\n"
            "int Noop() { return 0; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-nondet-float"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("parstl.cc:1"), std::string::npos) << run.output;
}

// --- no-mutable-global -----------------------------------------------------

TEST_F(ZombieLintTest, RejectsMutableNamespaceScopeVariable) {
  WriteFile("src/core/state.cc",
            "namespace zombie {\n"
            "int g_counter = 0;\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-mutable-global"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("g_counter"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, RejectsMutableGlobalInAnonymousNamespace) {
  // Anonymous namespaces and brace-initialized atomics do not launder
  // hidden state.
  WriteFile("src/core/anon.cc",
            "#include <atomic>\n"
            "namespace zombie {\n"
            "namespace {\n"
            "std::atomic<int> g_level{2};\n"
            "}  // namespace\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-mutable-global"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("anon.cc:4"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, ConstGlobalsAndLocalStaticsAreFine) {
  WriteFile("src/core/consts.cc",
            "namespace zombie {\n"
            "constexpr int kMax = 8;\n"
            "const char* const kName = \"x\";\n"
            "int& Counter() {\n"
            "  static int count = 0;\n"
            "  return count;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, FunctionAndClassDeclarationsAreNotGlobals) {
  WriteFile("src/core/decls.cc",
            "#include <string>\n"
            "namespace zombie {\n"
            "int Add(int a, int b);\n"
            "struct Options { int depth = 3; };\n"
            "using Label = std::string;\n"
            "int Add(int a, int b) { return a + b; }\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RawMmapOutsideUtilFlagged) {
  WriteFile("src/featureeng/raw_map.cc",
            "#include <sys/mman.h>\n"
            "namespace zombie {\n"
            "void* Map(int fd, unsigned long n) {\n"
            "  return mmap(nullptr, n, 3, 1, fd, 0);\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-mmap"), std::string::npos) << run.output;
}

TEST_F(ZombieLintTest, RawMmapInUtilAndAllowEscapeAreFine) {
  // src/util/ implements the wrapper, so the syscalls are legal there; a
  // vetted call elsewhere can opt out in place with allow().
  WriteFile("src/util/mmap_file.cc",
            "#include <sys/mman.h>\n"
            "namespace zombie {\n"
            "void Drop(void* p, unsigned long n) { munmap(p, n); }\n"
            "}  // namespace zombie\n");
  WriteFile("src/core/vetted.cc",
            "#include <sys/mman.h>\n"
            "namespace zombie {\n"
            "void Sync(void* p, unsigned long n) {\n"
            "  msync(p, n, 4);  // zombie-lint: allow(no-raw-mmap)\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, RawIntrinsicsInSrcFlagged) {
  // Both spellings must fire: the <*intrin.h> include and the _mm*/__m256
  // identifiers (caught even without the include, e.g. via a transitive
  // header).
  WriteFile("src/ml/fast_path.cc",
            "#include <x86intrin.h>\n"
            "namespace zombie {\n"
            "double Sum(const double* v) {\n"
            "  __m256d lanes = _mm256_loadu_pd(v);\n"
            "  double out[4];\n"
            "  _mm256_storeu_pd(out, lanes);\n"
            "  return out[0] + out[1] + out[2] + out[3];\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no-raw-intrinsics"), std::string::npos)
      << run.output;
  // The include line and at least one identifier line both report.
  EXPECT_NE(run.output.find("x86intrin.h"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("_mm256_loadu_pd"), std::string::npos)
      << run.output;
}

TEST_F(ZombieLintTest, RawIntrinsicsInSimdDirFlagged) {
  // src/ml/simd/ holds only scalar kernels and gets no exemption.
  WriteFile("src/ml/simd/kernel.cc",
            "#include <x86intrin.h>\n"
            "namespace zombie {\n"
            "double Lane0(const double* v) {\n"
            "  return _mm256_cvtsd_f64(_mm256_loadu_pd(v));\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/ml/simd/kernel.cc"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("no-raw-intrinsics"), std::string::npos)
      << run.output;
}

TEST_F(ZombieLintTest, RawIntrinsicsAllowEscapeIsFine) {
  // A vetted line can opt out in place with allow().
  WriteFile("src/core/vetted.cc",
            "namespace zombie {\n"
            "void Hint(const char* p) {\n"
            "  _mm_prefetch(p, 3);  // zombie-lint: allow(no-raw-intrinsics)\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(ZombieLintTest, NonIntrinsicUnderscoreIdentsAreFine) {
  // Reserved-looking but non-intrinsic names must not trip the prefix
  // matcher: __musl_libc, _map_size, __method.
  WriteFile("src/core/names.cc",
            "namespace zombie {\n"
            "int __musl_libc = 0;  // zombie-lint: allow(no-mutable-global)\n"
            "int Use(int _map_size, int __method) {\n"
            "  return _map_size + __method + __musl_libc;\n"
            "}\n"
            "}  // namespace zombie\n");
  LintRun run = RunLint(src());
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// --- checked-in fixture trees ---------------------------------------------

#ifndef ZOMBIE_LINT_FIXTURES
#error "ZOMBIE_LINT_FIXTURES must be defined by the build"
#endif

struct FixtureCase {
  const char* dir;
  const char* rule;
};

class ZombieLintFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(ZombieLintFixtureTest, BadTreeFails) {
  fs::path tree =
      fs::path(ZOMBIE_LINT_FIXTURES) / GetParam().dir / "bad" / "src";
  ASSERT_TRUE(fs::is_directory(tree)) << tree;
  LintRun run = RunLint(tree);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(std::string("[") + GetParam().rule + "]"),
            std::string::npos)
      << run.output;
}

TEST_P(ZombieLintFixtureTest, GoodTreeIsClean) {
  fs::path tree =
      fs::path(ZOMBIE_LINT_FIXTURES) / GetParam().dir / "good" / "src";
  ASSERT_TRUE(fs::is_directory(tree)) << tree;
  LintRun run = RunLint(tree);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    DeterminismRules, ZombieLintFixtureTest,
    ::testing::Values(
        FixtureCase{"no_unordered_iteration", "no-unordered-iteration"},
        FixtureCase{"no_detached_thread", "no-detached-thread"},
        FixtureCase{"no_nondet_float", "no-nondet-float"},
        FixtureCase{"no_mutable_global", "no-mutable-global"},
        FixtureCase{"no_raw_mmap", "no-raw-mmap"},
        FixtureCase{"no_raw_intrinsics", "no-raw-intrinsics"}),
    [](const ::testing::TestParamInfo<FixtureCase>& fixture) {
      return std::string(fixture.param.dir);
    });

}  // namespace
}  // namespace zombie
