// Golden tests for tools/vgr_lint: every rule class must fire on a minimal
// bad translation unit with the exact rule ID, waivers must silence exactly
// what they claim, whitelisted files must stay exempt, and run_lint's exit
// codes must match its contract (0 clean / 1 findings / 2 usage error).
// These tests are what "the lint demonstrably fails on each rule class"
// means in CI: if a rule regresses into silence, this file goes red.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "project_index.hpp"
#include "vgr/sweep/json.hpp"
#include "vgr_lint.hpp"

namespace {

using vgr::lint::build_project_index;
using vgr::lint::Finding;
using vgr::lint::included_module;
using vgr::lint::lint_source;
using vgr::lint::module_of;
using vgr::lint::parse_layers;
using vgr::lint::run_lint;
using vgr::lint::write_sarif;

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

// --- VGR001 wall-clock ------------------------------------------------------

TEST(LintWallClock, FlagsChronoClocksWithExactLines) {
  const auto f = lint_source("src/vgr/gn/foo.cpp",
                             "#include <chrono>\n"
                             "auto t() { return std::chrono::steady_clock::now(); }\n"
                             "auto u() { return std::chrono::system_clock::now(); }\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "VGR001");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].rule, "VGR001");
  EXPECT_EQ(f[1].line, 3);
}

TEST(LintWallClock, FlagsCLibraryTime) {
  const auto f = lint_source("src/vgr/net/x.cpp", "long n() { return time(nullptr); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR001");
  EXPECT_EQ(f[0].tag, "wall-clock-ok");
}

TEST(LintWallClock, IgnoresMemberAndForeignNamespaceCalls) {
  // x.time(), x->time() and sim::time() are not the C library function.
  const auto f = lint_source("src/vgr/net/x.cpp",
                             "double a(T x) { return x.time(); }\n"
                             "double b(T* x) { return x->time(); }\n"
                             "double c() { return sim::time(); }\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintWallClock, EventQueueWatchdogIsWhitelisted) {
  const std::string src = "auto d = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_source("src/vgr/sim/event_queue.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/vgr/sim/event_queue.hpp", src).empty());
  EXPECT_EQ(lint_source("src/vgr/sim/timeline.cpp", src).size(), 1u);
}

// --- VGR002 ambient RNG -----------------------------------------------------

TEST(LintRng, FlagsEnginesAndCLibrary) {
  const auto f = lint_source("src/vgr/phy/x.cpp",
                             "#include <random>\n"
                             "int a() { std::random_device rd; return rd(); }\n"
                             "int b() { std::mt19937 g{1}; return g(); }\n"
                             "int c() { return rand(); }\n"
                             "void d() { srand(7); }\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"VGR002", "VGR002", "VGR002", "VGR002"}));
}

TEST(LintRng, SimRandomIsWhitelistedAndMembersIgnored) {
  EXPECT_TRUE(lint_source("src/vgr/sim/random.cpp", "std::mt19937 g{1};\n").empty());
  // A member named rand() is not the C library.
  EXPECT_TRUE(lint_source("src/vgr/gn/x.cpp", "int f(R& r) { return r.rand(); }\n").empty());
}

// --- VGR003 unordered iteration ---------------------------------------------

TEST(LintUnordered, FlagsRangeForOverLocalAndMember) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void a() {\n"
                             "  std::unordered_map<int, int> m;\n"
                             "  for (const auto& [k, v] : m) { (void)k; (void)v; }\n"
                             "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR003");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_EQ(f[0].tag, "ordered-ok");
}

TEST(LintUnordered, FlagsIteratorWalk) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void a(std::unordered_set<int>& s) {\n"
                             "  for (auto it = s.begin(); it != s.end(); ++it) { }\n"
                             "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR003");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintUnordered, HarvestsDeclarationsFromSiblingHeader) {
  // The member lives in the header; the iteration in the .cpp must still be
  // caught (this is the LocationTable::entries_ shape from the audit).
  const auto f = lint_source("src/vgr/gn/table.cpp",
                             "void Table::walk() { for (auto& [k, v] : entries_) { } }\n",
                             "struct Table { std::unordered_map<long, E> entries_; };\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR003");
}

TEST(LintUnordered, LookupAndOrderedContainersAreFine) {
  // Note the distinct names: the analyzer tracks declared names per file, so
  // an ordered container that *shares a name* with an unordered one would be
  // flagged too (a documented, conservative false positive).
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "int a(std::unordered_map<int, int>& um) { return um.find(3)->second; }\n"
                             "void b(std::map<int, int>& om) { for (auto& [k, v] : om) { } }\n"
                             "void c(std::vector<int>& v) { for (int x : v) { } }\n");
  EXPECT_TRUE(f.empty());
}

// --- VGR004 pointer-keyed ordered containers --------------------------------

TEST(LintPointerKey, FlagsPointerKeyedMapAndSet) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "std::map<Node*, int> by_node;\n"
                             "std::set<const Entry*> seen;\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"VGR004", "VGR004"}));
}

TEST(LintPointerKey, ValueKeysAndPointerValuesAreFine) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "std::map<int, Node*> by_id;\n"
                             "std::set<std::uint64_t> ids;\n");
  EXPECT_TRUE(f.empty());
}

// --- VGR005 float accumulation in parallel/merge paths ----------------------

TEST(LintFloatAccum, FlagsAccumulationOnlyInParallelFiles) {
  const std::string body =
      "void merge(Pool& p) {\n"
      "  double hits = 0.0, total = 0.0;\n"
      "  p.parallel_for(8, [&](std::size_t i) { run(i); });\n"
      "  hits += 1.0;\n"
      "  total += 2.0;\n"
      "}\n";
  const auto f = lint_source("src/vgr/scenario/x.cpp", body);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "VGR005");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_EQ(f[1].line, 5);

  // The same accumulation in a file with no parallel_for is not a finding.
  const std::string serial = "void f() { double hits = 0.0; hits += 1.0; }\n";
  EXPECT_TRUE(lint_source("src/vgr/scenario/y.cpp", serial).empty());
}

// --- VGR006 threading includes ----------------------------------------------

TEST(LintThreadInclude, FlagsOutsideThreadPool) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "#include <thread>\n"
                             "#include <mutex>\n"
                             "#include <atomic>\n"
                             "#include <vector>\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"VGR006", "VGR006", "VGR006"}));
}

TEST(LintThreadInclude, ThreadPoolIsWhitelisted) {
  const std::string src = "#include <thread>\n#include <mutex>\n#include <atomic>\n";
  EXPECT_TRUE(lint_source("src/vgr/sim/thread_pool.hpp", src).empty());
  EXPECT_TRUE(lint_source("src/vgr/sim/thread_pool.cpp", src).empty());
}

// --- VGR008 signal-handler safety -------------------------------------------

TEST(LintSignalSafety, FlagsAllocationLockingAndStdioInHandlers) {
  const auto f = lint_source("src/vgr/sweep/x.cpp",
                             "void on_int(int) {\n"
                             "  std::printf(\"caught\\n\");\n"
                             "  std::string why = describe();\n"
                             "  g_mu.lock();\n"
                             "}\n"
                             "void install() { std::signal(SIGINT, on_int); }\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"VGR008", "VGR008", "VGR008"}));
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[0].tag, "signal-safe-ok");
  EXPECT_NE(f[0].message.find("on_int"), std::string::npos);
}

TEST(LintSignalSafety, HarvestsSigactionAssignments) {
  const auto f = lint_source("src/vgr/sweep/x.cpp",
                             "void on_term(int) { delete g_state; }\n"
                             "void install() {\n"
                             "  struct sigaction sa {};\n"
                             "  sa.sa_handler = &on_term;\n"
                             "  sigaction(SIGTERM, &sa, nullptr);\n"
                             "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR008");
  EXPECT_EQ(f[0].line, 1);
}

TEST(LintSignalSafety, FlagOnlyHandlersAreClean) {
  // The sanctioned shape: assign a volatile sig_atomic_t flag, nothing else.
  const auto f = lint_source("src/vgr/sweep/x.cpp",
                             "volatile std::sig_atomic_t g_drain = 0;\n"
                             "void drain_handler(int) { g_drain = 1; }\n"
                             "void install() { std::signal(SIGINT, drain_handler); }\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintSignalSafety, NonHandlersAndDispositionsAreIgnored) {
  // printf in an ordinary function, SIG_IGN/SIG_DFL dispositions, and
  // restoring a *saved* handler variable must not create findings.
  const auto f = lint_source("src/vgr/sweep/x.cpp",
                             "void report() { std::printf(\"fine here\\n\"); }\n"
                             "void install(void (*saved)(int)) {\n"
                             "  std::signal(SIGINT, SIG_IGN);\n"
                             "  std::signal(SIGTERM, SIG_DFL);\n"
                             "  std::signal(SIGINT, saved != SIG_ERR ? saved : SIG_DFL);\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintSignalSafety, WaiverSilencesWithTheRightTagOnly) {
  // write()/_exit() are genuinely async-signal-safe and never flagged; the
  // waived fprintf is silenced, the same call under a wrong tag is not.
  const auto waived = lint_source(
      "src/vgr/sweep/x.cpp",
      "void on_int(int) {\n"
      "  write(2, \"x\", 1);\n"
      "  std::fprintf(stderr, \"x\");  // vgr-lint: signal-safe-ok (crash path)\n"
      "  _exit(1);\n"
      "}\n"
      "void install() { std::signal(SIGINT, on_int); }\n");
  EXPECT_TRUE(waived.empty());

  // A wrong tag leaves the VGR008 finding live and is itself dead (VGR011).
  const auto wrong_tag = lint_source("src/vgr/sweep/x.cpp",
                                     "void on_int(int) {\n"
                                     "  std::fprintf(stderr, \"x\");  // vgr-lint: rng-ok\n"
                                     "}\n"
                                     "void install() { std::signal(SIGINT, on_int); }\n");
  ASSERT_EQ(wrong_tag.size(), 2u);
  EXPECT_EQ(wrong_tag[0].rule, "VGR008");
  EXPECT_EQ(wrong_tag[1].rule, "VGR011");
  EXPECT_EQ(wrong_tag[1].line, 2);
}

// --- Waivers ----------------------------------------------------------------

TEST(LintWaiver, SameLineAndLineAboveSilence) {
  const auto f = lint_source(
      "src/vgr/gn/x.cpp",
      "void a(std::unordered_map<int, int>& m) {\n"
      "  for (auto& [k, v] : m) { }  // vgr-lint: ordered-ok (commutative)\n"
      "  // vgr-lint: ordered-ok (commutative)\n"
      "  for (auto& [k, v] : m) { }\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintWaiver, WrongTagDoesNotSilence) {
  // The mismatched tag leaves the VGR003 finding live — and because the
  // waiver then suppresses nothing, it is itself dead (VGR011).
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void a(std::unordered_map<int, int>& m) {\n"
                             "  // vgr-lint: wall-clock-ok\n"
                             "  for (auto& [k, v] : m) { }\n"
                             "}\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "VGR011");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].rule, "VGR003");
  EXPECT_EQ(f[1].line, 3);
}

TEST(LintWaiver, BeginEndRegionCoversOnlyItsSpan) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void a(std::unordered_map<int, int>& m) {\n"
                             "  // vgr-lint: begin ordered-ok (audited)\n"
                             "  for (auto& [k, v] : m) { }\n"
                             "  for (auto& [k, v] : m) { }\n"
                             "  // vgr-lint: end\n"
                             "  for (auto& [k, v] : m) { }\n"
                             "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR003");
  EXPECT_EQ(f[0].line, 6);
}

TEST(LintWaiver, UnknownTagAndDanglingEndAreVGR007) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "// vgr-lint: orderd-ok\n"
                             "// vgr-lint: end\n"
                             "// vgr-lint: begin\n"
                             "int x;\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"VGR007", "VGR007", "VGR007"}));
}

TEST(LintWaiver, ProseMentionIsNotADirective) {
  // A comment that merely talks about "the vgr-lint: ordered-ok waiver"
  // mid-sentence must neither waive anything nor report VGR007.
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "// This documents the vgr-lint: nonsense-tag mention.\n"
                             "void a(std::unordered_map<int, int>& m) {\n"
                             "  for (auto& [k, v] : m) { }\n"
                             "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR003");
}

// --- Tokenizer robustness ---------------------------------------------------

TEST(LintTokenizer, StringsCommentsAndRawStringsAreInert) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "const char* a = \"std::steady_clock::now() rand()\";\n"
                             "/* std::random_device in a block comment */\n"
                             "const char* b = R\"(for (auto& x : entries_) time(0))\";\n");
  EXPECT_TRUE(f.empty());
}

// --- run_lint CLI contract --------------------------------------------------

class LintCli : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path{::testing::TempDir()} /
            ("vgr_lint_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(root_ / "src");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const std::filesystem::path p = root_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream out{p};
    out << content;
  }

  std::filesystem::path root_;
};

TEST_F(LintCli, CleanTreeExitsZero) {
  write("src/ok.cpp", "int main() { return 0; }\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", root_.string()}, out, err), 0);
  EXPECT_NE(out.str().find("clean"), std::string::npos);
}

TEST_F(LintCli, ViolationExitsOneAndPrintsFileLineRule) {
  write("src/bad.cpp", "#include <thread>\nint main() { return 0; }\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", root_.string()}, out, err), 1);
  EXPECT_NE(out.str().find("src/bad.cpp:1: VGR006"), std::string::npos);
}

TEST_F(LintCli, BadRootAndUnknownOptionExitTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", (root_ / "nope").string()}, out, err), 2);
  EXPECT_EQ(run_lint({"--frobnicate"}, out, err), 2);
}

TEST_F(LintCli, SiblingHeaderDeclarationsReachTheCpp) {
  write("src/t.hpp", "struct T { std::unordered_map<int, int> m_; void f(); };\n");
  write("src/t.cpp", "void T::f() { for (auto& [k, v] : m_) { } }\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", root_.string()}, out, err), 1);
  EXPECT_NE(out.str().find("src/t.cpp:1: VGR003"), std::string::npos);
}

TEST_F(LintCli, CrossModuleHeaderDeclarationsReachTheCppThroughIncludes) {
  // The header is neither a sibling nor name-matched: only the include graph
  // of the ProjectIndex can carry its declarations into the .cpp.
  write("src/defs.hpp", "struct D { std::unordered_map<int, int> m_; };\n");
  write("src/use.cpp", "#include \"defs.hpp\"\nvoid f(D& d) { for (auto& [k, v] : d.m_) { } }\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", root_.string()}, out, err), 1);
  EXPECT_NE(out.str().find("src/use.cpp:2: VGR003"), std::string::npos);
}

// --- ProjectIndex -----------------------------------------------------------

class LintProject : public LintCli {};

TEST_F(LintProject, IncludeGraphEdgesOfATwoModuleTree) {
  write("src/vgr/geo/vec.hpp", "struct Vec { double x; };\n");
  write("src/vgr/gn/table.hpp", "#include \"vgr/geo/vec.hpp\"\nstruct Table { Vec v; };\n");
  write("src/vgr/gn/table.cpp", "#include \"vgr/gn/table.hpp\"\nvoid f() { }\n");
  const auto index = build_project_index(root_, {"src"});
  ASSERT_EQ(index.files.size(), 3u);

  const auto* cpp = index.find("src/vgr/gn/table.cpp");
  ASSERT_NE(cpp, nullptr);
  EXPECT_EQ(cpp->module, "gn");
  ASSERT_EQ(cpp->scan.includes.size(), 1u);
  EXPECT_EQ(cpp->scan.includes[0].spelled, "vgr/gn/table.hpp");
  EXPECT_EQ(cpp->scan.includes[0].resolved, "src/vgr/gn/table.hpp");
  EXPECT_EQ(cpp->scan.includes[0].line, 1);

  // The transitive closure pins the exact edge set of the synthetic tree.
  EXPECT_EQ(index.reachable_includes("src/vgr/gn/table.cpp"),
            (std::vector<std::string>{"src/vgr/geo/vec.hpp", "src/vgr/gn/table.hpp"}));
  EXPECT_EQ(index.reachable_includes("src/vgr/gn/table.hpp"),
            (std::vector<std::string>{"src/vgr/geo/vec.hpp"}));
  EXPECT_TRUE(index.reachable_includes("src/vgr/geo/vec.hpp").empty());
}

TEST_F(LintProject, IncluderRelativeResolutionWinsOverSrcRoot) {
  write("src/vgr/gn/local.hpp", "struct L { };\n");
  write("src/vgr/gn/user.cpp", "#include \"local.hpp\"\nvoid g() { }\n");
  const auto index = build_project_index(root_, {"src"});
  const auto* cpp = index.find("src/vgr/gn/user.cpp");
  ASSERT_NE(cpp, nullptr);
  ASSERT_EQ(cpp->scan.includes.size(), 1u);
  EXPECT_EQ(cpp->scan.includes[0].resolved, "src/vgr/gn/local.hpp");
}

TEST_F(LintProject, UnorderedNamesFlowThroughTheIncludeGraph) {
  write("src/vgr/geo/store.hpp", "struct Store { std::unordered_map<int, int> cells_; };\n");
  write("src/vgr/gn/walk.cpp",
        "#include \"vgr/geo/store.hpp\"\n"
        "void walk(Store& s) { for (auto& [k, v] : s.cells_) { } }\n");
  const auto index = build_project_index(root_, {"src"});
  EXPECT_TRUE(index.own_unordered_names("src/vgr/gn/walk.cpp").empty());
  EXPECT_TRUE(index.reachable_unordered_names("src/vgr/gn/walk.cpp").contains("cells_"));
}

TEST(LintModules, PathAndIncludeSpellingMapToModules) {
  EXPECT_EQ(module_of("src/vgr/gn/router.cpp"), "gn");
  EXPECT_EQ(module_of("src/vgr/sim/random.hpp"), "sim");
  EXPECT_EQ(module_of("src/other.cpp"), "");
  EXPECT_EQ(module_of("tools/vgr_lint/cli.cpp"), "");
  EXPECT_EQ(included_module("vgr/phy/mac.hpp"), "phy");
  EXPECT_EQ(included_module("phy/mac.hpp"), "");
  EXPECT_EQ(included_module("vgr/nested"), "");
}

// --- layers.txt manifest ----------------------------------------------------

TEST(LintLayers, ParsesAValidManifest) {
  const auto m = parse_layers("# reviewed DAG\nsim:\ngeo: sim\ngn: geo sim\n", "layers.txt");
  EXPECT_TRUE(m.loaded);
  EXPECT_TRUE(m.errors.empty());
  ASSERT_TRUE(m.allowed.contains("gn"));
  EXPECT_TRUE(m.allowed.at("gn").contains("geo"));
  EXPECT_TRUE(m.allowed.at("gn").contains("sim"));
  EXPECT_TRUE(m.allowed.at("sim").empty());
}

TEST(LintLayers, MalformedLinesAreFindingsAgainstTheManifest) {
  const auto m = parse_layers("sim\nsim:\nsim:\ngeo: geo\n", "layers.txt");
  ASSERT_EQ(m.errors.size(), 3u);
  EXPECT_EQ(m.errors[0].line, 1);  // missing colon
  EXPECT_EQ(m.errors[1].line, 3);  // duplicate module
  EXPECT_EQ(m.errors[2].line, 4);  // self-dependency
  for (const Finding& f : m.errors) EXPECT_EQ(f.rule, "VGR009");
}

TEST(LintLayers, CycleInTheAllowedGraphIsAFinding) {
  const auto m = parse_layers("a: b\nb: c\nc: a\n", "layers.txt");
  ASSERT_EQ(m.errors.size(), 1u);
  EXPECT_EQ(m.errors[0].rule, "VGR009");
  EXPECT_NE(m.errors[0].message.find("cycle"), std::string::npos);
}

// --- VGR009 module layering -------------------------------------------------

TEST_F(LintCli, LayeringRejectsAnUpwardInclude) {
  // The acceptance shape: a lower-layer module reaching up the DAG.
  write("layers.txt", "sim:\ngeo: sim\ngn: geo sim\n");
  write("src/vgr/geo/bad.cpp", "#include \"vgr/gn/router.hpp\"\nvoid f() { }\n");
  std::ostringstream out, err;
  EXPECT_EQ(
      run_lint({"--root", root_.string(), "--layers", (root_ / "layers.txt").string()}, out, err),
      1);
  EXPECT_NE(out.str().find("src/vgr/geo/bad.cpp:1: VGR009"), std::string::npos);
  EXPECT_NE(out.str().find("may not depend on 'gn'"), std::string::npos);
}

TEST_F(LintCli, LayeringAllowsManifestEdgesAndIntraModuleIncludes) {
  write("layers.txt", "sim:\ngeo: sim\ngn: geo sim\n");
  write("src/vgr/geo/vec.hpp", "struct Vec { };\n");
  write("src/vgr/gn/ok.cpp",
        "#include \"vgr/geo/vec.hpp\"\n"
        "#include \"vgr/gn/table.hpp\"\n"
        "void f() { }\n");
  std::ostringstream out, err;
  EXPECT_EQ(
      run_lint({"--root", root_.string(), "--layers", (root_ / "layers.txt").string()}, out, err),
      0);
}

TEST_F(LintCli, LayeringWaiverSilencesWithRationale) {
  write("layers.txt", "sim:\ngeo: sim\ngn: geo sim\n");
  write("src/vgr/geo/grandfathered.cpp",
        "// vgr-lint: layering-ok (migration tracked in ROADMAP)\n"
        "#include \"vgr/gn/router.hpp\"\n"
        "void f() { }\n");
  std::ostringstream out, err;
  EXPECT_EQ(
      run_lint({"--root", root_.string(), "--layers", (root_ / "layers.txt").string()}, out, err),
      0);
}

TEST_F(LintCli, ModuleAbsentFromTheManifestIsAFinding) {
  write("layers.txt", "sim:\ngeo: sim\n");
  write("src/vgr/attack/a.cpp", "#include \"vgr/sim/clock.hpp\"\nvoid f() { }\n");
  std::ostringstream out, err;
  EXPECT_EQ(
      run_lint({"--root", root_.string(), "--layers", (root_ / "layers.txt").string()}, out, err),
      1);
  EXPECT_NE(out.str().find("src/vgr/attack/a.cpp:1: VGR009"), std::string::npos);
  EXPECT_NE(out.str().find("not declared"), std::string::npos);
}

TEST_F(LintCli, MissingManifestWithVgrModulesIsAFinding) {
  // Deleting layers.txt must not silently switch the layering rule off.
  write("src/vgr/gn/a.cpp", "void f() { }\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", root_.string()}, out, err), 1);
  EXPECT_NE(out.str().find("VGR009"), std::string::npos);
  EXPECT_NE(out.str().find("layers.txt"), std::string::npos);
}

TEST_F(LintCli, ExplicitLayersPathMustExist) {
  write("src/ok.cpp", "int main() { return 0; }\n");
  std::ostringstream out, err;
  EXPECT_EQ(
      run_lint({"--root", root_.string(), "--layers", (root_ / "nope.txt").string()}, out, err),
      2);
}

// --- VGR010 RNG stream discipline -------------------------------------------

TEST(LintRngStream, MixedRoleEngineIsFlaggedAtTheForkSite) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void f() {\n"
                             "  auto child = rng_.fork();\n"
                             "  double u = rng_.uniform(0.0, 1.0);\n"
                             "  (void)child; (void)u;\n"
                             "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR010");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[0].tag, "rng-stream-ok");
  EXPECT_NE(f[0].message.find("line 3"), std::string::npos);
}

TEST(LintRngStream, StoredNonConstReferenceMemberIsFlagged) {
  const auto f = lint_source("src/vgr/phy/x.hpp", "struct Mac {\n  sim::Rng& rng_;\n};\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR010");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("stored member"), std::string::npos);

  // A const reference cannot draw, so observing a stream is fine.
  EXPECT_TRUE(
      lint_source("src/vgr/phy/y.hpp", "struct Probe {\n  const sim::Rng& rng_;\n};\n").empty());
}

TEST(LintRngStream, DrawsOnASharedStreamAreFlaggedForkIsNot) {
  const auto f = lint_source(
      "src/vgr/gn/x.cpp",
      "std::uint64_t bad(sim::Rng& shared) { return shared.next_u64(); }\n"
      "sim::Rng good(sim::Rng& parent) { return parent.fork(); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR010");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("non-const reference"), std::string::npos);
}

TEST(LintRngStream, OwnedByValueStreamsAreClean) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void f(sim::Rng rng) {\n"
                             "  double u = rng.uniform(0.0, 1.0);\n"
                             "  (void)u;\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintRngStream, WaiverAndSimRandomWhitelistSilence) {
  const std::string mixed =
      "void f() {\n"
      "  // vgr-lint: rng-stream-ok (audited fork point)\n"
      "  auto child = rng_.fork();\n"
      "  double u = rng_.uniform(0.0, 1.0);\n"
      "  (void)child; (void)u;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/vgr/gn/x.cpp", mixed).empty());

  const std::string unwaived =
      "void f() {\n"
      "  auto child = rng_.fork();\n"
      "  double u = rng_.uniform(0.0, 1.0);\n"
      "  (void)child; (void)u;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/vgr/sim/random.hpp", unwaived).empty());
  EXPECT_EQ(lint_source("src/vgr/gn/x.cpp", unwaived).size(), 1u);
}

// --- VGR012 environment access ------------------------------------------------

TEST(LintEnv, FlagsEnvironmentReadsOutsideTheKnobTable) {
  const auto f = lint_source("bench/bench_x.cpp",
                             "#include <cstdlib>\n"
                             "extern char** environ;\n"
                             "const char* a() { return std::getenv(\"VGR_RUNS\"); }\n"
                             "const char* b() { return secure_getenv(\"HOME\"); }\n");
  EXPECT_EQ(rules_of(f), (std::vector<std::string>{"VGR012", "VGR012", "VGR012"}));
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(lint_source("src/vgr/scenario/x.cpp", "auto* v = getenv(\"X\");\n").size(), 1u);
}

TEST(LintEnv, KnobTableMembersTestsAndWaiversAreExempt) {
  const char* body = "const char* a() { return std::getenv(\"VGR_RUNS\"); }\n";
  EXPECT_TRUE(lint_source("src/vgr/sweep/knobs.cpp", body).empty());
  EXPECT_TRUE(lint_source("tests/x_test.cpp", body).empty());
  // A member that happens to share the name is not the C library.
  EXPECT_TRUE(
      lint_source("src/vgr/gn/x.cpp", "auto e(const S& s) { return s.environ; }\n").empty());
  EXPECT_TRUE(lint_source("tools/x.cpp",
                          "auto* v = std::getenv(\"X\");  // vgr-lint: env-ok (demo)\n")
                  .empty());
}

// --- VGR011 dead waivers ----------------------------------------------------

TEST(LintDeadWaiver, DeadLineWaiverIsAFinding) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "// vgr-lint: ordered-ok (stale)\n"
                             "int x = 0;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR011");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[0].tag, "dead-waiver-ok");
  EXPECT_NE(f[0].message.find("ordered-ok"), std::string::npos);
}

TEST(LintDeadWaiver, DeadRegionWaiverIsAFinding) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "// vgr-lint: begin wall-clock-ok (stale span)\n"
                             "int x = 0;\n"
                             "// vgr-lint: end\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "VGR011");
  EXPECT_EQ(f[0].line, 1);
}

TEST(LintDeadWaiver, LiveWaiverIsNotDead) {
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "void a(std::unordered_map<int, int>& m) {\n"
                             "  // vgr-lint: ordered-ok (commutative fold)\n"
                             "  for (auto& [k, v] : m) { }\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintDeadWaiver, DeadWaiverOkKeepsAProphylacticWaiver) {
  // dead-waiver-ok waives VGR011 itself, so a deliberately prophylactic
  // waiver (e.g. above generated code) does not oscillate.
  const auto f = lint_source("src/vgr/gn/x.cpp",
                             "// vgr-lint: ordered-ok dead-waiver-ok (generated table below)\n"
                             "int x = 0;\n");
  EXPECT_TRUE(f.empty());
}

// --- SARIF output -----------------------------------------------------------

TEST(LintSarif, EmitsSchemaFieldsRulesAndEscapedResults) {
  const std::vector<Finding> findings{{"src/vgr/gn/x.cpp", 7, "VGR003", "ordered-ok",
                                       "iteration \"quoted\" over\nhash \\ order"}};
  std::ostringstream out;
  write_sarif(out, findings);

  const auto doc = vgr::sweep::json_parse(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->text("version"), "2.1.0");
  EXPECT_NE(doc->text("$schema").find("sarif-schema-2.1.0"), std::string::npos);

  const auto* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const auto* tool = runs->array[0].find("tool");
  ASSERT_NE(tool, nullptr);
  const auto* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->text("name"), "vgr_lint");
  const auto* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->array.size(), 12u);
  EXPECT_EQ(rules->array.front().text("id"), "VGR001");
  EXPECT_EQ(rules->array.back().text("id"), "VGR012");

  const auto* results = runs->array[0].find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 1u);
  const auto& r = results->array[0];
  EXPECT_EQ(r.text("ruleId"), "VGR003");
  EXPECT_EQ(r.u64("ruleIndex"), 2u);
  const auto* message = r.find("message");
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(message->text("text"), "iteration \"quoted\" over\nhash \\ order");
  const auto* locations = r.find("locations");
  ASSERT_NE(locations, nullptr);
  ASSERT_EQ(locations->array.size(), 1u);
  const auto* phys = locations->array[0].find("physicalLocation");
  ASSERT_NE(phys, nullptr);
  const auto* artifact = phys->find("artifactLocation");
  ASSERT_NE(artifact, nullptr);
  EXPECT_EQ(artifact->text("uri"), "src/vgr/gn/x.cpp");
  const auto* region = phys->find("region");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->u64("startLine"), 7u);
}

TEST_F(LintCli, SarifRoundTripsTheTextReporterFindings) {
  write("src/bad.cpp", "#include <thread>\nint main() { return 0; }\n");
  const std::string sarif_path = (root_ / "out.sarif").string();
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--root", root_.string(), "--sarif", sarif_path}, out, err), 1);
  EXPECT_NE(out.str().find("src/bad.cpp:1: VGR006"), std::string::npos);

  std::ifstream in{sarif_path};
  std::ostringstream raw;
  raw << in.rdbuf();
  const auto doc = vgr::sweep::json_parse(raw.str());
  ASSERT_TRUE(doc.has_value());
  const auto* results = doc->find("runs")->array[0].find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 1u);
  const auto& r = results->array[0];
  EXPECT_EQ(r.text("ruleId"), "VGR006");
  const auto* phys = r.find("locations")->array[0].find("physicalLocation");
  EXPECT_EQ(phys->find("artifactLocation")->text("uri"), "src/bad.cpp");
  EXPECT_EQ(phys->find("region")->u64("startLine"), 1u);
}

TEST_F(LintCli, SarifWithoutPathExitsTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--sarif"}, out, err), 2);
}

// --- --list-rules / --explain -----------------------------------------------

TEST(LintCliRules, ListRulesCoversTheWholeCatalogue) {
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--list-rules"}, out, err), 0);
  for (const char* id : {"VGR001", "VGR002", "VGR003", "VGR004", "VGR005", "VGR006", "VGR007",
                         "VGR008", "VGR009", "VGR010", "VGR011", "VGR012"}) {
    EXPECT_NE(out.str().find(id), std::string::npos) << id;
  }
  EXPECT_NE(out.str().find("layering-ok"), std::string::npos);
  EXPECT_NE(out.str().find("rng-stream-ok"), std::string::npos);
  EXPECT_NE(out.str().find("not waivable"), std::string::npos);  // VGR007
}

TEST(LintCliRules, ExplainPrintsDetailAndRejectsUnknownRules) {
  std::ostringstream out, err;
  EXPECT_EQ(run_lint({"--explain", "VGR009"}, out, err), 0);
  EXPECT_NE(out.str().find("VGR009"), std::string::npos);
  EXPECT_NE(out.str().find("layering-ok"), std::string::npos);

  std::ostringstream out2, err2;
  EXPECT_EQ(run_lint({"--explain", "VGR999"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("unknown rule"), std::string::npos);

  std::ostringstream out3, err3;
  EXPECT_EQ(run_lint({"--explain"}, out3, err3), 2);
}

}  // namespace
