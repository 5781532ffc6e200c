// The runtime knob table (vgr/sweep/knobs.cpp): whole-token parsing, range
// checks and unit scales over fixed environment blocks, the Fidelity
// carrier for per-run overrides, and the guarantee that library calls never
// consult the process environment.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "vgr/phy/dcc.hpp"
#include "vgr/sim/thread_pool.hpp"
#include "vgr/sweep/ab_codec.hpp"
#include "vgr/sweep/knobs.hpp"

namespace vgr::sweep {
namespace {

using namespace sim::literals;
using scenario::ChurnConfig;
using scenario::Fidelity;
using scenario::HighwayConfig;

/// parse_knobs over a fixed "NAME=value" list.
KnobSpec parse(std::initializer_list<const char*> entries, std::uint64_t default_runs = 3) {
  std::vector<const char*> envp{entries};
  envp.push_back(nullptr);
  return parse_knobs(envp.data(), default_runs);
}

/// `base` with the spec's per-run overrides applied, as the A/B harness does.
HighwayConfig applied(const KnobSpec& spec, HighwayConfig base = {}) {
  spec.fidelity.overrides.apply(base);
  return base;
}

/// parse() with stderr captured into `warnings`.
KnobSpec parse_quiet(std::initializer_list<const char*> entries, std::string& warnings) {
  testing::internal::CaptureStderr();
  KnobSpec spec = parse(entries);
  warnings = testing::internal::GetCapturedStderr();
  return spec;
}

TEST(EnvParsing, WholeTokenValidation) {
  // VGR_SWEEP_FAULT_AFTER accepts any integer, so only the token shape
  // decides; it defaults to -1.
  EXPECT_EQ(parse({"VGR_SWEEP_FAULT_AFTER=42"}).supervisor.fault_after_appends, 42);
  // Leading blanks are fine (strtoll skips them).
  EXPECT_EQ(parse({"VGR_SWEEP_FAULT_AFTER=  7"}).supervisor.fault_after_appends, 7);
  std::string warnings;
  for (const char* bad : {"VGR_SWEEP_FAULT_AFTER=5x", "VGR_SWEEP_FAULT_AFTER=abc",
                          "VGR_SWEEP_FAULT_AFTER="}) {
    // Trailing garbage, letters and the empty token: reject the whole token.
    EXPECT_EQ(parse_quiet({bad}, warnings).supervisor.fault_after_appends, -1) << bad;
    EXPECT_NE(warnings.find("not a number"), std::string::npos) << bad;
  }
  EXPECT_EQ(parse({}).supervisor.fault_after_appends, -1);

  EXPECT_EQ(parse({"VGR_SIM_SECONDS=2.5"}).fidelity.sim_seconds, 2.5);
  EXPECT_EQ(parse_quiet({"VGR_SIM_SECONDS=2.5s"}, warnings).fidelity.sim_seconds, -1.0);
  EXPECT_NE(warnings.find("not a number"), std::string::npos);
  // strtod parses these whole, but no knob accepts a non-finite value.
  for (const char* non_finite : {"VGR_SIM_SECONDS=inf", "VGR_SIM_SECONDS=-inf",
                                 "VGR_SIM_SECONDS=nan", "VGR_SIM_SECONDS=infinity"}) {
    EXPECT_EQ(parse_quiet({non_finite}, warnings).fidelity.sim_seconds, -1.0) << non_finite;
    EXPECT_NE(warnings.find("not a number"), std::string::npos) << non_finite;
  }
}

TEST(EnvParsing, DefaultThreadCountHonoursEnv) {
  const KnobSpec three = parse({"VGR_THREADS=3"});
  EXPECT_EQ(three.fidelity.threads, 3u);
  EXPECT_EQ(sim::ThreadPool{three.fidelity.threads}.thread_count(), 3u);
  std::string warnings;
  // Rejected: threads stays 0, which the pool reads as the hardware count.
  const KnobSpec bad = parse_quiet({"VGR_THREADS=abc"}, warnings);
  EXPECT_EQ(bad.fidelity.threads, 0u);
  EXPECT_GE(sim::ThreadPool{bad.fidelity.threads}.thread_count(), 1u);
}

TEST(Fidelity, FromEnvRejectsMalformedTokensWhole) {
  KnobSpec s = parse({"VGR_RUNS=5", "VGR_SIM_SECONDS=12.5", "VGR_THREADS=2"});
  EXPECT_EQ(s.fidelity.runs, 5u);
  EXPECT_DOUBLE_EQ(s.fidelity.sim_seconds, 12.5);
  EXPECT_EQ(s.fidelity.threads, 2u);

  // "5x" used to be accepted as 5 (strtol prefix parse) and "abc" silently
  // became the default; both are rejected whole-token with a warning.
  std::string warnings;
  s = parse_quiet({"VGR_RUNS=5x", "VGR_SIM_SECONDS=abc", "VGR_THREADS=-2"}, warnings);
  EXPECT_EQ(s.fidelity.runs, 3u);
  EXPECT_DOUBLE_EQ(s.fidelity.sim_seconds, -1.0);
  EXPECT_EQ(s.fidelity.threads, 0u);  // parses, but non-positive: ignored

  EXPECT_EQ(parse({}, /*default_runs=*/7).fidelity.runs, 7u);
}

TEST(Fidelity, WatchdogKnobsParseFromEnv) {
  KnobSpec s = parse({"VGR_RUN_TIMEOUT_S=2.5", "VGR_RUN_MAX_EVENTS=5000"});
  EXPECT_DOUBLE_EQ(s.fidelity.run_wall_budget_s, 2.5);
  EXPECT_EQ(s.fidelity.run_max_events, 5000u);

  std::string warnings;
  s = parse_quiet({"VGR_RUN_TIMEOUT_S=-1",       // non-positive: ignored
                   "VGR_RUN_MAX_EVENTS=12x"},    // malformed: rejected whole-token
                  warnings);
  EXPECT_DOUBLE_EQ(s.fidelity.run_wall_budget_s, 0.0);
  EXPECT_EQ(s.fidelity.run_max_events, 0u);
}

TEST(Fidelity, EnvOverridesAreParsed) {
  const KnobSpec s = parse({"VGR_RUNS=7", "VGR_SIM_SECONDS=42.5"});
  EXPECT_EQ(s.fidelity.runs, 7u);
  EXPECT_DOUBLE_EQ(s.fidelity.sim_seconds, 42.5);
  const KnobSpec d = parse({});
  EXPECT_EQ(d.fidelity.runs, 3u);
  EXPECT_LT(d.fidelity.sim_seconds, 0.0);
}

TEST(FaultConfig, EnvOverridesParseAndValidate) {
  std::string warnings;
  const KnobSpec s = parse_quiet({"VGR_FAULT_DROP=0.25",
                                  "VGR_FAULT_LINK_LOSS=1.5",  // out of range: ignored
                                  "VGR_FAULT_DELAY_MS=4"},
                                 warnings);
  HighwayConfig base;
  base.faults.link_loss_probability = 0.125;
  const phy::FaultConfig c = applied(s, base).faults;
  EXPECT_DOUBLE_EQ(c.drop_probability, 0.25);
  EXPECT_DOUBLE_EQ(c.link_loss_probability, 0.125);
  EXPECT_DOUBLE_EQ(c.max_extra_delay_s, 0.004);
}

TEST(ChurnConfig, EnvOverridesParseAndValidate) {
  std::string warnings;
  const KnobSpec s = parse_quiet({"VGR_CHURN_RATE=0.75", "VGR_CHURN_DOWNTIME_MS=1500",
                                  "VGR_CHURN_REBOOT_P=1.25"},  // out of range: ignored
                                 warnings);
  const ChurnConfig c = applied(s).churn;
  EXPECT_DOUBLE_EQ(c.crash_rate_hz, 0.75);
  EXPECT_DOUBLE_EQ(c.downtime_s, 1.5);
  EXPECT_DOUBLE_EQ(c.reboot_probability, 1.0);
}

TEST(DccConfig, EnvOverridesApplyWholeToken) {
  phy::DccConfig cfg =
      applied(parse({"VGR_DCC=1", "VGR_DCC_SAMPLE_MS=50", "VGR_DCC_WINDOW=5"})).dcc;
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.sample_interval, 50_ms);
  EXPECT_EQ(cfg.window_samples, 5u);

  std::string warnings;
  cfg = applied(parse_quiet({"VGR_DCC=0",
                             "VGR_DCC_SAMPLE_MS=abc",  // malformed: rejected whole-token
                             "VGR_DCC_WINDOW=100000"},  // clamped to ring capacity
                            warnings))
            .dcc;
  EXPECT_FALSE(cfg.enabled);
  EXPECT_EQ(cfg.sample_interval, 100_ms);
  EXPECT_EQ(phy::Dcc{cfg}.config().window_samples, 64u);  // the DCC ring caps it
  EXPECT_EQ(warnings.find("VGR_DCC_WINDOW"), std::string::npos);  // a clamp, not a rejection

  EXPECT_FALSE(applied(parse({})).dcc.enabled);
}

TEST(MacConfigEnv, AirtimeOverheadEnvOverride) {
  EXPECT_EQ(applied(parse({"VGR_MAC_OVERHEAD_BYTES=52"})).mac.airtime_overhead_bytes, 52u);
  EXPECT_EQ(applied(parse({"VGR_MAC_OVERHEAD_BYTES=0"})).mac.airtime_overhead_bytes, 0u);
  std::string warnings;
  // Malformed: whole-token reject.
  EXPECT_EQ(applied(parse_quiet({"VGR_MAC_OVERHEAD_BYTES=38x"}, warnings))
                .mac.airtime_overhead_bytes,
            38u);
  EXPECT_EQ(applied(parse({})).mac.airtime_overhead_bytes, 38u);
}

TEST(Knobs, OutOfRangeValuesWarnNamingTheRange) {
  std::string warnings;
  parse_quiet({"VGR_FAULT_LINK_LOSS=1.5", "VGR_CHURN_REBOOT_P=1.25", "VGR_THREADS=-2",
               "VGR_RUN_TIMEOUT_S=-1"},
              warnings);
  EXPECT_NE(warnings.find("VGR_FAULT_LINK_LOSS=\"1.5\" (accepted: [0, 1])"), std::string::npos)
      << warnings;
  EXPECT_NE(warnings.find("VGR_CHURN_REBOOT_P=\"1.25\" (accepted: [0, 1])"), std::string::npos)
      << warnings;
  EXPECT_NE(warnings.find("VGR_THREADS=\"-2\" (accepted: > 0)"), std::string::npos) << warnings;
  EXPECT_NE(warnings.find("VGR_RUN_TIMEOUT_S=\"-1\" (accepted: > 0)"), std::string::npos)
      << warnings;
  // In-range values and unset knobs stay silent.
  parse_quiet({"VGR_FAULT_LINK_LOSS=1", "VGR_THREADS=2", "VGR_DCC_WINDOW=64"}, warnings);
  EXPECT_EQ(warnings, "");
}

TEST(Knobs, UnknownNamesWarn) {
  // A misspelt or removed name must not leave a script running silently
  // without the setting it asked for.
  std::string warnings;
  const KnobSpec s = parse_quiet({"VGR_RUN_MAX_EVENT=50", "VGR_RUNS=2", "VGR_NO_SUCH_KNOB",
                                  "VGR_=1", "PATH=/bin", "XVGR_RUNS=9"},
                                 warnings);
  EXPECT_EQ(s.fidelity.runs, 2u);
  EXPECT_EQ(s.fidelity.run_max_events, 0u);
  EXPECT_EQ(warnings,
            "vgr: ignoring unknown VGR_RUN_MAX_EVENT\n"
            "vgr: ignoring unknown VGR_NO_SUCH_KNOB\n"
            "vgr: ignoring unknown VGR_\n");
  // Every table row is known, set or not.
  parse_quiet({"VGR_SWEEP=1", "VGR_RUN_MAX_EVENTS=5", "VGR_SWEEP_SEED_CHUNK=2"}, warnings);
  EXPECT_EQ(warnings, "");
}

TEST(Knobs, UnitScalesAndSupervisorRows) {
  const KnobSpec s = parse({"VGR_MAC_SLOT_US=9", "VGR_MAC_AIFS_US=0", "VGR_RETX_BACKOFF_MS=25",
                            "VGR_SWEEP=1", "VGR_SWEEP_JOURNAL=j.jsonl", "VGR_SWEEP_RETRIES=0",
                            "VGR_SWEEP_BACKOFF_MS=0", "VGR_SERIES=0", "VGR_CSV_DIR=out"});
  const HighwayConfig c = applied(s);
  EXPECT_EQ(c.mac.slot, sim::Duration::micros(9));
  EXPECT_EQ(c.mac.aifs, sim::Duration::zero());
  EXPECT_DOUBLE_EQ(c.recovery.retx_backoff_ms, 25.0);  // the field is in ms already
  EXPECT_TRUE(s.supervisor.enabled);
  EXPECT_EQ(s.supervisor.journal_path, "j.jsonl");
  EXPECT_EQ(s.supervisor.max_retries, 0u);
  EXPECT_DOUBLE_EQ(s.supervisor.backoff_ms, 0.0);
  EXPECT_TRUE(s.series);  // any non-empty value turns the series on
  EXPECT_EQ(s.csv_dir, "out");
  // Empty paths count as unset.
  EXPECT_EQ(parse({"VGR_SWEEP_JOURNAL="}).supervisor.journal_path, "sweep.journal");
}

TEST(Knobs, SetKnobWinsOverTheProgrammaticArmValue) {
  HighwayConfig arm;
  arm.faults.drop_probability = 0.4;
  arm.recovery.scf = true;
  const HighwayConfig c = applied(parse({"VGR_FAULT_DROP=0.1"}), arm);
  EXPECT_DOUBLE_EQ(c.faults.drop_probability, 0.1);
  EXPECT_TRUE(c.recovery.scf);  // not a set knob: the arm's value stays
}

TEST(Knobs, LibraryIgnoresProcessEnvironment) {
  HighwayConfig cfg;
  cfg.sim_duration = sim::Duration::seconds(10.0);
  cfg.prefill_spacing_m = 90.0;
  cfg.entry_spacing_m = 90.0;
  Fidelity fidelity;
  fidelity.runs = 1;

  const scenario::AbResult reference = scenario::run_inter_area_ab(cfg, fidelity);
  ASSERT_GT(reference.reception_base_trials, 0.0);  // not comparing empty runs
  const std::string clean = encode_ab(reference);
  ::setenv("VGR_MAC", "1", 1);
  ::setenv("VGR_FAULT_DROP", "0.5", 1);
  ::setenv("VGR_RUNS", "9", 1);
  const std::string dirty = encode_ab(scenario::run_inter_area_ab(cfg, fidelity));
  ::unsetenv("VGR_MAC");
  ::unsetenv("VGR_FAULT_DROP");
  ::unsetenv("VGR_RUNS");
  EXPECT_EQ(clean, dirty);
}

TEST(Knobs, TableNamesAreUnique) {
  const std::vector<std::string_view> names = knob_names();
  EXPECT_EQ(names.size(), 46u);
  EXPECT_EQ(std::set<std::string_view>(names.begin(), names.end()).size(), names.size());
}

/// Every runtime VGR_* name the docs mention is a table row, and every row
/// is documented. Build-time names and `VGR_FAULT_*`-style prefixes are not
/// runtime knobs.
TEST(Knobs, DocsAndTableAgree) {
  const std::filesystem::path root{VGR_SOURCE_DIR};
  std::vector<std::filesystem::path> docs{root / "README.md"};
  for (const auto& entry : std::filesystem::directory_iterator{root / "docs"}) {
    if (entry.path().extension() == ".md") docs.push_back(entry.path());
  }
  const std::set<std::string> build_time{"VGR_SANITIZE", "VGR_WERROR", "VGR_SOURCE_DIR",
                                         "VGR_SWEEP_BIN"};
  const auto is_name_char = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
  };
  std::set<std::string> documented;
  for (const auto& path : docs) {
    std::ifstream in{path};
    std::ostringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    // Each token is "VGR_" plus at least one of [A-Z0-9_], optionally
    // followed by '*'; the scan resumes after it, as a regex search would.
    for (std::size_t at = s.find("VGR_"); at != std::string::npos; at = s.find("VGR_", at)) {
      std::size_t end = at + 4;
      while (end < s.size() && is_name_char(s[end])) ++end;
      if (end == at + 4) {
        at = end;
        continue;
      }
      const std::string name = s.substr(at, end - at);
      const bool prefix = end < s.size() && s[end] == '*';
      at = prefix ? end + 1 : end;
      if (prefix || build_time.contains(name) || name.starts_with("VGR_PERFBENCH_")) continue;
      documented.insert(name);
    }
  }
  ASSERT_FALSE(documented.empty());
  std::set<std::string> rows;
  for (const std::string_view n : knob_names()) rows.emplace(n);
  for (const std::string& name : documented) {
    EXPECT_TRUE(rows.contains(name)) << name << " is documented but not a knob";
  }
  for (const std::string& name : rows) {
    EXPECT_TRUE(documented.contains(name)) << name << " is a knob but undocumented";
  }
}

}  // namespace
}  // namespace vgr::sweep
