// End-to-end crash test for the sweep supervisor: run the real vgr_sweep
// binary, SIGKILL it mid-study via the VGR_SWEEP_FAULT_AFTER fault hook,
// resume, and require the resumed JSON artifact to be byte-identical to an
// uninterrupted run of the same study (everything before the `"supervisor"`
// health block, which legitimately differs). Covered at VGR_THREADS=1 and 4
// because the determinism contract must hold under run-level parallelism.
//
// `vgr_sweep status` is driven here too, against a hand-written journal.
//
// The binary path is injected at configure time (VGR_SWEEP_BIN, see
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "vgr/sweep/journal.hpp"

namespace {

struct SweepFiles {
  std::string journal;
  std::string out;
};

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("vgr_killres_" + name + "_" + std::to_string(::getpid())))
      .string();
}

void cleanup(const SweepFiles& f) {
  std::filesystem::remove(f.journal);
  std::filesystem::remove(f.journal + ".manifest");
  std::filesystem::remove(f.out);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// The comparison prefix: everything before the `"supervisor"` key. The
/// sweep writes results first and health counters strictly last for exactly
/// this cut.
std::string result_prefix(const std::string& json) {
  const std::size_t pos = json.find("\"supervisor\"");
  EXPECT_NE(pos, std::string::npos) << "artifact has no supervisor block:\n" << json;
  return json.substr(0, pos);
}

/// Forks and execs vgr_sweep <mode> on a tiny loss-only study. `threads`
/// becomes VGR_THREADS; `fault_after` (>= 0) arms the SIGKILL fault hook.
/// Returns the raw waitpid status.
int run_sweep(const char* mode, const SweepFiles& files, int threads, int fault_after) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return -1;
  }
  if (pid == 0) {
    // Child: tiny but non-trivial fidelity — 2 runs x 2 simulated seconds,
    // one seed per shard so the kill lands between journal appends.
    ::setenv("VGR_RUNS", "2", 1);
    ::setenv("VGR_SIM_SECONDS", "2", 1);
    ::setenv("VGR_THREADS", std::to_string(threads).c_str(), 1);
    ::setenv("VGR_SWEEP_SEED_CHUNK", "1", 1);
    ::setenv("VGR_SWEEP_BACKOFF_MS", "0", 1);
    if (fault_after >= 0) {
      ::setenv("VGR_SWEEP_FAULT_AFTER", std::to_string(fault_after).c_str(), 1);
    } else {
      ::unsetenv("VGR_SWEEP_FAULT_AFTER");
    }
    ::unsetenv("VGR_BENCH_JSON");
    // The bench narrates progress on stdout; keep the test log readable.
    std::freopen("/dev/null", "w", stdout);
    const char* const argv[] = {"vgr_sweep", mode,
                                "--journal", files.journal.c_str(),
                                "--out", files.out.c_str(),
                                "--loss", "0,0.4",
                                "--churn", "none",
                                "--flood", "none",
                                nullptr};
    ::execv(VGR_SWEEP_BIN, const_cast<char* const*>(argv));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

/// One full kill-and-resume cycle at the given thread count; returns the
/// golden (uninterrupted) artifact so callers can compare across settings.
std::string kill_resume_cycle(int threads) {
  SweepFiles golden{temp_file("golden_j" + std::to_string(threads)),
                    temp_file("golden_o" + std::to_string(threads))};
  SweepFiles crashed{temp_file("crash_j" + std::to_string(threads)),
                     temp_file("crash_o" + std::to_string(threads))};
  cleanup(golden);
  cleanup(crashed);

  // Uninterrupted reference run.
  int status = run_sweep("run", golden, threads, /*fault_after=*/-1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "golden run failed, status " << status;
  const std::string golden_json = slurp(golden.out);

  // Same study, SIGKILL'd after 5 journaled shards. The study has 12
  // shards (2 loss points x 3 arms x 2 seed chunks), so the kill lands
  // mid-sweep with real work both behind and ahead of it.
  status = run_sweep("run", crashed, threads, /*fault_after=*/5);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "fault hook did not SIGKILL, status " << status;
  EXPECT_FALSE(std::filesystem::exists(crashed.out)) << "killed run wrote an artifact";

  // Resume from the journal: journaled shards replay, the rest execute.
  status = run_sweep("resume", crashed, threads, /*fault_after=*/-1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "resume failed, status " << status;
  const std::string resumed_json = slurp(crashed.out);

  EXPECT_EQ(result_prefix(golden_json), result_prefix(resumed_json))
      << "resumed sweep diverged from the uninterrupted run (threads=" << threads << ")";

  cleanup(golden);
  cleanup(crashed);
  return golden_json;
}

TEST(SweepKillResume, ResumedSweepMatchesUninterruptedRun) {
  const std::string serial = kill_resume_cycle(/*threads=*/1);
  const std::string parallel = kill_resume_cycle(/*threads=*/4);
  // The determinism contract also holds across thread counts: the full
  // artifacts (supervisor block included — nothing was killed) agree.
  EXPECT_EQ(serial, parallel);
}

TEST(SweepStatus, CountsWhatAResumeMerges) {
  // A resume merges only the done/full record: the quarantined one is
  // sticky, and a done record with fidelity "degraded" (a half-seed shard
  // written by an older binary) counts as a quarantine of its cause.
  const SweepFiles files{temp_file("status_j"), temp_file("status_o")};
  cleanup(files);
  {
    auto journal = vgr::sweep::Journal::open(files.journal);
    ASSERT_TRUE(journal.has_value());
    journal->append({.shard = "whole", .status = "done", .fidelity = "full", .attempts = 1,
                     .cause = "none", .payload = "{\"v\":1}"});
    journal->append({.shard = "half", .status = "done", .fidelity = "degraded", .attempts = 4,
                     .cause = "events", .payload = "{\"v\":2}"});
    journal->append({.shard = "poisoned", .status = "quarantined", .fidelity = "full",
                     .attempts = 1, .cause = "events", .payload = "null"});
  }
  const std::string command = std::string{VGR_SWEEP_BIN} + " status --journal " + files.journal;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  EXPECT_EQ(::pclose(pipe), 0);
  EXPECT_NE(out.find("records: 1 done, 2 quarantined\n"), std::string::npos) << out;
  cleanup(files);
}

}  // namespace
