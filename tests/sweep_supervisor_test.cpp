#include "vgr/sweep/supervisor.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "vgr/sweep/ab_codec.hpp"
#include "vgr/sweep/ab_sweep.hpp"
#include "vgr/sweep/knobs.hpp"

namespace vgr::sweep {
namespace {

using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

std::string temp_journal(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string{"vgr_sup_"} + name + "_" + std::to_string(::getpid()) + ".journal"))
      .string();
}

SupervisorConfig test_config(const std::string& journal) {
  SupervisorConfig c;
  c.enabled = true;
  c.journal_path = journal;
  c.backoff_ms = 0.0;  // no sleeping in tests
  return c;
}

void cleanup(const std::string& journal) {
  std::filesystem::remove(journal);
  std::filesystem::remove(journal + ".manifest");
}

ShardSpec spec_named(const std::string& key, std::uint64_t runs = 2) {
  ShardSpec s;
  s.key = key;
  s.runs = runs;
  return s;
}

/// Tiny inter-area config: enough traffic to produce non-trivial bins
/// while keeping each A/B pair well under a second.
Fidelity small_fidelity(std::uint64_t runs = 3) {
  Fidelity f;
  f.runs = runs;
  f.sim_seconds = 2.0;
  f.threads = 1;
  return f;
}

TEST(Supervisor, CleanShardJournalsOnFirstAttempt) {
  const std::string journal = temp_journal("clean");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    auto payload = sup.run_shard(spec_named("shard-a"), [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "{\"v\":42}";
      return o;
    });
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(sup.counters().completed, 1u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "done");
  EXPECT_EQ(records[0].fidelity, "full");
  EXPECT_EQ(records[0].attempts, 1u);
  EXPECT_EQ(records[0].cause, "none");
  EXPECT_EQ(records[0].payload, "{\"v\":42}");
  cleanup(journal);
}

TEST(Supervisor, EventTripQuarantinesWithoutRetry) {
  const std::string journal = temp_journal("events");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    int calls = 0;
    auto payload = sup.run_shard(spec_named("poisoned", /*runs=*/4), [&](const ShardSpec& s) {
      ++calls;
      EXPECT_EQ(s.runs, 4u);  // every attempt runs every seed
      ShardOutcome o;
      o.timed_out_events = 1;  // the same seeds trip the same budget again
      return o;
    });
    EXPECT_FALSE(payload.has_value());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(sup.counters().retries, 0u);
    EXPECT_EQ(sup.counters().quarantined_events, 1u);
    EXPECT_EQ(sup.counters().completed, 0u);
    EXPECT_EQ(sup.counters().timed_out_events, 1u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[0].fidelity, "full");
  EXPECT_EQ(records[0].cause, "events");
  EXPECT_EQ(records[0].attempts, 1u);
  EXPECT_EQ(records[0].payload, "null");
  cleanup(journal);
}

TEST(Supervisor, WallTripRetriesThenQuarantines) {
  const std::string journal = temp_journal("wall");
  cleanup(journal);
  const SupervisorConfig config = test_config(journal);
  {
    Supervisor sup{config};
    ASSERT_TRUE(sup.ok());
    std::uint64_t calls = 0;
    auto payload = sup.run_shard(spec_named("slow"), [&](const ShardSpec&) {
      ++calls;
      ShardOutcome o;
      o.timed_out_wall = 1;  // host-dependent: another attempt may finish
      return o;
    });
    EXPECT_FALSE(payload.has_value());
    EXPECT_EQ(calls, 1 + config.max_retries);
    EXPECT_EQ(sup.counters().retries, config.max_retries);
    EXPECT_EQ(sup.counters().quarantined_wall, 1u);
    EXPECT_EQ(sup.counters().quarantined(), 1u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[0].cause, "wall");
  EXPECT_EQ(records[0].attempts, 1 + config.max_retries);
  cleanup(journal);
}

TEST(Supervisor, RetryRescuesAWallTrip) {
  const std::string journal = temp_journal("rescue");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  int calls = 0;
  auto payload = sup.run_shard(spec_named("wobbly"), [&](const ShardSpec&) {
    ShardOutcome o;
    if (++calls == 1) {
      o.timed_out_wall = 1;
    } else {
      o.payload = "{\"rescued\":true}";
    }
    return o;
  });
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"rescued\":true}");
  EXPECT_EQ(sup.counters().retries, 1u);
  EXPECT_EQ(sup.counters().completed, 1u);
  EXPECT_EQ(sup.counters().quarantined(), 0u);
  const JournalRecord* rec = sup.journal()->find("wobbly");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, "done");
  EXPECT_EQ(rec->fidelity, "full");
  EXPECT_EQ(rec->attempts, 2u);
  EXPECT_EQ(rec->cause, "none");
  cleanup(journal);
}

TEST(Supervisor, ThrowingShardIsQuarantinedAsError) {
  const std::string journal = temp_journal("throws");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  auto payload = sup.run_shard(spec_named("buggy"), [](const ShardSpec&) -> ShardOutcome {
    throw std::runtime_error{"boom"};
  });
  EXPECT_FALSE(payload.has_value());
  EXPECT_EQ(sup.counters().quarantined_error, 1u);
  cleanup(journal);
}

TEST(Supervisor, ResumeReturnsJournaledPayloadWithoutRerunning) {
  const std::string journal = temp_journal("resume");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    sup.run_shard(spec_named("done-shard"), [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "{\"v\":7}";
      return o;
    });
    sup.run_shard(spec_named("dead-shard"), [](const ShardSpec&) {
      ShardOutcome o;
      o.timed_out_events = 1;
      return o;
    });
  }
  SupervisorConfig config = test_config(journal);
  config.resume = true;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  auto must_not_run = [](const ShardSpec&) -> ShardOutcome {
    ADD_FAILURE() << "journaled shard re-executed";
    return {};
  };
  auto payload = sup.run_shard(spec_named("done-shard"), must_not_run);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"v\":7}");
  // Quarantine is sticky on resume: the shard is not retried, so resumed
  // output does not depend on how many times the sweep crashed.
  EXPECT_FALSE(sup.run_shard(spec_named("dead-shard"), must_not_run).has_value());
  EXPECT_EQ(sup.counters().resumed, 2u);
  EXPECT_EQ(sup.counters().quarantined_events, 1u);
  cleanup(journal);
}

TEST(Supervisor, ParentDegradedRecordResumesAsQuarantine) {
  // Older binaries journaled a half-seed shard as done with fidelity
  // "degraded"; a resume must not merge it into a point as if it were whole.
  const std::string journal = temp_journal("parent_degraded");
  cleanup(journal);
  {
    auto j = Journal::open(journal);
    ASSERT_TRUE(j.has_value());
    JournalRecord rec;
    rec.shard = "half";
    rec.status = "done";
    rec.fidelity = "degraded";
    rec.attempts = 4;
    rec.cause = "events";
    rec.payload = "{\"v\":1}";
    j->append(rec);
  }
  SupervisorConfig config = test_config(journal);
  config.resume = true;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  int calls = 0;
  auto payload = sup.run_shard(spec_named("half"), [&](const ShardSpec&) {
    ++calls;
    return ShardOutcome{};
  });
  EXPECT_FALSE(payload.has_value());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(sup.counters().resumed, 1u);
  EXPECT_EQ(sup.counters().quarantined_events, 1u);
  EXPECT_EQ(sup.counters().completed, 0u);
  cleanup(journal);
}

TEST(Supervisor, RefusesANonEmptyJournalWithoutResume) {
  const std::string journal = temp_journal("refuse");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    sup.run_shard(spec_named("s"), [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "null";
      return o;
    });
  }
  Supervisor sup{test_config(journal)};  // resume not set
  EXPECT_FALSE(sup.ok());
  cleanup(journal);
}

TEST(Supervisor, DrainSkipsShardsWithoutJournaling) {
  const std::string journal = temp_journal("drain");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    Supervisor::request_drain();
    int calls = 0;
    auto payload = sup.run_shard(spec_named("skipped"), [&](const ShardSpec&) {
      ++calls;
      return ShardOutcome{};
    });
    EXPECT_FALSE(payload.has_value());
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(sup.counters().drained, 1u);
    Supervisor::reset_drain();
  }
  EXPECT_TRUE(Journal::scan(journal).empty());  // nothing recorded: resume re-runs it
  cleanup(journal);
}

TEST(Supervisor, ManifestRecordsTheCounters) {
  const std::string journal = temp_journal("manifest");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    sup.run_shard(spec_named("s"), [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "null";
      return o;
    });
    sup.finish();
  }
  std::ifstream in{journal + ".manifest"};
  std::string manifest{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_NE(manifest.find("\"status\":\"complete\""), std::string::npos);
  EXPECT_NE(manifest.find("\"completed\":1"), std::string::npos);
  cleanup(journal);
}

// --- The A/B sweep layer on real experiments ------------------------------

bool ab_equal(const AbResult& a, const AbResult& b) {
  if (a.baseline.bin_count() != b.baseline.bin_count()) return false;
  for (std::size_t i = 0; i < a.baseline.bin_count(); ++i) {
    if (a.baseline.bin_hits(i) != b.baseline.bin_hits(i)) return false;
    if (a.baseline.bin_trials(i) != b.baseline.bin_trials(i)) return false;
    if (a.attacked.bin_hits(i) != b.attacked.bin_hits(i)) return false;
    if (a.attacked.bin_trials(i) != b.attacked.bin_trials(i)) return false;
  }
  return a.attack_rate == b.attack_rate && a.baseline_reception == b.baseline_reception &&
         a.attacked_reception == b.attacked_reception && a.runs == b.runs &&
         a.timed_out_runs == b.timed_out_runs && a.timed_out_events == b.timed_out_events &&
         a.timed_out_wall == b.timed_out_wall &&
         a.baseline_totals.ingest_drops == b.baseline_totals.ingest_drops &&
         a.attacked_totals.peak_cbr == b.attacked_totals.peak_cbr;
}

TEST(AbCodec, EncodeDecodeIsExact) {
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const AbResult r = scenario::run_inter_area_ab(cfg, small_fidelity());
  const auto decoded = decode_ab(encode_ab(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(ab_equal(r, *decoded));
  EXPECT_EQ(decoded->reception_base_hits, r.reception_base_hits);
  EXPECT_EQ(decoded->reception_base_trials, r.reception_base_trials);
  EXPECT_FALSE(decode_ab("{\"bin_ns\":0}").has_value());
  EXPECT_FALSE(decode_ab("not json").has_value());
}

TEST(AbCodec, PayloadBytesArePinned) {
  // Journals outlive binaries: a payload written by an older build must
  // decode to the same result. Key names, key order and number formatting
  // are pinned byte for byte.
  const sim::Duration bin = sim::Duration::seconds(5.0);
  const sim::Duration horizon = sim::Duration::seconds(10.0);
  AbResult r{sim::BinnedRate{bin, horizon}, sim::BinnedRate{bin, horizon}};
  r.baseline.set_bin(0, 9.0, 10.0);
  r.baseline.set_bin(1, 7.0, 8.0);
  r.attacked.set_bin(0, 3.0, 10.0);
  r.attacked.set_bin(1, 2.0, 8.0);
  r.attack_rate = 0.6587301587301587;
  r.baseline_reception = 16.0 / 18.0;
  r.attacked_reception = 5.0 / 18.0;
  r.reception_base_hits = 16.0;
  r.reception_base_trials = 18.0;
  r.reception_atk_hits = 5.0;
  r.reception_atk_trials = 18.0;
  r.runs = 2;
  r.timed_out_runs = 1;
  r.timed_out_events = 1;
  r.timed_out_wall = 1;
  r.baseline_totals = {1, 2, 3, 4, 5, 6, 0, 0.1};
  r.attacked_totals = {7, 8, 9, 10, 11, 12, 13, 0.6875};
  const std::string golden =
      "{\"bin_ns\":5000000000,\"bins\":2,\"base_hits\":[9,7],\"base_trials\":[10,8],"
      "\"atk_hits\":[3,2],\"atk_trials\":[10,8],\"attack_rate\":0.65873015873015872,"
      "\"baseline_reception\":0.88888888888888884,"
      "\"attacked_reception\":0.27777777777777779,\"rec_base_hits\":16,"
      "\"rec_base_trials\":18,\"rec_atk_hits\":5,\"rec_atk_trials\":18,\"runs\":2,"
      "\"timed_out_runs\":1,\"timed_out_events\":1,\"timed_out_wall\":1,"
      "\"baseline_totals\":{\"mac_queue_overflow\":1,\"mac_retry_exhausted\":2,"
      "\"mac_dcc_gated\":3,\"mac_backoff_retries\":4,\"mac_transmitted\":5,"
      "\"ingest_drops\":6,\"frames_flooded\":0,\"peak_cbr\":0.10000000000000001},"
      "\"attacked_totals\":{\"mac_queue_overflow\":7,\"mac_retry_exhausted\":8,"
      "\"mac_dcc_gated\":9,\"mac_backoff_retries\":10,\"mac_transmitted\":11,"
      "\"ingest_drops\":12,\"frames_flooded\":13,\"peak_cbr\":0.6875}}";
  EXPECT_EQ(encode_ab(r), golden);
  const auto decoded = decode_ab(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(ab_equal(r, *decoded));
  EXPECT_EQ(encode_ab(*decoded), golden);
}

TEST(AbSweep, SupervisedSingleChunkMatchesDirectRunExactly) {
  const std::string journal = temp_journal("onechunk");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity();
  const AbResult direct = scenario::run_inter_area_ab(cfg, f);

  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  const SupervisedAb supervised =
      run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_TRUE(supervised.complete());
  EXPECT_EQ(supervised.shards, 1u);
  EXPECT_TRUE(ab_equal(direct, supervised.result));
  cleanup(journal);
}

TEST(AbSweep, SeedChunkedShardsMergeToTheMonolithicResult) {
  // Both experiments: inter-area receptions merge from the packet-weighted
  // accumulators, intra-area ones are re-derived from the merged bins.
  for (const Experiment experiment : {Experiment::kInterArea, Experiment::kIntraArea}) {
    const bool inter = experiment == Experiment::kInterArea;
    SCOPED_TRACE(inter ? "inter-area" : "intra-area");
    const std::string journal = temp_journal(inter ? "chunked_inter" : "chunked_intra");
    cleanup(journal);
    HighwayConfig cfg;
    cfg.attack = inter ? scenario::AttackKind::kInterArea : scenario::AttackKind::kIntraArea;
    const Fidelity f = small_fidelity(/*runs=*/4);
    const AbResult direct = inter ? scenario::run_inter_area_ab(cfg, f)
                                  : scenario::run_intra_area_ab(cfg, f);

    SupervisorConfig config = test_config(journal);
    config.seed_chunk = 1;  // one seed per shard
    Supervisor sup{config};
    ASSERT_TRUE(sup.ok());
    const SupervisedAb supervised = run_ab_supervised(sup, experiment, "pt", cfg, f);
    EXPECT_EQ(supervised.shards, 4u);
    EXPECT_TRUE(supervised.complete());
    // Bin accumulators are sums of per-run integer counts, so the chunked
    // merge is exact, not merely close.
    EXPECT_TRUE(ab_equal(direct, supervised.result));
    EXPECT_GT(supervised.result.baseline_reception, 0.0);
    cleanup(journal);
  }
}

TEST(AbSweep, DisabledSupervisorIsTheDirectRun) {
  const std::string journal = temp_journal("disabled");
  cleanup(journal);
  SupervisorConfig config;  // enabled = false
  config.journal_path = journal;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());

  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  Fidelity f = small_fidelity(/*runs=*/2);
  f.run_max_events = 50;  // every run trips; the direct run keeps the partial result
  const AbResult direct = scenario::run_inter_area_ab(cfg, f);
  const SupervisedAb supervised = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_TRUE(ab_equal(direct, supervised.result));
  EXPECT_GT(supervised.result.timed_out_runs, 0u);
  EXPECT_TRUE(supervised.complete());
  SweepCounters::for_each([&](const char* name, auto member) {
    EXPECT_EQ(sup.counters().*member, 0u) << name;
  });
  sup.finish();
  EXPECT_FALSE(std::filesystem::exists(journal));
  EXPECT_FALSE(std::filesystem::exists(journal + ".manifest"));
}

TEST(AbSweep, PoisonedPointIsQuarantinedWhileOthersComplete) {
  const std::string journal = temp_journal("poison");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());

  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  Fidelity poison = small_fidelity(/*runs=*/2);
  poison.run_max_events = 50;  // unsatisfiable: every run trips the breaker
  const SupervisedAb poisoned =
      run_ab_supervised(sup, Experiment::kInterArea, "poisoned-pt", cfg, poison);
  EXPECT_FALSE(poisoned.complete());
  EXPECT_EQ(sup.counters().quarantined_events, 1u);
  EXPECT_EQ(sup.counters().retries, 0u);
  EXPECT_GT(sup.counters().timed_out_events, 0u);

  // A second supervisor call on the same sweep continues past the poison.
  SupervisorConfig healthy = test_config(journal);
  healthy.resume = true;
  Supervisor sup2{healthy};
  ASSERT_TRUE(sup2.ok());
  const SupervisedAb good =
      run_ab_supervised(sup2, Experiment::kInterArea, "good-pt", cfg, small_fidelity(2));
  EXPECT_TRUE(good.complete());
  EXPECT_GT(good.result.baseline_reception, 0.0);
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[0].attempts, 1u);  // an event trip is not retried
  EXPECT_EQ(records[1].status, "done");
  cleanup(journal);
}

TEST(AbSweep, ResumeUnderAnotherWatchdogReRunsTheShard) {
  // The watchdog budget is part of the shard key: a quarantine recorded
  // under one budget does not stick to a sweep resumed under another.
  const std::string journal = temp_journal("rewatch");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  Fidelity f = small_fidelity(/*runs=*/2);
  {
    f.run_max_events = 50;
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    EXPECT_FALSE(run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f).complete());
    EXPECT_EQ(sup.counters().quarantined_events, 1u);
  }
  f.run_max_events = 0;
  SupervisorConfig config = test_config(journal);
  config.resume = true;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  const SupervisedAb resumed = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(sup.counters().resumed, 0u);
  EXPECT_EQ(sup.counters().completed, 1u);
  EXPECT_TRUE(ab_equal(scenario::run_inter_area_ab(cfg, f), resumed.result));
  cleanup(journal);
}

TEST(AbSweep, ShardKeyPinsLabelSeedsAndFidelity) {
  const Fidelity f = small_fidelity();
  const std::string a = shard_key("pt", Experiment::kInterArea, f, 0, 4);
  EXPECT_EQ(a, shard_key("pt", Experiment::kInterArea, f, 0, 4));  // stable
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, f, 4, 4));  // seed range
  EXPECT_NE(a, shard_key("pt2", Experiment::kInterArea, f, 0, 4)); // label
  EXPECT_NE(a, shard_key("pt", Experiment::kIntraArea, f, 0, 4));  // experiment
  Fidelity g = f;
  g.sim_seconds = 4.0;
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, g, 0, 4));  // fidelity
  g = f;
  g.run_max_events = 50;
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, g, 0, 4));  // event watchdog
  g = f;
  g.run_wall_budget_s = 5.0;
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, g, 0, 4));  // wall watchdog
  // Run knobs change the channel model, so they change the key; no run knob
  // set keeps the historical key, which existing journals were written under.
  const auto with_env = [&f](const char* entry) {
    const char* const envp[] = {entry, nullptr};
    Fidelity h = f;
    h.overrides = parse_knobs(envp).fidelity.overrides;
    return h;
  };
  EXPECT_EQ(a, "pt#s0+4@54d32ad26d19bb2a");
  EXPECT_EQ(a, shard_key("pt", Experiment::kInterArea, with_env("VGR_SWEEP=1"), 0, 4));
  const std::string mac = shard_key("pt", Experiment::kInterArea, with_env("VGR_MAC=1"), 0, 4);
  const std::string drop =
      shard_key("pt", Experiment::kInterArea, with_env("VGR_FAULT_DROP=0.2"), 0, 4);
  EXPECT_NE(a, mac);
  EXPECT_NE(a, drop);
  EXPECT_NE(mac, drop);
  EXPECT_EQ(drop, shard_key("pt", Experiment::kInterArea, with_env("VGR_FAULT_DROP=0.20"), 0, 4));
}

}  // namespace
}  // namespace vgr::sweep
