#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sweep/supervisor.hpp"

namespace vgr::sweep {

/// Everything the runtime `VGR_*` knobs configure, as plain structs. Only
/// entrypoints build one; library layers take its parts as arguments.
struct KnobSpec {
  scenario::Fidelity fidelity;
  SupervisorConfig supervisor;
  std::string csv_dir;     ///< VGR_CSV_DIR: CSV export directory; empty = off
  std::string bench_json;  ///< VGR_BENCH_JSON: JSON path; empty = the binary's default
  bool series{false};      ///< VGR_SERIES: also print the per-bin time series
};

/// Parses the `VGR_*` entries of `envp` (a null-terminated array of
/// "NAME=value" strings, laid out like the process environment) through
/// the knob table in knobs.cpp. `default_runs` is the binary's runs per
/// setting when VGR_RUNS is unset. Numbers are parsed whole-token; a
/// malformed or out-of-range value warns on stderr, naming the variable
/// and its accepted range, and keeps the default. A `VGR_` name that is no
/// row of the table warns too.
KnobSpec parse_knobs(const char* const* envp, std::uint64_t default_runs = 3);

/// parse_knobs over the process environment — the only environment read
/// in src/, bench/ and tools/ (lint rule VGR012). Call it once, in main.
KnobSpec knobs_from_env(std::uint64_t default_runs = 3);

/// Every variable the table accepts, in table order.
std::vector<std::string_view> knob_names();

}  // namespace vgr::sweep
