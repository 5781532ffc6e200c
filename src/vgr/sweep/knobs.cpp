#include "vgr/sweep/knobs.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

namespace vgr::sweep {
namespace {

using Fid = scenario::Fidelity;
using Hw = scenario::HighwayConfig;
using Fault = phy::FaultConfig;
using Mac = phy::MacConfig;
using Dcc = phy::DccConfig;
using Churn = scenario::ChurnConfig;
using Rec = scenario::RecoveryConfig;
using Sup = SupervisorConfig;

/// kInt/kReal: a number; kBool: an integer, non-zero = on; kPath: any
/// non-empty text (empty counts as unset).
enum class Kind : std::uint8_t { kInt, kReal, kBool, kPath };
using enum Kind;

/// Accepted values of a numeric knob, in the knob's own unit.
struct Range {
  double lo;
  double hi;
  bool lo_open;      ///< `lo` itself is rejected ("> 0")
  const char* text;  ///< the range as the warning prints it
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kAny{-kInf, kInf, false, "any"};
constexpr Range kNonNegative{0.0, kInf, false, ">= 0"};
constexpr Range kPositive{0.0, kInf, true, "> 0"};
constexpr Range kUnit{0.0, 1.0, false, "[0, 1]"};

/// A parsed value: `integer` for kInt and kBool (1 for a set kPath),
/// `real` for kReal (already divided by the row's unit), `text` for kPath.
struct Value {
  long long integer{0};
  double real{0.0};
  const char* text{""};
};

template <typename T>
void assign(T& field, const Value& v) {
  if constexpr (std::is_same_v<T, bool>) {
    field = v.integer != 0;
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = v.text;
  } else if constexpr (std::is_same_v<T, sim::Duration>) {
    field = sim::Duration::seconds(v.real);
  } else if constexpr (std::is_integral_v<T>) {
    field = static_cast<T>(v.integer);
  } else {
    field = v.real;
  }
}

// Row targets: a field of the spec, of its Fidelity or SupervisorConfig, or
// (run) of every run's HighwayConfig, carried in Fidelity::overrides.
using Store = void (*)(KnobSpec&, const Value&);
template <auto F>
void top(KnobSpec& s, const Value& v) { assign(s.*F, v); }
template <auto F>
void fid(KnobSpec& s, const Value& v) { assign(s.fidelity.*F, v); }
template <auto F>
void sup(KnobSpec& s, const Value& v) { assign(s.supervisor.*F, v); }
template <auto... Path>
void run(KnobSpec& s, const Value& v) { assign(s.fidelity.overrides.set<Path...>(), v); }

struct Knob {
  const char* name;
  Kind kind;
  Range range;
  double unit;  ///< divisor from the knob's unit to the field's (1e3: ms -> s)
  Store store;
};

// The knob table: every runtime VGR_* variable, one row each. Documented in
// docs/performance.md (fidelity, output) and docs/robustness.md (the rest).
// clang-format off
constexpr Knob kKnobs[] = {
    // name                      kind   range         unit target
    {"VGR_RUNS",                 kInt,  kPositive,    1,   fid<&Fid::runs>},
    {"VGR_SIM_SECONDS",          kReal, kPositive,    1,   fid<&Fid::sim_seconds>},
    {"VGR_THREADS",              kInt,  kPositive,    1,   fid<&Fid::threads>},
    {"VGR_RUN_TIMEOUT_S",        kReal, kPositive,    1,   fid<&Fid::run_wall_budget_s>},
    {"VGR_RUN_MAX_EVENTS",       kInt,  kPositive,    1,   fid<&Fid::run_max_events>},
    {"VGR_CSV_DIR",              kPath, kAny,         1,   top<&KnobSpec::csv_dir>},
    {"VGR_BENCH_JSON",           kPath, kAny,         1,   top<&KnobSpec::bench_json>},
    {"VGR_SERIES",               kPath, kAny,         1,   top<&KnobSpec::series>},
    {"VGR_FAULT_DROP",           kReal, kUnit,        1,   run<&Hw::faults, &Fault::drop_probability>},
    {"VGR_FAULT_LINK_LOSS",      kReal, kUnit,        1,   run<&Hw::faults, &Fault::link_loss_probability>},
    {"VGR_FAULT_CORRUPT",        kReal, kUnit,        1,   run<&Hw::faults, &Fault::corrupt_probability>},
    {"VGR_FAULT_DUP",            kReal, kUnit,        1,   run<&Hw::faults, &Fault::duplicate_probability>},
    {"VGR_FAULT_GE_P_GB",        kReal, kUnit,        1,   run<&Hw::faults, &Fault::ge_p_good_to_bad>},
    {"VGR_FAULT_GE_P_BG",        kReal, kUnit,        1,   run<&Hw::faults, &Fault::ge_p_bad_to_good>},
    {"VGR_FAULT_GE_LOSS_GOOD",   kReal, kUnit,        1,   run<&Hw::faults, &Fault::ge_loss_good>},
    {"VGR_FAULT_GE_LOSS_BAD",    kReal, kUnit,        1,   run<&Hw::faults, &Fault::ge_loss_bad>},
    {"VGR_FAULT_DELAY_MS",       kReal, kNonNegative, 1e3, run<&Hw::faults, &Fault::max_extra_delay_s>},
    {"VGR_CHURN_RATE",           kReal, kNonNegative, 1,   run<&Hw::churn, &Churn::crash_rate_hz>},
    {"VGR_CHURN_DOWNTIME_MS",    kReal, kNonNegative, 1e3, run<&Hw::churn, &Churn::downtime_s>},
    {"VGR_CHURN_REBOOT_P",       kReal, kUnit,        1,   run<&Hw::churn, &Churn::reboot_probability>},
    {"VGR_SCF",                  kBool, kAny,         1,   run<&Hw::recovery, &Rec::scf>},
    {"VGR_SCF_MAX_PKTS",         kInt,  kNonNegative, 1,   run<&Hw::recovery, &Rec::scf_max_packets>},
    {"VGR_SCF_MAX_BYTES",        kInt,  kNonNegative, 1,   run<&Hw::recovery, &Rec::scf_max_bytes>},
    {"VGR_RETX",                 kBool, kAny,         1,   run<&Hw::recovery, &Rec::retx>},
    {"VGR_RETX_MAX",             kInt,  kPositive,    1,   run<&Hw::recovery, &Rec::retx_max_attempts>},
    {"VGR_RETX_BACKOFF_MS",      kReal, kPositive,    1,   run<&Hw::recovery, &Rec::retx_backoff_ms>},
    {"VGR_NBR_MONITOR",          kBool, kAny,         1,   run<&Hw::recovery, &Rec::nbr_monitor>},
    {"VGR_MAC",                  kBool, kAny,         1,   run<&Hw::mac, &Mac::enabled>},
    {"VGR_MAC_QUEUE",            kInt,  kPositive,    1,   run<&Hw::mac, &Mac::queue_limit>},
    {"VGR_MAC_SLOT_US",          kReal, kPositive,    1e6, run<&Hw::mac, &Mac::slot>},
    {"VGR_MAC_AIFS_US",          kReal, kNonNegative, 1e6, run<&Hw::mac, &Mac::aifs>},
    {"VGR_MAC_CW_MIN",           kInt,  kNonNegative, 1,   run<&Hw::mac, &Mac::cw_min>},
    {"VGR_MAC_CW_MAX",           kInt,  kNonNegative, 1,   run<&Hw::mac, &Mac::cw_max>},
    {"VGR_MAC_RETRY",            kInt,  kNonNegative, 1,   run<&Hw::mac, &Mac::max_retries>},
    {"VGR_MAC_DCC_RETRY_SCALE",  kInt,  kPositive,    1,   run<&Hw::mac, &Mac::dcc_retry_scale>},
    {"VGR_MAC_OVERHEAD_BYTES",   kInt,  kNonNegative, 1,   run<&Hw::mac, &Mac::airtime_overhead_bytes>},
    {"VGR_DCC",                  kBool, kAny,         1,   run<&Hw::dcc, &Dcc::enabled>},
    {"VGR_DCC_SAMPLE_MS",        kReal, kPositive,    1e3, run<&Hw::dcc, &Dcc::sample_interval>},
    {"VGR_DCC_WINDOW",           kInt,  kPositive,    1,   run<&Hw::dcc, &Dcc::window_samples>},
    {"VGR_SWEEP",                kBool, kAny,         1,   sup<&Sup::enabled>},
    {"VGR_SWEEP_JOURNAL",        kPath, kAny,         1,   sup<&Sup::journal_path>},
    {"VGR_SWEEP_RESUME",         kBool, kAny,         1,   sup<&Sup::resume>},
    {"VGR_SWEEP_RETRIES",        kInt,  kNonNegative, 1,   sup<&Sup::max_retries>},
    {"VGR_SWEEP_BACKOFF_MS",     kReal, kNonNegative, 1,   sup<&Sup::backoff_ms>},
    {"VGR_SWEEP_SEED_CHUNK",     kInt,  kNonNegative, 1,   sup<&Sup::seed_chunk>},
    {"VGR_SWEEP_FAULT_AFTER",    kInt,  kAny,         1,   sup<&Sup::fault_after_appends>},
};
// clang-format on

/// The value of `name` in `envp`, or nullptr; the first entry wins.
const char* lookup(const char* const* envp, const char* name) {
  const std::size_t len = std::strlen(name);
  for (; envp != nullptr && *envp != nullptr; ++envp) {
    if (std::strncmp(*envp, name, len) == 0 && (*envp)[len] == '=') return *envp + len + 1;
  }
  return nullptr;
}

/// Parses `text` into `v`; false when the knob is to be ignored. A number
/// must be one whole token — no prefix read of "5x", no empty token, and
/// nothing non-finite ("inf", "nan" would reach float-to-integer
/// conversions downstream); trailing blanks are harmless. Bad numbers and
/// out-of-range values warn, naming the variable.
bool parse(const Knob& knob, const char* text, Value& v) {
  if (knob.kind == kPath) {
    v.text = text;
    v.integer = 1;
    return *text != '\0';
  }
  char* end = nullptr;
  errno = 0;
  double number = 0.0;
  if (knob.kind == kReal) {
    number = std::strtod(text, &end);
  } else {
    v.integer = std::strtoll(text, &end, 10);
    number = static_cast<double>(v.integer);
  }
  const char* rest = end;
  while (std::isspace(static_cast<unsigned char>(*rest)) != 0) ++rest;
  if (end == text || *rest != '\0' || errno == ERANGE || !std::isfinite(number)) {
    std::fprintf(stderr, "vgr: ignoring %s=\"%s\" (not a number)\n", knob.name, text);
    return false;
  }
  const Range& r = knob.range;
  if ((r.lo_open ? number <= r.lo : number < r.lo) || number > r.hi) {
    std::fprintf(stderr, "vgr: ignoring %s=\"%s\" (accepted: %s)\n", knob.name, text, r.text);
    return false;
  }
  v.real = number / knob.unit;
  return true;
}

/// Appends `NAME=value;` to `out`, printing the parsed value so that equal
/// settings spelled differently ("0.2", "0.20") read the same.
void append_setting(std::string& out, const Knob& knob, const Value& v) {
  char buf[96];
  if (knob.kind == kReal) {
    std::snprintf(buf, sizeof buf, "%s=%.17g;", knob.name, v.real);
  } else {
    std::snprintf(buf, sizeof buf, "%s=%lld;", knob.name,
                  knob.kind == kBool ? static_cast<long long>(v.integer != 0) : v.integer);
  }
  out += buf;
}

}  // namespace

KnobSpec parse_knobs(const char* const* envp, std::uint64_t default_runs) {
  KnobSpec spec;
  spec.fidelity.runs = default_runs;
  for (const Knob& knob : kKnobs) {
    const char* text = lookup(envp, knob.name);
    Value v;
    if (text == nullptr || !parse(knob, text, v)) continue;
    scenario::ConfigOverrides& run_rows = spec.fidelity.overrides;
    const std::size_t set_before = run_rows.fields.size();
    knob.store(spec, v);
    if (run_rows.fields.size() > set_before) append_setting(run_rows.settings, knob, v);
  }
  // A VGR_ name outside the table, such as a removed knob a script still
  // sets, would otherwise change nothing without a word.
  for (; envp != nullptr && *envp != nullptr; ++envp) {
    const std::string_view entry{*envp};
    if (!entry.starts_with("VGR_")) continue;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (std::ranges::none_of(kKnobs, [&](const Knob& knob) { return name == knob.name; })) {
      std::fprintf(stderr, "vgr: ignoring unknown %.*s\n", static_cast<int>(name.size()),
                   name.data());
    }
  }
  return spec;
}

KnobSpec knobs_from_env(std::uint64_t default_runs) { return parse_knobs(environ, default_runs); }

std::vector<std::string_view> knob_names() {
  std::vector<std::string_view> names;
  for (const Knob& knob : kKnobs) names.emplace_back(knob.name);
  return names;
}

}  // namespace vgr::sweep
