#include "finding.hpp"

namespace vgr::lint {

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules{
      {"VGR001", "wall-clock", "wall-clock-ok",
       "wall-clock source outside the simulator's virtual clock",
       "Simulation logic must read time from sim::TimePoint (EventQueue::now). "
       "system_clock/steady_clock/time()/clock() and friends differ per run and per "
       "machine, so any code path that consults them cannot be bit-reproducible. "
       "Whitelisted: src/vgr/sim/event_queue.{hpp,cpp}, whose per-run watchdog wall "
       "deadline is the one sanctioned consumer of real time."},
      {"VGR002", "ambient-rng", "rng-ok",
       "ambient randomness outside the seeded sim/random source",
       "All randomness must come from sim::Rng — seeded, salted per subsystem, "
       "replayable. std::rand, std::random_device, mt19937 and the other <random> "
       "engines break replay and decouple the A/B arms' paired seeds. Whitelisted: "
       "src/vgr/sim/random.{hpp,cpp}, the one place engines may live."},
      {"VGR003", "unordered-iter", "ordered-ok",
       "iteration over a hash-ordered container",
       "Hash-table iteration order is unspecified and differs across libstdc++ "
       "versions, hash seeds and insertion histories. Member declarations are "
       "harvested from every header the translation unit reaches through the "
       "project include graph (plus the sibling-header convention), so iterating a "
       "member declared three includes away is still caught. A walk that feeds an "
       "output or a forwarding decision must sort what it collects, or be "
       "order-insensitive and say so in a waiver."},
      {"VGR004", "pointer-key", "pointer-key-ok",
       "std::map/std::set keyed by a raw pointer",
       "Ordered-container iteration over pointer keys follows allocation addresses, "
       "which vary run to run (ASLR, allocator state). Key by a stable ID instead."},
      {"VGR005", "float-accum", "float-accum-ok",
       "floating-point accumulation on a parallel/merge path",
       "FP addition is not associative; += into a float/double in a file that is "
       "part of a parallel/merge path (contains parallel_for or is sim/thread_pool) "
       "must have its summation order pinned — the harness merges in strict seed "
       "order — for bit-identical output across thread counts."},
      {"VGR006", "thread-include", "thread-include-ok",
       "threading primitives outside sim/thread_pool",
       "The simulator is single-threaded by design; a run owns its queue, medium "
       "and RNG. Run-level parallelism goes through sim/thread_pool — the only "
       "whitelisted user of <thread>, <mutex>, <atomic> and the other threading "
       "headers. Ad-hoc threading elsewhere is where data races come from."},
      {"VGR007", "bad-waiver", "",
       "malformed vgr-lint waiver directive",
       "A vgr-lint: directive with an unknown tag, a begin without tags, or an end "
       "without an open region. A typoed waiver (orderd-ok) would otherwise "
       "silently fail to silence — or rot into a comment that merely looks like a "
       "justification. Not waivable: fix the directive."},
      {"VGR008", "signal-safety", "signal-safe-ok",
       "non-async-signal-safe work inside a registered signal handler",
       "Almost nothing is async-signal-safe: a handler that allocates, locks or "
       "calls stdio can deadlock or corrupt the heap it interrupted. The sanctioned "
       "handler body assigns one volatile sig_atomic_t flag and returns. Functions "
       "registered via signal()/std::signal() or sa_handler/sa_sigaction "
       "assignments are scanned for allocation, locking, stdio, exit and throw."},
      {"VGR009", "module-layering", "layering-ok",
       "quoted #include that violates the src/vgr module DAG",
       "The module dependency DAG is declared in tools/vgr_lint/layers.txt "
       "(reviewed, checked in): sim and geo at the bottom, phy above sim, gn above "
       "phy/sim/geo/security, and attack/mitigation/scenario/sweep only at the "
       "top; tools/ and tests/ are exempt. Any #include \"vgr/<module>/...\" edge "
       "that points sideways or upward of the manifest is flagged, as is a module "
       "absent from the manifest and a manifest whose allowed-edge graph has a "
       "cycle. This is the static twin of the CMake link graph: CMake catches "
       "layering breaks only at link time and only for out-of-line symbols."},
      {"VGR010", "rng-stream", "rng-stream-ok",
       "RNG stream-discipline violation (fork/draw taint tracking)",
       "Determinism at any thread count requires every component to own its seeded "
       "stream: parents fork children at established fork points and then only "
       "fork; leaves only draw. Flagged, per translation unit: (a) an engine that "
       "is both fork()ed and drawn from (uniform/next_u64/... ) — adding or "
       "removing a draw silently reseeds every later child; (b) a sim::Rng bound "
       "by non-const reference into a stored member — two components sharing one "
       "stream desynchronize as soon as their draw interleaving changes; (c) draws "
       "on an engine received by non-const reference — a shared stream may only be "
       "forked, never drawn ambiently. Whitelisted: src/vgr/sim/random.{hpp,cpp}."},
      {"VGR011", "dead-waiver", "dead-waiver-ok",
       "a vgr-lint waiver that no longer suppresses any finding",
       "Rules tighten and code moves; a waiver whose tag suppresses nothing is a "
       "stale justification that hides the next real finding placed on its line. "
       "Each waiver tag (line or region) must suppress at least one finding in its "
       "span, or be deleted. A deliberately prophylactic waiver can carry "
       "dead-waiver-ok — which is itself exempt from deadness tracking."},
      {"VGR012", "env-access", "env-ok",
       "environment access outside the knob table",
       "Runtime knobs have one declaration, the table in src/vgr/sweep/knobs.cpp, "
       "which each bench and tool main parses once into plain config structs; a "
       "library layer that reads the environment makes results depend on the "
       "caller's shell. Flagged in src/, bench/ and tools/. Whitelisted: knobs.cpp."},
  };
  return rules;
}

}  // namespace vgr::lint
