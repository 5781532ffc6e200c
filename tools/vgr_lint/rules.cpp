#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "project_index.hpp"
#include "vgr_lint.hpp"

namespace vgr::lint {

// Token helpers defined in project_index.cpp (shared with the index build).
const Tok* tok_at(const std::vector<Tok>& t, std::size_t i);
bool foreign_qualified(const std::vector<Tok>& t, std::size_t i);
std::size_t skip_angles(const std::vector<Tok>& t, std::size_t i);
std::set<std::string> unordered_decl_names(const std::vector<Tok>& t);

namespace {

// ---------------------------------------------------------------------------
// Rule driver. Waiver lookups mutate the scan's per-tag usage marks — the
// input to VGR011 dead-waiver detection, which runs after every other rule.
// ---------------------------------------------------------------------------

struct Linter {
  std::string_view rel_path;
  Scan& scan;
  std::vector<Finding> findings;

  [[nodiscard]] bool waived(int line, const std::string& tag) {
    bool hit = false;
    for (WaiverEntry& w : scan.waivers) {
      if (w.begin_line <= line && line <= w.end_line && w.tags.contains(tag)) {
        w.used[tag] = true;
        hit = true;
      }
    }
    return hit;
  }

  void report(int line, const char* rule, const char* tag, std::string message) {
    if (waived(line, tag)) return;
    findings.push_back({std::string{rel_path}, line, rule, tag, std::move(message)});
  }
};

bool path_is(std::string_view rel_path, std::initializer_list<std::string_view> allowed) {
  return std::any_of(allowed.begin(), allowed.end(),
                     [&](std::string_view a) { return rel_path == a; });
}

// ---------------------------------------------------------------------------
// VGR001 — wall-clock access outside the simulator's virtual clock.
// ---------------------------------------------------------------------------
void rule_wall_clock(Linter& lint) {
  if (path_is(lint.rel_path, {"src/vgr/sim/event_queue.cpp", "src/vgr/sim/event_queue.hpp"})) {
    // The per-run watchdog's wall deadline is the one sanctioned consumer of
    // real time inside the simulator (documented in event_queue.hpp).
    return;
  }
  static const std::set<std::string> kClocks{"system_clock",  "steady_clock", "high_resolution_clock",
                                            "gettimeofday",   "localtime",    "gmtime",
                                            "timespec_get",   "clock_gettime"};
  const auto& t = lint.scan.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (kClocks.contains(t[i].text)) {
      lint.report(t[i].line, "VGR001", "wall-clock-ok",
                  "wall-clock source '" + t[i].text +
                      "' — simulation code must use sim::TimePoint (EventQueue::now)");
      continue;
    }
    if ((t[i].text == "time" || t[i].text == "clock") && tok_at(t, i + 1) &&
        t[i + 1].text == "(" && !foreign_qualified(t, i)) {
      lint.report(t[i].line, "VGR001", "wall-clock-ok",
                  "C library wall-clock call '" + t[i].text +
                      "()' — simulation code must use sim::TimePoint");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR002 — ambient randomness outside the seeded sim/random source.
// ---------------------------------------------------------------------------
void rule_ambient_rng(Linter& lint) {
  if (path_is(lint.rel_path, {"src/vgr/sim/random.cpp", "src/vgr/sim/random.hpp"})) return;
  static const std::set<std::string> kEngines{"random_device", "mt19937",      "mt19937_64",
                                              "default_random_engine", "minstd_rand",
                                              "minstd_rand0",  "ranlux24",     "ranlux48",
                                              "knuth_b"};
  const auto& t = lint.scan.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (kEngines.contains(t[i].text)) {
      lint.report(t[i].line, "VGR002", "rng-ok",
                  "ambient RNG '" + t[i].text +
                      "' — draw randomness from sim::Rng (seeded, replayable) instead");
      continue;
    }
    if ((t[i].text == "rand" || t[i].text == "srand") && tok_at(t, i + 1) &&
        t[i + 1].text == "(" && !foreign_qualified(t, i)) {
      lint.report(t[i].line, "VGR002", "rng-ok",
                  "C library RNG '" + t[i].text + "()' — use sim::Rng instead");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR003 — iteration over hash-ordered containers. The declared-name set
// comes from the ProjectIndex: the TU itself plus every header reachable
// through the quoted-include graph (plus the sibling-header convention).
// ---------------------------------------------------------------------------
void rule_unordered_iter(Linter& lint, const std::set<std::string>& names) {
  if (names.empty()) return;
  const auto& t = lint.scan.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression mentions an unordered container.
    if (t[i].text == "for" && tok_at(t, i + 1) && t[i + 1].text == "(") {
      int depth = 0;
      std::size_t colon = 0, close = 0;
      bool has_semi = false;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (depth == 1 && t[j].text == ";") has_semi = true;
        if (depth == 1 && t[j].text == ":" && colon == 0) colon = j;
      }
      if (close != 0 && colon != 0 && !has_semi) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (t[j].kind == TokKind::kIdent && names.contains(t[j].text)) {
            lint.report(t[i].line, "VGR003", "ordered-ok",
                        "range-for over unordered container '" + t[j].text +
                            "' — hash order is not deterministic across builds; sort first "
                            "or waive with a rationale");
            break;
          }
        }
      }
    }
    // Explicit iterator walk: name.begin() / cbegin / rbegin.
    if (t[i].kind == TokKind::kIdent && names.contains(t[i].text) && tok_at(t, i + 3) &&
        (t[i + 1].text == "." || t[i + 1].text == "->") &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" || t[i + 2].text == "rbegin" ||
         t[i + 2].text == "crbegin") &&
        t[i + 3].text == "(") {
      lint.report(t[i].line, "VGR003", "ordered-ok",
                  "iterator walk over unordered container '" + t[i].text +
                      "' — hash order is not deterministic across builds; sort first or "
                      "waive with a rationale");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR004 — ordered containers keyed by raw pointers.
// ---------------------------------------------------------------------------
void rule_pointer_key(Linter& lint) {
  static const std::set<std::string> kOrdered{"map", "set", "multimap", "multiset"};
  const auto& t = lint.scan.toks;
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !kOrdered.contains(t[i].text)) continue;
    if (t[i - 1].text != "::" || t[i - 2].text != "std") continue;
    if (!tok_at(t, i + 1) || t[i + 1].text != "<") continue;
    // First template argument: tokens until a top-level ',' or the close.
    int angle = 1, paren = 0;
    std::size_t last = 0;
    for (std::size_t j = i + 2; j < t.size(); ++j) {
      const std::string& s = t[j].text;
      if (s == "(") ++paren;
      if (s == ")") --paren;
      if (paren == 0) {
        if (s == "<") ++angle;
        if (s == ">") --angle;
        if (s == ">>") angle -= 2;
        if ((s == "," && angle == 1) || angle <= 0) break;
      }
      last = j;
    }
    if (last != 0 && t[last].text == "*") {
      lint.report(t[i].line, "VGR004", "pointer-key-ok",
                  "std::" + t[i].text +
                      " keyed by a raw pointer — iteration order follows allocation "
                      "addresses, which vary run to run");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR005 — floating-point accumulation in parallel/merge paths.
// ---------------------------------------------------------------------------
void rule_float_accum(Linter& lint) {
  const auto& t = lint.scan.toks;
  const bool parallel_path =
      lint.rel_path.starts_with("src/vgr/sim/thread_pool") ||
      std::any_of(t.begin(), t.end(), [](const Tok& tok) { return tok.text == "parallel_for"; });
  if (!parallel_path) return;
  std::set<std::string> fp_names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if ((t[i].text != "double" && t[i].text != "float") || t[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    fp_names.insert(t[i + 1].text);
    // Further declarators of the same statement: `double a = 0, b = 0;`.
    int depth = 0;
    for (std::size_t j = i + 2; j + 1 < t.size(); ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (depth < 0 || s == ";") break;
      if (depth == 0 && s == "," && t[j + 1].kind == TokKind::kIdent) {
        fp_names.insert(t[j + 1].text);
      }
    }
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && fp_names.contains(t[i].text) &&
        (t[i + 1].text == "+=" || t[i + 1].text == "-=")) {
      lint.report(t[i].line, "VGR005", "float-accum-ok",
                  "floating-point accumulation into '" + t[i].text +
                      "' in a parallel/merge path — summation order must be fixed (merge in "
                      "seed order) for bit-identical output");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR006 — threading primitives outside the pool.
// ---------------------------------------------------------------------------
void rule_thread_include(Linter& lint) {
  if (path_is(lint.rel_path, {"src/vgr/sim/thread_pool.cpp", "src/vgr/sim/thread_pool.hpp"})) {
    return;
  }
  static const std::set<std::string> kHeaders{
      "<thread>", "<mutex>",     "<shared_mutex>", "<condition_variable>", "<future>",
      "<atomic>", "<stop_token>", "<semaphore>",    "<latch>",              "<barrier>"};
  for (const Tok& tok : lint.scan.toks) {
    if (tok.kind == TokKind::kHeader && kHeaders.contains(tok.text)) {
      lint.report(tok.line, "VGR006", "thread-include-ok",
                  "#include " + tok.text +
                      " outside sim/thread_pool — the simulator is single-threaded by "
                      "design; run-level parallelism goes through ThreadPool");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR008 — non-async-signal-safe work inside signal handlers.
// ---------------------------------------------------------------------------

/// Names registered as signal handlers in this translation unit: the second
/// argument of `signal()` / `std::signal()` and anything assigned to a
/// `sa_handler` / `sa_sigaction` field. SIG_DFL/SIG_IGN dispositions and
/// saved-handler variables (non-identifier second arguments) drop out
/// naturally because only plain identifiers are harvested.
std::set<std::string> signal_handler_names(const std::vector<Tok>& t) {
  std::set<std::string> handlers;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "signal" && tok_at(t, i + 1) && t[i + 1].text == "(") {
      int depth = 0;
      std::size_t comma = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) break;
        if (depth == 1 && t[j].text == "," && comma == 0) comma = j;
      }
      std::size_t j = comma + 1;
      if (comma != 0 && j < t.size() && t[j].text == "&") ++j;
      // Only an unqualified identifier followed by the closing paren is a
      // handler name; `cfg.handler`, ternaries and casts are skipped.
      if (comma != 0 && j < t.size() && t[j].kind == TokKind::kIdent && tok_at(t, j + 1) &&
          t[j + 1].text == ")") {
        handlers.insert(t[j].text);
      }
    }
    if ((t[i].text == "sa_handler" || t[i].text == "sa_sigaction") && tok_at(t, i + 1) &&
        t[i + 1].text == "=") {
      std::size_t j = i + 2;
      if (j < t.size() && t[j].text == "&") ++j;
      if (j < t.size() && t[j].kind == TokKind::kIdent) handlers.insert(t[j].text);
    }
  }
  handlers.erase("SIG_DFL");
  handlers.erase("SIG_IGN");
  handlers.erase("SIG_ERR");
  return handlers;
}

void rule_signal_safety(Linter& lint) {
  const auto& t = lint.scan.toks;
  const std::set<std::string> handlers = signal_handler_names(t);
  if (handlers.empty()) return;

  // POSIX's async-signal-safe list is tiny; everything a simulator handler
  // might be tempted by — allocation, locks, stdio, unwinding — is off it.
  // The sanctioned handler body is `flag = 1;` on a volatile sig_atomic_t.
  static const std::set<std::string> kBanned{
      // allocation
      "new", "delete", "malloc", "calloc", "realloc", "free", "make_shared",
      "make_unique", "string", "vector", "to_string",
      // locking / synchronization
      "mutex", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
      "condition_variable", "lock", "unlock",
      // stdio / iostreams
      "printf", "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf", "puts",
      "fputs", "putchar", "fwrite", "fread", "fopen", "fclose", "fflush", "cout",
      "cerr", "clog", "endl",
      // non-reentrant process control / unwinding
      "exit", "throw"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !handlers.contains(t[i].text)) continue;
    if (!tok_at(t, i + 1) || t[i + 1].text != "(") continue;
    // A definition: balanced parameter list directly followed by '{'.
    int depth = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
    }
    if (close == 0 || !tok_at(t, close + 1) || t[close + 1].text != "{") continue;
    int braces = 0;
    for (std::size_t j = close + 1; j < t.size(); ++j) {
      if (t[j].text == "{") ++braces;
      if (t[j].text == "}" && --braces == 0) break;
      if (t[j].kind == TokKind::kIdent && kBanned.contains(t[j].text)) {
        lint.report(t[j].line, "VGR008", "signal-safe-ok",
                    "'" + t[j].text + "' in signal handler '" + t[i].text +
                        "' is not async-signal-safe — a handler may only set a "
                        "volatile sig_atomic_t flag");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VGR009 — module-layering: every quoted include crossing from one src/vgr
// module into another must be an edge the reviewed manifest allows.
// ---------------------------------------------------------------------------
void rule_module_layering(Linter& lint, const std::string& module, const Scan& scan,
                          const LayerManifest& layers) {
  if (!layers.loaded || module.empty()) return;
  const auto own = layers.allowed.find(module);
  for (const IncludeDirective& inc : scan.includes) {
    const std::string target = included_module(inc.spelled);
    if (target.empty() || target == module) continue;
    if (own == layers.allowed.end()) {
      lint.report(inc.line, "VGR009", "layering-ok",
                  "module '" + module +
                      "' is not declared in tools/vgr_lint/layers.txt — add it (and its "
                      "reviewed dependency list) before including '" + inc.spelled + "'");
      continue;
    }
    if (!own->second.contains(target)) {
      lint.report(inc.line, "VGR009", "layering-ok",
                  "#include \"" + inc.spelled + "\" — module '" + module +
                      "' may not depend on '" + target +
                      "' (allowed per tools/vgr_lint/layers.txt; sideways/upward edges "
                      "break the src/vgr dependency DAG)");
    }
  }
}

// ---------------------------------------------------------------------------
// VGR010 — RNG stream discipline (taint-lite on sim::Rng).
// ---------------------------------------------------------------------------
void rule_rng_stream(Linter& lint) {
  if (path_is(lint.rel_path, {"src/vgr/sim/random.cpp", "src/vgr/sim/random.hpp"})) return;
  const auto& t = lint.scan.toks;
  static const std::set<std::string> kDraws{"next_u64", "uniform",     "uniform_int",
                                            "normal",   "exponential", "bernoulli"};

  struct Site {
    std::string name;
    int line;
  };
  std::vector<Site> forks, draws;
  std::set<std::string> shared;  // engines received/bound by non-const reference

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // `Rng & name` — a non-const reference binding. Followed by ';' it is a
    // stored member (or global): flagged outright. Followed by ',' / ')' /
    // '=' it is a parameter or a local alias: the engine belongs to someone
    // else, so draws through it are ambient draws on a shared stream.
    if (t[i].kind == TokKind::kIdent && t[i].text == "Rng" && t[i + 1].text == "&") {
      // `const` may sit before the namespace qualifier: const sim::Rng&.
      std::size_t q = i;
      while (q >= 2 && t[q - 1].text == "::" && t[q - 2].kind == TokKind::kIdent) q -= 2;
      const bool const_ref = q > 0 && t[q - 1].text == "const";
      const Tok* name = tok_at(t, i + 2);
      const Tok* after = tok_at(t, i + 3);
      if (!const_ref && name != nullptr && name->kind == TokKind::kIdent && after != nullptr) {
        if (after->text == ";") {
          lint.report(name->line, "VGR010", "rng-stream-ok",
                      "sim::Rng bound by non-const reference into stored member '" + name->text +
                          "' — components must own their stream (pass by value, fork a child)");
        } else if (after->text == "," || after->text == ")" || after->text == "=") {
          shared.insert(name->text);
        }
      }
    }
    // `name.fork(` / `name.method(` call sites.
    if (t[i].kind == TokKind::kIdent && (t[i + 1].text == "." || t[i + 1].text == "->")) {
      const Tok* method = tok_at(t, i + 2);
      const Tok* paren = tok_at(t, i + 3);
      if (method != nullptr && paren != nullptr && paren->text == "(") {
        if (method->text == "fork") {
          forks.push_back({t[i].text, t[i].line});
        } else if (kDraws.contains(method->text)) {
          draws.push_back({t[i].text, t[i].line});
        }
      }
    }
  }

  // (c) ambient draws on a shared stream: fork() is the only sanctioned use
  // of an engine you do not own.
  for (const Site& d : draws) {
    if (shared.contains(d.name)) {
      lint.report(d.line, "VGR010", "rng-stream-ok",
                  "draw on engine '" + d.name +
                      "' received by non-const reference — a shared stream may only be "
                      "forked at an established fork point, never drawn from ambiently");
    }
  }

  // (a) mixed-role engines: one finding per name, at the first fork site,
  // so the waiver (and its rationale) lives where the stream's role is set.
  std::set<std::string> reported;
  for (const Site& f : forks) {
    if (shared.contains(f.name) || reported.contains(f.name)) continue;
    const auto draw = std::find_if(draws.begin(), draws.end(),
                                   [&](const Site& d) { return d.name == f.name; });
    if (draw == draws.end()) continue;
    reported.insert(f.name);
    lint.report(f.line, "VGR010", "rng-stream-ok",
                "engine '" + f.name + "' is forked here but also drawn from (line " +
                    std::to_string(draw->line) +
                    ") — a stream must be a fork-only parent or a draw-only leaf; mixing "
                    "roles reseeds every later child when a draw is added or removed");
  }
}

// ---------------------------------------------------------------------------
// VGR012 — environment access outside the knob table (sweep/knobs.cpp).
// ---------------------------------------------------------------------------
void rule_env_access(Linter& lint) {
  const std::string_view p = lint.rel_path;
  if (!p.starts_with("src/") && !p.starts_with("bench/") && !p.starts_with("tools/")) return;
  if (path_is(p, {"src/vgr/sweep/knobs.cpp"})) return;
  static const std::set<std::string> kEnv{"getenv", "secure_getenv", "environ"};
  const auto& t = lint.scan.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !kEnv.contains(t[i].text)) continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;  // a member
    lint.report(t[i].line, "VGR012", "env-ok",
                "environment access '" + t[i].text +
                    "' — read runtime knobs through the table in src/vgr/sweep/knobs.cpp "
                    "and pass plain config structs");
  }
}

// ---------------------------------------------------------------------------
// VGR011 — dead waivers: a tag that suppressed nothing is itself a finding.
// Runs after every other rule so the usage marks are complete. The
// dead-waiver-ok tag is exempt from deadness tracking (it waives VGR011
// itself, so a prophylactic waiver does not oscillate).
// ---------------------------------------------------------------------------
void rule_dead_waiver(Linter& lint) {
  // Snapshot first: reporting a dead waiver consults waived(), which may
  // mark dead-waiver-ok entries used while we iterate.
  struct Dead {
    int line;
    std::string tag;
  };
  std::vector<Dead> dead;
  for (const WaiverEntry& w : lint.scan.waivers) {
    for (const std::string& tag : w.tags) {
      if (tag == "dead-waiver-ok") continue;
      if (!w.used.at(tag)) dead.push_back({w.line, tag});
    }
  }
  for (const Dead& d : dead) {
    lint.report(d.line, "VGR011", "dead-waiver-ok",
                "waiver tag '" + d.tag +
                    "' suppresses no finding — delete the stale waiver (or mark it "
                    "dead-waiver-ok with a rationale if it is deliberately prophylactic)");
  }
}

std::vector<Finding> lint_one(IndexedFile& file, const std::set<std::string>& unordered_names,
                              const LayerManifest& layers) {
  Linter lint{file.rel_path, file.scan, {}};

  rule_wall_clock(lint);
  rule_ambient_rng(lint);
  rule_unordered_iter(lint, unordered_names);
  rule_pointer_key(lint);
  rule_float_accum(lint);
  rule_thread_include(lint);
  rule_signal_safety(lint);
  rule_module_layering(lint, file.module, file.scan, layers);
  rule_rng_stream(lint);
  rule_env_access(lint);
  rule_dead_waiver(lint);

  std::vector<Finding> out = std::move(lint.findings);
  out.insert(out.end(), file.scan.waiver_errors.begin(), file.scan.waiver_errors.end());
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace

std::vector<Finding> lint_project(ProjectIndex& index, const LayerManifest& layers) {
  std::vector<Finding> all;
  for (IndexedFile& file : index.files) {
    const std::string ext = std::filesystem::path{file.rel_path}.extension().string();
    std::set<std::string> names = index.own_unordered_names(file.rel_path);
    if (ext == ".cpp" || ext == ".cc") {
      names = index.reachable_unordered_names(file.rel_path);
    }
    std::vector<Finding> found = lint_one(file, names, layers);
    all.insert(all.end(), found.begin(), found.end());
  }
  all.insert(all.end(), layers.errors.begin(), layers.errors.end());
  return all;
}

std::vector<Finding> lint_source(std::string_view rel_path, std::string_view content,
                                 std::string_view sibling_header) {
  IndexedFile file;
  file.rel_path = std::string{rel_path};
  file.module = module_of(rel_path);
  file.scan = tokenize(content, rel_path);

  std::set<std::string> names = unordered_decl_names(file.scan.toks);
  if (!sibling_header.empty()) {
    const Scan header = tokenize(sibling_header, rel_path);
    const std::set<std::string> inherited = unordered_decl_names(header.toks);
    names.insert(inherited.begin(), inherited.end());
  }
  const LayerManifest no_layers;  // single-TU mode has no project manifest
  return lint_one(file, names, no_layers);
}

}  // namespace vgr::lint
