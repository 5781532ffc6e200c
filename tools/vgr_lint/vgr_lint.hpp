#pragma once

#include <filesystem>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "finding.hpp"
#include "project_index.hpp"

/// vgr_lint — whole-project static analyzer for the determinism and
/// concurrency invariants the simulator promises (bit-identical outputs for
/// any VGR_THREADS, fault knobs free when off). No libclang: a small
/// hand-rolled tokenizer feeds a shared ProjectIndex (one parse pass over
/// the tree: token streams, waiver directives, a resolved quoted-include
/// graph and per-file symbol tables) that every rule queries. The tool stays
/// dependency-free and runs in CI before any build.
///
/// Rules (see docs/static-analysis.md and `vgr_lint --list-rules`):
///   VGR001 wall-clock       VGR002 ambient-rng      VGR003 unordered-iter
///   VGR004 pointer-key      VGR005 float-accum      VGR006 thread-include
///   VGR007 bad-waiver       VGR008 signal-safety    VGR009 module-layering
///   VGR010 rng-stream       VGR011 dead-waiver      VGR012 env-access
///
/// Waivers: `// vgr-lint: <tag>-ok` (optionally with a rationale in
/// parentheses) on the violating line or the line directly above silences
/// that rule for that line. `// vgr-lint: begin <tag>-ok` ... `// vgr-lint:
/// end` silences a region. A waiver that silences nothing is itself a
/// finding (VGR011).
namespace vgr::lint {

/// Lints one translation unit in isolation (golden tests, editor
/// integrations). `sibling_header` (the matching .hpp of a .cpp, if any) is
/// scanned for member declarations only. Project-wide rules that need the
/// include graph or the layer manifest (VGR009) are inert in this mode.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view rel_path, std::string_view content,
                                               std::string_view sibling_header = {});

/// Lints every file in the index against all rules, layering included.
/// Mutates the index's waiver-usage marks (VGR011 input). Manifest parse
/// errors are appended to the returned findings.
[[nodiscard]] std::vector<Finding> lint_project(ProjectIndex& index, const LayerManifest& layers);

/// Walks `dirs` (relative to `root`) building a ProjectIndex, loads the
/// layer manifest from `root/tools/vgr_lint/layers.txt` when present, and
/// prints findings as `path:line: RULE [tag] message` to `out`.
/// Returns the number of findings (0 == clean tree).
int lint_tree(const std::filesystem::path& root, const std::vector<std::string>& dirs,
              std::ostream& out);

/// Writes the findings as SARIF v2.1.0 (one run, rule descriptors from
/// rule_catalogue(), one result per finding with file/line/ruleId).
void write_sarif(std::ostream& out, const std::vector<Finding>& findings);

/// Entry point shared by main() and the golden tests: parses argv, runs the
/// project lint, prints a summary. Also serves the rule catalogue
/// (`--list-rules`, `--explain VGR0NN`) and machine-readable output
/// (`--sarif <path>`). Exit codes: 0 clean, 1 violations found, 2 usage or
/// I/O error.
int run_lint(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err);

}  // namespace vgr::lint
