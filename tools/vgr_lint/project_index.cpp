#include "project_index.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace vgr::lint {
namespace {

const std::set<std::string>& known_tags() {
  static const std::set<std::string> tags{
      "wall-clock-ok", "rng-ok",        "ordered-ok",     "pointer-key-ok",
      "float-accum-ok", "thread-include-ok", "signal-safe-ok", "layering-ok",
      "rng-stream-ok", "dead-waiver-ok", "env-ok"};
  return tags;
}

std::string known_tags_joined() {
  std::string out;
  for (const std::string& t : known_tags()) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Parses one comment's text for a `vgr-lint:` waiver directive.
void parse_waiver(std::string_view comment, int line, std::string_view rel_path, Scan& scan,
                  std::vector<int>& open_regions) {
  const std::size_t at = comment.find("vgr-lint:");
  if (at == std::string_view::npos) return;
  // Only dedicated directive comments count: prose that merely *mentions*
  // vgr-lint (docs, this tool's own sources) must not parse as a waiver.
  for (std::size_t k = 0; k < at; ++k) {
    const char c = comment[k];
    if (c != ' ' && c != '\t' && c != '/' && c != '*' && c != '!' && c != '<') return;
  }
  std::string_view rest = comment.substr(at + 9);
  // Tags end at an opening paren (rationale) or end of comment.
  if (const std::size_t paren = rest.find('('); paren != std::string_view::npos) {
    rest = rest.substr(0, paren);
  }
  std::istringstream words{std::string{rest}};
  std::string word;
  bool begin = false, end = false;
  std::set<std::string> tags;
  while (words >> word) {
    while (!word.empty() && (word.back() == ',' || word.back() == '.')) word.pop_back();
    if (word.empty()) continue;
    if (word == "begin") {
      begin = true;
    } else if (word == "end") {
      end = true;
    } else if (known_tags().contains(word)) {
      tags.insert(word);
    } else {
      scan.waiver_errors.push_back({std::string{rel_path}, line, "VGR007", "",
                                    "unknown vgr-lint waiver tag '" + word +
                                        "' (known: " + known_tags_joined() + ")"});
    }
  }
  if (end) {
    if (open_regions.empty()) {
      scan.waiver_errors.push_back(
          {std::string{rel_path}, line, "VGR007", "", "'vgr-lint: end' without an open region"});
    } else {
      scan.waivers[static_cast<std::size_t>(open_regions.back())].end_line = line;
      open_regions.pop_back();
    }
    return;
  }
  if (begin) {
    if (tags.empty()) {
      scan.waiver_errors.push_back({std::string{rel_path}, line, "VGR007", "",
                                    "'vgr-lint: begin' without any waiver tag"});
      return;
    }
    WaiverEntry entry{line, true, line, 1 << 30, std::move(tags), {}};
    for (const std::string& t : entry.tags) entry.used[t] = false;
    scan.waivers.push_back(std::move(entry));
    open_regions.push_back(static_cast<int>(scan.waivers.size()) - 1);
    return;
  }
  if (!tags.empty()) {
    WaiverEntry entry{line, false, line, line + 1, std::move(tags), {}};
    for (const std::string& t : entry.tags) entry.used[t] = false;
    scan.waivers.push_back(std::move(entry));
  }
}

}  // namespace

Scan tokenize(std::string_view src, std::string_view rel_path) {
  Scan scan;
  std::vector<int> open_regions;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto at_line_start = [&](std::size_t pos) {
    while (pos > 0 && (src[pos - 1] == ' ' || src[pos - 1] == '\t')) --pos;
    return pos == 0 || src[pos - 1] == '\n';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      std::size_t e = src.find('\n', start);
      if (e == std::string_view::npos) e = n;
      parse_waiver(src.substr(start, e - start), line, rel_path, scan, open_regions);
      i = e;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const std::size_t start = i + 2;
      std::size_t e = src.find("*/", start);
      if (e == std::string_view::npos) e = n;
      for (std::size_t k = start; k < e; ++k) {
        if (src[k] == '\n') ++line;
      }
      parse_waiver(src.substr(start, e - start), start_line, rel_path, scan, open_regions);
      i = e == n ? n : e + 2;
      continue;
    }
    // Raw string literal (possibly behind an encoding prefix consumed as an
    // identifier below — handle the common R"..." spelling here).
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      const std::string close = ")" + std::string{src.substr(i + 2, d - (i + 2))} + "\"";
      std::size_t e = src.find(close, d);
      if (e == std::string_view::npos) e = n;
      for (std::size_t k = i; k < e && k < n; ++k) {
        if (src[k] == '\n') ++line;
      }
      i = std::min(n, e + close.size());
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      ++i;
      while (i < n && src[i] != c) {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      ++i;
      continue;
    }
    // Preprocessor directive: keep `#include <header>` as a token, record
    // `#include "header"` for the include graph, swallow the rest
    // (including backslash continuations).
    if (c == '#' && at_line_start(i)) {
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      std::size_t w = j;
      while (w < n && ident_char(src[w])) ++w;
      const std::string_view directive = src.substr(j, w - j);
      if (directive == "include") {
        std::size_t h = w;
        while (h < n && (src[h] == ' ' || src[h] == '\t')) ++h;
        if (h < n && src[h] == '<') {
          std::size_t e = src.find('>', h);
          if (e != std::string_view::npos) {
            scan.toks.push_back({std::string{src.substr(h, e - h + 1)}, line, TokKind::kHeader});
          }
        } else if (h < n && src[h] == '"') {
          std::size_t e = src.find('"', h + 1);
          if (e != std::string_view::npos) {
            scan.includes.push_back({line, std::string{src.substr(h + 1, e - h - 1)}, {}});
          }
        }
      }
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    // Identifier.
    if (ident_start(c)) {
      std::size_t e = i;
      while (e < n && ident_char(src[e])) ++e;
      scan.toks.push_back({std::string{src.substr(i, e - i)}, line, TokKind::kIdent});
      i = e;
      continue;
    }
    // Number (digits, hex, separators, exponents — precision is irrelevant,
    // it just must not split into identifier-like fragments).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t e = i;
      while (e < n && (ident_char(src[e]) || src[e] == '.' || src[e] == '\'')) ++e;
      scan.toks.push_back({std::string{src.substr(i, e - i)}, line, TokKind::kNumber});
      i = e;
      continue;
    }
    // Two-char operators the rules rely on.
    static const char* kTwo[] = {"::", "->", "+=", "-=", "*=", "/=", "<<", ">>",
                                 "<=", ">=", "==", "!=", "&&", "||", "++", "--"};
    bool matched = false;
    if (i + 1 < n) {
      const std::string two{src.substr(i, 2)};
      for (const char* op : kTwo) {
        if (two == op) {
          scan.toks.push_back({two, line, TokKind::kPunct});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (matched) continue;
    scan.toks.push_back({std::string(1, c), line, TokKind::kPunct});
    ++i;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Token helpers shared by the index and the rules.
// ---------------------------------------------------------------------------

const Tok* tok_at(const std::vector<Tok>& t, std::size_t i) {
  return i < t.size() ? &t[i] : nullptr;
}

bool foreign_qualified(const std::vector<Tok>& t, std::size_t i) {
  if (i == 0) return false;
  const std::string& prev = t[i - 1].text;
  if (prev == "." || prev == "->") return true;
  if (prev == "::") {
    if (i >= 2 && t[i - 2].kind == TokKind::kIdent && t[i - 2].text != "std") return true;
  }
  return false;
}

std::size_t skip_angles(const std::vector<Tok>& t, std::size_t i) {
  if (i >= t.size() || t[i].text != "<") return i;
  int angle = 0, paren = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "(" || s == "[") ++paren;
    if (s == ")" || s == "]") --paren;
    if (paren > 0) continue;
    if (s == "<") ++angle;
    if (s == ">") --angle;
    if (s == ">>") angle -= 2;
    if (angle <= 0) return j + 1;
    if (s == ";") break;  // statement ended: not a template argument list
  }
  return i;
}

std::set<std::string> unordered_decl_names(const std::vector<Tok>& t) {
  static const std::set<std::string> kUnorderedTypes{"unordered_map", "unordered_set",
                                                     "unordered_multimap", "unordered_multiset"};
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !kUnorderedTypes.contains(t[i].text)) continue;
    std::size_t j = skip_angles(t, i + 1);
    if (j == i + 1) continue;  // no template argument list: a bare mention
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) ++j;
    if (j < t.size() && t[j].kind == TokKind::kIdent) names.insert(t[j].text);
  }
  return names;
}

// ---------------------------------------------------------------------------
// ProjectIndex.
// ---------------------------------------------------------------------------

std::string module_of(std::string_view rel_path) {
  constexpr std::string_view kPrefix = "src/vgr/";
  if (!rel_path.starts_with(kPrefix)) return {};
  const std::string_view rest = rel_path.substr(kPrefix.size());
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string{rest.substr(0, slash)};
}

std::string included_module(std::string_view spelled) {
  constexpr std::string_view kPrefix = "vgr/";
  if (!spelled.starts_with(kPrefix)) return {};
  const std::string_view rest = spelled.substr(kPrefix.size());
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string{rest.substr(0, slash)};
}

namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::string normalized_rel(const std::filesystem::path& root, const std::filesystem::path& p) {
  return p.lexically_normal().lexically_relative(root.lexically_normal()).generic_string();
}

}  // namespace

const IndexedFile* ProjectIndex::find(std::string_view rel_path) const {
  const auto it = by_path.find(std::string{rel_path});
  return it == by_path.end() ? nullptr : &files[it->second];
}

IndexedFile* ProjectIndex::find(std::string_view rel_path) {
  const auto it = by_path.find(std::string{rel_path});
  return it == by_path.end() ? nullptr : &files[it->second];
}

const std::set<std::string>& ProjectIndex::own_unordered_names(const std::string& rel_path) const {
  static const std::set<std::string> kEmpty;
  const auto it = unordered_names_.find(rel_path);
  return it == unordered_names_.end() ? kEmpty : it->second;
}

std::vector<std::string> ProjectIndex::reachable_includes(const std::string& rel_path) const {
  std::set<std::string> seen;
  std::vector<std::string> stack{rel_path};
  while (!stack.empty()) {
    const std::string cur = std::move(stack.back());
    stack.pop_back();
    const IndexedFile* file = find(cur);
    if (file == nullptr) continue;
    for (const IncludeDirective& inc : file->scan.includes) {
      if (inc.resolved.empty() || seen.contains(inc.resolved)) continue;
      seen.insert(inc.resolved);
      stack.push_back(inc.resolved);
    }
  }
  seen.erase(rel_path);
  return {seen.begin(), seen.end()};
}

std::set<std::string> ProjectIndex::reachable_unordered_names(const std::string& rel_path) const {
  std::set<std::string> names = own_unordered_names(rel_path);
  for (const std::string& inc : reachable_includes(rel_path)) {
    const std::set<std::string>& more = own_unordered_names(inc);
    names.insert(more.begin(), more.end());
  }
  // Sibling-header convention: a .cpp inherits its header's members even if
  // the include spelling did not resolve (e.g. installed include roots).
  const std::filesystem::path p{rel_path};
  const std::string ext = p.extension().string();
  if (ext == ".cpp" || ext == ".cc") {
    for (const char* hext : {".hpp", ".h"}) {
      std::filesystem::path header = p;
      header.replace_extension(hext);
      const std::set<std::string>& more = own_unordered_names(header.generic_string());
      names.insert(more.begin(), more.end());
    }
  }
  return names;
}

ProjectIndex build_project_index(const std::filesystem::path& root,
                                 const std::vector<std::string>& dirs) {
  ProjectIndex index;
  index.root = root;

  std::vector<std::filesystem::path> paths;
  for (const std::string& dir : dirs) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::exists(base)) continue;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && lintable(entry.path())) paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  for (const std::filesystem::path& path : paths) {
    const std::string rel = normalized_rel(root, path);
    IndexedFile file;
    file.rel_path = rel;
    file.module = module_of(rel);
    file.scan = tokenize(read_file(path), rel);
    index.by_path.emplace(rel, index.files.size());
    index.files.push_back(std::move(file));
  }

  // Resolve quoted includes: includer-relative first (how the preprocessor
  // searches), then the src/ include root every vgr module uses, then the
  // project root (tools). Only files in the index resolve — unresolved
  // spellings keep resolved == "" and still carry layering information via
  // their `vgr/<module>/` prefix.
  for (IndexedFile& file : index.files) {
    const std::filesystem::path dir = std::filesystem::path{file.rel_path}.parent_path();
    for (IncludeDirective& inc : file.scan.includes) {
      for (const std::filesystem::path& candidate :
           {dir / inc.spelled, std::filesystem::path{"src"} / inc.spelled,
            std::filesystem::path{inc.spelled}}) {
        const std::string rel = candidate.lexically_normal().generic_string();
        if (index.by_path.contains(rel)) {
          inc.resolved = rel;
          break;
        }
      }
    }
    index.unordered_names_[file.rel_path] = unordered_decl_names(file.scan.toks);
  }
  return index;
}

// ---------------------------------------------------------------------------
// Layer manifest.
// ---------------------------------------------------------------------------

LayerManifest parse_layers(std::string_view content, std::string_view rel_path) {
  LayerManifest manifest;
  manifest.loaded = true;
  const std::string file{rel_path};

  int line_no = 0;
  std::istringstream lines{std::string{content}};
  std::string line;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    // Trim.
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    line = line.substr(first, line.find_last_not_of(" \t\r") - first + 1);

    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      manifest.errors.push_back({file, line_no, "VGR009", "layering-ok",
                                 "layers.txt line is not 'module: dep dep ...'"});
      continue;
    }
    std::istringstream head{line.substr(0, colon)};
    std::string module;
    head >> module;
    std::string extra;
    if (module.empty() || (head >> extra)) {
      manifest.errors.push_back({file, line_no, "VGR009", "layering-ok",
                                 "layers.txt line must name exactly one module before ':'"});
      continue;
    }
    if (manifest.allowed.contains(module)) {
      manifest.errors.push_back({file, line_no, "VGR009", "layering-ok",
                                 "module '" + module + "' declared twice in layers.txt"});
      continue;
    }
    std::set<std::string> deps;
    std::istringstream tail{line.substr(colon + 1)};
    std::string dep;
    while (tail >> dep) {
      if (dep == module) {
        manifest.errors.push_back({file, line_no, "VGR009", "layering-ok",
                                   "module '" + module + "' lists itself as a dependency"});
        continue;
      }
      deps.insert(dep);
    }
    manifest.allowed.emplace(std::move(module), std::move(deps));
  }

  // The allowed graph must be a DAG: a cycle would let two modules grant
  // each other the edge the layering exists to forbid. Iterative DFS with
  // tri-state marks; one finding per cycle-closing module is enough.
  std::map<std::string, int> mark;  // 0 unvisited, 1 on stack, 2 done
  for (const auto& [start, unused] : manifest.allowed) {
    if (mark[start] != 0) continue;
    // Stack of (module, next-dep iterator position).
    std::vector<std::pair<std::string, std::set<std::string>::const_iterator>> stack;
    mark[start] = 1;
    stack.emplace_back(start, manifest.allowed.at(start).begin());
    while (!stack.empty()) {
      auto& [mod, it] = stack.back();
      const std::set<std::string>& deps = manifest.allowed.at(mod);
      if (it == deps.end()) {
        mark[mod] = 2;
        stack.pop_back();
        continue;
      }
      const std::string dep = *it++;
      if (!manifest.allowed.contains(dep)) continue;
      if (mark[dep] == 1) {
        manifest.errors.push_back({file, 0, "VGR009", "layering-ok",
                                   "layers.txt allowed-dependency graph has a cycle through '" +
                                       dep + "' and '" + mod + "'"});
        continue;
      }
      if (mark[dep] == 0) {
        mark[dep] = 1;
        stack.emplace_back(dep, manifest.allowed.at(dep).begin());
      }
    }
  }
  return manifest;
}

}  // namespace vgr::lint
