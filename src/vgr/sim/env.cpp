#include "vgr/sim/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vgr::sim {
namespace {

/// True when `s` is only whitespace from `s` to the end (strtol/strtod stop
/// at the first non-numeric char; trailing blanks are harmless).
bool only_whitespace(const char* s) {
  for (; *s != '\0'; ++s) {
    if (std::isspace(static_cast<unsigned char>(*s)) == 0) return false;
  }
  return true;
}

void warn(const char* name, const char* value) {
  std::fprintf(stderr, "vgr: ignoring %s=\"%s\" (not a number)\n", name, value);
}

}  // namespace

std::optional<long long> env_int(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || errno == ERANGE || !only_whitespace(end)) {
    warn(name, value);
    return std::nullopt;
  }
  return v;
}

std::optional<double> env_double(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value, &end);
  // strtod also accepts "inf"/"nan"; no knob means either, and a non-finite
  // value would reach float-to-integer conversions downstream.
  if (end == value || errno == ERANGE || !only_whitespace(end) || !std::isfinite(v)) {
    warn(name, value);
    return std::nullopt;
  }
  return v;
}

}  // namespace vgr::sim
