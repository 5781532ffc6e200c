#pragma once

#include <optional>

namespace vgr::sim {

/// Validated environment-variable parsing for the VGR_* knobs.
///
/// Unlike bare strtol/strtod, these reject any token that is not entirely a
/// number ("abc", "5x", "") instead of silently reading a prefix or falling
/// back to 0, and they warn on stderr naming the variable so a typo in a
/// 100-run experiment invocation is caught before the results are wasted.

/// Parses `name` as a whole-token integer. Unset -> nullopt (silent);
/// malformed -> nullopt plus a stderr warning.
std::optional<long long> env_int(const char* name);

/// Parses `name` as a whole-token double, same contract as env_int.
/// Non-finite values ("inf", "nan", ...) count as malformed.
std::optional<double> env_double(const char* name);

}  // namespace vgr::sim
