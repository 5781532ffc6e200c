#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vgr/scenario/ab_runner.hpp"

namespace vgr::sweep {

/// Serializes a merged A/B result into one JSON object — the sweep journal
/// payload. Every accumulator is carried raw (bin hits/trials, the packet-
/// weighted reception sums, the per-arm drop totals) and doubles are
/// printed with %.17g, so decode(encode(r)) reproduces `r` bit for bit.
std::string encode_ab(const scenario::AbResult& result);

/// Inverse of encode_ab; nullopt on malformed or incomplete payloads
/// (which a journal checksum pass should already have excluded).
std::optional<scenario::AbResult> decode_ab(std::string_view payload);

/// Reassembles one sweep point from its seed-range shard payloads, in
/// shard order: the same AbResult::merge and AbResult::finish the A/B
/// runner folds its runs with, so a one-chunk supervised point is
/// bit-identical to the monolithic run. Shards that failed to decode or
/// were quarantined must be dropped by the caller first; an empty list
/// yields nullopt.
std::optional<scenario::AbResult> merge_ab_payloads(
    const std::vector<std::string>& payloads);

}  // namespace vgr::sweep
