#include "vgr/sweep/ab_codec.hpp"

#include <cassert>
#include <type_traits>

#include "vgr/sweep/json.hpp"

namespace vgr::sweep {
namespace {

using scenario::AbResult;

void append_bin_array(std::string& out, const char* key, const sim::BinnedRate& bins,
                      bool hits) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < bins.bin_count(); ++i) {
    if (i > 0) out += ",";
    json_append_double(out, hits ? bins.bin_hits(i) : bins.bin_trials(i));
  }
  out += "]";
}

void append_totals(std::string& out, const char* key, const AbResult::ArmTotals& t) {
  out += "\"";
  out += key;
  out += "\":{";
  AbResult::ArmTotals::for_each_counter([&](const char* name, auto member, auto, auto) {
    out += out.back() == '{' ? "\"" : ",\"";
    out += name;
    out += "\":";
    if constexpr (std::is_same_v<std::decay_t<decltype(t.*member)>, double>) {
      json_append_double(out, t.*member);
    } else {
      out += std::to_string(t.*member);
    }
  });
  out += "}";
}

bool read_bins(const JsonValue& root, const char* key, sim::BinnedRate& bins, bool hits) {
  const JsonValue* arr = root.find(key);
  if (arr == nullptr || arr->kind != JsonValue::Kind::kArray ||
      arr->array.size() != bins.bin_count()) {
    return false;
  }
  for (std::size_t i = 0; i < arr->array.size(); ++i) {
    const double v = arr->array[i].as_double();
    if (hits) {
      bins.set_bin(i, v, bins.bin_trials(i));
    } else {
      bins.set_bin(i, bins.bin_hits(i), v);
    }
  }
  return true;
}

bool read_totals(const JsonValue& root, const char* key, AbResult::ArmTotals& t) {
  const JsonValue* obj = root.find(key);
  if (obj == nullptr || obj->kind != JsonValue::Kind::kObject) return false;
  AbResult::ArmTotals::for_each_counter([&](const char* name, auto member, auto, auto) {
    if constexpr (std::is_same_v<std::decay_t<decltype(t.*member)>, double>) {
      t.*member = obj->num(name);
    } else {
      t.*member = obj->u64(name);
    }
  });
  return true;
}

}  // namespace

std::string encode_ab(const AbResult& r) {
  assert(r.baseline.bin_count() == r.attacked.bin_count());
  std::string out = "{\"bin_ns\":" + std::to_string(r.baseline.bin_width().count());
  out += ",\"bins\":" + std::to_string(r.baseline.bin_count());
  out += ",";
  append_bin_array(out, "base_hits", r.baseline, true);
  out += ",";
  append_bin_array(out, "base_trials", r.baseline, false);
  out += ",";
  append_bin_array(out, "atk_hits", r.attacked, true);
  out += ",";
  append_bin_array(out, "atk_trials", r.attacked, false);
  out += ",\"attack_rate\":";
  json_append_double(out, r.attack_rate);
  out += ",\"baseline_reception\":";
  json_append_double(out, r.baseline_reception);
  out += ",\"attacked_reception\":";
  json_append_double(out, r.attacked_reception);
  out += ",\"rec_base_hits\":";
  json_append_double(out, r.reception_base_hits);
  out += ",\"rec_base_trials\":";
  json_append_double(out, r.reception_base_trials);
  out += ",\"rec_atk_hits\":";
  json_append_double(out, r.reception_atk_hits);
  out += ",\"rec_atk_trials\":";
  json_append_double(out, r.reception_atk_trials);
  out += ",\"runs\":" + std::to_string(r.runs);
  out += ",\"timed_out_runs\":" + std::to_string(r.timed_out_runs);
  out += ",\"timed_out_events\":" + std::to_string(r.timed_out_events);
  out += ",\"timed_out_wall\":" + std::to_string(r.timed_out_wall);
  out += ",";
  append_totals(out, "baseline_totals", r.baseline_totals);
  out += ",";
  append_totals(out, "attacked_totals", r.attacked_totals);
  out += "}";
  return out;
}

std::optional<AbResult> decode_ab(std::string_view payload) {
  const std::optional<JsonValue> parsed = json_parse(payload);
  if (!parsed.has_value() || parsed->kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue& root = *parsed;

  const auto bin_ns = static_cast<std::int64_t>(root.u64("bin_ns"));
  const std::uint64_t bins = root.u64("bins");
  if (bin_ns <= 0 || bins == 0) return std::nullopt;
  const sim::Duration bin_width = sim::Duration::nanos(bin_ns);
  const sim::Duration horizon =
      sim::Duration::nanos(bin_ns * static_cast<std::int64_t>(bins));

  AbResult r{sim::BinnedRate{bin_width, horizon}, sim::BinnedRate{bin_width, horizon}};
  if (!read_bins(root, "base_hits", r.baseline, true) ||
      !read_bins(root, "base_trials", r.baseline, false) ||
      !read_bins(root, "atk_hits", r.attacked, true) ||
      !read_bins(root, "atk_trials", r.attacked, false)) {
    return std::nullopt;
  }
  r.attack_rate = root.num("attack_rate");
  r.baseline_reception = root.num("baseline_reception");
  r.attacked_reception = root.num("attacked_reception");
  r.reception_base_hits = root.num("rec_base_hits");
  r.reception_base_trials = root.num("rec_base_trials");
  r.reception_atk_hits = root.num("rec_atk_hits");
  r.reception_atk_trials = root.num("rec_atk_trials");
  r.runs = root.u64("runs");
  r.timed_out_runs = root.u64("timed_out_runs");
  r.timed_out_events = root.u64("timed_out_events");
  r.timed_out_wall = root.u64("timed_out_wall");
  if (!read_totals(root, "baseline_totals", r.baseline_totals) ||
      !read_totals(root, "attacked_totals", r.attacked_totals)) {
    return std::nullopt;
  }
  return r;
}

std::optional<AbResult> merge_ab_payloads(const std::vector<std::string>& payloads) {
  std::optional<AbResult> merged;
  for (const std::string& payload : payloads) {
    std::optional<AbResult> shard = decode_ab(payload);
    if (!shard.has_value()) return std::nullopt;
    if (!merged.has_value()) {
      merged = std::move(shard);
    } else if (shard->baseline.bin_count() != merged->baseline.bin_count() ||
               shard->baseline.bin_width() != merged->baseline.bin_width()) {
      return std::nullopt;
    } else {
      merged->merge(*shard);
    }
  }
  if (merged.has_value()) merged->finish();
  return merged;
}

}  // namespace vgr::sweep
