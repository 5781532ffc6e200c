#include "vgr/net/packet.hpp"

#include <cstdio>

namespace vgr::net {

const LongPositionVector& Packet::source_pv() const {
  return std::visit([](const auto& header) -> const LongPositionVector& {
    return header.source_pv;
  }, extended);
}

std::optional<std::pair<GnAddress, SequenceNumber>> Packet::duplicate_key() const {
  if (const auto* g = gbc()) return std::make_pair(g->source_pv.address, g->sequence_number);
  if (const auto* u = guc()) return std::make_pair(u->source_pv.address, u->sequence_number);
  return std::nullopt;  // beacons and ACKs are never forwarded
}

std::string to_string(const Packet& p) {
  const char* kind = "beacon";
  switch (p.common.type) {
    case CommonHeader::HeaderType::kBeacon: kind = "beacon"; break;
    case CommonHeader::HeaderType::kGeoUnicast: kind = "guc"; break;
    case CommonHeader::HeaderType::kGeoBroadcast: kind = "gbc"; break;
    case CommonHeader::HeaderType::kAck: kind = "ack"; break;
  }
  unsigned sn = 0;
  if (const auto key = p.duplicate_key(); key.has_value()) sn = key->second;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s(src=%s sn=%u rhl=%u payload=%zuB)", kind,
                to_string(p.source_pv().address).c_str(), sn,
                static_cast<unsigned>(p.basic.remaining_hop_limit), p.payload.size());
  return buf;
}

}  // namespace vgr::net
