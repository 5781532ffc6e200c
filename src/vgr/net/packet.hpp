#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "vgr/geo/area.hpp"
#include "vgr/net/address.hpp"
#include "vgr/net/position_vector.hpp"

namespace vgr::net {

using Bytes = std::vector<std::uint8_t>;
using SequenceNumber = std::uint16_t;

/// Basic Header (ETSI EN 302 636-4-1 §9.6). Crucially this header — and the
/// Remaining Hop Limit (RHL) it carries — sits *outside* the security
/// envelope, so forwarders can decrement RHL without re-signing. That design
/// choice is vulnerability #3 of the paper: an attacker may rewrite RHL on a
/// captured packet without invalidating the source's signature.
struct BasicHeader {
  std::uint8_t version{1};
  std::uint8_t remaining_hop_limit{10};
  sim::Duration lifetime{sim::Duration::seconds(60.0)};

  friend bool operator==(const BasicHeader&, const BasicHeader&) = default;
};

/// Common Header (ETSI §9.7) — integrity protected.
struct CommonHeader {
  /// The gaps are ETSI kinds this simulator does not model (GeoAnycast 3,
  /// TSB 5, SHB 6, Location Service 7/8): a frame carrying one fails decode.
  enum class HeaderType : std::uint8_t {
    kBeacon = 1,
    kGeoUnicast = 2,
    kGeoBroadcast = 4,
    kAck = 9,
  };

  HeaderType type{HeaderType::kBeacon};
  std::uint8_t traffic_class{0};
  std::uint8_t max_hop_limit{10};

  friend bool operator==(const CommonHeader&, const CommonHeader&) = default;
};

/// Extended header for beacons: just the sender's LPV.
struct BeaconHeader {
  LongPositionVector source_pv{};
  friend bool operator==(const BeaconHeader&, const BeaconHeader&) = default;
};

/// Extended header for GeoBroadcast: source PV, sequence number (duplicate
/// detection key together with the source address) and the destination area.
struct GbcHeader {
  SequenceNumber sequence_number{0};
  LongPositionVector source_pv{};
  geo::GeoArea area{geo::GeoArea::circle({}, 1.0)};
  friend bool operator==(const GbcHeader&, const GbcHeader&) = default;
};

/// Extended header for GeoUnicast.
struct GucHeader {
  SequenceNumber sequence_number{0};
  LongPositionVector source_pv{};
  ShortPositionVector destination{};
  friend bool operator==(const GucHeader&, const GucHeader&) = default;
};

/// Link-layer-style forwarding acknowledgement (extension, not ETSI): sent
/// back to the previous hop when `RouterConfig::gf_ack` is enabled. Used to
/// quantify the ACK alternative the paper's §V-A dismisses.
struct AckHeader {
  LongPositionVector source_pv{};
  GnAddress acked_source{};             ///< source of the acknowledged packet
  SequenceNumber acked_sequence{0};     ///< its sequence number
  friend bool operator==(const AckHeader&, const AckHeader&) = default;
};

using ExtendedHeader = std::variant<BeaconHeader, GbcHeader, GucHeader, AckHeader>;

/// A complete GeoNetworking packet. `basic` is mutable per hop (RHL);
/// `common`, `extended` and `payload` form the signed portion.
struct Packet {
  BasicHeader basic{};
  CommonHeader common{};
  ExtendedHeader extended{BeaconHeader{}};
  Bytes payload{};

  [[nodiscard]] bool is_beacon() const {
    return std::holds_alternative<BeaconHeader>(extended);
  }
  [[nodiscard]] const BeaconHeader* beacon() const {
    return std::get_if<BeaconHeader>(&extended);
  }
  [[nodiscard]] const GbcHeader* gbc() const { return std::get_if<GbcHeader>(&extended); }
  [[nodiscard]] GbcHeader* gbc() { return std::get_if<GbcHeader>(&extended); }
  [[nodiscard]] const GucHeader* guc() const { return std::get_if<GucHeader>(&extended); }
  [[nodiscard]] GucHeader* guc() { return std::get_if<GucHeader>(&extended); }
  [[nodiscard]] const AckHeader* ack() const { return std::get_if<AckHeader>(&extended); }

  /// Source LPV regardless of packet flavour.
  [[nodiscard]] const LongPositionVector& source_pv() const;

  /// Duplicate-detection key: (source address, sequence number), defined for
  /// GBC/GUC packets only.
  [[nodiscard]] std::optional<std::pair<GnAddress, SequenceNumber>> duplicate_key() const;

  friend bool operator==(const Packet&, const Packet&) = default;
};

std::string to_string(const Packet& p);

}  // namespace vgr::net
