#include "vgr/net/codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <initializer_list>

namespace vgr::net {

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  out_.insert(out_.end(), b.begin(), b.end());
}

std::optional<std::uint8_t> ByteReader::u8() {
  if (pos_ + 1 > in_.size()) return std::nullopt;
  return in_[pos_++];
}

std::optional<std::uint16_t> ByteReader::u16() {
  const auto lo = u8();
  const auto hi = u8();
  if (!lo || !hi) return std::nullopt;
  return static_cast<std::uint16_t>(*lo | (*hi << 8));
}

std::optional<std::uint32_t> ByteReader::u32() {
  const auto lo = u16();
  const auto hi = u16();
  if (!lo || !hi) return std::nullopt;
  return static_cast<std::uint32_t>(*lo) | (static_cast<std::uint32_t>(*hi) << 16);
}

std::optional<std::uint64_t> ByteReader::u64() {
  const auto lo = u32();
  const auto hi = u32();
  if (!lo || !hi) return std::nullopt;
  return static_cast<std::uint64_t>(*lo) | (static_cast<std::uint64_t>(*hi) << 32);
}

std::optional<double> ByteReader::f64() {
  const auto v = u64();
  if (!v) return std::nullopt;
  return std::bit_cast<double>(*v);
}

std::optional<Bytes> ByteReader::bytes() {
  const auto n = u32();
  if (!n) return std::nullopt;
  // Validate against remaining input (subtraction, not addition, so the
  // check cannot overflow) and the wire maximum before touching memory.
  if (*n > kMaxChunkBytes) return std::nullopt;
  if (*n > in_.size() - pos_) return std::nullopt;
  Bytes out(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
            in_.begin() + static_cast<std::ptrdiff_t>(pos_ + *n));
  pos_ += *n;
  return out;
}

namespace {

/// Decoded floating-point fields must be finite: a NaN/inf coordinate that
/// slipped into a LocationTable would poison every distance comparison (NaN
/// compares false with everything, so Greedy Forwarding would silently skip
/// or keep such a neighbour forever) and propagate through IDM math.
bool all_finite(std::initializer_list<double> vs) {
  for (const double v : vs) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void write_lpv(ByteWriter& w, const LongPositionVector& pv) {
  w.u64(pv.address.bits());
  w.u64(static_cast<std::uint64_t>(pv.timestamp.count()));
  w.f64(pv.position.x);
  w.f64(pv.position.y);
  w.f64(pv.speed_mps);
  w.f64(pv.heading_rad);
}

std::optional<LongPositionVector> read_lpv(ByteReader& r) {
  LongPositionVector pv;
  const auto addr = r.u64();
  const auto ts = r.u64();
  const auto x = r.f64();
  const auto y = r.f64();
  const auto speed = r.f64();
  const auto heading = r.f64();
  if (!addr || !ts || !x || !y || !speed || !heading) return std::nullopt;
  if (!all_finite({*x, *y, *speed, *heading})) return std::nullopt;
  pv.address = GnAddress::from_bits(*addr);
  pv.timestamp = sim::TimePoint::at(sim::Duration::nanos(static_cast<std::int64_t>(*ts)));
  pv.position = {*x, *y};
  pv.speed_mps = *speed;
  pv.heading_rad = *heading;
  return pv;
}

void write_spv(ByteWriter& w, const ShortPositionVector& pv) {
  w.u64(pv.address.bits());
  w.u64(static_cast<std::uint64_t>(pv.timestamp.count()));
  w.f64(pv.position.x);
  w.f64(pv.position.y);
}

std::optional<ShortPositionVector> read_spv(ByteReader& r) {
  ShortPositionVector pv;
  const auto addr = r.u64();
  const auto ts = r.u64();
  const auto x = r.f64();
  const auto y = r.f64();
  if (!addr || !ts || !x || !y) return std::nullopt;
  if (!all_finite({*x, *y})) return std::nullopt;
  pv.address = GnAddress::from_bits(*addr);
  pv.timestamp = sim::TimePoint::at(sim::Duration::nanos(static_cast<std::int64_t>(*ts)));
  pv.position = {*x, *y};
  return pv;
}

void write_area(ByteWriter& w, const geo::GeoArea& a) {
  w.u8(static_cast<std::uint8_t>(a.shape()));
  w.f64(a.center().x);
  w.f64(a.center().y);
  w.f64(a.a());
  w.f64(a.b());
  w.f64(a.azimuth());
}

std::optional<geo::GeoArea> read_area(ByteReader& r) {
  const auto shape = r.u8();
  const auto cx = r.f64();
  const auto cy = r.f64();
  const auto a = r.f64();
  const auto b = r.f64();
  const auto az = r.f64();
  if (!shape || !cx || !cy || !a || !b || !az) return std::nullopt;
  // NaN extents sail past a `<= 0` test (NaN compares false), so finiteness
  // comes first.
  if (!all_finite({*cx, *cy, *a, *b, *az})) return std::nullopt;
  if (*a <= 0.0 || *b <= 0.0) return std::nullopt;
  switch (static_cast<geo::GeoArea::Shape>(*shape)) {
    case geo::GeoArea::Shape::kCircle:
      return geo::GeoArea::circle({*cx, *cy}, *a);
    case geo::GeoArea::Shape::kRectangle:
      return geo::GeoArea::rectangle({*cx, *cy}, *a, *b, *az);
    case geo::GeoArea::Shape::kEllipse:
      return geo::GeoArea::ellipse({*cx, *cy}, *a, *b, *az);
  }
  return std::nullopt;
}

}  // namespace

Bytes Codec::encode_signed_portion(const Packet& p) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(p.common.type));
  w.u8(p.common.traffic_class);
  w.u8(p.common.max_hop_limit);
  if (const auto* b = p.beacon()) {
    write_lpv(w, b->source_pv);
  } else if (const auto* g = p.gbc()) {
    w.u16(g->sequence_number);
    write_lpv(w, g->source_pv);
    write_area(w, g->area);
  } else if (const auto* u = p.guc()) {
    w.u16(u->sequence_number);
    write_lpv(w, u->source_pv);
    write_spv(w, u->destination);
  } else if (const auto* a = p.ack()) {
    write_lpv(w, a->source_pv);
    w.u64(a->acked_source.bits());
    w.u16(a->acked_sequence);
  }
  w.bytes(p.payload);
  return w.take();
}

Bytes Codec::encode(const Packet& p) {
  ByteWriter w;
  w.u8(p.basic.version);
  w.u8(p.basic.remaining_hop_limit);
  w.u64(static_cast<std::uint64_t>(p.basic.lifetime.count()));
  const Bytes rest = encode_signed_portion(p);
  w.bytes(rest);
  return w.take();
}

std::optional<Packet> Codec::decode(const Bytes& wire) {
  ByteReader outer{wire};
  Packet p;
  const auto version = outer.u8();
  const auto rhl = outer.u8();
  const auto lifetime = outer.u64();
  const auto body = outer.bytes();
  if (!version || !rhl || !lifetime || !body || !outer.exhausted()) return std::nullopt;
  p.basic.version = *version;
  p.basic.remaining_hop_limit = *rhl;
  p.basic.lifetime = sim::Duration::nanos(static_cast<std::int64_t>(*lifetime));

  ByteReader r{*body};
  const auto type = r.u8();
  const auto tclass = r.u8();
  const auto mhl = r.u8();
  if (!type || !tclass || !mhl) return std::nullopt;
  p.common.type = static_cast<CommonHeader::HeaderType>(*type);
  p.common.traffic_class = *tclass;
  p.common.max_hop_limit = *mhl;

  switch (p.common.type) {
    case CommonHeader::HeaderType::kBeacon: {
      const auto pv = read_lpv(r);
      if (!pv) return std::nullopt;
      p.extended = BeaconHeader{*pv};
      break;
    }
    case CommonHeader::HeaderType::kGeoBroadcast: {
      const auto sn = r.u16();
      const auto pv = read_lpv(r);
      const auto area = read_area(r);
      if (!sn || !pv || !area) return std::nullopt;
      p.extended = GbcHeader{*sn, *pv, *area};
      break;
    }
    case CommonHeader::HeaderType::kGeoUnicast: {
      const auto sn = r.u16();
      const auto pv = read_lpv(r);
      const auto dest = read_spv(r);
      if (!sn || !pv || !dest) return std::nullopt;
      p.extended = GucHeader{*sn, *pv, *dest};
      break;
    }
    case CommonHeader::HeaderType::kAck: {
      const auto pv = read_lpv(r);
      const auto src = r.u64();
      const auto sn = r.u16();
      if (!pv || !src || !sn) return std::nullopt;
      p.extended = AckHeader{*pv, GnAddress::from_bits(*src), *sn};
      break;
    }
    default:  // includes the unmodelled kinds (see CommonHeader::HeaderType)
      return std::nullopt;
  }
  const auto payload = r.bytes();
  if (!payload || !r.exhausted()) return std::nullopt;
  if (payload->size() > kMaxPayloadBytes) return std::nullopt;
  p.payload = *payload;
  return p;
}

namespace {

// Fixed on-wire footprints of the composite fields written above. Each
// constant mirrors the corresponding write_* helper; net_codec_test pins the
// arithmetic against the real encoder for every header type, so a codec
// change that forgets to update these fails loudly.
constexpr std::size_t kLpvBytes = 6 * 8;   // address, timestamp, x, y, speed, heading
constexpr std::size_t kSpvBytes = 4 * 8;   // address, timestamp, x, y
constexpr std::size_t kAreaBytes = 1 + 5 * 8;  // shape tag + cx, cy, a, b, azimuth

std::size_t extended_header_size(const Packet& p) {
  if (p.beacon() != nullptr) return kLpvBytes;
  if (p.gbc() != nullptr) return 2 + kLpvBytes + kAreaBytes;
  if (p.guc() != nullptr) return 2 + kLpvBytes + kSpvBytes;
  if (p.ack() != nullptr) return kLpvBytes + 8 + 2;
  return 0;
}

}  // namespace

std::size_t Codec::signed_portion_size(const Packet& p) {
  // type + traffic_class + max_hop_limit, extended header, then the
  // length-prefixed payload.
  return 3 + extended_header_size(p) + 4 + p.payload.size();
}

std::size_t Codec::wire_size(const Packet& p) {
  // Basic header (version + rhl + lifetime) plus the length-prefixed signed
  // portion.
  return 1 + 1 + 8 + 4 + signed_portion_size(p);
}

}  // namespace vgr::net
