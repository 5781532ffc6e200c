#include "vgr/net/codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <initializer_list>
#include <limits>

namespace vgr::net {
namespace {

LongPositionVector sample_lpv() {
  LongPositionVector pv;
  pv.address = GnAddress{GnAddress::StationType::kPassengerCar, MacAddress{0xA1B2C3D4E5ULL}};
  pv.timestamp = sim::TimePoint::at(sim::Duration::seconds(12.5));
  pv.position = {1234.5, -7.25};
  pv.speed_mps = 29.7;
  pv.heading_rad = 3.14159;
  return pv;
}

Packet sample_beacon() {
  Packet p;
  p.basic.remaining_hop_limit = 1;
  p.basic.lifetime = sim::Duration::seconds(3.0);
  p.common.type = CommonHeader::HeaderType::kBeacon;
  p.common.max_hop_limit = 1;
  p.extended = BeaconHeader{sample_lpv()};
  return p;
}

Packet sample_gbc() {
  Packet p;
  p.basic.remaining_hop_limit = 10;
  p.common.type = CommonHeader::HeaderType::kGeoBroadcast;
  p.common.max_hop_limit = 10;
  p.extended = GbcHeader{42, sample_lpv(), geo::GeoArea::circle({4020.0, 2.5}, 30.0)};
  p.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  return p;
}

Packet sample_guc() {
  Packet p;
  p.common.type = CommonHeader::HeaderType::kGeoUnicast;
  ShortPositionVector dest;
  dest.address = GnAddress{GnAddress::StationType::kRoadSideUnit, MacAddress{0xF00DULL}};
  dest.timestamp = sim::TimePoint::at(sim::Duration::seconds(1.0));
  dest.position = {-20.0, 2.5};
  p.extended = GucHeader{7, sample_lpv(), dest};
  p.payload = {0xDE, 0xAD};
  return p;
}

TEST(ByteWriterReader, ScalarsRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-12345.6789);
  ByteReader r{w.data()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), -12345.6789);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriterReader, BytesLengthPrefixed) {
  ByteWriter w;
  w.bytes({1, 2, 3});
  w.bytes({});
  ByteReader r{w.data()};
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.bytes(), Bytes{});
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriterReader, TruncationReturnsNullopt) {
  ByteWriter w;
  w.u32(1);
  Bytes data = w.data();
  data.pop_back();
  ByteReader r{data};
  EXPECT_EQ(r.u32(), std::nullopt);
}

TEST(ByteWriterReader, BytesWithLyingLengthFails) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r{w.data()};
  EXPECT_EQ(r.bytes(), std::nullopt);
}

TEST(ByteWriterReader, HostileLengthPrefixRejectedBeforeAllocation) {
  // A 4-byte frame claiming 4 GiB - 1 of content must fail cleanly; the
  // length check happens before any buffer is sized from the prefix.
  ByteWriter w;
  w.u32(0xFFFFFFFFu);
  ByteReader r{w.data()};
  EXPECT_EQ(r.bytes(), std::nullopt);
}

TEST(ByteWriterReader, ChunkAboveWireMaximumRejected) {
  // Even when the bytes are genuinely present, a chunk larger than the
  // documented wire maximum is rejected — no standards-conformant frame is
  // that big, so it can only be hostile or corrupt.
  ByteWriter w;
  w.bytes(Bytes(kMaxChunkBytes + 1, 0x55));
  ByteReader r{w.data()};
  EXPECT_EQ(r.bytes(), std::nullopt);

  ByteWriter ok;
  ok.bytes(Bytes(kMaxChunkBytes, 0x55));
  ByteReader r2{ok.data()};
  const auto chunk = r2.bytes();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->size(), kMaxChunkBytes);
}

Packet sample_ack() {
  Packet p;
  p.common.type = CommonHeader::HeaderType::kAck;
  p.extended = AckHeader{
      sample_lpv(),
      GnAddress{GnAddress::StationType::kRoadSideUnit, MacAddress{0x1234ULL}}, 42};
  return p;
}

/// One sample per wire header type — the parameterized suites below must
/// stay exhaustive so the arithmetic `wire_size`/`signed_portion_size` can
/// never drift from the real encoder for any packet kind.
constexpr int kPacketKindCount = 4;

Packet sample_kind(int kind) {
  switch (kind) {
    case 0: return sample_beacon();
    case 1: return sample_gbc();
    case 2: return sample_guc();
    default: return sample_ack();
  }
}

class CodecRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  Packet make() const { return sample_kind(GetParam()); }
};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const Packet p = make();
  const auto decoded = Codec::decode(Codec::encode(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

TEST_P(CodecRoundTrip, WireSizeMatchesEncoding) {
  // Pins the arithmetic size against the real encoder, including at payload
  // sizes other than the sample's (empty and large) — the hot path trusts
  // wire_size() for airtime without ever serializing.
  Packet p = make();
  EXPECT_EQ(Codec::wire_size(p), Codec::encode(p).size());
  p.payload.clear();
  EXPECT_EQ(Codec::wire_size(p), Codec::encode(p).size());
  p.payload.assign(1021, 0x5C);
  EXPECT_EQ(Codec::wire_size(p), Codec::encode(p).size());
}

TEST_P(CodecRoundTrip, SignedPortionSizeMatchesEncoding) {
  Packet p = make();
  EXPECT_EQ(Codec::signed_portion_size(p), Codec::encode_signed_portion(p).size());
  p.payload.assign(509, 0x11);
  EXPECT_EQ(Codec::signed_portion_size(p), Codec::encode_signed_portion(p).size());
}

TEST_P(CodecRoundTrip, TruncatedWireNeverDecodes) {
  const Packet p = make();
  Bytes wire = Codec::encode(p);
  // Every strict prefix must fail to decode (no partial packets).
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(Codec::decode(prefix), std::nullopt) << "prefix length " << len;
  }
}

TEST_P(CodecRoundTrip, TrailingGarbageRejected) {
  Bytes wire = Codec::encode(make());
  wire.push_back(0x00);
  EXPECT_EQ(Codec::decode(wire), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CodecRoundTrip,
                         ::testing::Range(0, kPacketKindCount));

TEST(Codec, SignedPortionExcludesBasicHeader) {
  Packet p = sample_gbc();
  const Bytes before = Codec::encode_signed_portion(p);
  // Mutating any basic-header field must not change the signed bytes —
  // this is the integrity gap the paper's attack #2 exploits.
  p.basic.remaining_hop_limit = 1;
  p.basic.lifetime = sim::Duration::seconds(1.0);
  p.basic.version = 2;
  EXPECT_EQ(Codec::encode_signed_portion(p), before);
}

TEST(Codec, SignedPortionCoversCommonHeader) {
  Packet p = sample_gbc();
  const Bytes before = Codec::encode_signed_portion(p);
  p.common.traffic_class = 3;
  EXPECT_NE(Codec::encode_signed_portion(p), before);
}

TEST(Codec, SignedPortionCoversPayload) {
  Packet p = sample_gbc();
  const Bytes before = Codec::encode_signed_portion(p);
  p.payload[0] ^= 0xFF;
  EXPECT_NE(Codec::encode_signed_portion(p), before);
}

TEST(Codec, SignedPortionCoversSourcePv) {
  Packet p = sample_gbc();
  const Bytes before = Codec::encode_signed_portion(p);
  p.gbc()->source_pv.position.x += 1.0;
  EXPECT_NE(Codec::encode_signed_portion(p), before);
}

TEST(Codec, SignedPortionCoversArea) {
  Packet p = sample_gbc();
  const Bytes before = Codec::encode_signed_portion(p);
  p.gbc()->area = geo::GeoArea::circle({0.0, 0.0}, 10.0);
  EXPECT_NE(Codec::encode_signed_portion(p), before);
}

TEST(Codec, DecodeRejectsUnknownHeaderType) {
  // 3 (GeoAnycast), 5 (TSB), 6 (SHB) and 7/8 (Location Service) are ETSI
  // kinds the simulator does not model; a peer sending them must die at
  // decode. GeoAnycast shares GBC's layout, so a GBC image is the case
  // where only the type byte can reject the frame.
  const Bytes pristine = Codec::encode(sample_gbc());
  for (const std::uint8_t type : std::initializer_list<std::uint8_t>{3, 5, 6, 7, 8, 0x7F}) {
    Bytes wire = pristine;
    // The header type byte is the first byte of the length-prefixed body:
    // basic header is 1 (version) + 1 (rhl) + 8 (lifetime) + 4 (length).
    wire[14] = type;
    EXPECT_EQ(Codec::decode(wire), std::nullopt) << "type byte " << int{type};
  }
}

TEST(Codec, DecodeRejectsNonPositiveAreaExtent) {
  Bytes wire = Codec::encode(sample_gbc());
  // Wire layout: basic header (10B) + body length (4B) + type/tclass/mhl
  // (3B) + sn (2B) + LPV (48B) + area shape (1B) + center (16B) + `a` (8B).
  constexpr std::size_t kAreaAOffset = 10 + 4 + 3 + 2 + 48 + 1 + 16;
  for (std::size_t i = 0; i < 8; ++i) wire[kAreaAOffset + i] = 0;  // a = +0.0
  EXPECT_EQ(Codec::decode(wire), std::nullopt);
}

TEST(Codec, DecodeRejectsNonFinitePositionVectorFields) {
  // Each LPV double (x, y, speed, heading) poisoned with NaN or inf must
  // fail decode so it can never reach a LocationTable.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (int field = 0; field < 4; ++field) {
      Packet p = sample_beacon();
      LongPositionVector pv = sample_lpv();
      switch (field) {
        case 0: pv.position.x = bad; break;
        case 1: pv.position.y = bad; break;
        case 2: pv.speed_mps = bad; break;
        default: pv.heading_rad = bad; break;
      }
      p.extended = BeaconHeader{pv};
      EXPECT_EQ(Codec::decode(Codec::encode(p)), std::nullopt)
          << "field " << field << " value " << bad;
    }
  }
}

TEST(Codec, DecodeRejectsNonFiniteAreaFields) {
  Packet p = sample_gbc();
  GbcHeader gbc = *p.gbc();
  gbc.area = geo::GeoArea::circle({std::numeric_limits<double>::quiet_NaN(), 0.0}, 30.0);
  p.extended = gbc;
  EXPECT_EQ(Codec::decode(Codec::encode(p)), std::nullopt);
}

TEST(Codec, DecodeRejectsNaNAreaExtent) {
  // NaN compares false with everything, so a bare `a <= 0` check would have
  // accepted a NaN radius; the finiteness check must catch it.
  Bytes wire = Codec::encode(sample_gbc());
  constexpr std::size_t kAreaAOffset = 10 + 4 + 3 + 2 + 48 + 1 + 16;
  const auto nan_bits = std::bit_cast<std::array<std::uint8_t, 8>>(
      std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < 8; ++i) wire[kAreaAOffset + i] = nan_bits[i];
  EXPECT_EQ(Codec::decode(wire), std::nullopt);
}

TEST(Codec, DecodeRejectsOversizedPayload) {
  Packet p = sample_gbc();
  p.payload = Bytes(kMaxPayloadBytes + 1, 0xAA);
  EXPECT_EQ(Codec::decode(Codec::encode(p)), std::nullopt);
  p.payload = Bytes(kMaxPayloadBytes, 0xAA);
  const auto decoded = Codec::decode(Codec::encode(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), kMaxPayloadBytes);
}

TEST(Packet, DuplicateKeyPresence) {
  EXPECT_FALSE(sample_beacon().duplicate_key().has_value());
  const auto gbc_key = sample_gbc().duplicate_key();
  ASSERT_TRUE(gbc_key.has_value());
  EXPECT_EQ(gbc_key->second, 42);
  const auto guc_key = sample_guc().duplicate_key();
  ASSERT_TRUE(guc_key.has_value());
  EXPECT_EQ(guc_key->second, 7);
}

TEST(Packet, SourcePvUniformAccessor) {
  EXPECT_EQ(sample_beacon().source_pv().address, sample_lpv().address);
  EXPECT_EQ(sample_gbc().source_pv().position, sample_lpv().position);
  EXPECT_EQ(sample_guc().source_pv().speed_mps, sample_lpv().speed_mps);
}

TEST(Packet, ToStringMentionsKindAndRhl) {
  const std::string s = to_string(sample_gbc());
  EXPECT_NE(s.find("gbc"), std::string::npos);
  EXPECT_NE(s.find("rhl=10"), std::string::npos);
}

}  // namespace
}  // namespace vgr::net
