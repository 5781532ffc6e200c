// Structure-aware mutation fuzzer for the GeoNetworking wire codec and the
// router's hardened ingest path (docs/robustness.md).
//
// Unlike a coverage-guided fuzzer this needs no external engine: it derives
// every input deterministically from a seed, so a failing iteration number
// reproduces exactly (`fuzz_codec <iters> <seed>`). The corpus is one valid
// encoded packet per extended-header type; mutations are the shapes a
// hostile or fault-ridden channel actually produces:
//
//   * truncation    — any prefix of a valid wire image
//   * bit flips     — 1..8 flipped bits (burst noise, the fault injector);
//                     a flipped type byte also yields the unmodelled kinds
//                     3 and 5..8, which decode must reject
//   * splice        — prefix of one packet + suffix of another
//   * length tamper — 32-bit length prefixes overwritten with huge values
//                     (the classic allocation-bomb vector)
//   * garbage       — uniformly random bytes, arbitrary length
//   * live replay   — *valid* signed packets against the recovery-enabled
//                     router: unicasts/broadcasts toward an empty horizon
//                     park in the SCF buffer, fresh beacons flush it and arm
//                     retransmission, and a bounded number of event-queue
//                     steps fires the retry/expiry/backoff timers in situ
//
// Every mutant goes through Codec::decode; every successful decode must
// re-encode and decode back to an equal packet (round-trip invariant), and
// every mutant — decodable or not — is additionally fed to a live Router
// (SCF, bounded retransmission and the neighbour monitor all enabled) via
// its ingest path, which must neither crash nor trip a sanitizer. Exit code
// 0 means every invariant held for every iteration.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "vgr/gn/router.hpp"
#include "vgr/net/codec.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/sim/random.hpp"

namespace {

using namespace vgr;

net::LongPositionVector sample_lpv() {
  net::LongPositionVector pv;
  pv.address = net::GnAddress{net::GnAddress::StationType::kPassengerCar,
                              net::MacAddress{0xA1B2C3D4E5ULL}};
  pv.timestamp = sim::TimePoint::at(sim::Duration::seconds(12.5));
  pv.position = {1234.5, -7.25};
  pv.speed_mps = 29.7;
  pv.heading_rad = 1.25;
  return pv;
}

net::ShortPositionVector sample_spv() {
  net::ShortPositionVector pv;
  pv.address = net::GnAddress{net::GnAddress::StationType::kRoadSideUnit, net::MacAddress{0xF00DULL}};
  pv.timestamp = sim::TimePoint::at(sim::Duration::seconds(1.0));
  pv.position = {-20.0, 2.5};
  return pv;
}

/// One valid packet per extended-header type — the fuzzer's seed corpus.
std::vector<net::Packet> build_corpus() {
  using HT = net::CommonHeader::HeaderType;
  const geo::GeoArea area = geo::GeoArea::circle({4020.0, 2.5}, 30.0);
  std::vector<net::Packet> corpus;
  const auto base = [](HT type, std::uint8_t hops) {
    net::Packet p;
    p.basic.remaining_hop_limit = hops;
    p.basic.lifetime = sim::Duration::seconds(3.0);
    p.common.type = type;
    p.common.max_hop_limit = hops;
    return p;
  };

  net::Packet p = base(HT::kBeacon, 1);
  p.extended = net::BeaconHeader{sample_lpv()};
  corpus.push_back(p);

  p = base(HT::kGeoBroadcast, 10);
  p.extended = net::GbcHeader{42, sample_lpv(), area};
  p.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  corpus.push_back(p);

  p = base(HT::kGeoUnicast, 10);
  p.extended = net::GucHeader{7, sample_lpv(), sample_spv()};
  p.payload = {0xDE, 0xAD};
  corpus.push_back(p);

  p = base(HT::kAck, 1);
  p.extended = net::AckHeader{sample_lpv(), sample_spv().address, 99};
  corpus.push_back(p);
  return corpus;
}

// The driver threads its one master stream through the mutator by design:
// the replayable artifact is the whole mutation *sequence* from the seed,
// and the fuzzer has no simulation-determinism surface of its own.
// vgr-lint: begin rng-stream-ok (single-owner driver stream, sequence is the replay key)
net::Bytes mutate(const std::vector<net::Bytes>& wires, sim::Rng& mut_rng) {
  const auto pick = [&]() -> const net::Bytes& {
    return wires[static_cast<std::size_t>(
        mut_rng.uniform_int(0, static_cast<std::int64_t>(wires.size()) - 1))];
  };
  net::Bytes out;
  switch (mut_rng.uniform_int(0, 4)) {
    case 0: {  // truncation: any prefix, including empty
      const net::Bytes& src = pick();
      out.assign(src.begin(),
                 src.begin() + mut_rng.uniform_int(0, static_cast<std::int64_t>(src.size())));
      break;
    }
    case 1: {  // bit flips
      out = pick();
      const std::int64_t flips = mut_rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < flips && !out.empty(); ++i) {
        const auto bit = static_cast<std::size_t>(
            mut_rng.uniform_int(0, static_cast<std::int64_t>(out.size()) * 8 - 1));
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 2: {  // splice two corpus entries at independent cut points
      const net::Bytes& a = pick();
      const net::Bytes& b = pick();
      out.assign(a.begin(), a.begin() + mut_rng.uniform_int(0, static_cast<std::int64_t>(a.size())));
      const auto cut = mut_rng.uniform_int(0, static_cast<std::int64_t>(b.size()));
      out.insert(out.end(), b.begin() + cut, b.end());
      break;
    }
    case 3: {  // length tamper: overwrite an aligned-ish u32 with a huge value
      out = pick();
      if (out.size() >= 4) {
        const auto at = static_cast<std::size_t>(
            mut_rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 4));
        const std::uint32_t bomb =
            mut_rng.bernoulli(0.5) ? 0xFFFFFFFFu : static_cast<std::uint32_t>(mut_rng.next_u64());
        for (int i = 0; i < 4; ++i) {
          out[at + static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(bomb >> (8 * (3 - i)));
        }
      }
      break;
    }
    default: {  // pure garbage
      out.resize(static_cast<std::size_t>(mut_rng.uniform_int(0, 96)));
      for (auto& byte : out) byte = static_cast<std::uint8_t>(mut_rng.next_u64());
      break;
    }
  }
  return out;
}
// vgr-lint: end

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t iterations = argc > 1 ? std::atoll(argv[1]) : 100000;
  const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 0x5EEDF00Du;

  const std::vector<net::Packet> corpus = build_corpus();
  std::vector<net::Bytes> wires;
  wires.reserve(corpus.size());
  for (const auto& p : corpus) {
    wires.push_back(net::Codec::encode(p));
    if (!net::Codec::decode(wires.back()).has_value()) {
      std::fprintf(stderr, "FATAL: pristine corpus entry failed to decode\n");
      return 1;
    }
  }

  // A live router on a real medium: mutants arrive through the same ingest
  // path a fault-injected delivery uses (Frame::raw), so decode failures,
  // semantic rejections and signature failures are all exercised in situ.
  // The full recovery layer is enabled so the replay strategy below drives
  // the SCF buffer, the retransmission state machine and the neighbour
  // monitor with hostile traffic interleaved.
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  security::CertificateAuthority ca;
  gn::StaticMobility mobility{geo::Position{0.0, 0.0}};
  const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0x77}};
  gn::RouterConfig router_config = gn::RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
  router_config.scf_enabled = true;
  router_config.scf_max_packets = 8;
  router_config.scf_max_bytes = 4096;
  router_config.retx_enabled = true;
  router_config.retx_max_attempts = 2;
  router_config.nbr_monitor = true;
  gn::Router router{events,
                    medium,
                    security::Signer{ca.enroll(addr)},
                    ca.trust_store(),
                    mobility,
                    router_config,
                    486.0,
                    sim::Rng{seed ^ 0x0123'4567'89AB'CDEFULL}};

  const net::GnAddress peer{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0x99}};
  security::Signer peer_signer{ca.enroll(peer)};
  phy::Frame frame;
  frame.src = peer.mac();
  frame.msg = security::share(security::SecuredMessage::sign(corpus[1], peer_signer));

  // Enrolled neighbours for the live-replay strategy: their fresh beacons
  // turn into location-table entries and flush the SCF buffer.
  std::vector<std::pair<net::GnAddress, security::Signer>> neighbors;
  for (std::uint64_t k = 0; k < 4; ++k) {
    const net::GnAddress a{net::GnAddress::StationType::kPassengerCar,
                           net::MacAddress{0x1111ULL + k}};
    neighbors.emplace_back(a, security::Signer{ca.enroll(a)});
  }

  sim::Rng rng{seed};
  std::int64_t decode_ok = 0;
  std::int64_t decode_rejected = 0;
  std::int64_t replayed = 0;
  std::uint16_t replay_sn = 1000;
  for (std::int64_t i = 0; i < iterations; ++i) {
    // Sixth strategy (~1/16 of iterations): craft a *valid* signed packet and
    // run it through the live router, then step the event queue so the SCF
    // retry, lifetime-expiry and retransmission timers fire amid the mutant
    // barrage. Unicasts/broadcasts toward the empty east horizon cannot be
    // forwarded and park in the SCF buffer; a fresh beacon from an enrolled
    // neighbour then flushes them and arms the per-hop retransmission timer.
    if (rng.uniform_int(0, 15) == 0) {
      ++replayed;
      const sim::TimePoint now = events.now();
      net::LongPositionVector so = sample_lpv();
      so.address = peer;
      so.timestamp = now;
      so.position = {-100.0, 0.0};
      net::Packet p;
      p.basic.remaining_hop_limit = 8;
      p.basic.lifetime = sim::Duration::seconds(0.5);
      p.common.max_hop_limit = 8;
      phy::Frame live;
      live.src = peer.mac();
      live.dst = addr.mac();
      switch (rng.uniform_int(0, 2)) {
        case 0: {  // GUC toward the empty horizon -> SCF buffer (+ hop ACK)
          net::ShortPositionVector de;
          de.address = net::GnAddress{net::GnAddress::StationType::kPassengerCar,
                                      net::MacAddress{0xD0D0ULL}};
          de.timestamp = now;
          de.position = {2500.0, 0.0};
          p.common.type = net::CommonHeader::HeaderType::kGeoUnicast;
          p.extended = net::GucHeader{replay_sn++, so, de};
          p.payload = {0x42, 0x43};
          live.msg = security::share(security::SecuredMessage::sign(p, peer_signer));
          break;
        }
        case 1: {  // GBC whose area lies beyond every neighbour -> SCF buffer
          p.common.type = net::CommonHeader::HeaderType::kGeoBroadcast;
          p.extended = net::GbcHeader{replay_sn++, so,
                                      geo::GeoArea::circle({2500.0, 0.0}, 150.0)};
          p.payload = {0x51};
          live.msg = security::share(security::SecuredMessage::sign(p, peer_signer));
          break;
        }
        default: {  // fresh beacon from an enrolled neighbour -> SCF flush
          const auto& [nbr, signer] = neighbors[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(neighbors.size()) - 1))];
          so.address = nbr;
          so.position = {400.0, 0.0};  // in range, with progress toward the east
          p.basic.remaining_hop_limit = 1;
          p.common.type = net::CommonHeader::HeaderType::kBeacon;
          p.common.max_hop_limit = 1;
          p.extended = net::BeaconHeader{so};
          live.src = nbr.mac();
          live.msg = security::share(security::SecuredMessage::sign(p, signer));
          break;
        }
      }
      router.ingest(live);
      for (int s = 0; s < 4 && events.step(); ++s) {
      }
      continue;
    }

    const net::Bytes mutant = mutate(wires, rng);

    const auto decoded = net::Codec::decode(mutant);
    if (decoded.has_value()) {
      ++decode_ok;
      // Round-trip invariant: anything decode accepts must re-encode to a
      // wire image that decodes back to the identical packet.
      const auto again = net::Codec::decode(net::Codec::encode(*decoded));
      if (!again.has_value() || !(*again == *decoded)) {
        std::fprintf(stderr, "FATAL: round-trip violation at iteration %lld (seed %llu)\n",
                     static_cast<long long>(i), static_cast<unsigned long long>(seed));
        return 1;
      }
    } else {
      ++decode_rejected;
    }

    frame.raw = mutant;
    router.ingest(frame);
  }

  const auto& stats = router.stats();
  const std::uint64_t semantic_drops = stats.ingest_invalid_pv + stats.ingest_invalid_rhl +
                                       stats.ingest_invalid_lifetime +
                                       stats.ingest_oversized_payload;
  std::printf("fuzz_codec: %lld iterations, seed %llu\n", static_cast<long long>(iterations),
              static_cast<unsigned long long>(seed));
  std::printf("  decode: %lld ok, %lld rejected\n", static_cast<long long>(decode_ok),
              static_cast<long long>(decode_rejected));
  std::printf("  router: %llu decode drops, %llu semantic drops, %llu auth failures\n",
              static_cast<unsigned long long>(stats.ingest_decode_failures),
              static_cast<unsigned long long>(semantic_drops),
              static_cast<unsigned long long>(stats.auth_failures));
  const auto& scf = router.scf().stats();
  std::printf("  replay: %lld live rounds (scf in=%llu flush=%llu expire=%llu drop=%llu, "
              "retx=%llu)\n",
              static_cast<long long>(replayed), static_cast<unsigned long long>(scf.inserted),
              static_cast<unsigned long long>(scf.flushed),
              static_cast<unsigned long long>(scf.expired),
              static_cast<unsigned long long>(scf.head_drops),
              static_cast<unsigned long long>(stats.retx_attempts));

  // Partition invariant: each fed frame increments at most one ingest drop
  // counter, so their sum can never exceed the number of frames fed. (Frames
  // that pass validation land in the auth/duplicate/handler counters.)
  if (stats.ingest_decode_failures + semantic_drops > static_cast<std::uint64_t>(iterations)) {
    std::fprintf(stderr, "FATAL: drop counters exceed frames fed\n");
    return 1;
  }
  return 0;
}
