// Unit tests for wire formats: serialization round-trips, checksums,
// whole-frame parse, rewrite helpers, flow hashing.
#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/random.h"
#include "net/arp.h"
#include "net/checksum.h"
#include "net/ethernet.h"
#include "net/igmp.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace portland::net {
namespace {

const MacAddress kMacA = MacAddress::from_u64(0x020000000001);
const MacAddress kMacB = MacAddress::from_u64(0x020000000002);
const Ipv4Address kIpA(10, 0, 0, 1);
const Ipv4Address kIpB(10, 3, 1, 2);

TEST(Ethernet, RoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  EthernetHeader h{kMacA, kMacB, to_u16(EtherType::kIpv4)};
  h.serialize(w);
  ASSERT_EQ(buf.size(), EthernetHeader::kSize);

  ByteReader r(buf);
  const EthernetHeader out = EthernetHeader::deserialize(r);
  EXPECT_EQ(out.dst, kMacA);
  EXPECT_EQ(out.src, kMacB);
  EXPECT_TRUE(out.is(EtherType::kIpv4));
}

TEST(Arp, RequestRoundTrip) {
  const ArpMessage req = ArpMessage::request(kMacA, kIpA, kIpB);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  req.serialize(w);
  ASSERT_EQ(buf.size(), ArpMessage::kSize);

  ByteReader r(buf);
  ArpMessage out;
  ASSERT_TRUE(ArpMessage::deserialize(r, &out));
  EXPECT_EQ(out.op, ArpOp::kRequest);
  EXPECT_EQ(out.sender_mac, kMacA);
  EXPECT_EQ(out.sender_ip, kIpA);
  EXPECT_TRUE(out.target_mac.is_zero());
  EXPECT_EQ(out.target_ip, kIpB);
  EXPECT_FALSE(out.is_gratuitous());
}

TEST(Arp, GratuitousDetected) {
  const ArpMessage garp = ArpMessage::gratuitous(kMacA, kIpA);
  EXPECT_TRUE(garp.is_gratuitous());
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  garp.serialize(w);
  ByteReader r(buf);
  ArpMessage out;
  ASSERT_TRUE(ArpMessage::deserialize(r, &out));
  EXPECT_TRUE(out.is_gratuitous());
}

TEST(Arp, RejectsNonEthernetIpv4) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(6);  // wrong htype
  w.u16(0x0800);
  w.u8(6);
  w.u8(4);
  w.u16(1);
  for (int i = 0; i < 20; ++i) w.u8(0);
  ByteReader r(buf);
  ArpMessage out;
  EXPECT_FALSE(ArpMessage::deserialize(r, &out));
}

TEST(Checksum, Rfc1071Example) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220D);
}

TEST(Checksum, OddLengthHandled) {
  const std::uint8_t data[] = {0xAB};
  // One byte pads as high lane: sum = 0xAB00 -> ~0xAB00.
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xAB00));
}

TEST(Checksum, WordSumMatchesByteAccumulator) {
  // internet_checksum sums 16-bit words; the incremental accumulator adds
  // one byte at a time. They must agree on every length, odd ones
  // included, and on the RFC 1071 example.
  const auto by_bytes = [](std::span<const std::uint8_t> data) {
    ChecksumAccumulator acc;
    acc.add_bytes(data);
    return acc.finish();
  };
  Rng rng(1071);
  std::vector<std::uint8_t> buf;
  for (std::size_t len = 0; len <= 1500; ++len) {
    buf.resize(len);
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(internet_checksum(buf), by_bytes(buf)) << "length " << len;
  }
  // All-ones words carry on every add.
  buf.assign(1499, 0xFF);
  EXPECT_EQ(internet_checksum(buf), by_bytes(buf));
  const std::uint8_t rfc[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(rfc), by_bytes(rfc));
  EXPECT_EQ(internet_checksum(rfc), 0x220D);
}

TEST(Ipv4, SerializeMatchesFieldByFieldEncoding) {
  Ipv4Header h;
  h.dscp = 0x2E;
  h.total_length = 1428;
  h.identification = 0xBEEF;
  h.ttl = 63;
  h.protocol = kProtocolTcp;
  h.src = kIpA;
  h.dst = kIpB;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);

  // The same header written field by field, checksummed by the byte-wise
  // accumulator.
  std::vector<std::uint8_t> want;
  ByteWriter ww(want);
  ww.u8(0x45);
  ww.u8(h.dscp);
  ww.u16(h.total_length);
  ww.u16(h.identification);
  ww.u16(0);
  ww.u8(h.ttl);
  ww.u8(h.protocol);
  ww.u16(0);
  h.src.serialize(ww);
  h.dst.serialize(ww);
  ChecksumAccumulator acc;
  acc.add_bytes(want);
  const std::uint16_t csum = acc.finish();
  want[10] = static_cast<std::uint8_t>(csum >> 8);
  want[11] = static_cast<std::uint8_t>(csum);
  EXPECT_EQ(buf, want);
}

TEST(Ipv4, RoundTripAndChecksum) {
  Ipv4Header h;
  h.total_length = 40;
  h.ttl = 17;
  h.protocol = kProtocolUdp;
  h.src = kIpA;
  h.dst = kIpB;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), Ipv4Header::kSize);

  ByteReader r(buf);
  Ipv4Header out;
  ASSERT_TRUE(Ipv4Header::deserialize(r, &out));
  EXPECT_EQ(out.total_length, 40);
  EXPECT_EQ(out.ttl, 17);
  EXPECT_EQ(out.protocol, kProtocolUdp);
  EXPECT_EQ(out.src, kIpA);
  EXPECT_EQ(out.dst, kIpB);
  EXPECT_EQ(out.payload_length(), 20);
}

TEST(Ipv4, CorruptionDetectedByChecksum) {
  Ipv4Header h;
  h.total_length = 20;
  h.protocol = kProtocolTcp;
  h.src = kIpA;
  h.dst = kIpB;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  buf[16] ^= 0x40;  // flip a bit in dst address

  ByteReader r(buf);
  Ipv4Header out;
  EXPECT_FALSE(Ipv4Header::deserialize(r, &out));
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.length = 28;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ByteReader r(buf);
  UdpHeader out;
  ASSERT_TRUE(UdpHeader::deserialize(r, &out));
  EXPECT_EQ(out.src_port, 1234);
  EXPECT_EQ(out.dst_port, 80);
  EXPECT_EQ(out.length, 28);
}

TEST(Tcp, FlagsRoundTrip) {
  TcpFlags f;
  f.syn = true;
  f.ack = true;
  const TcpFlags out = TcpFlags::from_byte(f.to_byte());
  EXPECT_TRUE(out.syn);
  EXPECT_TRUE(out.ack);
  EXPECT_FALSE(out.fin);
  EXPECT_FALSE(out.rst);
  EXPECT_EQ(out.to_string(), "SA");
}

TEST(Tcp, HeaderRoundTrip) {
  TcpHeader h;
  h.src_port = 49152;
  h.dst_port = 5001;
  h.seq = 0xDEADBEEF;
  h.ack = 0x01020304;
  h.flags.psh = true;
  h.flags.ack = true;
  h.window = 4096;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), TcpHeader::kSize);
  ByteReader r(buf);
  TcpHeader out;
  ASSERT_TRUE(TcpHeader::deserialize(r, &out));
  EXPECT_EQ(out.seq, 0xDEADBEEF);
  EXPECT_EQ(out.ack, 0x01020304u);
  EXPECT_TRUE(out.flags.psh);
  EXPECT_EQ(out.window, 4096);
}

TEST(Tcp, SeqArithmeticWrapsSafely) {
  EXPECT_TRUE(seq_lt(0xFFFFFFF0u, 0x00000010u));  // wrapped
  EXPECT_FALSE(seq_lt(0x00000010u, 0xFFFFFFF0u));
  EXPECT_TRUE(seq_leq(5, 5));
}

TEST(Igmp, RoundTrip) {
  const IgmpMessage m{IgmpType::kMembershipReport, Ipv4Address(224, 1, 2, 3)};
  const auto bytes = m.serialize();
  const auto out = IgmpMessage::deserialize(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, IgmpType::kMembershipReport);
  EXPECT_EQ(out->group, Ipv4Address(224, 1, 2, 3));
}

TEST(Igmp, MulticastMacMapping) {
  // 224.1.2.3 -> 01:00:5e:01:02:03 (low 23 bits).
  EXPECT_EQ(multicast_mac(Ipv4Address(224, 1, 2, 3)),
            MacAddress::parse("01:00:5e:01:02:03"));
  // Bit 23 of the group is dropped: 224.129.2.3 maps identically.
  EXPECT_EQ(multicast_mac(Ipv4Address(224, 129, 2, 3)),
            MacAddress::parse("01:00:5e:01:02:03"));
  EXPECT_TRUE(is_multicast_ip(Ipv4Address(224, 0, 0, 1)));
  EXPECT_FALSE(is_multicast_ip(Ipv4Address(10, 0, 0, 1)));
}

TEST(Packet, UdpFrameParsesBack) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto frame =
      build_udp_frame(kMacA, kMacB, kIpA, kIpB, 7000, 7001, payload);
  const ParsedFrame p = parse_frame(frame);
  ASSERT_TRUE(p.valid);
  ASSERT_TRUE(p.ipv4.has_value());
  ASSERT_TRUE(p.udp.has_value());
  EXPECT_EQ(p.eth.dst, kMacA);
  EXPECT_EQ(p.ipv4->src, kIpA);
  EXPECT_EQ(p.udp->dst_port, 7001);
  ASSERT_EQ(p.payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), p.payload.begin()));
}

TEST(Packet, TcpFrameParsesBack) {
  TcpHeader tcp;
  tcp.src_port = 33000;
  tcp.dst_port = 5001;
  tcp.seq = 77;
  tcp.flags.ack = true;
  const std::vector<std::uint8_t> payload(100, 0x5A);
  const auto frame = build_tcp_frame(kMacA, kMacB, kIpA, kIpB, tcp, payload);
  const ParsedFrame p = parse_frame(frame);
  ASSERT_TRUE(p.valid);
  ASSERT_TRUE(p.tcp.has_value());
  EXPECT_EQ(p.tcp->seq, 77u);
  EXPECT_EQ(p.payload.size(), 100u);
}

TEST(Packet, ArpFrameParsesBack) {
  const auto frame = build_arp_frame(MacAddress::broadcast(), kMacA,
                                     ArpMessage::request(kMacA, kIpA, kIpB));
  const ParsedFrame p = parse_frame(frame);
  ASSERT_TRUE(p.valid);
  ASSERT_TRUE(p.arp.has_value());
  EXPECT_EQ(p.arp->target_ip, kIpB);
}

TEST(Packet, TruncatedFramesAreInvalidNotFatal) {
  const auto frame =
      build_udp_frame(kMacA, kMacB, kIpA, kIpB, 1, 2, std::vector<std::uint8_t>(8, 0));
  // Every prefix must parse without crashing; short ones must be invalid.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const ParsedFrame p =
        parse_frame(std::span<const std::uint8_t>(frame.data(), len));
    if (len < EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize) {
      EXPECT_FALSE(p.valid) << "prefix length " << len;
    }
  }
}

TEST(Packet, FuzzedBytesNeverCrash) {
  std::uint64_t state = 0x1234;
  for (int iter = 0; iter < 2000; ++iter) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::vector<std::uint8_t> junk((state >> 33) % 120);
    std::uint64_t s = state;
    for (auto& b : junk) {
      s = s * 6364136223846793005ULL + 1;
      b = static_cast<std::uint8_t>(s >> 56);
    }
    (void)parse_frame(junk);  // must not crash or overread (ASAN-clean)
  }
}

TEST(Packet, FlowKeyAndHash) {
  const auto frame = build_udp_frame(kMacA, kMacB, kIpA, kIpB, 7000, 7001,
                                     std::vector<std::uint8_t>(8, 0));
  const ParsedFrame p = parse_frame(frame);
  const FlowKey key = flow_key_of(p);
  EXPECT_EQ(key.src_ip, kIpA);
  EXPECT_EQ(key.src_port, 7000);
  EXPECT_EQ(key.protocol, kProtocolUdp);

  // Same flow -> same hash; different port -> (almost surely) different.
  const std::uint64_t h1 = flow_hash(key);
  EXPECT_EQ(h1, flow_hash(key));
  FlowKey other = key;
  other.src_port = 7002;
  EXPECT_NE(h1, flow_hash(other));
}

TEST(Packet, RewriteEthSrcDst) {
  const auto frame = build_udp_frame(kMacA, kMacB, kIpA, kIpB, 1, 2,
                                     std::vector<std::uint8_t>(4, 0));
  const MacAddress pmac = MacAddress::from_u64(0x000100020001);
  const auto f2 = rewrite_eth_src(frame, pmac);
  EXPECT_EQ(parse_frame(f2).eth.src, pmac);
  EXPECT_EQ(parse_frame(f2).eth.dst, kMacA);  // unchanged
  const auto f3 = rewrite_eth_dst(f2, pmac);
  EXPECT_EQ(parse_frame(f3).eth.dst, pmac);
}

TEST(Packet, RewriteArpMacs) {
  const auto frame = build_arp_frame(MacAddress::broadcast(), kMacA,
                                     ArpMessage::request(kMacA, kIpA, kIpB));
  const MacAddress pmac = MacAddress::from_u64(0x000100020001);
  const auto f2 = rewrite_arp_mac(frame, /*sender=*/true, pmac);
  const ParsedFrame p2 = parse_frame(f2);
  ASSERT_TRUE(p2.arp.has_value());
  EXPECT_EQ(p2.arp->sender_mac, pmac);

  const auto f3 = rewrite_arp_mac(f2, /*sender=*/false, kMacB);
  const ParsedFrame p3 = parse_frame(f3);
  EXPECT_EQ(p3.arp->target_mac, kMacB);
  EXPECT_EQ(p3.arp->sender_mac, pmac);  // untouched
}

TEST(Packet, RawIpv4Builder) {
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  const auto frame =
      build_ipv4_frame(kMacA, kMacB, kIpA, kIpB, kProtocolIgmp, payload, 1);
  const ParsedFrame p = parse_frame(frame);
  ASSERT_TRUE(p.valid);
  ASSERT_TRUE(p.ipv4.has_value());
  EXPECT_EQ(p.ipv4->protocol, kProtocolIgmp);
  EXPECT_EQ(p.ipv4->ttl, 1);
  EXPECT_EQ(p.payload.size(), 3u);
}

}  // namespace
}  // namespace portland::net
