// Serialization round-trips for every LDP and control-plane message, plus
// the PMAC codec and locator semantics, and the fabric manager's topology
// view fed with mutated control bytes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "core/fabric_graph.h"
#include "core/locator.h"
#include "core/messages.h"
#include "core/pmac.h"
#include "mutation.h"

namespace portland::core {
namespace {

TEST(Pmac, RoundTripAllFields) {
  const Pmac p{.pod = 0x01AB, .position = 7, .port = 3, .vmid = 0x0042};
  const MacAddress mac = p.to_mac();
  const Pmac out = Pmac::from_mac(mac);
  EXPECT_EQ(out, p);
  EXPECT_EQ(out.pod, 0x01AB);
  EXPECT_EQ(out.position, 7);
  EXPECT_EQ(out.port, 3);
  EXPECT_EQ(out.vmid, 0x0042);
}

TEST(Pmac, MacLayoutMatchesPaper) {
  // pod:16 . position:8 . port:8 . vmid:16, big-endian.
  const Pmac p{.pod = 0x0102, .position = 0x03, .port = 0x04, .vmid = 0x0506};
  EXPECT_EQ(p.to_mac().to_string(), "01:02:03:04:05:06");
}

TEST(Pmac, AmacSpaceDisjointFromPmacSpace) {
  for (std::uint32_t i = 1; i < 100; ++i) {
    EXPECT_FALSE(looks_like_pmac(make_amac(i)));
  }
  const Pmac p{.pod = 5, .position = 1, .port = 0, .vmid = 1};
  EXPECT_TRUE(looks_like_pmac(p.to_mac()));
}

TEST(Locator, LocatedSemantics) {
  SwitchLocator loc;
  loc.switch_id = 42;
  EXPECT_FALSE(loc.located());

  loc.level = Level::kCore;
  EXPECT_TRUE(loc.located());  // cores need no pod/position

  loc.level = Level::kAggregation;
  EXPECT_FALSE(loc.located());
  loc.pod = 3;
  EXPECT_TRUE(loc.located());

  loc.level = Level::kEdge;
  EXPECT_FALSE(loc.located());  // edges need position too
  loc.position = 1;
  EXPECT_TRUE(loc.located());
}

TEST(Ldp, LdmFrameRoundTrip) {
  LdpMessage m;
  m.type = LdpType::kLdm;
  m.from = SwitchLocator{0x1234, Level::kAggregation, 7, kUnknownPosition};
  m.sender_port = 3;
  const auto frame = m.to_frame();
  const auto out = LdpMessage::from_frame(frame);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, LdpType::kLdm);
  EXPECT_EQ(out->from, m.from);
  EXPECT_EQ(out->sender_port, 3);
}

TEST(Ldp, ProposalRoundTrip) {
  LdpMessage m;
  m.type = LdpType::kProposePosition;
  m.from = SwitchLocator{0x99, Level::kEdge, kUnknownPod, kUnknownPosition};
  m.position = 2;
  m.nonce = 0xCAFEBABE;
  const auto out = LdpMessage::from_frame(m.to_frame());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, LdpType::kProposePosition);
  EXPECT_EQ(out->position, 2);
  EXPECT_EQ(out->nonce, 0xCAFEBABE);
}

TEST(Ldp, RejectsNonLdpFrames) {
  std::vector<std::uint8_t> junk(40, 0);
  EXPECT_FALSE(LdpMessage::from_frame(junk).has_value());
}

/// Round-trips one control message and returns the parsed copy.
ControlMessage round_trip(ControlMessage in) {
  const auto bytes = serialize_control(in);
  const auto out = parse_control(bytes);
  EXPECT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, in.sender);
  return *out;
}

TEST(Control, SwitchHello) {
  SwitchHello hello;
  hello.self = SwitchLocator{0x1000, Level::kEdge, 2, 1};
  hello.neighbors.push_back(
      NeighborEntry{4, SwitchLocator{0x2000, Level::kAggregation, 2, 0}});
  hello.neighbors.push_back(
      NeighborEntry{5, SwitchLocator{0x2001, Level::kAggregation, 2, 1}});
  const auto out = round_trip({0x1000, hello});
  const auto& m = std::get<SwitchHello>(out.body);
  EXPECT_EQ(m.self, hello.self);
  ASSERT_EQ(m.neighbors.size(), 2u);
  EXPECT_EQ(m.neighbors[1], hello.neighbors[1]);
}

TEST(Control, PodRequestAndAssignment) {
  const auto req = round_trip({7, PodRequest{}});
  EXPECT_TRUE(std::holds_alternative<PodRequest>(req.body));
  const auto assign = round_trip({kFabricManagerId, PodAssignment{13}});
  EXPECT_EQ(std::get<PodAssignment>(assign.body).pod, 13);
}

TEST(Control, HostRegister) {
  HostRegister reg;
  reg.ip = Ipv4Address(10, 1, 0, 2);
  reg.amac = MacAddress::from_u64(0x020000000005);
  reg.pmac = MacAddress::from_u64(0x000100000001);
  reg.edge_port = 1;
  const auto out = round_trip({0x1003, reg});
  const auto& m = std::get<HostRegister>(out.body);
  EXPECT_EQ(m.ip, reg.ip);
  EXPECT_EQ(m.amac, reg.amac);
  EXPECT_EQ(m.pmac, reg.pmac);
  EXPECT_EQ(m.edge_port, 1);
}

TEST(Control, ArpQueryResponse) {
  const auto q = round_trip({5, ArpQuery{77, Ipv4Address(10, 2, 1, 1)}});
  EXPECT_EQ(std::get<ArpQuery>(q.body).query_id, 77u);

  ArpResponse resp{77, Ipv4Address(10, 2, 1, 1),
                   MacAddress::from_u64(0x000200010001), true};
  const auto r = round_trip({kFabricManagerId, resp});
  const auto& m = std::get<ArpResponse>(r.body);
  EXPECT_TRUE(m.found);
  EXPECT_EQ(m.pmac, resp.pmac);
}

TEST(Control, FaultNotify) {
  const auto out = round_trip({9, FaultNotify{3, 0x2002, false}});
  const auto& m = std::get<FaultNotify>(out.body);
  EXPECT_EQ(m.port, 3);
  EXPECT_EQ(m.neighbor, 0x2002u);
  EXPECT_FALSE(m.link_up);
}

TEST(Control, PruneUpdate) {
  PruneUpdate upd;
  upd.entries.push_back(PruneEntry{2, 1, 0x3001, true});
  upd.entries.push_back(PruneEntry{2, kUnknownPosition, 0x3002, false});
  const auto out = round_trip({kFabricManagerId, upd});
  const auto& m = std::get<PruneUpdate>(out.body);
  ASSERT_EQ(m.entries.size(), 2u);
  EXPECT_EQ(m.entries[0], upd.entries[0]);
  EXPECT_EQ(m.entries[1], upd.entries[1]);
}

TEST(Control, MulticastMessages) {
  const Ipv4Address group(224, 0, 1, 5);
  const auto join = round_trip({3, McastJoin{group, 1}});
  EXPECT_EQ(std::get<McastJoin>(join.body).host_port, 1);

  const auto leave = round_trip({3, McastLeave{group, 1}});
  EXPECT_EQ(std::get<McastLeave>(leave.body).group, group);

  const auto seen = round_trip({3, McastSenderSeen{group}});
  EXPECT_EQ(std::get<McastSenderSeen>(seen.body).group, group);

  McastInstall install;
  install.group = group;
  install.ports = {0, 2, 3};
  const auto inst = round_trip({kFabricManagerId, install});
  EXPECT_EQ(std::get<McastInstall>(inst.body).ports,
            (std::vector<std::uint16_t>{0, 2, 3}));

  const auto rem = round_trip({kFabricManagerId, McastRemove{group}});
  EXPECT_EQ(std::get<McastRemove>(rem.body).group, group);
}

TEST(Control, InvalidateHost) {
  InvalidateHost inv;
  inv.ip = Ipv4Address(10, 0, 0, 1);
  inv.old_pmac = MacAddress::from_u64(0x000000010001);
  inv.new_pmac = MacAddress::from_u64(0x000300010001);
  const auto out = round_trip({kFabricManagerId, inv});
  const auto& m = std::get<InvalidateHost>(out.body);
  EXPECT_EQ(m.old_pmac, inv.old_pmac);
  EXPECT_EQ(m.new_pmac, inv.new_pmac);
}

TEST(Control, GarbageRejected) {
  EXPECT_FALSE(parse_control(std::vector<std::uint8_t>{}).has_value());
  std::vector<std::uint8_t> junk(9, 0xFF);
  EXPECT_FALSE(parse_control(junk).has_value());
}

/// A fabric-manager topology view under arbitrary decoded reports, with
/// every link key it can hold tracked alongside so the failed-link count
/// can be recounted by brute force.
struct MutationSink {
  FabricGraph graph;
  std::set<std::pair<SwitchId, SwitchId>> keys;

  void apply(const ControlMessage& m) {
    if (const auto* h = std::get_if<SwitchHello>(&m.body)) {
      graph.apply_hello(m.sender, *h);
      for (const NeighborEntry& n : h->neighbors) {
        keys.insert(std::minmax(m.sender, n.neighbor.switch_id));
      }
    } else if (const auto* f = std::get_if<FaultNotify>(&m.body)) {
      graph.set_link_state(m.sender, f->neighbor, f->link_up);
      keys.insert(std::minmax(m.sender, f->neighbor));
    }
  }

  std::size_t brute_failed() const {
    std::size_t n = 0;
    for (const auto& [a, b] : keys) n += graph.link_alive(a, b) ? 0 : 1;
    return n;
  }
};

/// The hellos of a k=4 fat tree: edge 100 + 2*pod + e, agg 200 + 2*pod +
/// a, core 300 + 2*a + m; uplinks on ports 2..3, core port = pod.
std::vector<ControlMessage> k4_hellos() {
  std::map<SwitchId, SwitchHello> by_id;
  const auto link = [&](const SwitchLocator& x, std::uint16_t px,
                        const SwitchLocator& y, std::uint16_t py) {
    by_id[x.switch_id].self = x;
    by_id[y.switch_id].self = y;
    by_id[x.switch_id].neighbors.push_back({px, y});
    by_id[y.switch_id].neighbors.push_back({py, x});
  };
  for (std::uint16_t pod = 0; pod < 4; ++pod) {
    for (std::uint8_t a = 0; a < 2; ++a) {
      const SwitchLocator agg{200u + 2u * pod + a, Level::kAggregation, pod, a};
      for (std::uint8_t e = 0; e < 2; ++e) {
        link({100u + 2u * pod + e, Level::kEdge, pod, e},
             static_cast<std::uint16_t>(2 + a), agg, e);
      }
      for (std::uint8_t m = 0; m < 2; ++m) {
        link(agg, static_cast<std::uint16_t>(2 + m),
             {300u + 2u * a + m, Level::kCore, kUnknownPod, kUnknownPosition},
             pod);
      }
    }
  }
  std::vector<ControlMessage> out;
  for (auto& [id, h] : by_id) out.push_back({id, std::move(h)});
  return out;
}

/// One encoding of every ControlBody alternative, in alternative order:
/// `hello` for SwitchHello, fixed values for the rest.
std::vector<ControlMessage> control_samples(const ControlMessage& hello) {
  const Ipv4Address group(224, 0, 1, 5);
  PruneUpdate prune{false, {PruneEntry{2, 1, 0x3001, true}}};
  McastInstall install{group, {0, 2, 3}};
  FmDelta delta{1, 9, {1, 2, 3, 4, 5}};
  return {
      hello,
      {100, PodRequest{}},
      {kFabricManagerId, PodAssignment{3}},
      {100, HostRegister{Ipv4Address(10, 0, 0, 2),
                         MacAddress::from_u64(0x020000000005),
                         MacAddress::from_u64(0x000000010001), 1}},
      {100, ArpQuery{7, Ipv4Address(10, 1, 0, 2)}},
      {kFabricManagerId, ArpResponse{7, Ipv4Address(10, 1, 0, 2),
                                     MacAddress::from_u64(0x000100000001),
                                     true}},
      {200, FaultNotify{2, 300, false}},
      {kFabricManagerId, prune},
      {100, McastJoin{group, 1}},
      {100, McastLeave{group, 1}},
      {100, McastSenderSeen{group}},
      {kFabricManagerId, install},
      {kFabricManagerId, McastRemove{group}},
      {kFabricManagerId, InvalidateHost{Ipv4Address(10, 0, 0, 2),
                                        MacAddress::from_u64(0x000000010001),
                                        MacAddress::from_u64(0x000300010001)}},
      {kFabricManagerId, delta},
  };
}

TEST(Control, MutatedMessagesDecodeOrRejectCleanly) {
  const std::vector<ControlMessage> hellos = k4_hellos();
  MutationSink sink;
  for (const ControlMessage& m : hellos) sink.apply(m);
  ASSERT_EQ(sink.graph.switch_count(), 20u);

  const std::vector<ControlMessage> samples = control_samples(hellos[3]);
  std::set<std::size_t> covered;
  for (const ControlMessage& m : samples) covered.insert(m.body.index());
  ASSERT_EQ(covered.size(), kControlTypeCount);

  Rng rng(22);
  std::size_t decoded = 0;
  const auto feed = [&](std::span<const std::uint8_t> bytes) {
    const std::optional<ControlMessage> m = parse_control(bytes);
    if (!m.has_value()) return;
    ++decoded;
    // Whatever decodes may reach the fabric manager as-is.
    (void)serialize_control(*m);
    sink.apply(*m);
    ASSERT_EQ(sink.graph.failed_link_count(), sink.brute_failed());
  };
  for (const ControlMessage& m : samples) {
    SCOPED_TRACE(control_type_name(m.body));
    for_each_mutation(serialize_control(m), rng, feed);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(decoded, kControlTypeCount);  // the unmutated encodings at least
  // The graph still answers prune queries over whatever it was told.
  for (std::uint16_t pod = 0; pod < 4; ++pod) {
    (void)sink.graph.compute_prunes(DstKey{pod, kUnknownPosition});
    (void)sink.graph.compute_prunes(DstKey{pod, 0});
  }
}

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  for (const std::uint8_t b : bytes) {
    constexpr char kDigits[] = "0123456789abcdef";
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// One LDP message of every LdpType, in type order.
std::vector<LdpMessage> ldp_samples() {
  std::vector<LdpMessage> out(4);
  out[0].type = LdpType::kLdm;
  out[0].from = SwitchLocator{0x1234, Level::kAggregation, 7, kUnknownPosition};
  out[0].sender_port = 3;
  out[0].heard_id = 0x5678;
  out[1].type = LdpType::kProposePosition;
  out[1].from =
      SwitchLocator{0x99, Level::kEdge, kUnknownPod, kUnknownPosition};
  out[1].position = 2;
  out[1].nonce = 0xCAFEBABE;
  for (const LdpType t : {LdpType::kPositionAck, LdpType::kPositionNack}) {
    LdpMessage& m = out[static_cast<std::size_t>(t) - 1];
    m.type = t;
    m.from = SwitchLocator{0x2001, Level::kAggregation, 1, 0};
    m.sender_port = 1;
    m.heard_id = 0x99;
    m.position = 2;
    m.nonce = 0xCAFEBABE;
  }
  return out;
}

// The bytes every message type encoded to when its layout was last
// changed on purpose; E7's byte counts and the in-flight control traffic
// in snapshot images both depend on them.
TEST(Control, WireBytesArePinned) {
  const std::vector<ControlMessage> samples = control_samples(k4_hellos()[3]);
  const std::vector<std::string> control = {
      "0000000000000067010000000000000067010001010002000200000000000000"
      "ca02000100000300000000000000cb02000101",
      "000000000000006402",
      "0000000000000001030003",
      "0000000000000064040a0000020200000000050000000100010001",
      "000000000000006405000000070a010002",
      "000000000000000106000000070a01000200010000000101",
      "00000000000000c8070002000000000000012c00",
      "000000000000000108000001000201000000000000300101",
      "000000000000006409e00001050001",
      "00000000000000640ae00001050001",
      "00000000000000640be0000105",
      "00000000000000010ce00001050003000000020003",
      "00000000000000010de0000105",
      "00000000000000010e0a000002000000010001000300010001",
      "00000000000000010f000000010000000000000009000000050102030405",
  };
  ASSERT_EQ(samples.size(), control.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(control_type_name(i));
    const std::vector<std::uint8_t> bytes = serialize_control(samples[i]);
    EXPECT_EQ(hex(bytes), control[i]);
    const std::optional<ControlMessage> back = parse_control(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->body.index(), i);
    EXPECT_EQ(serialize_control(*back), bytes);
  }

  const std::vector<LdpMessage> ldp = ldp_samples();
  const std::vector<std::string> frames = {
      "ffffffffffff00000000123488b5010000000000001234020007ff0003000000"
      "0000005678ff00000000",
      "ffffffffffff00000000009988b502000000000000009901ffffff0000000000"
      "000000000002cafebabe",
      "ffffffffffff00000000200188b5030000000000002001020001000001000000"
      "000000009902cafebabe",
      "ffffffffffff00000000200188b5040000000000002001020001000001000000"
      "000000009902cafebabe",
  };
  ASSERT_EQ(ldp.size(), frames.size());
  for (std::size_t i = 0; i < ldp.size(); ++i) {
    SCOPED_TRACE(i + 1);
    const std::vector<std::uint8_t> frame = ldp[i].to_frame();
    EXPECT_EQ(hex(frame), frames[i]);
    const std::optional<LdpMessage> back = LdpMessage::from_frame(frame);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->to_frame(), frame);
  }
}

TEST(Control, TrailingByteRejected) {
  for (const ControlMessage& m : control_samples(k4_hellos()[3])) {
    SCOPED_TRACE(control_type_name(m.body));
    std::vector<std::uint8_t> bytes = serialize_control(m);
    ASSERT_TRUE(parse_control(bytes).has_value());
    bytes.push_back(0);
    EXPECT_FALSE(parse_control(bytes).has_value());
  }
  // LDM frames may carry link padding, so a trailing byte is kept.
  std::vector<std::uint8_t> frame = ldp_samples()[0].to_frame();
  frame.push_back(0);
  EXPECT_TRUE(LdpMessage::from_frame(frame).has_value());
}

TEST(Control, LocatorLevelAboveCoreRejected) {
  const SwitchLocator bad{0x1000, static_cast<Level>(4), 2, 1};
  SwitchHello self_bad;
  self_bad.self = bad;
  SwitchHello neighbor_bad;
  neighbor_bad.self = SwitchLocator{0x1000, Level::kEdge, 2, 1};
  neighbor_bad.neighbors.push_back(NeighborEntry{4, bad});
  EXPECT_FALSE(
      parse_control(serialize_control({0x1000, self_bad})).has_value());
  EXPECT_FALSE(
      parse_control(serialize_control({0x1000, neighbor_bad})).has_value());

  LdpMessage ldm = ldp_samples()[0];
  ldm.from = bad;
  EXPECT_FALSE(LdpMessage::from_frame(ldm.to_frame()).has_value());
  ldm.from.level = Level::kCore;
  EXPECT_TRUE(LdpMessage::from_frame(ldm.to_frame()).has_value());
}

// LDMs arrive from the wire, so a decoder that trusts them is one corrupt
// frame away from a crash. Every LdpType, truncated at every byte and
// mutated 2,000 times, must decode or be refused cleanly; whatever
// decodes re-encodes stably and, reported as the receiver's neighbour the
// way a switch would pass it on, keeps the fabric manager's failed-link
// count equal to a brute-force recount.
TEST(Ldp, MutatedFramesDecodeOrRejectCleanly) {
  const std::vector<ControlMessage> hellos = k4_hellos();
  MutationSink sink;
  for (const ControlMessage& m : hellos) sink.apply(m);
  const SwitchHello receiver = std::get<SwitchHello>(hellos[0].body);

  Rng rng(23);
  std::size_t decoded = 0;
  const auto feed = [&](std::span<const std::uint8_t> bytes) {
    const std::optional<LdpMessage> m = LdpMessage::from_frame(bytes);
    if (!m.has_value()) return;
    ++decoded;
    const std::vector<std::uint8_t> again = m->to_frame();
    const std::optional<LdpMessage> twice = LdpMessage::from_frame(again);
    ASSERT_TRUE(twice.has_value());
    ASSERT_EQ(twice->to_frame(), again);
    SwitchHello report{receiver.self, {{m->sender_port, m->from}}};
    sink.apply({receiver.self.switch_id, std::move(report)});
    ASSERT_EQ(sink.graph.failed_link_count(), sink.brute_failed());
  };
  for (const LdpMessage& m : ldp_samples()) {
    SCOPED_TRACE(static_cast<int>(m.type));
    for_each_mutation(m.to_frame(), rng, feed);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(decoded, ldp_samples().size());  // the unmutated frames at least
}

TEST(Control, TypeNames) {
  EXPECT_STREQ(control_type_name(ArpQuery{}), "arp_query");
  EXPECT_STREQ(control_type_name(SwitchHello{}), "switch_hello");
  EXPECT_STREQ(control_type_name(InvalidateHost{}), "invalidate_host");
}

}  // namespace
}  // namespace portland::core
