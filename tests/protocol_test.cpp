// Wire-protocol tests (core/protocol.h): one randomized round-trip PROPERTY
// over every Message alternative (generated from the field lists),
// canonical decoding, a mutation property over hostile frames that every
// decoder must reject or round-trip, and the ServerSet consistency-set
// container.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <variant>

#include "core/protocol.h"
#include "core/server_set.h"
#include "util/rng.h"

namespace matrix {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// ServerSet
// ---------------------------------------------------------------------------

TEST(ServerSetTest, InsertKeepsSortedUnique) {
  ServerSet set;
  set.insert(ServerId(3));
  set.insert(ServerId(1));
  set.insert(ServerId(3));
  set.insert(ServerId(2));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.ids(),
            (std::vector<ServerId>{ServerId(1), ServerId(2), ServerId(3)}));
}

TEST(ServerSetTest, ContainsAndErase) {
  ServerSet set{ServerId(5), ServerId(9)};
  EXPECT_TRUE(set.contains(ServerId(5)));
  EXPECT_FALSE(set.contains(ServerId(6)));
  set.erase(ServerId(5));
  EXPECT_FALSE(set.contains(ServerId(5)));
  set.erase(ServerId(5));  // double-erase is a no-op
  EXPECT_EQ(set.size(), 1u);
}

TEST(ServerSetTest, MergeIsUnion) {
  ServerSet a{ServerId(1), ServerId(3)};
  const ServerSet b{ServerId(2), ServerId(3), ServerId(4)};
  a.merge(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.contains(ServerId(2)));
}

TEST(ServerSetTest, Intersect) {
  const ServerSet a{ServerId(1), ServerId(2), ServerId(3)};
  const ServerSet b{ServerId(2), ServerId(3), ServerId(4)};
  const ServerSet c = a.intersect(b);
  EXPECT_EQ(c, (ServerSet{ServerId(2), ServerId(3)}));
}

TEST(ServerSetTest, EqualityIsOrderIndependent) {
  ServerSet a, b;
  a.insert(ServerId(1));
  a.insert(ServerId(2));
  b.insert(ServerId(2));
  b.insert(ServerId(1));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Randomized round-trip property over EVERY Message alternative
// ---------------------------------------------------------------------------
//
// For any message m with randomized fields:
//   * decode(encode(m)) succeeds and lands on the same variant alternative;
//   * re-encoding the decoded message reproduces the original bytes
//     byte-for-byte (the codec is a bijection on its value space — field
//     equality without needing operator== on 39 structs);
//   * wire_size(m) is exactly the encoded size;
//   * message_name covers the alternative.
//
// The generator fills every message through its own field list, so a new
// message or field is covered as soon as its list names it.

constexpr std::size_t kAlternatives = std::variant_size_v<Message>;

template <std::size_t I>
using Alternative = std::variant_alternative_t<I, Message>;

/// Fills a field list with random values, one overload per wire primitive.
struct RandomFill {
  Rng& rng;

  template <typename... Field>
  void operator()(Field&... field) {
    (fill(field), ...);
  }

  void fill(bool& v) { v = rng.next_bool(0.5); }
  void fill(std::uint8_t& v) {
    v = static_cast<std::uint8_t>(rng.next_below(256));
  }
  void fill(std::uint32_t& v) {
    v = static_cast<std::uint32_t>(rng.next_u64());
  }
  void fill(std::uint64_t& v) { v = rng.next_u64(); }
  void fill(double& v) { v = rng.next_double_in(-1.0e6, 1.0e6); }
  void fill(SimTime& t) {
    t = SimTime::from_us(
        static_cast<std::int64_t>(rng.next_below(1'000'000'000'000ULL)));
  }
  /// Short and full-width ids alike, so varints of every length occur.
  template <typename Tag>
  void fill(Id<Tag>& v) {
    v = Id<Tag>(rng.next_bool(0.5) ? rng.next_below(300) : rng.next_u64());
  }
  void fill(Vec2& v) {
    v = {rng.next_double_in(-1000.0, 1000.0),
         rng.next_double_in(-1000.0, 1000.0)};
  }
  void fill(Rect& r) {
    Vec2 lo;
    fill(lo);
    r = Rect::from_corners(lo, {lo.x + rng.next_double_in(0.0, 800.0),
                                lo.y + rng.next_double_in(0.0, 800.0)});
  }
  void fill(std::optional<Vec2>& v) {
    if (rng.next_bool(0.5)) fill(v.emplace());
  }
  void fill(PayloadBytes& bytes) { bytes = blob(); }
  void fill(std::vector<std::uint8_t>& bytes) { bytes = blob(); }
  void fill(std::string& s) {
    s.assign(rng.next_below(24), '\0');
    for (auto& c : s) c = static_cast<char>('a' + rng.next_below(26));
  }
  template <typename T>
  void fill(std::vector<T>& items) {
    items.resize(rng.next_below(4));
    for (T& item : items) fill(item);
  }
  // The peer vectors are parallel by protocol contract.
  void fill(OverlapRegionWire& region) {
    fill(region.rect);
    for (std::uint64_t p = rng.next_below(4); p > 0; --p) {
      fill(region.peer_servers.emplace_back());
      fill(region.peer_matrix_nodes.emplace_back());
    }
  }
  template <typename Body>
  void fill(Body& body) {
    fields(*this, body);
  }

  std::vector<std::uint8_t> blob() {
    std::vector<std::uint8_t> bytes(rng.next_below(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    return bytes;
  }
};

template <std::size_t... I>
Message random_message(std::size_t index, Rng& rng,
                       std::index_sequence<I...>) {
  Message m;
  RandomFill fill{rng};
  ((index == I ? fill.fill(m.emplace<I>()) : void()), ...);
  return m;
}

/// A randomized instance of the `index`-th Message alternative.
Message random_message(std::size_t index, Rng& rng) {
  return random_message(index, rng, std::make_index_sequence<kAlternatives>{});
}

class ProtocolRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolRoundTripProperty, EveryMessageSurvivesTheCodec) {
  Rng rng(GetParam());
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    for (int rep = 0; rep < 8; ++rep) {
      const Message in = random_message(index, rng);
      ASSERT_EQ(in.index(), index) << "generator built the wrong alternative";
      const auto bytes = encode_message(in);
      EXPECT_EQ(wire_size(in), bytes.size()) << message_name(in);
      const auto out = decode_message(bytes);
      ASSERT_TRUE(out.has_value())
          << message_name(in) << " failed to decode (seed " << GetParam()
          << ", rep " << rep << ")";
      EXPECT_EQ(out->index(), index) << message_name(in);
      EXPECT_EQ(encode_message(*out), bytes)
          << message_name(in) << " re-encode mismatch (seed " << GetParam()
          << ", rep " << rep << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The byte-equality property cannot see a field the field list omits: it
// round-trips perfectly and is silently lost on the wire.  protocol.cpp
// rejects such a list at compile time (its entry count must equal the
// struct's member count) and FieldListsNameEachMemberOnce below rules out
// repeats.  These value pins stay as a direct check on the fields most
// recently added to the protocol.
TEST(ProtocolTest, RecentFieldsSurviveDecoding) {
  const auto acquire =
      decode_message(encode_message(Message{PoolAcquire{ServerId(7), 3.25}}));
  ASSERT_TRUE(acquire.has_value());
  EXPECT_EQ(std::get<PoolAcquire>(*acquire).requester, ServerId(7));
  EXPECT_DOUBLE_EQ(std::get<PoolAcquire>(*acquire).need, 3.25);

  LoadReport report;
  report.client_count = 312;
  report.waiting_count = 41;
  const auto report_out = decode_message(encode_message(Message{report}));
  ASSERT_TRUE(report_out.has_value());
  EXPECT_EQ(std::get<LoadReport>(*report_out).client_count, 312u);
  EXPECT_EQ(std::get<LoadReport>(*report_out).waiting_count, 41u);

  AdmissionDirective directive;
  directive.seq = 9;
  directive.active = true;
  directive.token_rate = 13.75;
  directive.pressure = 0.8125;
  directive.waiting_total = 412;
  const auto directive_out =
      decode_message(encode_message(Message{directive}));
  ASSERT_TRUE(directive_out.has_value());
  const auto& d = std::get<AdmissionDirective>(*directive_out);
  EXPECT_EQ(d.seq, 9u);
  EXPECT_TRUE(d.active);
  EXPECT_DOUBLE_EQ(d.token_rate, 13.75);
  EXPECT_DOUBLE_EQ(d.pressure, 0.8125);
  EXPECT_EQ(d.waiting_total, 412u);

  McHeartbeat beat;
  beat.mc_node = NodeId(21);
  beat.generation = 3;
  beat.seq = 117;
  const auto beat_out = decode_message(encode_message(Message{beat}));
  ASSERT_TRUE(beat_out.has_value());
  const auto& hb = std::get<McHeartbeat>(*beat_out);
  EXPECT_EQ(hb.mc_node, NodeId(21));
  EXPECT_EQ(hb.generation, 3u);
  EXPECT_EQ(hb.seq, 117u);
}

TEST(ProtocolTest, FieldListsNameEachMemberOnce) {
  Rng rng(11);
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    Message m = random_message(index, rng);
    std::visit(
        [&](auto& body) {
          std::vector<const void*> seen;
          auto collect = [&](auto&... field) { (seen.push_back(&field), ...); };
          fields(collect, body);
          std::sort(seen.begin(), seen.end());
          EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
              << message_name(m) << " lists a member twice";
        },
        m);
  }
}

// ---------------------------------------------------------------------------
// Typed decoders and zero-copy frame fast paths
// ---------------------------------------------------------------------------
// Each typed decoder must agree field-for-field with the full decode of the
// same bytes — the on_frame overrides that use them promise behavioral
// identity with their on_message twins.  MutatedFramesRejectOrRoundTrip
// checks the same agreement on hostile frames.

TEST(ProtocolTest, DecodeFrameMatchesFullDecode) {
  LoadReport report;
  report.client_count = 312;
  report.queue_length = 17;
  report.msgs_per_sec = 1234.5;
  report.median_position = {40.0, 60.5};
  report.waiting_count = 41;
  const auto bytes = encode_message(Message{report});
  const auto decoded = decode_frame<LoadReport>(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->client_count, report.client_count);
  EXPECT_EQ(decoded->queue_length, report.queue_length);
  EXPECT_DOUBLE_EQ(decoded->msgs_per_sec, report.msgs_per_sec);
  EXPECT_EQ(decoded->median_position, report.median_position);
  EXPECT_EQ(decoded->waiting_count, report.waiting_count);
  // Other types and truncated frames fall back to the generic path.
  EXPECT_FALSE(decode_frame<LoadReport>(encode_message(Message{PoolDeny{}})));
  EXPECT_FALSE(decode_frame<QueueUpdate>(bytes));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_frame<LoadReport>({bytes.data(), len}));
  }

  QueueUpdate update;
  update.client = ClientId(77);
  update.position = 5;
  update.depth = 230;
  update.eta = SimTime::from_ms(1500);
  const auto update_bytes = encode_message(Message{update});
  const auto update_out = decode_frame<QueueUpdate>(update_bytes);
  ASSERT_TRUE(update_out.has_value());
  EXPECT_EQ(update_out->client, update.client);
  EXPECT_EQ(update_out->position, update.position);
  EXPECT_EQ(update_out->depth, update.depth);
  EXPECT_EQ(update_out->eta, update.eta);
}

TEST(ProtocolTest, PayloadViewsLeaveThePayloadInTheFrame) {
  TaggedPacket packet;
  packet.client = ClientId(3);
  packet.origin = {10.0, 20.0};
  packet.seq = 99;
  packet.peer_forwarded = true;
  packet.payload.assign(40, 0x5A);
  const auto bytes = encode_message(Message{packet});
  const auto view = parse_tagged_packet_frame(bytes);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->seq, 99u);
  EXPECT_TRUE(view->peer_forwarded);
  EXPECT_EQ(bytes[view->peer_flag_offset], 1);
  EXPECT_TRUE(view->TaggedPacket::payload.empty());
  ASSERT_EQ(view->payload.size(), 40u);
  EXPECT_GE(view->payload.data(), bytes.data());
  EXPECT_EQ(view->payload.data() + 40, bytes.data() + bytes.size());
  EXPECT_EQ(encode_message(Message{view->materialize()}), bytes);
}

TEST(ProtocolTest, RelayViewExtractsDestinationForAllRelayLegs) {
  StateTransfer st;
  st.from_server = ServerId(3);
  st.to_game = NodeId(44);
  st.range = Rect::from_corners({0, 0}, {10, 10});
  st.object_count = 2;
  st.blob = {1, 2, 3, 4};

  ClientStateTransfer cst;
  cst.client = ClientId(9);
  cst.entity = EntityId(12);
  cst.to_game = NodeId(45);
  cst.blob = {5, 6};

  QueueHandoff handoff;
  handoff.from_server = ServerId(8);
  handoff.to_game = NodeId(46);
  handoff.entries.push_back(
      {ClientId(1), NodeId(100), {1.0, 2.0}, 1, SimTime::from_ms(5)});

  const struct {
    Message message;
    std::uint8_t wire_type;
    NodeId to_game;
  } cases[] = {
      {Message{st}, kWireType<StateTransfer>, st.to_game},
      {Message{cst}, kWireType<ClientStateTransfer>, cst.to_game},
      {Message{handoff}, kWireType<QueueHandoff>, handoff.to_game},
  };
  for (const auto& c : cases) {
    const auto bytes = encode_message(c.message);
    const auto view = parse_relay_frame(bytes);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->wire_type, c.wire_type);
    EXPECT_EQ(view->to_game, c.to_game);
  }
  // Any non-relay type is refused — the relay fast path must never trigger
  // on a frame whose second field is not a destination.
  EXPECT_FALSE(parse_relay_frame(encode_message(Message{PoolDeny{}})));
  EXPECT_FALSE(parse_relay_frame({}));
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(ProtocolTest, EmptyBufferFailsToDecode) {
  EXPECT_FALSE(decode_message({}).has_value());
}

TEST(ProtocolTest, UnknownTypeTagFailsToDecode) {
  // One past the last alternative is the first unknown tag.
  for (std::size_t tag :
       {std::size_t{0}, kAlternatives + 1, std::size_t{0xFF}}) {
    const std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(tag), 0};
    EXPECT_FALSE(decode_message(bytes).has_value()) << tag;
  }
  // The smallest valid frame: PoolDeny, the empty message.
  EXPECT_TRUE(decode_message(std::vector<std::uint8_t>{kWireType<PoolDeny>})
                  .has_value());
}

TEST(ProtocolTest, TruncatedMessagesFailToDecodeNotCrash) {
  // Property: any prefix of a valid encoding either decodes to the same type
  // or fails cleanly — never crashes.  Run over every alternative.
  Rng rng(99);
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    const Message m = random_message(index, rng);
    const auto bytes = encode_message(m);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(bytes.data(), len);
      (void)decode_message(prefix);  // must not crash; value irrelevant
    }
  }
  SUCCEED();
}

TEST(ProtocolTest, RandomBytesNeverCrashDecoder) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)decode_message(junk);
  }
  SUCCEED();
}

TEST(ProtocolTest, MessageNameCoversAllAlternatives) {
  Rng rng(7);
  std::set<std::string> names;
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    names.insert(message_name(random_message(index, rng)));
  }
  EXPECT_EQ(names.size(), kAlternatives);
  EXPECT_STREQ(message_name(Message{TaggedPacket{}}), "TaggedPacket");
  EXPECT_STREQ(message_name(Message{PoolDeny{}}), "PoolDeny");
  EXPECT_STREQ(message_name(Message{PoolAcquire{}}), "PoolAcquire");
  EXPECT_STREQ(message_name(Message{AdmissionDirective{}}),
               "AdmissionDirective");
  EXPECT_STREQ(message_name(Message{QueueHandoff{}}), "QueueHandoff");
  EXPECT_STREQ(message_name(Message{McHeartbeat{}}), "McHeartbeat");
}

// ---------------------------------------------------------------------------
// Canonical decoding
// ---------------------------------------------------------------------------
// A frame is accepted only if it is exactly the encoding of what it decodes
// to, so relays may forward received bytes verbatim (ProtocolNode::send_raw).

TEST(ProtocolTest, NonCanonicalFramesAreRejected) {
  ClientHello hello;
  hello.client = ClientId(5);
  hello.position = {1.0, 2.0};
  const auto bytes = encode_message(Message{hello});
  ASSERT_EQ(bytes.size(), 24u);  // type, id, 2 doubles, bool, u32, u8
  ASSERT_TRUE(decode_message(bytes).has_value());

  auto trailing = bytes;
  trailing.insert(trailing.end(), {0, 0});
  EXPECT_FALSE(decode_message(trailing).has_value());
  EXPECT_FALSE(decode_frame<ClientHello>(trailing).has_value());

  auto bad_bool = bytes;
  bad_bool[18] = 2;  // `resume`, after type (1) + id (1) + position (16)
  EXPECT_FALSE(decode_message(bad_bool).has_value());

  auto padded_id = bytes;  // id 5 as 0x85 0x00: same value, one byte longer
  padded_id[1] = 0x85;
  padded_id.insert(padded_id.begin() + 2, 0x00);
  EXPECT_FALSE(decode_message(padded_id).has_value());

  std::vector<std::uint8_t> wide_id{bytes[0]};  // 9 x 0xFF then 0x02: bit 64
  wide_id.insert(wide_id.end(), 9, 0xFF);
  wide_id.push_back(0x02);
  wide_id.insert(wide_id.end(), bytes.begin() + 2, bytes.end());
  EXPECT_FALSE(decode_message(wide_id).has_value());
  wide_id[10] = 0x01;  // the largest id, 2^64 - 1, is canonical
  EXPECT_TRUE(decode_message(wide_id).has_value());

  TaggedPacket packet;
  packet.target = Vec2{3.0, 4.0};
  packet.payload.assign(8, 7);
  auto frame = encode_message(Message{packet});
  ASSERT_TRUE(parse_tagged_packet_frame(frame).has_value());
  auto bad_tag = frame;
  bad_tag[1 + 1 + 1 + 16] = 2;  // target's presence tag
  EXPECT_FALSE(parse_tagged_packet_frame(bad_tag).has_value());
  EXPECT_FALSE(decode_message(bad_tag).has_value());
  frame.push_back(0);
  EXPECT_FALSE(parse_tagged_packet_frame(frame).has_value());
  EXPECT_FALSE(decode_message(frame).has_value());
}

/// "" when `parsed`, one typed decoder's result on `frame`, is present
/// exactly when decode_message decodes `frame` to a `Body`, and then with
/// the same field values (equal re-encodings); else what went wrong.
template <typename Body, typename Parsed>
std::string typed_decoder_agrees(const std::vector<std::uint8_t>& frame,
                                 const std::optional<Message>& message,
                                 const std::optional<Parsed>& parsed,
                                 const char* what) {
  const bool expected = message && std::holds_alternative<Body>(*message);
  if (parsed.has_value() != expected) {
    return std::string(what) + " disagrees with decode_message on accept";
  }
  if (!parsed) return "";
  Body body;
  if constexpr (std::is_same_v<Parsed, Body>) {
    body = *parsed;
  } else {
    body = parsed->materialize();
  }
  if (encode_message(Message{body}) != frame) {
    return std::string(what) + " decoded different field values";
  }
  return "";
}

template <std::size_t... I>
std::string decode_frame_agrees(const std::vector<std::uint8_t>& frame,
                                const std::optional<Message>& message,
                                std::size_t index, std::index_sequence<I...>) {
  std::string error;
  ((index == I ? void(error = typed_decoder_agrees<Alternative<I>>(
                          frame, message,
                          decode_frame<Alternative<I>>(frame), "decode_frame"))
               : void()),
   ...);
  return error;
}

/// Checks one possibly hostile frame against every decoder; returns a
/// description of the first disagreement, or "" when there is none.
/// decode_message must either reject the frame or return a message that
/// re-encodes to it, and every typed decoder must agree with it.  `index`
/// is the alternative the frame was mutated from.
std::string check_frame(const std::vector<std::uint8_t>& frame,
                        std::size_t index) {
  const std::optional<Message> message = decode_message(frame);
  if (message && encode_message(*message) != frame) {
    return "decode_message accepted a frame it does not re-encode to";
  }
  const auto tagged = parse_tagged_packet_frame(frame);
  if (tagged &&
      frame[tagged->peer_flag_offset] != (tagged->peer_forwarded ? 1 : 0)) {
    return "peer_flag_offset does not point at the flag";
  }
  for (const std::string& error : {
           typed_decoder_agrees<TaggedPacket>(frame, message, tagged,
                                              "parse_tagged_packet_frame"),
           typed_decoder_agrees<ClientAction>(
               frame, message, parse_client_action_frame(frame),
               "parse_client_action_frame"),
           typed_decoder_agrees<ServerUpdate>(
               frame, message, parse_server_update_frame(frame),
               "parse_server_update_frame"),
           typed_decoder_agrees<LoadReport>(frame, message,
                                            decode_frame<LoadReport>(frame),
                                            "decode_frame<LoadReport>"),
           decode_frame_agrees(frame, message, index,
                               std::make_index_sequence<kAlternatives>{}),
       }) {
    if (!error.empty()) return error;
  }
  const auto relay = parse_relay_frame(frame);
  const bool relayed =
      message && (std::holds_alternative<StateTransfer>(*message) ||
                  std::holds_alternative<ClientStateTransfer>(*message) ||
                  std::holds_alternative<QueueHandoff>(*message));
  if (relay.has_value() != relayed) {
    return "parse_relay_frame disagrees with decode_message on accept";
  }
  std::string error;
  if (relay) {
    std::visit(
        [&](const auto& body) {
          if constexpr (requires { body.to_game; }) {
            if (relay->to_game != body.to_game ||
                relay->wire_type != frame[0]) {
              error = "parse_relay_frame decoded a different destination";
            }
          }
        },
        *message);
  }
  return error;
}

// The robustness property the middleware's DoS criterion (paper §2.1) rests
// on: over >= 100k truncated, bit-flipped and extended frames of every
// message type, every decoder either rejects cleanly or yields exactly the
// frame back on re-encoding, and all decoders agree.  Runs under ASan+UBSan
// in the sanitizer build.
TEST(ProtocolTest, MutatedFramesRejectOrRoundTrip) {
  constexpr int kMessagesPerType = 200;
  constexpr int kMutantsPerMessage = 13;
  Rng rng(2005);
  std::size_t checked = 0;
  std::size_t accepted = 0;
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    for (int n = 0; n < kMessagesPerType; ++n) {
      const Message m = random_message(index, rng);
      const std::vector<std::uint8_t> frame = encode_message(m);
      ASSERT_EQ(wire_size(m), frame.size()) << message_name(m);
      ASSERT_EQ(check_frame(frame, index), "") << message_name(m);
      for (int k = 0; k < kMutantsPerMessage; ++k) {
        std::vector<std::uint8_t> mutant = frame;
        switch (rng.next_below(4)) {
          case 0:  // truncate
            mutant.resize(rng.next_below(frame.size()));
            break;
          case 1:  // flip one to three bits anywhere, type byte included
            for (std::uint64_t f = 1 + rng.next_below(3); f > 0; --f) {
              mutant[rng.next_below(mutant.size())] ^=
                  static_cast<std::uint8_t>(1u << rng.next_below(8));
            }
            break;
          case 2:  // overwrite one byte
            mutant[rng.next_below(mutant.size())] =
                static_cast<std::uint8_t>(rng.next_below(256));
            break;
          default:  // extend by one to three bytes
            for (std::uint64_t e = 1 + rng.next_below(3); e > 0; --e) {
              mutant.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
            }
            break;
        }
        ASSERT_EQ(check_frame(mutant, index), "")
            << message_name(m) << " mutant " << k << " of message " << n;
        ++checked;
        if (decode_message(mutant)) ++accepted;
      }
    }
  }
  EXPECT_GE(checked, 100'000u);
  // Both outcomes occur, so neither half of the property holds vacuously.
  EXPECT_GT(accepted, checked / 20);
  EXPECT_LT(accepted, checked / 2);
}

}  // namespace
}  // namespace matrix
