#include "core/protocol.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

namespace matrix {

namespace {

constexpr std::size_t kMessageTypes = std::variant_size_v<Message>;

template <std::size_t I>
using Alternative = std::variant_alternative_t<I, Message>;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// ---- completeness ---------------------------------------------------------

/// Counts a field list's entries, at compile time.
struct FieldCounter {
  template <typename... Field>
  std::integral_constant<std::size_t, sizeof...(Field)> operator()(
      Field&...) const {
    return {};
  }
};

/// Instantiating this (decltype suffices) binds as many names to a `T` as
/// its field list has entries, which compiles only if `T` has exactly that
/// many members.  A member missing from a list would never reach the wire
/// yet still round-trip, as its default, so no byte-level test could see
/// it; instead the build fails here.
template <typename T>
auto lists_every_member(T& m) {
  constexpr std::size_t n = decltype(fields(
      std::declval<FieldCounter&>(), std::declval<T&>()))::value;
  static_assert(n <= 10, "extend lists_every_member");
  if constexpr (n == 0) {
    static_assert(std::is_empty_v<T>);
  } else if constexpr (n == 1) {
    [[maybe_unused]] auto& [a] = m;
  } else if constexpr (n == 2) {
    [[maybe_unused]] auto& [a, b] = m;
  } else if constexpr (n == 3) {
    [[maybe_unused]] auto& [a, b, c] = m;
  } else if constexpr (n == 4) {
    [[maybe_unused]] auto& [a, b, c, d] = m;
  } else if constexpr (n == 5) {
    [[maybe_unused]] auto& [a, b, c, d, e] = m;
  } else if constexpr (n == 6) {
    [[maybe_unused]] auto& [a, b, c, d, e, f] = m;
  } else if constexpr (n == 7) {
    [[maybe_unused]] auto& [a, b, c, d, e, f, g] = m;
  } else if constexpr (n == 8) {
    [[maybe_unused]] auto& [a, b, c, d, e, f, g, h] = m;
  } else if constexpr (n == 9) {
    [[maybe_unused]] auto& [a, b, c, d, e, f, g, h, i] = m;
  } else if constexpr (n == 10) {
    [[maybe_unused]] auto& [a, b, c, d, e, f, g, h, i, j] = m;
  }
  return std::true_type{};
}

// ---- encoding -------------------------------------------------------------

/// A byte sink with ByteWriter's interface that only counts, so encoding
/// into it yields a message's exact wire size.
struct ByteCounter {
  std::size_t n = 0;

  void u8(std::uint8_t) { n += 1; }
  void u32(std::uint32_t) { n += 4; }
  void u64(std::uint64_t) { n += 8; }
  void i64(std::int64_t) { n += 8; }
  void f64(double) { n += 8; }
  void varint(std::uint64_t v) { n += varint_size(v); }
  void str(std::string_view s) {
    varint(s.size());
    n += s.size();
  }
  void raw(std::span<const std::uint8_t> bytes) {
    varint(bytes.size());
    n += bytes.size();
  }
  template <typename Tag>
  void id(Id<Tag> v) {
    varint(v.value());
  }
};

/// Writes a field list into `out`, one overload per wire primitive.
template <typename Sink>
struct Encoder {
  Sink& out;

  template <typename... Field>
  void operator()(const Field&... field) {
    (put(field), ...);
  }

  void put(bool v) { out.u8(v ? 1 : 0); }
  void put(std::uint8_t v) { out.u8(v); }
  void put(std::uint32_t v) { out.u32(v); }
  void put(std::uint64_t v) { out.u64(v); }
  void put(double v) { out.f64(v); }
  void put(SimTime t) { out.i64(t.us()); }
  template <typename Tag>
  void put(Id<Tag> v) {
    out.id(v);
  }
  void put(Vec2 v) {
    put(v.x);
    put(v.y);
  }
  void put(const Rect& r) {
    put(r.lo());
    put(r.hi());
  }
  void put(const std::optional<Vec2>& v) {
    put(v.has_value());
    if (v) put(*v);
  }
  void put(const PayloadBytes& bytes) { out.raw(bytes); }
  void put(const std::vector<std::uint8_t>& bytes) { out.raw(bytes); }
  void put(const std::string& s) { out.str(s); }
  template <typename T>
  void put(const std::vector<T>& items) {
    out.varint(items.size());
    for (const T& item : items) put(item);
  }
  void put(const OverlapRegionWire& region) {
    put(region.rect);
    out.varint(region.peer_servers.size());
    for (std::size_t i = 0; i < region.peer_servers.size(); ++i) {
      put(region.peer_servers[i]);
      put(region.peer_matrix_nodes[i]);
    }
  }
  /// A struct with a field list.  The lists take a mutable body so that
  /// one list serves decoding too; encoding only reads through it.
  template <typename Body>
  void put(const Body& body) {
    static_assert(decltype(lists_every_member(std::declval<Body&>()))());
    fields(*this, const_cast<Body&>(body));
  }
};

template <typename Body>
std::size_t body_size(const Body& body) {
  ByteCounter counter;
  Encoder<ByteCounter>{counter}.put(body);
  return counter.n;
}

template <typename Body>
void encode_erased(ByteWriter& writer, const void* erased) {
  const Body& body = *static_cast<const Body*>(erased);
  writer.reserve(writer.size() + 1 + body_size(body));
  writer.u8(kWireType<Body>);
  Encoder<ByteWriter>{writer}.put(body);
}

// ---- decoding -------------------------------------------------------------

/// Reads a field list back, in the same order and with the same primitives
/// as Encoder.  ByteReader rejects non-canonical varints and flags; the
/// callers reject trailing bytes.
struct Decoder {
  ByteReader& in;

  template <typename... Field>
  void operator()(Field&... field) {
    (get(field), ...);
  }

  void get(bool& v) { v = in.flag(); }
  void get(std::uint8_t& v) { v = in.u8(); }
  void get(std::uint32_t& v) { v = in.u32(); }
  void get(std::uint64_t& v) { v = in.u64(); }
  void get(double& v) { v = in.f64(); }
  void get(SimTime& t) { t = SimTime::from_us(in.i64()); }
  template <typename Tag>
  void get(Id<Tag>& v) {
    v = in.id<Id<Tag>>();
  }
  void get(Vec2& v) {
    get(v.x);
    get(v.y);
  }
  void get(Rect& r) {
    Vec2 lo, hi;
    get(lo);
    get(hi);
    r = Rect::from_corners(lo, hi);
  }
  void get(std::optional<Vec2>& v) {
    if (in.flag()) get(v.emplace());
  }
  void get(PayloadBytes& bytes) { bytes = in.raw_payload(); }
  void get(std::vector<std::uint8_t>& bytes) { bytes = in.raw(); }
  void get(std::string& s) { s = in.str(); }
  template <typename T>
  void get(std::vector<T>& items) {
    for (std::uint64_t n = in.count(); n > 0 && in.ok(); --n) {
      get(items.emplace_back());
    }
  }
  void get(OverlapRegionWire& region) {
    get(region.rect);
    for (std::uint64_t n = in.count(); n > 0 && in.ok(); --n) {
      get(region.peer_servers.emplace_back());
      get(region.peer_matrix_nodes.emplace_back());
    }
  }
  template <typename Body>
  void get(Body& body) {
    fields(*this, body);
  }
};

/// True iff the rest of `in` is exactly one canonical `Body`, read into
/// the default-constructed `body`.
template <typename Body>
bool read_body(ByteReader& in, Body& body) {
  Decoder{in}.get(body);
  return in.ok() && in.at_end();
}

template <typename Body>
bool decode_erased(ByteReader& in, void* body) {
  return read_body(in, *static_cast<Body*>(body));
}

template <std::size_t I>
bool decode_alternative(ByteReader& in, Message& out) {
  return read_body(in, out.emplace<I>());
}

/// Decoder for the frame views: the one payload or blob field of the body
/// is not copied but left empty, its bytes returned as a span into the
/// frame; and the frame offset of the field at `mark` is recorded.
struct ViewDecoder {
  explicit ViewDecoder(std::span<const std::uint8_t> frame,
                       const void* mark_field = nullptr)
      : in(frame), mark(mark_field) {}

  ByteReader in;
  const void* mark;
  std::size_t mark_offset = 0;
  std::span<const std::uint8_t> bytes;

  /// True iff the frame is exactly the type byte plus one canonical Body.
  template <typename Body>
  bool read(Body& body) {
    if (in.u8() != kWireType<Body>) return false;
    fields(*this, body);
    return in.ok() && in.at_end();
  }

  template <typename... Field>
  void operator()(Field&... field) {
    (get(field), ...);
  }

  template <typename Field>
  void get(Field& field) {
    if (&field == mark) mark_offset = in.pos();
    if constexpr (std::is_same_v<Field, PayloadBytes> ||
                  std::is_same_v<Field, std::vector<std::uint8_t>>) {
      bytes = in.raw_span();
    } else {
      Decoder{in}.get(field);
    }
  }
};

template <typename Body>
std::optional<FrameView<Body>> parse_payload_frame(
    std::span<const std::uint8_t> frame) {
  FrameView<Body> view;
  ViewDecoder decoder(frame);
  if (!decoder.read<Body>(view)) return std::nullopt;
  view.payload = decoder.bytes;
  return view;
}

template <typename Body>
std::optional<RelayFrameView> parse_relay(std::span<const std::uint8_t> frame) {
  Body body;
  ViewDecoder decoder(frame);
  if (!decoder.read<Body>(body)) return std::nullopt;
  return RelayFrameView{kWireType<Body>, body.to_game};
}

// ---- names ----------------------------------------------------------------

/// The unqualified name of `T`, cut from the compiler's signature string:
/// "... [with T = matrix::ClientHello; ...]" (gcc) or "... [T =
/// matrix::ClientHello]" (clang).
template <typename T>
constexpr std::string_view type_name() {
  std::string_view name = __PRETTY_FUNCTION__;
  name.remove_prefix(name.find("T = ") + 4);
  name = name.substr(0, name.find_first_of(";]"));
  return name.substr(name.rfind(':') + 1);
}
static_assert(type_name<ClientHello>() == "ClientHello");

/// NUL-terminated copy of type_name<T>() for message_name.
template <typename T>
constexpr auto kName = [] {
  constexpr std::string_view name = type_name<T>();
  std::array<char, name.size() + 1> chars{};
  std::copy(name.begin(), name.end(), chars.begin());
  return chars;
}();

// ---- the codec table ------------------------------------------------------

/// Everything the codec knows per message type, indexed by wire type - 1.
struct WireOps {
  void (*encode)(ByteWriter&, const void*);
  bool (*decode)(ByteReader&, void*);
  bool (*decode_message)(ByteReader&, Message&);
  const char* name;
};

template <std::size_t... I>
constexpr std::array<WireOps, kMessageTypes> make_ops(
    std::index_sequence<I...>) {
  return {WireOps{&encode_erased<Alternative<I>>,
                  &decode_erased<Alternative<I>>, &decode_alternative<I>,
                  kName<Alternative<I>>.data()}...};
}
constexpr std::array<WireOps, kMessageTypes> kOps =
    make_ops(std::make_index_sequence<kMessageTypes>{});

}  // namespace

namespace detail {

void encode_body_into(ByteWriter& writer, std::uint8_t wire_type,
                      const void* body) {
  kOps[wire_type - 1].encode(writer, body);
}

bool decode_body_from(std::span<const std::uint8_t> frame,
                      std::uint8_t wire_type, void* body) {
  ByteReader in(frame);
  return in.u8() == wire_type && kOps[wire_type - 1].decode(in, body);
}

}  // namespace detail

std::vector<std::uint8_t> encode_message(const Message& message) {
  ByteWriter writer;
  encode_message_into(writer, message);
  return writer.take();
}

void encode_message_into(ByteWriter& writer, const Message& message) {
  std::visit([&writer](const auto& body) { encode_one_into(writer, body); },
             message);
}

std::size_t wire_size(const Message& message) {
  return 1 + std::visit([](const auto& body) { return body_size(body); },
                        message);
}

std::optional<Message> decode_message(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::uint8_t wire_type = in.u8();  // 0 when `bytes` is empty
  if (wire_type == 0 || wire_type > kMessageTypes) return std::nullopt;
  std::optional<Message> message(std::in_place);
  if (!kOps[wire_type - 1].decode_message(in, *message)) return std::nullopt;
  return message;
}

const char* message_name(const Message& message) {
  return kOps[message.index()].name;
}

std::optional<TaggedPacketView> parse_tagged_packet_frame(
    std::span<const std::uint8_t> frame) {
  TaggedPacketView view;
  ViewDecoder decoder(frame, &view.peer_forwarded);
  if (!decoder.read<TaggedPacket>(view)) return std::nullopt;
  view.payload = decoder.bytes;
  view.peer_flag_offset = decoder.mark_offset;
  return view;
}

std::optional<ClientActionView> parse_client_action_frame(
    std::span<const std::uint8_t> frame) {
  return parse_payload_frame<ClientAction>(frame);
}

std::optional<ServerUpdateView> parse_server_update_frame(
    std::span<const std::uint8_t> frame) {
  return parse_payload_frame<ServerUpdate>(frame);
}

std::optional<RelayFrameView> parse_relay_frame(
    std::span<const std::uint8_t> frame) {
  if (frame.empty()) return std::nullopt;
  switch (frame[0]) {
    case kWireType<StateTransfer>:
      return parse_relay<StateTransfer>(frame);
    case kWireType<ClientStateTransfer>:
      return parse_relay<ClientStateTransfer>(frame);
    case kWireType<QueueHandoff>:
      return parse_relay<QueueHandoff>(frame);
    default:
      return std::nullopt;
  }
}

}  // namespace matrix
