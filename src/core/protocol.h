// Wire protocol.
//
// Every message exchanged between game clients, game servers, Matrix
// servers, the Matrix Coordinator (MC), and the resource pool.  Messages are
// encoded to bytes (util/codec.h) before hitting the network so that wire
// sizes — and therefore the bandwidth results — are physically meaningful.
//
// Component roles and the messages they exchange (paper §3.2):
//
//   client  → game    : ClientHello, ClientAction, ClientBye
//   game    → client  : Welcome, ServerUpdate, Redirect, JoinDeny, JoinDefer,
//                       QueueUpdate
//   game    → matrix  : TaggedPacket, LoadReport, ShedDone
//   matrix  → game    : TaggedPacket (verified), MapRange, AdmissionUpdate,
//                       AdmissionDirective (relay)
//   matrix  ↔ matrix  : TaggedPacket (peer forward), Adopt, PeerLoad,
//                       ReclaimRequest, ReclaimDone, StateTransfer (relay),
//                       ClientStateTransfer (relay), QueueHandoff (relay)
//   matrix  ↔ MC      : ServerRegister, ServerUnregister, OverlapTableMsg,
//                       PointLookup, PointOwner, LoadDigest
//   matrix  ↔ pool    : PoolAcquire, PoolGrant, PoolDeny, PoolRelease
//   pool    → MC      : PoolStatus;  MC → matrix : PoolPressure,
//                       AdmissionDirective
//
// Each message's layout is written once, as a field list next to its struct:
//
//   template <class V> auto fields(V& v, ClientBye& m) { return v(m.client); }
//
// Encoding, canonical decoding, the exact wire size, the frame views and the
// completeness check (protocol.cpp) are all derived from these lists; the
// wire type byte and message_name from the Message variant.  Fields go on
// the wire in list order: ids as LEB128 varints, u8/u32/u64/f64/SimTime
// fixed-width little-endian, bool and optional<Vec2> with a 0/1 tag byte,
// Vec2/Rect as their doubles, payloads/blobs/strings/vectors behind a varint
// count.
//
// Adding a wire message: write its struct, write its field list naming
// every member, and append it to the Message variant.  Nothing else.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/server_set.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"
#include "util/codec.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace matrix {

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

/// A spatially-tagged game packet (paper §3.1).  The game server tags each
/// client packet with the world coordinates of the packet's origin (and
/// destination for non-proximal interactions); Matrix routes on the tags and
/// never parses `payload` — that is the layering the paper's API promises.
struct TaggedPacket {
  ClientId client;            ///< globally-unique originating player
  EntityId entity;            ///< acting entity
  Vec2 origin;                ///< where in the world the event happened
  std::optional<Vec2> target; ///< set only for non-proximal interactions
  std::uint8_t radius_class = 0;  ///< 0 = game default R; else exceptional R
  std::uint8_t kind = 0;          ///< game-defined opcode (opaque to Matrix)
  std::uint32_t seq = 0;          ///< client action sequence (latency pairing)
  SimTime client_sent_at{};       ///< stamped by client; for latency metrics
  bool peer_forwarded = false;    ///< set on matrix→matrix relay (no re-fwd)
  PayloadBytes payload;           ///< game-specific body (opaque)
};
template <class V> auto fields(V& v, TaggedPacket& m) {
  return v(m.client, m.entity, m.origin, m.target, m.radius_class, m.kind,
           m.seq, m.client_sent_at, m.peer_forwarded, m.payload);
}

// ---------------------------------------------------------------------------
// Client ↔ game server
// ---------------------------------------------------------------------------

/// First message from a client to a game server.  `resume` is set when the
/// client was redirected here mid-game (its avatar state arrives separately
/// server→server via ClientStateTransfer).
struct ClientHello {
  ClientId client;
  Vec2 position;
  bool resume = false;
  std::uint32_t redirect_seq = 0;  ///< pairs with Redirect for switch latency
  /// Priority hint for the surge queue (src/control/surge_queue.h):
  /// 0 = NORMAL, 1 = VIP.  Resumes outrank both and are flagged by `resume`,
  /// not here.  Ignored entirely while the waiting room is disabled.
  std::uint8_t priority = 0;
};
template <class V> auto fields(V& v, ClientHello& m) {
  return v(m.client, m.position, m.resume, m.redirect_seq, m.priority);
}

struct Welcome {
  ClientId client;
  EntityId avatar;
  Rect authority;                  ///< the server's current map range
  std::uint32_t redirect_seq = 0;
};
template <class V> auto fields(V& v, Welcome& m) {
  return v(m.client, m.avatar, m.authority, m.redirect_seq);
}

/// A player input: move / fire / interact, stamped for latency measurement.
struct ClientAction {
  ClientId client;
  std::uint8_t kind = 0;
  Vec2 position;                    ///< client's believed position
  std::optional<Vec2> target;       ///< e.g. shot aim point, teleport target
  std::uint32_t seq = 0;
  SimTime sent_at{};
  PayloadBytes payload;
};
template <class V> auto fields(V& v, ClientAction& m) {
  return v(m.client, m.kind, m.position, m.target, m.seq, m.sent_at,
           m.payload);
}

/// Game server → client state delta.  `ack_seq` is nonzero when this update
/// is the direct reaction to that client's own action (self-latency); the
/// embedded origin timestamp measures observer latency at other clients.
struct ServerUpdate {
  std::uint8_t kind = 0;
  Vec2 position;
  std::uint32_t ack_seq = 0;
  SimTime origin_sent_at{};
  PayloadBytes payload;
};
template <class V> auto fields(V& v, ServerUpdate& m) {
  return v(m.kind, m.position, m.ack_seq, m.origin_sent_at, m.payload);
}

/// Orders a client to reconnect to a different game server (paper §3.2.1:
/// "the client is informed of these switches by its current game server").
struct Redirect {
  NodeId new_game_node;
  ServerId new_server;
  std::uint32_t redirect_seq = 0;
};
template <class V> auto fields(V& v, Redirect& m) {
  return v(m.new_game_node, m.new_server, m.redirect_seq);
}

struct ClientBye {
  ClientId client;
};
template <class V> auto fields(V& v, ClientBye& m) { return v(m.client); }

// ---------------------------------------------------------------------------
// Game server ↔ its Matrix server (same host, paper §3.2.2)
// ---------------------------------------------------------------------------

/// Periodic load report (paper §3.2.2: "the game server also periodically
/// reports its current load").  The median position feeds the load-aware
/// split-policy extension; split-to-left ignores it.
struct LoadReport {
  std::uint32_t client_count = 0;
  std::uint32_t queue_length = 0;
  double msgs_per_sec = 0.0;
  Vec2 median_position;
  /// Joins parked in the surge queue (src/control/surge_queue.h); 0 while
  /// the waiting room is disabled.  Surfaced in MatrixServer::Stats.
  std::uint32_t waiting_count = 0;
};
template <class V> auto fields(V& v, LoadReport& m) {
  return v(m.client_count, m.queue_length, m.msgs_per_sec, m.median_position,
           m.waiting_count);
}

/// Matrix server → game server: your authoritative range changed.  When
/// `shed_range` is non-empty the game server must transfer map-object state
/// in that range and redirect the clients standing in it to `shed_to_game`.
struct MapRange {
  Rect new_range;
  Rect shed_range;                  ///< empty ⇒ nothing to shed
  NodeId shed_to_game;
  ServerId shed_to_server;
  bool reclaim = false;             ///< true ⇒ shedding everything to parent
  std::uint64_t topology_epoch = 0;
};
template <class V> auto fields(V& v, MapRange& m) {
  return v(m.new_range, m.shed_range, m.shed_to_game, m.shed_to_server,
           m.reclaim, m.topology_epoch);
}

/// Game server → Matrix server: the shed ordered by MapRange has finished
/// (all state transferred, all clients redirected).
struct ShedDone {
  std::uint64_t topology_epoch = 0;
  std::uint32_t clients_redirected = 0;
};
template <class V> auto fields(V& v, ShedDone& m) {
  return v(m.topology_epoch, m.clients_redirected);
}

/// Game server → Matrix server: "which game server owns this point?"
/// Used when a client walks out of this server's authority range — the paper
/// says "Matrix provides the identity of the appropriate game server".  The
/// Matrix server resolves it via the MC's point lookup.
struct OwnerQuery {
  Vec2 point;
  ClientId client;
  std::uint32_t seq = 0;
};
template <class V> auto fields(V& v, OwnerQuery& m) {
  return v(m.point, m.client, m.seq);
}

/// Matrix server → game server: answer to OwnerQuery.
struct OwnerReply {
  ClientId client;
  std::uint32_t seq = 0;
  bool found = false;
  ServerId server;
  NodeId game_node;
};
template <class V> auto fields(V& v, OwnerReply& m) {
  return v(m.client, m.seq, m.found, m.server, m.game_node);
}

// ---------------------------------------------------------------------------
// Matrix server ↔ Matrix server
// ---------------------------------------------------------------------------

/// Parent → newly-granted Matrix server: take over `range`.  Static content
/// is *not* shipped — `content_keys` are pointers into the pre-cached store
/// (paper §3.2.3: "only pointers to the cached state" are sent).
struct Adopt {
  ServerId parent;
  NodeId parent_matrix;
  NodeId parent_game;
  Rect range;
  double visibility_radius = 0.0;
  std::vector<double> extra_radii;  ///< exceptional radius classes, in order
  std::vector<std::string> content_keys;
  std::uint64_t topology_epoch = 0;
};
template <class V> auto fields(V& v, Adopt& m) {
  return v(m.parent, m.parent_matrix, m.parent_game, m.range,
           m.visibility_radius, m.extra_radii, m.content_keys,
           m.topology_epoch);
}

/// Child → parent heartbeat enabling the parent's reclaim decision.  A
/// child that has children of its own is not reclaimable (the subtree must
/// collapse leaf-first), hence `child_count`.
struct PeerLoad {
  ServerId server;
  std::uint32_t client_count = 0;
  std::uint32_t child_count = 0;
};
template <class V> auto fields(V& v, PeerLoad& m) {
  return v(m.server, m.client_count, m.child_count);
}

/// Parent → child: begin reclamation (paper §3.2.3).  `topology_epoch` is
/// the ADOPTION TOKEN the parent issued this child in its Adopt message; a
/// child only honours requests bearing its own token, so a stale retry can
/// never reclaim a server that has since been re-granted to someone else.
struct ReclaimRequest {
  std::uint64_t topology_epoch = 0;
};
template <class V> auto fields(V& v, ReclaimRequest& m) {
  return v(m.topology_epoch);
}

/// Child → parent: reclamation refused (the child is mid-split, already
/// reclaiming its own child, or the token was stale).  The parent clears
/// its pending state and may retry later.  Without an explicit decline, an
/// overload/underload interleaving can merge non-complementary rectangles
/// and tear the tiling invariant (see matrix_server.cpp's reclaim notes).
struct ReclaimDecline {
  ServerId child;
  std::uint64_t topology_epoch = 0;
};
template <class V> auto fields(V& v, ReclaimDecline& m) {
  return v(m.child, m.topology_epoch);
}

/// Child → parent: reclamation finished; `range` returns to the parent.
struct ReclaimDone {
  ServerId child;
  Rect range;
  std::uint64_t topology_epoch = 0;
};
template <class V> auto fields(V& v, ReclaimDone& m) {
  return v(m.child, m.range, m.topology_epoch);
}

/// Bulk game state (map objects) relayed game→matrix→matrix→game during
/// splits and reclaims.
struct StateTransfer {
  ServerId from_server;
  NodeId to_game;
  Rect range;
  std::uint32_t object_count = 0;
  std::vector<std::uint8_t> blob;
};
template <class V> auto fields(V& v, StateTransfer& m) {
  return v(m.from_server, m.to_game, m.range, m.object_count, m.blob);
}

/// One switching client's avatar state, relayed server→server ahead of the
/// client's ClientHello at the destination.
struct ClientStateTransfer {
  ClientId client;
  EntityId entity;
  NodeId to_game;
  std::vector<std::uint8_t> blob;
};
template <class V> auto fields(V& v, ClientStateTransfer& m) {
  return v(m.client, m.entity, m.to_game, m.blob);
}

// ---------------------------------------------------------------------------
// Matrix server ↔ Matrix Coordinator
// ---------------------------------------------------------------------------

/// Registers (or re-registers after a range change) a Matrix server with the
/// MC.  Upsert semantics: the MC replaces any previous range for `server`.
struct ServerRegister {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
  Rect range;
  std::vector<double> radii;  ///< game default first, then exceptional radii
};
template <class V> auto fields(V& v, ServerRegister& m) {
  return v(m.server, m.matrix_node, m.game_node, m.range, m.radii);
}

struct ServerUnregister {
  ServerId server;
};
template <class V> auto fields(V& v, ServerUnregister& m) {
  return v(m.server);
}

/// One overlap region as shipped to a Matrix server: every point in `rect`
/// has consistency set = `peers` (paper Fig. 1a).  The wire zips the two
/// peer vectors into (server, node) pairs, so instead of a field list this
/// struct has a small hand-written codec in protocol.cpp.
struct OverlapRegionWire {
  Rect rect;
  std::vector<ServerId> peer_servers;
  std::vector<NodeId> peer_matrix_nodes;  ///< parallel to peer_servers
};

/// MC → Matrix server: your overlap table for one radius class.
struct OverlapTableMsg {
  ServerId server;
  Rect partition;
  std::uint8_t radius_class = 0;
  double radius = 0.0;
  std::uint64_t version = 0;  ///< MC recompute generation
  std::vector<OverlapRegionWire> regions;
};
template <class V> auto fields(V& v, OverlapTableMsg& m) {
  return v(m.server, m.partition, m.radius_class, m.radius, m.version,
           m.regions);
}

/// Matrix server → MC: who owns this point?  Used only for the rare
/// non-proximal interactions (paper §3.2.4).
struct PointLookup {
  Vec2 point;
  std::uint32_t lookup_seq = 0;
};
template <class V> auto fields(V& v, PointLookup& m) {
  return v(m.point, m.lookup_seq);
}

struct PointOwner {
  std::uint32_t lookup_seq = 0;
  bool found = false;
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
};
template <class V> auto fields(V& v, PointOwner& m) {
  return v(m.lookup_seq, m.found, m.server, m.matrix_node, m.game_node);
}

// ---------------------------------------------------------------------------
// Matrix server ↔ resource pool ("some non-Matrix external entity", §3.2.3)
// ---------------------------------------------------------------------------

/// Matrix server → pool: "I want to split; give me a spare."  `need` is the
/// requester's starvation score from the load-policy layer (src/policy/):
/// 0 under ClassicPolicy (or while no coordinator directive is in force) —
/// the pool answers immediately, FCFS — while a positive need asks the pool
/// to hold the request for `Config::policy.grant_window` and arbitrate a
/// contested spare toward the highest need (the partition the
/// global-admission pressure score says is most starved).
struct PoolAcquire {
  ServerId requester;
  double need = 0.0;
};
template <class V> auto fields(V& v, PoolAcquire& m) {
  return v(m.requester, m.need);
}

struct PoolGrant {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
};
template <class V> auto fields(V& v, PoolGrant& m) {
  return v(m.server, m.matrix_node, m.game_node);
}

struct PoolDeny {};
template <class V> auto fields(V& v, PoolDeny&) { return v(); }

struct PoolRelease {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
};
template <class V> auto fields(V& v, PoolRelease& m) {
  return v(m.server, m.matrix_node, m.game_node);
}

// ---------------------------------------------------------------------------
// Admission & overload protection (src/control/)
// ---------------------------------------------------------------------------

/// Game server → client: join refused outright (admission HARD).  The
/// session was never created; `retry_after` is the server's reconnect hint.
struct JoinDeny {
  ClientId client;
  SimTime retry_after{};
};
template <class V> auto fields(V& v, JoinDeny& m) {
  return v(m.client, m.retry_after);
}

/// Game server → client: join not admitted right now (admission SOFT and
/// the token budget is spent).  Unlike JoinDeny this is transient — retry
/// after `retry_after` and the join will likely clear the bucket.
struct JoinDefer {
  ClientId client;
  SimTime retry_after{};
};
template <class V> auto fields(V& v, JoinDefer& m) {
  return v(m.client, m.retry_after);
}

/// Matrix server → its game server: the admission state changed.  `state`
/// carries the numeric AdmissionState (the wire stays independent of
/// control/ headers); `seq` is monotonic so a reordered update can never
/// roll the valve back.
struct AdmissionUpdate {
  std::uint8_t state = 0;
  std::uint64_t seq = 0;
};
template <class V> auto fields(V& v, AdmissionUpdate& m) {
  return v(m.state, m.seq);
}

/// Game server → waiting client: you are parked in the surge queue
/// (src/control/surge_queue.h).  Sent once on enqueue and then on every
/// drain tick, so the client can show a live "waiting room" instead of
/// blind defer-retries.  `position` is the client's 1-based rank in the
/// current drain order (aging can move it), `depth` the whole queue, and
/// `eta` a best-effort estimate of the remaining wait at the current token
/// rate — a hint, not a promise.
struct QueueUpdate {
  ClientId client;
  std::uint32_t position = 0;
  std::uint32_t depth = 0;
  SimTime eta{};
};
template <class V> auto fields(V& v, QueueUpdate& m) {
  return v(m.client, m.position, m.depth, m.eta);
}

/// Resource pool → MC: occupancy changed (grant/release/seed).
struct PoolStatus {
  std::uint32_t idle = 0;
  std::uint32_t total = 0;
};
template <class V> auto fields(V& v, PoolStatus& m) {
  return v(m.idle, m.total);
}

/// Matrix server → MC: per-server load digest feeding coordinator-led
/// global admission (src/control/global_admission.h).  Sent alongside each
/// LoadReport while `Config::admission.global.enabled`; `admission_state`
/// is the server's LOCAL valve state (the MC composes its own floor on
/// top, so echoing the composed state back would latch the loop).
struct LoadDigest {
  ServerId server;
  std::uint32_t client_count = 0;
  std::uint32_t queue_length = 0;
  std::uint32_t waiting_count = 0;  ///< surge-queue depth
  std::uint8_t admission_state = 0; ///< local AdmissionState
};
template <class V> auto fields(V& v, LoadDigest& m) {
  return v(m.server, m.client_count, m.queue_length, m.waiting_count,
           m.admission_state);
}

/// MC → Matrix server (relayed matrix → game): coordinator-led global
/// admission directive.  `floor` is the minimum AdmissionState every server
/// must hold (each server composes it with its local valve — strictest
/// wins); `token_rate` is THIS server's share of the deployment-wide SOFT
/// budget, weighted by waiting-room depth so starved partitions drain
/// first (0 ⇒ use the local config rate).  `active == false` rescinds the
/// directive (global pressure relaxed to NORMAL).  `seq` is monotonic so a
/// reordered directive can never roll the floor back.
struct AdmissionDirective {
  std::uint64_t seq = 0;
  std::uint8_t floor = 0;           ///< numeric AdmissionState
  bool active = false;
  double token_rate = 0.0;          ///< joins/s granted to this server
  double pressure = 0.0;            ///< deployment pressure score (observability)
  std::uint32_t waiting_total = 0;  ///< deployment-wide parked joins
};
template <class V> auto fields(V& v, AdmissionDirective& m) {
  return v(m.seq, m.floor, m.active, m.token_rate, m.pressure,
           m.waiting_total);
}

/// One parked join handed across servers (split/merge): enough to re-park
/// at the destination preserving priority class and accrued age.
struct QueueHandoffEntry {
  ClientId client;
  NodeId client_node;
  Vec2 position;
  std::uint8_t cls = 0;   ///< original PriorityClass
  SimTime enqueued_at{};  ///< original park time (age keeps accruing)
};
template <class V> auto fields(V& v, QueueHandoffEntry& m) {
  return v(m.client, m.client_node, m.position, m.cls, m.enqueued_at);
}

/// Game server → Matrix (relay) → game server: surge-queue entries whose
/// region moved to `to_game` in a split/reclaim.  The destination re-parks
/// them (class + age preserved) instead of the source flushing them to
/// client-side retry; entries it cannot take fall back to JoinDefer.
struct QueueHandoff {
  ServerId from_server;
  NodeId to_game;
  std::vector<QueueHandoffEntry> entries;
};
template <class V> auto fields(V& v, QueueHandoff& m) {
  return v(m.from_server, m.to_game, m.entries);
}

/// MC → every Matrix server: deployment-wide pool pressure, rebroadcast
/// from PoolStatus.  Feeds the pre-escalation signal: a server nearing
/// overload with an exhausted pool cannot count on a split being granted.
struct PoolPressure {
  std::uint32_t idle = 0;
  std::uint32_t total = 0;
};
template <class V> auto fields(V& v, PoolPressure& m) {
  return v(m.idle, m.total);
}

// ---------------------------------------------------------------------------
// Coordinator fail-over
// ---------------------------------------------------------------------------

/// A (new) Matrix Coordinator announces itself to a Matrix server.  The
/// paper: "the MC can also be made reliable using well understood
/// replication techniques" — and, crucially, the MC holds only *soft*
/// state: every Matrix server knows its own range, so a fresh MC rebuilds
/// the partition map from the re-registrations this message solicits.
/// Routing never stalls during fail-over because overlap tables are local.
struct McAnnounce {
  NodeId mc_node;
  std::uint64_t generation = 0;  ///< monotonically increasing MC incarnation
};
template <class V> auto fields(V& v, McAnnounce& m) {
  return v(m.mc_node, m.generation);
}

/// Periodic coordinator liveness beacon (control-plane failsafe,
/// src/control/control_plane.h).  Broadcast to every registered matrix
/// server at Config::failsafe.heartbeat_interval — and relayed by each
/// matrix server to its game server — ONLY while the failsafe is enabled,
/// so default deployments put no extra bytes on the wire.  `generation`
/// carries the MC epoch (same counter as McAnnounce.generation); `seq`
/// strictly increases within a generation so a delayed beat can never
/// rewind the freshness clock.
struct McHeartbeat {
  NodeId mc_node;
  std::uint64_t generation = 0;
  std::uint64_t seq = 0;
};
template <class V> auto fields(V& v, McHeartbeat& m) {
  return v(m.mc_node, m.generation, m.seq);
}

// ---------------------------------------------------------------------------
// Envelope-level message
// ---------------------------------------------------------------------------

using Message =
    std::variant<TaggedPacket, ClientHello, Welcome, ClientAction,
                 ServerUpdate, Redirect, ClientBye, LoadReport, MapRange,
                 ShedDone, OwnerQuery, OwnerReply, Adopt, PeerLoad,
                 ReclaimRequest, ReclaimDecline, ReclaimDone, StateTransfer,
                 ClientStateTransfer, ServerRegister, ServerUnregister,
                 OverlapTableMsg, PointLookup, PointOwner, PoolAcquire,
                 PoolGrant, PoolDeny, PoolRelease, McAnnounce, JoinDeny,
                 JoinDefer, AdmissionUpdate, PoolStatus, PoolPressure,
                 QueueUpdate, LoadDigest, AdmissionDirective, QueueHandoff,
                 McHeartbeat>;

// The wire type byte of a message is its index in Message plus one, so
// this variant's order is the protocol: append only.  Tag 0 is never sent.
static_assert(std::variant_size_v<Message> < 256, "the wire type is one byte");

namespace detail {
template <typename Body, typename... Alternatives>
consteval std::uint8_t wire_type_in(const std::variant<Alternatives...>*) {
  std::size_t index = 0;
  const bool found =
      ((std::is_same_v<Body, Alternatives> || (++index, false)) || ...);
  if (!found) throw "not a Message alternative";  // a compile error
  return static_cast<std::uint8_t>(index + 1);
}

// Type-erased halves of encode_one_into and decode_frame, dispatched on the
// wire type through the codec table in protocol.cpp.
void encode_body_into(ByteWriter& writer, std::uint8_t wire_type,
                      const void* body);
bool decode_body_from(std::span<const std::uint8_t> frame,
                      std::uint8_t wire_type, void* body);
}  // namespace detail

/// Wire type byte of the Message alternative `Body`.
template <typename Body>
inline constexpr std::uint8_t kWireType =
    detail::wire_type_in<Body>(static_cast<const Message*>(nullptr));

// Wire type bytes are the protocol: reordering Message breaks the build here.
static_assert(kWireType<TaggedPacket> == 1 && kWireType<ClientAction> == 4 &&
              kWireType<ServerUpdate> == 5 && kWireType<LoadReport> == 8 &&
              kWireType<StateTransfer> == 18 &&
              kWireType<ClientStateTransfer> == 19 &&
              kWireType<QueueUpdate> == 35 && kWireType<QueueHandoff> == 38 &&
              kWireType<McHeartbeat> == 39);

/// Wire type bytes of the three hot data-plane frames.
inline constexpr std::uint8_t kTaggedPacketWireType = kWireType<TaggedPacket>;
inline constexpr std::uint8_t kClientActionWireType = kWireType<ClientAction>;
inline constexpr std::uint8_t kServerUpdateWireType = kWireType<ServerUpdate>;

/// Serializes `message` (1 type byte + body).
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);

/// Serializes into `writer`, reserving the exact wire size up front.  Pair
/// the writer with a recycled buffer (Network::rent_buffer) and steady-state
/// encoding performs no allocation at all.
void encode_message_into(ByteWriter& writer, const Message& message);

/// Serializes a single message body (type byte + body, size-reserved)
/// without ever constructing the Message variant — the typed fast path
/// behind ProtocolNode's and MatrixPort's sends, which otherwise would copy
/// the body (payload included) into a temporary variant per send.
template <typename Body>
void encode_one_into(ByteWriter& writer, const Body& body) {
  detail::encode_body_into(writer, kWireType<Body>, &body);
}

/// Exact encoded size of `message` in bytes, type byte included.
[[nodiscard]] std::size_t wire_size(const Message& message);

/// Parses bytes back into a Message; std::nullopt on malformed input.
///
/// Decoding is canonical: a frame is accepted only if it is exactly the
/// encoding of the message it decodes to — no trailing bytes, bools and
/// presence tags of 0 or 1, minimal varints of at most 64 bits.  So for
/// every accepted frame, re-encoding the result gives the frame back, and a
/// relay may forward received bytes verbatim (ProtocolNode::send_raw).
[[nodiscard]] std::optional<Message> decode_message(
    std::span<const std::uint8_t> bytes);

/// Decodes a frame of the one type `Body` without touching the Message
/// variant; std::nullopt for any other type or a malformed frame.  Accepts
/// exactly the frames decode_message decodes to a `Body`, with equal fields.
/// For steady control streams (LoadReport, QueueUpdate) that would otherwise
/// pay the 39-alternative variant on every frame.
template <typename Body>
[[nodiscard]] std::optional<Body> decode_frame(
    std::span<const std::uint8_t> frame) {
  std::optional<Body> body(std::in_place);
  if (!detail::decode_body_from(frame, kWireType<Body>, &*body)) {
    return std::nullopt;
  }
  return body;
}

/// Short human-readable name of the message alternative, for logs/metrics.
[[nodiscard]] const char* message_name(const Message& message);

// ---------------------------------------------------------------------------
// Zero-copy frame fast paths (the engine hot path)
// ---------------------------------------------------------------------------
//
// The three messages that dominate steady-state traffic — TaggedPacket,
// ClientAction, ServerUpdate — can be routed/applied from a decode that
// never copies the opaque payload and never materializes the Message
// variant.  `ProtocolNode::on_frame` overrides use these views; parse_*
// returns nullopt for any other frame type or a malformed body, sending the
// message down the ordinary decode path.  The views are read through the
// same field lists as decode_message, accept exactly the same frames, and
// their fields are bit-identical to what it would produce.

/// A payload-carrying message decoded without copying its payload: every
/// field of `Body` is set except `Body::payload`, which stays empty; the
/// `payload` declared here (hiding it) views the frame's bytes instead.
template <typename Body>
struct FrameView : Body {
  std::span<const std::uint8_t> payload;  ///< view into the frame

  /// The full message (payload copied) for the rare paths that must hold
  /// it across events (pending MC lookups).
  [[nodiscard]] Body materialize() const {
    Body body = *this;
    body.payload.assign(payload.data(), payload.size());
    return body;
  }
};

struct TaggedPacketView : FrameView<TaggedPacket> {
  /// Byte offset of the peer_forwarded flag within the frame.  A relay that
  /// forwards the packet flag-flipped copies the frame and writes one byte —
  /// byte-identical to re-encoding the mutated struct.
  std::size_t peer_flag_offset = 0;
};
using ClientActionView = FrameView<ClientAction>;
using ServerUpdateView = FrameView<ServerUpdate>;

/// The matrix leg of a game→matrix→game relay (StateTransfer,
/// ClientStateTransfer, QueueHandoff) needs exactly one field: where to
/// forward.  The relay re-sends the arriving frame bytes untouched (sound
/// because decoding is canonical, see decode_message) and the blob —
/// unbounded during big sheds — is checked in place, never copied through a
/// decoded struct.
struct RelayFrameView {
  std::uint8_t wire_type = 0;
  NodeId to_game;
};

[[nodiscard]] std::optional<TaggedPacketView> parse_tagged_packet_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ClientActionView> parse_client_action_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ServerUpdateView> parse_server_update_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<RelayFrameView> parse_relay_frame(
    std::span<const std::uint8_t> frame);

}  // namespace matrix
