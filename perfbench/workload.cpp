// perfbench_workload — one repetition of one repo-benchmark workload.
//
//   perfbench_workload --workload <fig2_hotspot|giga_uniform|giga_skewed>
//                      --seed <n> --shards <k> --sim-seconds <s>
//                      --slice-seconds <s> --mode <plain|traced>
//                      [--setup-trials <n>]
//                      [--spans <path>]
//
// plain  : times <setup-trials> set-ups (Deployment construction plus
//          scenario scripting; all but the last are torn down again), then
//          runs the workload's simulated interval untraced, in run_until
//          slices that are timed one by one.
// traced : the same set-up and run, but the queue depth and active servers
//          are sampled between slices, every call into a layer is wrapped
//          in a span, and the layer replays (scheduler churn, send echo,
//          codec, routing) run afterwards.  Spans are kept in memory and
//          written to --spans at the end.
//
// Prints one JSON object on stdout: the exact simulated counts, the
// simulated metrics (printed round-trip exact), and the host timings.
// perfbench/run.py aggregates repetitions, applies the correctness checks
// and prints the benchmark's result line.  The program is driven only
// through public calls (Deployment, schedule_*_scenario, Network::run_until,
// engine_stats, collect_registry/collect_latency and each layer's public
// functions).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/overlap.h"
#include "core/protocol.h"
#include "net/event_queue.h"
#include "net/network.h"
#include "obs/collect.h"
#include "obs/registry.h"
#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "util/codec.h"
#include "util/rng.h"

#include "bench_common.h"

namespace {

using namespace matrix;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- workloads --------------------------------------------------------------

/// The giga crowd with every hotspot in the top half of the world: the
/// shard plan hands each shard a horizontal band, so shard 0 carries the
/// crowd while shard 1 sees only background bots.  The same shape as
/// bench/bench_engine_throughput.cpp's schedule_skewed_giga_scenario, which
/// is private to that bench's translation unit.
void schedule_skewed_giga(Deployment& deployment,
                          const GigaSurgeScenarioOptions& options) {
  Scenario scenario(deployment);
  scenario.add_background_bots(SimTime::from_ms(100), options.background_bots);
  const Rect& world = deployment.options().config.world;
  const double cell_w =
      (world.x1() - world.x0()) / static_cast<double>(options.hotspots_x);
  const double cell_h = (world.y1() - world.y0()) / 2.0 /
                        static_cast<double>(options.hotspots_y);
  for (std::size_t ix = 0; ix < options.hotspots_x; ++ix) {
    for (std::size_t iy = 0; iy < options.hotspots_y; ++iy) {
      const Vec2 center{world.x0() + (static_cast<double>(ix) + 0.5) * cell_w,
                        world.y0() + (static_cast<double>(iy) + 0.5) * cell_h};
      SimTime t = options.flash_at;
      for (std::size_t joined = 0; joined < options.bots_per_hotspot;) {
        const std::size_t batch =
            std::min(options.join_batch > 0 ? options.join_batch
                                            : options.bots_per_hotspot,
                     options.bots_per_hotspot - joined);
        scenario.add_hotspot_bots(t, batch, center, options.spread);
        joined += batch;
        t += options.join_interval;
      }
    }
  }
}

struct Workload {
  const char* name;
  std::function<DeploymentOptions(std::uint64_t)> options;
  std::function<void(Deployment&)> schedule;
};

/// The named workload with `shards` engine shards over `duration` of
/// simulated time; perfbench/spec.json supplies both.
std::optional<Workload> find_workload(const std::string& name,
                                      std::size_t shards, SimTime duration) {
  if (name == "fig2_hotspot") {
    HotspotScenarioOptions scenario;
    scenario.duration = duration;
    return Workload{"fig2_hotspot",
                    [shards](std::uint64_t seed) {
                      DeploymentOptions options = bench::paper_options();
                      options.config.engine.shards = shards;
                      options.seed = seed;
                      return options;
                    },
                    [scenario](Deployment& d) {
                      schedule_hotspot_scenario(d, scenario);
                    }};
  }
  if (name != "giga_uniform" && name != "giga_skewed") return std::nullopt;
  GigaSurgeScenarioOptions scenario;
  scenario.duration = duration;
  auto options = [shards](std::uint64_t seed) {
    DeploymentOptions giga = giga_surge_deployment_options(shards);
    giga.seed = seed;
    return giga;
  };
  if (name == "giga_uniform") {
    return Workload{"giga_uniform", options, [scenario](Deployment& d) {
                      schedule_giga_surge_scenario(d, scenario);
                    }};
  }
  return Workload{"giga_skewed", options, [scenario](Deployment& d) {
                    schedule_skewed_giga(d, scenario);
                  }};
}

// ---- host probes ------------------------------------------------------------

/// A /proc/self/status field in MB (VmRSS, VmHWM); 0 when unreadable.
double proc_status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- spans ------------------------------------------------------------------

/// In-memory span log of the benchmark's own calls into each layer.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };

  template <typename F>
  void span(const std::string& name, F&& body) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), now(), 0.0});
    open_.push_back(id);
    body();
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].end_s = now();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Span self time: its duration minus the part its children cover.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- JSON output ------------------------------------------------------------

/// Flat JSON object writer.  Integers print exactly, doubles round-trip
/// (%.17g), so counts compare bit-for-bit across runs.
class JsonObject {
 public:
  void add(const std::string& key, std::uint64_t value) {
    field(key) << value;
  }
  void add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    field(key) << buf;
  }
  void add(const std::string& key, const std::string& value) {
    field(key) << '"' << value << '"';
  }
  void add(const std::string& key, bool value) {
    field(key) << (value ? "true" : "false");
  }
  void add_raw(const std::string& key, const std::string& json) {
    field(key) << json;
  }
  [[nodiscard]] std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream& field(const std::string& key) {
    if (!first_) out_ << ", ";
    first_ = false;
    out_ << '"' << key << "\": ";
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

// ---- simulated results ------------------------------------------------------

double registry_value(const obs::Registry& registry, const std::string& name) {
  for (const obs::Metric& metric : registry.metrics()) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

std::uint64_t registry_count(const obs::Registry& registry,
                             const std::string& name) {
  return static_cast<std::uint64_t>(registry_value(registry, name));
}

/// Every simulated outcome the checks compare: exact counts, plus the sim
/// metrics (latency percentiles, split latency) as doubles.
void add_sim_results(Deployment& deployment, const obs::Registry& registry,
                     JsonObject& counts, JsonObject& sim) {
  const Network::EngineStats engine = deployment.network().engine_stats();
  counts.add("events", engine.events_processed);
  counts.add("peak_pending", static_cast<std::uint64_t>(engine.event_peak_pending));
  counts.add("messages", deployment.network().total_messages());
  counts.add("bytes", deployment.network().total_bytes());
  counts.add("dropped", deployment.network().total_dropped());
  counts.add("cross_shard_msgs", engine.cross_shard_messages);
  counts.add("buffers_acquired", engine.buffers_acquired);
  counts.add("buffers_reused", engine.buffers_reused);
  counts.add("windows", engine.windows);
  std::uint64_t shard_busiest = 0;
  std::uint64_t shard_total = 0;
  for (const std::uint64_t events : engine.shard_events) {
    shard_busiest = std::max(shard_busiest, events);
    shard_total += events;
  }
  counts.add("shard_busiest_events", shard_busiest);
  counts.add("shard_total_events", shard_total);
  counts.add("shards", static_cast<std::uint64_t>(engine.shard_events.size()));

  std::uint64_t joined = 0;
  std::uint64_t admitted = 0;
  for (const BotClient* bot : deployment.bots()) {
    if (!bot->ever_joined()) continue;
    ++joined;
    if (bot->ever_connected()) ++admitted;
  }
  counts.add("joined", joined);
  counts.add("admitted", admitted);

  for (const char* name :
       {"clients.actions", "clients.redirected", "clients.migrated",
        "clients.hellos", "topology.splits_completed",
        "topology.reclaims_completed", "topology.table_updates",
        "topology.packets_fanned_out", "admission.joins_denied",
        "admission.joins_deferred", "admission.queue.parked",
        "admission.directives_broadcast", "pool.grants",
        "pool.arbitrated_requests", "pool.contested_rounds"}) {
    counts.add(name, registry_count(registry, name));
  }

  const LatencySummary latency = collect_latency(deployment);
  counts.add("client_latency.count",
             static_cast<std::uint64_t>(latency.self_ms.count()));
  counts.add("switch_latency.count",
             static_cast<std::uint64_t>(latency.switch_ms.count()));
  sim.add("client_latency_mean_ms", latency.self_ms.mean());
  sim.add("client_latency_p50_ms", latency.self_ms.percentile(50.0));
  sim.add("client_latency_p99_ms", latency.self_ms.percentile(99.0));
  sim.add("switch_latency_mean_ms", latency.switch_ms.mean());
  sim.add("switch_latency_p50_ms", latency.switch_ms.percentile(50.0));
  sim.add("switch_latency_p95_ms", latency.switch_ms.percentile(95.0));
  sim.add("split_latency_mean_ms",
          registry_value(registry, "topology.split_latency_mean_ms"));
}

// ---- layer replays ----------------------------------------------------------

/// Host ns per scheduler operation (one pop or one push) in a hold-model
/// churn on the public EventQueue at `depth` pending events.
double sched_ns_per_op(std::size_t depth, std::uint64_t seed) {
  EventQueue queue;
  Rng rng(seed);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule_at(SimTime::from_us(rng.next_in(0, 10'000'000)), [] {});
  }
  constexpr std::uint64_t kIters = 1'000'000;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    queue.step();
    queue.schedule_at(queue.now() + SimTime::from_us(rng.next_in(0, 10'000'000)),
                      [] {});
  }
  return seconds_since(start) * 1e9 / (2.0 * static_cast<double>(kIters));
}

/// Bounces every message it receives back to its sender until `remaining`
/// runs out.
class EchoNode final : public Node {
 public:
  explicit EchoNode(std::uint64_t remaining) : remaining_(remaining) {}
  [[nodiscard]] std::string name() const override { return "echo"; }
  void handle_message(const Envelope& envelope) override {
    ++received_;
    if (remaining_ == 0) return;
    --remaining_;
    std::vector<std::uint8_t> reply = network()->rent_buffer();
    reply.assign(envelope.payload.begin(), envelope.payload.end());
    network()->send(node_id(), envelope.src, std::move(reply));
  }
  std::uint64_t received_ = 0;

 private:
  std::uint64_t remaining_;
};

struct SendReplay {
  double ns_per_send = 0.0;
  bool all_delivered = false;
};

/// Host ns per Network::send → deliver → handler hop, two nodes echoing a
/// `payload_bytes` message back and forth.
SendReplay send_echo_ns(std::size_t payload_bytes, std::uint64_t seed) {
  constexpr std::uint64_t kSends = 400'000;
  Network network(seed);
  // a's first send plus kSends/2 replies from b and kSends/2 - 1 from a.
  EchoNode a(kSends / 2 - 1);
  EchoNode b(kSends / 2);
  const NodeId a_id = network.attach(&a);
  const NodeId b_id = network.attach(&b);
  const auto start = Clock::now();
  network.send(a_id, b_id, std::vector<std::uint8_t>(payload_bytes, 0x5A));
  network.run_until(SimTime::from_sec(1e6));
  SendReplay replay;
  replay.ns_per_send = seconds_since(start) * 1e9 / static_cast<double>(kSends);
  replay.all_delivered = a.received_ + b.received_ == kSends &&
                         network.total_dropped() == 0;
  return replay;
}

struct CodecReplay {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double parse_ns = 0.0;
  std::uint64_t mismatches = 0;  ///< frames that failed to decode or parse
};

ActionKind draw_kind(const GameModelSpec& spec, Rng& rng) {
  double r = rng.next_double();
  if ((r -= spec.fire_fraction) < 0.0) return ActionKind::kFire;
  if ((r -= spec.chat_fraction) < 0.0) return ActionKind::kChat;
  if ((r -= spec.interact_fraction) < 0.0) return ActionKind::kInteract;
  return ActionKind::kMove;
}

/// Host ns per message for encode_message_into, decode_message and the
/// parse_*_frame fast paths over the data-plane hot types (TaggedPacket,
/// ClientAction, ServerUpdate) with payloads drawn from the game spec's mix.
CodecReplay codec_replay(const GameModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Message> messages;
  constexpr std::size_t kPerType = 1000;
  for (std::size_t i = 0; i < kPerType; ++i) {
    const ActionKind kind = draw_kind(spec, rng);
    const PayloadBytes payload(
        std::vector<std::uint8_t>(spec.payload_size(kind), 0xA5));
    const Vec2 at{rng.next_double() * 1000.0, rng.next_double() * 1000.0};
    const auto seq = static_cast<std::uint32_t>(i + 1);
    const SimTime sent = SimTime::from_us(static_cast<std::int64_t>(i) * 100);
    TaggedPacket packet;
    packet.client = ClientId(i + 1);
    packet.entity = EntityId(i + 1);
    packet.origin = at;
    packet.kind = static_cast<std::uint8_t>(kind);
    packet.seq = seq;
    packet.client_sent_at = sent;
    packet.payload = payload;
    ClientAction action;
    action.client = ClientId(i + 1);
    action.kind = static_cast<std::uint8_t>(kind);
    action.position = at;
    if (kind == ActionKind::kFire) action.target = Vec2{at.x + 10.0, at.y};
    action.seq = seq;
    action.sent_at = sent;
    action.payload = payload;
    ServerUpdate update;
    update.kind = static_cast<std::uint8_t>(kind);
    update.position = at;
    update.ack_seq = seq;
    update.origin_sent_at = sent;
    update.payload = payload;
    messages.emplace_back(std::move(packet));
    messages.emplace_back(std::move(action));
    messages.emplace_back(std::move(update));
  }

  constexpr int kRounds = 100;
  const double ops = static_cast<double>(messages.size()) * kRounds;
  CodecReplay replay;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(messages.size());
  for (const Message& m : messages) {
    frames.push_back(encode_message(m));
    // Round trip: decoding a frame and encoding it again gives its bytes.
    const std::optional<Message> decoded = decode_message(frames.back());
    if (!decoded || encode_message(*decoded) != frames.back()) {
      ++replay.mismatches;
    }
  }

  std::uint64_t sink = 0;
  std::vector<std::uint8_t> buffer;
  auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const Message& m : messages) {
      ByteWriter writer(std::move(buffer));
      encode_message_into(writer, m);
      sink += writer.size();
      buffer = writer.take();
    }
  }
  replay.encode_ns = seconds_since(start) * 1e9 / ops;

  start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& frame : frames) {
      const std::optional<Message> decoded = decode_message(frame);
      if (decoded.has_value()) {
        sink += decoded->index();
      } else if (round == 0) {
        ++replay.mismatches;
      }
    }
  }
  replay.decode_ns = seconds_since(start) * 1e9 / ops;

  start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& frame : frames) {
      bool parsed = false;
      switch (frame[0]) {
        case kTaggedPacketWireType:
          if (auto view = parse_tagged_packet_frame(frame)) {
            sink += view->seq;
            parsed = true;
          }
          break;
        case kClientActionWireType:
          if (auto view = parse_client_action_frame(frame)) {
            sink += view->seq;
            parsed = true;
          }
          break;
        case kServerUpdateWireType:
          if (auto view = parse_server_update_frame(frame)) {
            sink += view->ack_seq;
            parsed = true;
          }
          break;
        default:
          break;
      }
      if (!parsed && round == 0) ++replay.mismatches;
    }
  }
  replay.parse_ns = seconds_since(start) * 1e9 / ops;
  // Keep the loops observable so none is folded away.
  if (sink == 0) ++replay.mismatches;
  return replay;
}

struct RoutingReplay {
  double find_ns = 0.0;
  double build_ms = 0.0;
};

/// build_overlap_regions over the final partition map, then RegionIndex::find
/// for every bot position against its owner's index.
RoutingReplay routing_replay(Deployment& deployment) {
  const Config& config = deployment.options().config;
  const PartitionMap& map = deployment.coordinator().partition_map();
  RoutingReplay replay;
  std::vector<RegionIndex> indexes;
  indexes.reserve(map.size());
  const auto build_start = Clock::now();
  for (const PartitionEntry& entry : map.entries()) {
    indexes.emplace_back(entry.range,
                         build_overlap_regions(map, entry.server,
                                               config.visibility_radius,
                                               config.metric));
  }
  replay.build_ms = seconds_since(build_start) * 1e3;

  std::vector<std::pair<const RegionIndex*, Vec2>> lookups;
  for (const BotClient* bot : deployment.bots()) {
    const PartitionEntry* owner = map.owner_of(bot->position());
    if (owner == nullptr) continue;
    const auto at = static_cast<std::size_t>(owner - map.entries().data());
    lookups.emplace_back(&indexes[at], bot->position());
  }
  if (lookups.empty()) return replay;
  const std::size_t rounds =
      std::max<std::size_t>(1, 2'000'000 / lookups.size());
  std::uint64_t hits = 0;
  const auto find_start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& [index, p] : lookups) {
      if (index->find(p) != nullptr) ++hits;
    }
  }
  replay.find_ns = seconds_since(find_start) * 1e9 /
                   static_cast<double>(rounds * lookups.size());
  if (hits == ~std::uint64_t{0}) replay.find_ns = 0.0;  // keep `hits` live
  return replay;
}

// ---- runs -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 2005;
  std::size_t shards = 0;
  double sim_seconds = 0.0;
  double slice_seconds = 0.0;
  std::string mode = "plain";
  int setup_trials = 5;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--shards") {
      args.shards = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--sim-seconds") {
      args.sim_seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--slice-seconds") {
      args.slice_seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--mode") {
      args.mode = value;
    } else if (key == "--setup-trials") {
      args.setup_trials = std::max(1, std::atoi(value.c_str()));
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.shards == 0 ||
      !(args.sim_seconds > 0.0) || !(args.slice_seconds > 0.0) ||
      (args.mode != "plain" && args.mode != "traced")) {
    return std::nullopt;
  }
  return args;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

bool write_spans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = log.self_seconds();
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const SpanLog::Span& s = log.spans()[i];
    JsonObject line;
    line.add("id", static_cast<std::uint64_t>(i));
    line.add_raw("parent", std::to_string(s.parent));
    line.add("name", s.name);
    line.add("start_s", s.start_s);
    line.add("end_s", s.end_s);
    line.add("self_s", self[i]);
    out << line.str() << '\n';
  }
  return static_cast<bool>(out);
}

int run(const Args& args) {
  const SimTime duration = SimTime::from_sec(args.sim_seconds);
  const SimTime slice = SimTime::from_sec(args.slice_seconds);
  const std::optional<Workload> workload =
      find_workload(args.workload, args.shards, duration);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.mode == "traced";
  SpanLog spans;
  JsonObject host;
  JsonObject layer;

  // Set-up: construct + script `setup_trials` times; keep the last.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  spans.span("sim.setup", [&] {
    for (int trial = 0; trial < args.setup_trials; ++trial) {
      deployment.reset();
      const auto start = Clock::now();
      deployment = std::make_unique<Deployment>(workload->options(args.seed));
      workload->schedule(*deployment);
      setup_s.push_back(seconds_since(start));
    }
  });
  const double rss_after_setup_mb = proc_status_mb("VmRSS");
  Network& network = deployment->network();

  // The measured interval, run in run_until slices whose walls are timed
  // one by one; a slice does the same simulated work in every repetition of
  // one seed.  The slices are also the traced run's sampling period, so the
  // traced and untraced runs make the same run_until calls: the sharded
  // engine's result depends on where run_until returns (giga_skewed, seed
  // 2005: 18,104,258 events unsliced, 18,104,250 in 250 ms slices).  In the
  // traced run the spans and samples around the slices are the tracing
  // overhead, timed in this same process so a change in host speed between
  // processes does not enter the ratio.
  std::vector<double> slice_wall_s;
  std::uint64_t peak_queue = 0;
  std::size_t peak_active = 0;
  std::size_t peak_clients = 0;
  const auto interval_start = Clock::now();
  for (SimTime t = slice;; t += slice) {
    const SimTime until = std::min(t, duration);
    const auto start = Clock::now();
    if (traced) {
      spans.span("net.run_until", [&] { deployment->run_until(until); });
    } else {
      deployment->run_until(until);
    }
    slice_wall_s.push_back(seconds_since(start));
    if (traced) {
      spans.span("sim.sample", [&] {
        for (const GameServer* server : deployment->game_servers()) {
          peak_queue = std::max<std::uint64_t>(
              peak_queue, network.queue_length(server->node_id()));
        }
        peak_active = std::max(peak_active, deployment->active_server_count());
        peak_clients = std::max(peak_clients, deployment->total_clients());
      });
    }
    if (until == duration) break;
  }
  const double interval_s = seconds_since(interval_start);
  double wall_s = 0.0;
  for (const double slice : slice_wall_s) wall_s += slice;
  const double peak_rss_mb = proc_status_mb("VmHWM");

  obs::Registry registry;
  double collect_ms = 0.0;
  spans.span("obs.collect_registry", [&] {
    const auto start = Clock::now();
    registry = obs::collect_registry(*deployment);
    collect_ms = seconds_since(start) * 1e3;
  });
  JsonObject counts;
  JsonObject sim;
  add_sim_results(*deployment, registry, counts, sim);
  const Network::EngineStats engine = network.engine_stats();

  host.add_raw("setup_s", json_array(setup_s));
  host.add("wall_s", wall_s);
  host.add_raw("slice_wall_s", json_array(slice_wall_s));
  host.add("peak_rss_mb", peak_rss_mb);
  host.add("barrier_stall_s",
           static_cast<double>(engine.window_stall_us) / 1e6);
  host.add("threads", resolve_shard_threads(
                          deployment->options().config.engine.threads));
  host.add("shards", static_cast<std::uint64_t>(network.shard_count()));
  host.add("compiler", std::string(PERFBENCH_COMPILER));
  host.add("build_type", std::string(PERFBENCH_BUILD_TYPE));

  bool replays_ok = true;
  if (traced) {
    const std::uint64_t messages = network.total_messages();
    const double mean_wire =
        messages > 0 ? static_cast<double>(network.total_bytes()) /
                           static_cast<double>(messages)
                     : 0.0;
    const auto payload = static_cast<std::size_t>(std::max(
        0.0, mean_wire - static_cast<double>(kWireHeaderBytes)));
    double sched_ns = 0.0;
    SendReplay send;
    CodecReplay codec;
    RoutingReplay routing;
    spans.span("net.replay.scheduler", [&] {
      sched_ns = sched_ns_per_op(std::max<std::size_t>(
                                     1, engine.event_peak_pending),
                                 args.seed);
    });
    spans.span("net.replay.send", [&] { send = send_echo_ns(payload, args.seed); });
    spans.span("core.replay.codec", [&] {
      codec = codec_replay(deployment->options().spec, args.seed);
    });
    spans.span("core.replay.routing",
               [&] { routing = routing_replay(*deployment); });
    replays_ok = send.all_delivered && codec.mismatches == 0;

    layer.add("rss_after_setup_mb", rss_after_setup_mb);
    layer.add("peak_clients", static_cast<std::uint64_t>(peak_clients));
    layer.add("peak_active_servers", static_cast<std::uint64_t>(peak_active));
    layer.add("peak_queue_msgs", peak_queue);
    layer.add("collect_ms", collect_ms);
    layer.add("trace_overhead_ratio", interval_s / wall_s);
    layer.add("sched_ns_per_op", sched_ns);
    layer.add("send_ns", send.ns_per_send);
    layer.add("send_payload_bytes", static_cast<std::uint64_t>(payload));
    layer.add("encode_ns", codec.encode_ns);
    layer.add("decode_ns", codec.decode_ns);
    layer.add("frame_parse_ns", codec.parse_ns);
    layer.add("find_ns", routing.find_ns);
    layer.add("build_ms", routing.build_ms);
    if (!args.spans_path.empty() && !write_spans(args.spans_path, spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  }

  JsonObject result;
  result.add("workload", std::string(workload->name));
  result.add("seed", args.seed);
  result.add("mode", args.mode);
  result.add("replays_ok", replays_ok);
  result.add_raw("counts", counts.str());
  result.add_raw("sim", sim.str());
  result.add_raw("host", host.str());
  result.add_raw("layer", layer.str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --shards <k> "
                 "--sim-seconds <s> --slice-seconds <s> --mode plain|traced "
                 "[--setup-trials <n>] [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  return run(*args);
}
