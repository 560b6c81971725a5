#include "aqt/core/checkpoint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "aqt/core/engine.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/hash.hpp"

namespace aqt {
namespace {

constexpr const char* kMagic = "AQT-CHECKPOINT";
// Version 2: metrics carry step/occupancy totals and the queue-depth and
// residence histograms (observability layer).  Version 3: the graph
// checksum is the standard FNV-1a 64 (util/hash.hpp); version 2 seeded it
// with a mistyped offset basis.
constexpr int kVersion = 3;

/// FNV-1a over edge names, each followed by a 0x1f unit separator: ties a
/// checkpoint to an identically-built graph.
std::uint64_t graph_checksum(const Graph& g) {
  Fnv1a h;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    h.update(g.edge(e).name);
    h.update_byte(0x1f);
  }
  return h.value();
}

}  // namespace

void save_checkpoint(const Engine& engine, std::ostream& os) {
  AQT_REQUIRE(!engine.config_.audit_rates,
              "checkpointing does not carry the rate audit; disable "
              "EngineConfig::audit_rates for checkpointed runs");
  const Graph& g = engine.graph_;
  os << kMagic << ' ' << kVersion << '\n';
  os << "graph " << g.edge_count() << ' ' << graph_checksum(g) << '\n';
  os << "clock " << engine.now_ << ' ' << engine.seq_ << ' '
     << engine.absorbed_ << ' ' << (engine.stepping_started_ ? 1 : 0)
     << '\n';
  os << "created " << engine.arena_.total_created() << '\n';
  os << "packets " << engine.arena_.live_count() << '\n';
  engine.arena_.for_each_live(
      [&](PacketId, const Packet& p, const PacketMeta& m) {
        os << "p " << m.ordinal << ' ' << m.tag << ' ' << p.inject_time << ' '
           << p.arrival_time << ' ' << p.arrival_seq << ' ' << p.hop << ' '
           << p.route.size();
        for (EdgeId e : p.route) os << ' ' << e;
        os << '\n';
      });
  engine.metrics_.save(os);
  os << "end\n";
}

void load_checkpoint(Engine& engine, std::istream& is) {
  AQT_REQUIRE(!engine.config_.audit_rates,
              "checkpoint restore requires auditing disabled");
  AQT_REQUIRE(engine.now_ == 0 && !engine.stepping_started_ &&
                  engine.arena_.live_count() == 0 &&
                  engine.arena_.total_created() == 0,
              "checkpoints restore only into a fresh engine");
  const Graph& g = engine.graph_;

  std::string magic;
  int version = 0;
  is >> magic >> version;
  AQT_REQUIRE(is && magic == kMagic, "not a checkpoint stream");
  AQT_REQUIRE(version == kVersion,
              "unsupported checkpoint version "
                  << version << " (this build reads version " << kVersion
                  << ")");

  std::string word;
  std::size_t edge_count = 0;
  std::uint64_t checksum = 0;
  is >> word >> edge_count >> checksum;
  AQT_REQUIRE(is && word == "graph", "malformed graph header");
  AQT_REQUIRE(edge_count == g.edge_count() && checksum == graph_checksum(g),
              "checkpoint was taken on a different network");

  int started = 0;
  is >> word >> engine.now_ >> engine.seq_ >> engine.absorbed_ >> started;
  AQT_REQUIRE(is && word == "clock", "malformed clock line");
  engine.stepping_started_ = started != 0;

  std::uint64_t created = 0;
  is >> word >> created;
  AQT_REQUIRE(is && word == "created", "malformed created line");

  std::uint64_t live = 0;
  is >> word >> live;
  AQT_REQUIRE(is && word == "packets", "malformed packets header");
  Route route;
  std::vector<std::pair<EdgeId, BufferEntry>> entries;
  for (std::uint64_t i = 0; i < live; ++i) {
    Packet p;
    std::uint64_t ordinal = 0;
    std::uint64_t tag = 0;
    std::size_t route_len = 0;
    is >> word >> ordinal >> tag >> p.inject_time >> p.arrival_time >>
        p.arrival_seq >> p.hop >> route_len;
    AQT_REQUIRE(is && word == "p", "malformed packet record " << i);
    route.resize(route_len);
    for (EdgeId& e : route) {
      is >> e;
      AQT_REQUIRE(is && e < g.edge_count(), "bad edge id in packet route");
    }
    AQT_REQUIRE(p.hop < route.size(), "packet beyond end of route");
    // Through the engine's validating intern, so that a tampered checkpoint
    // cannot put a non-simple route into the table.
    const std::optional<RouteRef> ref = engine.intern_route(route);
    AQT_REQUIRE(ref.has_value(),
                "packet " << i << " route is not a simple path");
    p.route = *ref;
    const PacketId id = engine.arena_.restore(p, ordinal, tag);
    // Rebuild the buffer entry: the key is a pure function of the packet's
    // stored arrival data, so deterministic protocols reproduce it exactly.
    const Packet& stored = engine.arena_[id];
    const PriorityKey k = engine.protocol_.key(stored, stored.arrival_time,
                                               stored.arrival_seq);
    entries.emplace_back(stored.route[stored.hop],
                         BufferEntry{k.k1, k.k2, stored.arrival_seq, id});
  }
  // Pushed in key order, every push is an O(1) append to a ring buffer (and
  // no worse than any other order for a heap).
  std::sort(entries.begin(), entries.end());
  for (const auto& [edge, entry] : entries) {
    engine.buffers_[edge].push(entry);
    engine.set_active_bit(edge);
  }
  engine.arena_.set_total_created(created);
  engine.metrics_.load(is);
  is >> word;
  AQT_REQUIRE(is && word == "end", "truncated checkpoint");
}

}  // namespace aqt
