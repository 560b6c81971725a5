#include "aqt/serve/registry.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "aqt/adversaries/bucket.hpp"
#include "aqt/adversaries/lps.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/util/check.hpp"

namespace aqt {
namespace serve {

Registry::Registry() = default;

void Registry::register_topology(NamedTopology entry) {
  AQT_REQUIRE(!entry.name.empty(), "named topology needs a name");
  AQT_REQUIRE(entry.name.find(':') == std::string::npos,
              "named topology '" << entry.name
                                 << "' may not contain ':' (reserved for "
                                    "grammar specs)");
  AQT_REQUIRE(entry.build != nullptr,
              "named topology '" << entry.name << "' needs a builder");
  for (auto& existing : named_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  named_.push_back(std::move(entry));
}

bool Registry::has_topology(const std::string& name) const {
  if (name.find(':') != std::string::npos) {
    try {
      (void)parse_topology_spec(name, 1);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }
  return std::any_of(named_.begin(), named_.end(),
                     [&](const NamedTopology& t) { return t.name == name; });
}

JsonValue Registry::catalog() const {
  JsonValue doc = JsonValue::make_object();
  doc.set("aqt_catalog", JsonValue::make_int(1));
  doc.set("topology_grammar", JsonValue::make_string(topology_spec_grammar()));
  JsonValue named = JsonValue::make_array();
  for (const NamedTopology& t : named_) {
    JsonValue entry = JsonValue::make_object();
    entry.set("name", JsonValue::make_string(t.name));
    entry.set("description", JsonValue::make_string(t.description));
    named.push_back(std::move(entry));
  }
  doc.set("topologies", std::move(named));
  JsonValue protocols = JsonValue::make_array();
  for (const std::string& p : protocol_names())
    protocols.push_back(JsonValue::make_string(p));
  doc.set("protocols", std::move(protocols));
  JsonValue adversaries = JsonValue::make_array();
  for (const char* kind :
       {"none", "stochastic", "hotspot", "convoy", "bucket", "lps"})
    adversaries.push_back(JsonValue::make_string(kind));
  doc.set("adversaries", std::move(adversaries));
  JsonValue artifacts = JsonValue::make_array();
  for (const char* a : {"metrics", "trace_hash", "growth"})
    artifacts.push_back(JsonValue::make_string(a));
  doc.set("artifacts", std::move(artifacts));
  return doc;
}

RunSpec Registry::compile(const RunRequest& req) const {
  // Protocol: exactly make_protocol's name table.
  {
    const auto& names = protocol_names();
    if (std::find(names.begin(), names.end(), req.protocol) == names.end())
      throw RequestError(errc::kUnknownProtocol,
                         "unknown protocol \"" + req.protocol + "\"");
  }

  // Topology: named recipe first, then the grammar.  The parse result for
  // grammar specs is shared into the closures (graph copied per cell, the
  // lps gadget handle borrowed by the adversary factory).
  std::shared_ptr<const TopologySpec> topo;
  std::function<Graph()> build;
  if (req.topology.find(':') == std::string::npos) {
    const NamedTopology* entry = nullptr;
    for (const NamedTopology& t : named_)
      if (t.name == req.topology) entry = &t;
    if (entry == nullptr)
      throw RequestError(errc::kUnknownTopology,
                         "unknown topology \"" + req.topology +
                             "\" (no such named recipe; grammar specs "
                             "contain ':')");
    const auto builder = entry->build;
    const std::uint64_t seed = req.seed;
    build = [builder, seed] { return builder(seed); };
  } else {
    try {
      topo = std::make_shared<const TopologySpec>(
          parse_topology_spec(req.topology, req.seed));
    } catch (const std::exception& e) {
      throw RequestError(errc::kUnknownTopology,
                         "bad topology spec \"" + req.topology +
                             "\": " + e.what());
    }
    build = [topo] { return topo->graph; };
  }

  const AdversarySpec& adv = req.adversary;
  const bool is_lps_adv = adv.kind == "lps";
  if (is_lps_adv && (topo == nullptr || !topo->is_lps))
    throw RequestError(errc::kBadParam,
                       "adversary \"lps\" needs an lps:NxM topology, got \"" +
                           req.topology + "\"");
  if (is_lps_adv) {
    const LpsConfig probe = make_lps_config(adv.r);
    if (probe.n != topo->lps_net.n)
      throw RequestError(
          errc::kBadParam,
          "topology lps:" + std::to_string(topo->lps_net.n) +
              "xM does not match n(" + adv.r.str() +
              ") = " + std::to_string(probe.n) + "; use lps:" +
              std::to_string(probe.n) + "xM");
  }
  if ((adv.kind == "stochastic" || adv.kind == "hotspot" ||
       adv.kind == "convoy" || adv.kind == "bucket" || is_lps_adv) &&
      adv.r == Rat(0))
    throw RequestError(errc::kBadParam,
                       "adversary \"" + adv.kind + "\" needs r > 0");

  RunSpec spec;
  spec.name = req.id;
  spec.topology.name = req.topology;
  spec.topology.build = std::move(build);
  spec.protocol = req.protocol;
  spec.seed = req.seed;
  spec.steps = req.steps;
  spec.stop_when_finished = req.stop_when_finished;
  spec.drain_after = req.drain;
  spec.drain_cap = req.drain_cap;
  spec.audit_w = req.audit_w;
  spec.audit_burst = req.audit_burst;
  spec.audit_r = req.audit_r;
  spec.artifacts.metrics = req.art_metrics;
  spec.artifacts.trace_hash = req.art_trace_hash;
  spec.artifacts.growth = req.art_growth;
  spec.controls.resume_from = req.resume_from;

  if (adv.kind == "none") {
    spec.adversary = nullptr;
  } else if (adv.kind == "stochastic" || adv.kind == "hotspot") {
    StochasticConfig cfg;
    cfg.w = adv.w;
    cfg.r = adv.r;
    cfg.max_route_len = adv.d;
    cfg.mode = adv.kind == "hotspot" ? StochasticConfig::Mode::kHotspot
                                     : StochasticConfig::Mode::kUniform;
    spec.adversary = [cfg](const Graph& graph,
                           std::uint64_t seed) -> std::unique_ptr<Adversary> {
      StochasticConfig c = cfg;
      c.seed = seed;
      return std::make_unique<StochasticAdversary>(graph, c);
    };
  } else if (adv.kind == "bucket") {
    BucketAdversary::Config cfg;
    cfg.burst = adv.burst;
    cfg.rate = adv.r;
    cfg.max_route_len = adv.d;
    spec.adversary = [cfg](const Graph& graph,
                           std::uint64_t seed) -> std::unique_ptr<Adversary> {
      BucketAdversary::Config c = cfg;
      c.seed = seed;
      return std::make_unique<BucketAdversary>(graph, c);
    };
  } else if (adv.kind == "convoy") {
    const std::int64_t w = adv.w;
    const Rat r = adv.r;
    const std::int64_t d = adv.d;
    spec.adversary = [w, r, d](const Graph& graph,
                               std::uint64_t) -> std::unique_ptr<Adversary> {
      const Route path = convoy_route(graph, d);
      if (path.empty())
        throw RequestError(errc::kBadParam,
                           "no forward path from node 0 for the convoy "
                           "adversary on this topology");
      return std::make_unique<ConvoyAdversary>(path, w, r);
    };
  } else if (is_lps_adv) {
    const Rat r = adv.r;
    const std::int64_t iterations = adv.iterations;
    const std::int64_t s_star = adv.s_star;
    // `topo` is captured by both closures: it owns the ChainedGadgets the
    // adversary borrows, and the spec outlives the cell's adversary.
    spec.adversary = [topo, r, iterations](
                         const Graph&,
                         std::uint64_t) -> std::unique_ptr<Adversary> {
      LpsConfig cfg = make_lps_config(r);
      cfg.enforce_s0 = false;
      return std::make_unique<LpsAdversary>(topo->lps_net, cfg, iterations);
    };
    spec.setup = [topo, s_star](Engine& eng, const Graph&) {
      setup_flat_queue(eng, topo->lps_net, 0, s_star);
    };
  } else {
    throw RequestError(errc::kUnknownAdversary,
                       "unknown adversary kind \"" + adv.kind + "\"");
  }

  return spec;
}

}  // namespace serve
}  // namespace aqt
