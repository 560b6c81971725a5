#include "aqt/verify/verifier.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "aqt/util/check.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/json.hpp"

namespace aqt {
namespace {

/// Cascade guard: one corrupted record can invalidate every later one, so
/// collection stops (with a truncation marker) instead of drowning the
/// first cause.
constexpr std::size_t kMaxFindings = 100;

/// The verifier's own protocol taxonomy.  Deliberately a flat table rather
/// than a query against core/protocol.hpp: the whole point of N-version
/// checking is that a bug in the engine's classification cannot silently
/// excuse a trace.
constexpr const char* kKnown[] = {"FIFO", "LIFO", "LIS", "NIS", "SIS",
                                  "FFS",  "NTS",  "FTG", "NTG", "RANDOM"};
constexpr const char* kHistoric[] = {"FIFO", "LIFO", "LIS",   "NIS",
                                     "SIS",  "FFS",  "NTS", "RANDOM"};
constexpr const char* kTimePriority[] = {"FIFO", "LIS"};

template <std::size_t N>
bool in_table(const char* const (&table)[N], const std::string& name) {
  for (const char* entry : table)
    if (name == entry) return true;
  return false;
}

/// The verifier's packet model: identity is the creation ordinal, position
/// is (route, hop).  Dead packets are retained for rate accounting and
/// absorb/reroute diagnosis.
struct ModelPacket {
  Route route;
  std::size_t hop = 0;
  Time inject = 0;   ///< Creation step (0 for initial packets).
  Time arrival = 0;  ///< Step it entered its current buffer.
  bool live = false;
  bool in_transit = false;  ///< Sent this step, not yet re-enqueued.
};

class Verifier {
 public:
  Verifier(const RunTrace& tr, std::string label) : tr_(tr) {
    rep_.file = std::move(label);
    rep_.protocol = tr.meta.protocol;
    rep_.meta = tr.meta;
    rep_.trace_hash = tr.computed_hash;
    queues_.resize(tr.edges.size());
    sent_this_step_.resize(tr.edges.size(), 0);
    queue_checked_.resize(tr.edges.size(), 0);
  }

  VerifyReport run() {
    if (tr_.declared_hash != tr_.computed_hash)
      add("trace-hash", 0, kNoOrdinal, kNoEdge,
          "footer hash " + hash_hex(tr_.declared_hash) +
              " does not match content hash " + hash_hex(tr_.computed_hash) +
              " (trace bytes were altered after recording)");
    if (!verify_protocol_known(tr_.meta.protocol))
      add("protocol-unknown", 0, kNoOrdinal, kNoEdge,
          "protocol '" + tr_.meta.protocol +
              "' is not in the verifier's taxonomy; protocol-specific "
              "checks skipped");
    for (const RunRecord& rec : tr_.records) dispatch(rec);
    if (in_step_) close_step();
    check_footer();
    check_residents();
    check_feasibility();
    return std::move(rep_);
  }

 private:
  void add(std::string code, Time step, std::uint64_t ordinal, EdgeId edge,
           std::string message) {
    if (rep_.findings.size() >= kMaxFindings) {
      rep_.findings_truncated = true;
      return;
    }
    rep_.findings.push_back(VerifyFinding{std::move(code), step, ordinal,
                                          edge, std::move(message)});
  }

  [[nodiscard]] bool edge_ok(EdgeId e) const {
    return e < tr_.edges.size();
  }
  [[nodiscard]] std::string edge_name(EdgeId e) const {
    return edge_ok(e) ? tr_.edges[e].name : std::to_string(e);
  }

  /// Consecutive edges share a node, per the trace's own edge table.
  [[nodiscard]] bool contiguous(const Route& route) const {
    for (std::size_t i = 0; i + 1 < route.size(); ++i)
      if (tr_.edges[route[i]].head != tr_.edges[route[i + 1]].tail)
        return false;
    return true;
  }

  /// A contiguous route is simple iff it never revisits a node.
  [[nodiscard]] bool simple(const Route& route) const {
    if (route.empty()) return true;
    std::vector<NodeId> nodes;
    nodes.reserve(route.size() + 1);
    nodes.push_back(tr_.edges[route[0]].tail);
    for (const EdgeId e : route) nodes.push_back(tr_.edges[e].head);
    std::sort(nodes.begin(), nodes.end());
    return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
  }

  [[nodiscard]] bool route_in_range(const Route& route) const {
    return std::all_of(route.begin(), route.end(),
                       [this](EdgeId e) { return edge_ok(e); });
  }

  void dispatch(const RunRecord& rec) {
    switch (rec.kind) {
      case RunRecord::Kind::kStep: on_step(rec); break;
      case RunRecord::Kind::kInitial: on_create(rec, /*initial=*/true); break;
      case RunRecord::Kind::kSend: on_send(rec); break;
      case RunRecord::Kind::kAbsorb: on_absorb(rec); break;
      case RunRecord::Kind::kReroute: on_reroute(rec); break;
      case RunRecord::Kind::kInject: on_create(rec, /*initial=*/false); break;
      case RunRecord::Kind::kQueue: on_queue(rec); break;
    }
  }

  /// Two-substep record discipline inside a step: sends, absorptions,
  /// adversary actions (reroutes then injections), then depths.  Initial
  /// packets only before step 1.
  enum Phase : int { kSendPhase = 0, kAbsorbPhase, kReroutePhase,
                     kInjectPhase, kQueuePhase };

  /// Returns false (and reports) when the record is out of phase or
  /// appears outside any step; such records are not applied to the model.
  bool require_phase(const RunRecord& rec, int rank, const char* what) {
    if (!in_step_) {
      add("record-order", 0, rec.ordinal,
          edge_ok(rec.edge) ? rec.edge : kNoEdge,
          std::string(what) + " record before the first step header");
      return false;
    }
    if (rank < phase_) {
      if (!phase_reported_) {
        phase_reported_ = true;
        add("record-order", t_, rec.ordinal,
            edge_ok(rec.edge) ? rec.edge : kNoEdge,
            std::string(what) +
                " record out of substep order (expected sends, then "
                "absorptions, then reroutes, then injections, then depths)");
      }
      return false;
    }
    phase_ = rank;
    return true;
  }

  void on_step(const RunRecord& rec) {
    if (in_step_) close_step();
    if (rec.t != t_ + 1)
      add("step-order", rec.t, kNoOrdinal, kNoEdge,
          "step header t=" + std::to_string(rec.t) + " after t=" +
              std::to_string(t_) + " (steps must be consecutive from 1)");
    t_ = rec.t;
    in_step_ = true;
    phase_ = kSendPhase;
    phase_reported_ = false;
    pre_nonempty_.clear();
    for (EdgeId e = 0; e < queues_.size(); ++e)
      if (!queues_[e].empty()) pre_nonempty_.push_back(e);
  }

  void on_send(const RunRecord& rec) {
    if (!require_phase(rec, kSendPhase, "send")) return;
    const EdgeId e = rec.edge;
    if (!edge_ok(e)) {
      add("edge-range", t_, rec.ordinal, kNoEdge,
          "send names edge id " + std::to_string(e) +
              " outside the described network");
      return;
    }
    if (sent_this_step_[e]) {
      add("capacity", t_, rec.ordinal, e,
          "second transmission over edge '" + edge_name(e) +
              "' in one step (unit capacity, paper section 2)");
      return;
    }
    sent_this_step_[e] = 1;
    touched_edges_.push_back(e);

    auto it = packets_.find(rec.ordinal);
    const bool resident = it != packets_.end() && it->second.live &&
                          !it->second.in_transit &&
                          it->second.hop < it->second.route.size() &&
                          it->second.route[it->second.hop] == e;
    if (!resident) {
      add("send-not-resident", t_, rec.ordinal, e,
          "packet " + std::to_string(rec.ordinal) +
              " is not waiting at edge '" + edge_name(e) +
              "' when the trace claims it was forwarded");
      return;
    }
    ModelPacket& p = it->second;

    // Priority discipline against the independently tracked queue.
    std::deque<std::uint64_t>& q = queues_[e];
    if (verify_protocol_fifo(tr_.meta.protocol)) {
      if (!q.empty() && q.front() != rec.ordinal)
        add("fifo-order", t_, rec.ordinal, e,
            "FIFO must forward packet " + std::to_string(q.front()) +
                " (head of '" + edge_name(e) + "') but the trace sends " +
                std::to_string(rec.ordinal));
    } else if (verify_protocol_time_priority(tr_.meta.protocol)) {
      for (const std::uint64_t other : q) {
        if (other == rec.ordinal) continue;
        const ModelPacket& o = packets_.at(other);
        if (o.arrival < p.inject) {
          add("time-priority", t_, rec.ordinal, e,
              "packet " + std::to_string(other) + " arrived at '" +
                  edge_name(e) + "' at t=" + std::to_string(o.arrival) +
                  ", before packet " + std::to_string(rec.ordinal) +
                  " was even injected (t=" + std::to_string(p.inject) +
                  "); a time-priority protocol may not bypass it "
                  "(Definition 4.2)");
          break;
        }
      }
    }
    q.erase(std::find(q.begin(), q.end(), rec.ordinal));

    const Time wait = t_ - p.arrival;
    rep_.max_wait = std::max(rep_.max_wait, wait);
    if (wait < 1)
      add("substep-order", t_, rec.ordinal, e,
          "packet " + std::to_string(rec.ordinal) + " crossed '" +
              edge_name(e) + "' in the same step it arrived (t=" +
              std::to_string(p.arrival) +
              "); sends happen in substep 1, arrivals in substep 2");
    p.in_transit = true;
    ++p.hop;
    delivered_.push_back(rec.ordinal);
  }

  void on_absorb(const RunRecord& rec) {
    if (!require_phase(rec, kAbsorbPhase, "absorb")) return;
    auto it = packets_.find(rec.ordinal);
    if (it == packets_.end() || !it->second.live ||
        !it->second.in_transit ||
        it->second.hop != it->second.route.size()) {
      add("absorb-invalid", t_, rec.ordinal, kNoEdge,
          "packet " + std::to_string(rec.ordinal) +
              " did not complete its route this step, yet the trace "
              "absorbs it");
      return;
    }
    it->second.live = false;
    it->second.in_transit = false;
    ++absorbed_;
    --live_;
  }

  void on_reroute(const RunRecord& rec) {
    if (!require_phase(rec, kReroutePhase, "reroute")) return;
    if (!verify_protocol_historic(tr_.meta.protocol) &&
        verify_protocol_known(tr_.meta.protocol))
      add("reroute-nonhistoric", t_, rec.ordinal, kNoEdge,
          "reroute under non-historic protocol '" + tr_.meta.protocol +
              "' (Lemma 3.3 requires a historic protocol)");
    auto it = packets_.find(rec.ordinal);
    if (it == packets_.end() || !it->second.live) {
      add("reroute-dead", t_, rec.ordinal, kNoEdge,
          "reroute targets packet " + std::to_string(rec.ordinal) +
              ", which does not exist or was already absorbed");
      return;
    }
    if (!route_in_range(rec.edges)) {
      add("edge-range", t_, rec.ordinal, kNoEdge,
          "reroute suffix names an edge outside the described network");
      return;
    }
    ModelPacket& p = it->second;
    // The suffix replaces everything after the packet's current edge
    // (post-substep-1, hop is already advanced for in-transit packets,
    // matching the engine's application point in substep 2b).
    const std::size_t keep = std::min(p.hop + 1, p.route.size());
    Route updated(p.route.begin(),
                  p.route.begin() + static_cast<std::ptrdiff_t>(keep));
    updated.insert(updated.end(), rec.edges.begin(), rec.edges.end());
    if (!contiguous(updated)) {
      add("reroute-discontiguous", t_, rec.ordinal, kNoEdge,
          "suffix does not splice contiguously after edge '" +
              edge_name(p.route[keep - 1]) + "' for packet " +
              std::to_string(rec.ordinal));
      return;
    }
    if (!simple(updated)) {
      add("route-not-simple", t_, rec.ordinal, kNoEdge,
          "rerouted path for packet " + std::to_string(rec.ordinal) +
              " revisits a node");
      return;
    }
    p.route = std::move(updated);
  }

  void on_create(const RunRecord& rec, bool initial) {
    Time when = 0;
    if (initial) {
      if (in_step_) {
        add("record-order", t_, rec.ordinal, kNoEdge,
            "initial packet recorded after stepping began");
        return;
      }
    } else {
      if (!require_phase(rec, kInjectPhase, "injection")) return;
      when = t_;
    }
    if (rec.ordinal != next_ordinal_)
      add("ordinal-order", when, rec.ordinal, kNoEdge,
          "packet ordinal " + std::to_string(rec.ordinal) +
              " out of sequence (expected " +
              std::to_string(next_ordinal_) +
              "; creation ordinals are dense and increasing)");
    if (packets_.count(rec.ordinal) != 0) {
      add("ordinal-order", when, rec.ordinal, kNoEdge,
          "duplicate creation of packet ordinal " +
              std::to_string(rec.ordinal));
      return;
    }
    next_ordinal_ = std::max(next_ordinal_, rec.ordinal + 1);
    if (!route_in_range(rec.edges)) {
      add("edge-range", when, rec.ordinal, kNoEdge,
          "route names an edge outside the described network");
      return;
    }
    if (!contiguous(rec.edges))
      add("route-not-contiguous", when, rec.ordinal, kNoEdge,
          "route of packet " + std::to_string(rec.ordinal) +
              " is not a contiguous edge path");
    else if (!simple(rec.edges))
      add("route-not-simple", when, rec.ordinal, kNoEdge,
          "route of packet " + std::to_string(rec.ordinal) +
              " revisits a node (paper section 2 requires simple paths)");
    ModelPacket p;
    p.route = rec.edges;
    p.inject = when;
    p.arrival = when;
    p.live = true;
    // Initial packets enter their queues at time 0; injections enqueue in
    // substep 2b, AFTER this step's transit arrivals (substep 2a), so
    // their enqueue is deferred to step close to reproduce FIFO order.
    if (initial)
      queues_[p.route[0]].push_back(rec.ordinal);
    else
      injected_this_step_.push_back(rec.ordinal);
    packets_.emplace(rec.ordinal, std::move(p));
    ++created_;
    ++live_;
  }

  void on_queue(const RunRecord& rec) {
    if (!require_phase(rec, kQueuePhase, "queue-depth")) return;
    if (!edge_ok(rec.edge)) {
      add("edge-range", t_, kNoOrdinal, kNoEdge,
          "queue-depth record names edge id " + std::to_string(rec.edge) +
              " outside the described network");
      return;
    }
    // Depths describe the *end* of the step, after substep-2 arrivals —
    // which the model applies at step close — so defer the comparison.
    queue_claims_.push_back({rec.edge, rec.depth});
  }

  void close_step() {
    // Work conservation: a buffer nonempty at the start of the step must
    // transmit (greedy protocols never idle a loaded edge, paper §2).
    for (const EdgeId e : pre_nonempty_)
      if (!sent_this_step_[e])
        add("work-conservation", t_, queues_[e].empty() ? kNoOrdinal
                                                        : queues_[e].front(),
            e,
            "edge '" + edge_name(e) +
                "' held packets at the start of the step but the trace "
                "records no transmission");

    // Substep 2a: advance everything sent this step.  Arrivals are
    // appended in send-record order, which reproduces the engine's
    // deterministic arrival sequencing; a completed route must have been
    // matched by an absorb record above.
    for (const std::uint64_t ord : delivered_) {
      ModelPacket& p = packets_.at(ord);
      if (!p.live) continue;  // Absorbed this step.
      p.in_transit = false;
      if (p.hop >= p.route.size()) {
        add("absorb-missing", t_, ord, kNoEdge,
            "packet " + std::to_string(ord) +
                " completed its route at t=" + std::to_string(t_) +
                " but the trace never absorbs it");
        p.live = false;
        --live_;
        continue;
      }
      p.arrival = t_;
      queues_[p.route[p.hop]].push_back(ord);
    }
    delivered_.clear();

    // Substep 2b: this step's injections join their queues behind the
    // transit arrivals, in issue order.
    for (const std::uint64_t ord : injected_this_step_) {
      const ModelPacket& p = packets_.at(ord);
      queues_[p.route[0]].push_back(ord);
    }
    injected_this_step_.clear();

    // Recorded end-of-step depths must match the model exactly, and every
    // nonempty buffer must be covered.
    for (const auto& [e, depth] : queue_claims_) {
      queue_checked_[e] = 1;
      if (queues_[e].size() != depth)
        add("queue-depth", t_, kNoOrdinal, e,
            "trace claims " + std::to_string(depth) + " packet(s) queued "
                "at '" + edge_name(e) + "' but the model holds " +
                std::to_string(queues_[e].size()));
    }
    for (EdgeId e = 0; e < queues_.size(); ++e) {
      if (!queues_[e].empty() && !queue_checked_[e])
        add("queue-depth", t_, queues_[e].front(), e,
            "model holds " + std::to_string(queues_[e].size()) +
                " packet(s) at '" + edge_name(e) +
                "' but the trace records no depth for it");
      queue_checked_[e] = 0;
    }
    queue_claims_.clear();
    for (const EdgeId e : touched_edges_) sent_this_step_[e] = 0;
    touched_edges_.clear();

    rep_.occupancy.push_back(live_);
    in_step_ = false;
  }

  void check_footer() {
    rep_.steps = t_;
    rep_.injected = created_;
    rep_.absorbed = absorbed_;
    if (tr_.steps != t_)
      add("footer-mismatch", 0, kNoOrdinal, kNoEdge,
          "footer claims " + std::to_string(tr_.steps) +
              " steps but the trace records " + std::to_string(t_));
    if (tr_.injected != created_)
      add("footer-mismatch", 0, kNoOrdinal, kNoEdge,
          "footer claims " + std::to_string(tr_.injected) +
              " packets created but the records show " +
              std::to_string(created_) +
              " (packet conservation: every packet enters the trace "
              "exactly once)");
    if (tr_.absorbed != absorbed_)
      add("footer-mismatch", 0, kNoOrdinal, kNoEdge,
          "footer claims " + std::to_string(tr_.absorbed) +
              " absorptions but the records show " +
              std::to_string(absorbed_));
  }

  void check_residents() {
    rep_.resident = live_;
    // aqt-audit: allow(AUD002) -- max reductions commute over packets_
    for (const auto& [ord, p] : packets_) {
      rep_.observed_d = std::max(
          rep_.observed_d, static_cast<std::int64_t>(p.route.size()));
      if (p.live)  // Pending wait of a still-buffered packet.
        rep_.max_wait = std::max(rep_.max_wait, t_ - p.arrival);
    }
  }

  /// Declared adversary constraints, re-checked with brute force over the
  /// final effective routes (reroute-extended, charged at injection time,
  /// exactly as Lemma 3.3 accounts them).  Initial packets (time 0) are
  /// part of the initial configuration, not the adversary's budget.
  void check_feasibility() {
    const bool has_window =
        tr_.meta.window_w.has_value() && tr_.meta.window_r.has_value();
    if (!has_window && !tr_.meta.rate_r.has_value()) return;

    std::vector<std::vector<Time>> times(tr_.edges.size());
    // aqt-audit: allow(AUD002) -- per-edge time lists are sorted below
    for (const auto& [ord, p] : packets_) {
      if (p.inject < 1) continue;
      for (const EdgeId e : p.route)
        if (edge_ok(e)) times[e].push_back(p.inject);
    }
    for (auto& v : times) std::sort(v.begin(), v.end());

    if (has_window) {
      const std::int64_t w = *tr_.meta.window_w;
      const std::int64_t budget = tr_.meta.window_r->floor_mul(w);
      for (EdgeId e = 0; e < times.size(); ++e) {
        const std::vector<Time>& ts = times[e];
        std::size_t lo = 0;
        for (std::size_t hi = 0; hi < ts.size(); ++hi) {
          while (ts[hi] - ts[lo] + 1 > w) ++lo;
          const std::int64_t count =
              static_cast<std::int64_t>(hi - lo + 1);
          if (count > budget) {
            add("window-infeasible", ts[hi], kNoOrdinal, e,
                std::to_string(count) + " packets requiring edge '" +
                    edge_name(e) + "' injected in window [" +
                    std::to_string(ts[lo]) + ", " +
                    std::to_string(ts[lo] + w - 1) + "], exceeding floor(" +
                    std::to_string(w) + " * " + tr_.meta.window_r->str() +
                    ") = " + std::to_string(budget) + " (Definition 2.1)");
            break;
          }
        }
      }
    }
    if (tr_.meta.rate_r.has_value()) {
      const Rat r = *tr_.meta.rate_r;
      // A pair (i, j) violates "count <= ceil(r * len)" iff
      // q*(j - i) >= p*(ts[j] - ts[i] + 1) for r = p/q, i.e. iff
      // g(j) - p >= g(i) with g(k) = q*k - p*ts[k] — so a running minimum
      // of g finds the worst interval ending at each j in O(k) exactly.
      const auto p = static_cast<detail::i128>(r.num());
      const auto q = static_cast<detail::i128>(r.den());
      for (EdgeId e = 0; e < times.size(); ++e) {
        const std::vector<Time>& ts = times[e];
        detail::i128 best = 0;
        std::size_t best_i = 0;
        for (std::size_t j = 0; j < ts.size(); ++j) {
          const detail::i128 g =
              q * static_cast<detail::i128>(j) -
              p * static_cast<detail::i128>(ts[j]);
          if (j == 0 || g < best) {
            best = g;
            best_i = j;
          }
          if (g - p >= best) {
            const std::int64_t len = ts[j] - ts[best_i] + 1;
            const std::int64_t count =
                static_cast<std::int64_t>(j - best_i + 1);
            add("rate-infeasible", ts[j], kNoOrdinal, e,
                std::to_string(count) + " packets requiring edge '" +
                    edge_name(e) + "' injected in [" +
                    std::to_string(ts[best_i]) + ", " +
                    std::to_string(ts[j]) + "], exceeding ceil(" + r.str() +
                    " * " + std::to_string(len) + ") = " +
                    std::to_string(r.ceil_mul(len)));
            break;
          }
        }
      }
    }
  }

  const RunTrace& tr_;
  VerifyReport rep_;

  std::unordered_map<std::uint64_t, ModelPacket> packets_;
  std::vector<std::deque<std::uint64_t>> queues_;
  std::uint64_t next_ordinal_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t live_ = 0;

  bool in_step_ = false;
  Time t_ = 0;
  int phase_ = kSendPhase;
  bool phase_reported_ = false;
  std::vector<EdgeId> pre_nonempty_;
  std::vector<char> sent_this_step_;
  std::vector<EdgeId> touched_edges_;
  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint64_t> injected_this_step_;
  std::vector<std::pair<EdgeId, std::uint64_t>> queue_claims_;
  std::vector<char> queue_checked_;
};

}  // namespace

bool verify_protocol_known(const std::string& name) {
  return in_table(kKnown, name);
}
bool verify_protocol_fifo(const std::string& name) { return name == "FIFO"; }
bool verify_protocol_time_priority(const std::string& name) {
  return in_table(kTimePriority, name);
}
bool verify_protocol_historic(const std::string& name) {
  return in_table(kHistoric, name);
}

VerifyReport verify_run_trace(const RunTrace& trace, std::string label) {
  return Verifier(trace, std::move(label)).run();
}

VerifyReport verify_file(const std::string& path) {
  try {
    const RunTrace tr = parse_run_trace_file(path);
    return verify_run_trace(tr, path);
  } catch (const std::exception& e) {
    VerifyReport rep;
    rep.file = path;
    rep.findings.push_back(
        VerifyFinding{"parse-error", 0, kNoOrdinal, kNoEdge, e.what()});
    return rep;
  }
}

std::string to_human(const std::vector<VerifyReport>& reports) {
  std::ostringstream os;
  for (const VerifyReport& rep : reports) {
    if (rep.ok()) {
      os << rep.file << ": OK (" << rep.protocol << ", steps=" << rep.steps
         << ", injected=" << rep.injected << ", absorbed=" << rep.absorbed
         << ", resident=" << rep.resident << ", d=" << rep.observed_d
         << ", max-wait=" << rep.max_wait
         << ", hash=" << hash_hex(rep.trace_hash) << ")\n";
      continue;
    }
    os << rep.file << ": " << rep.findings.size() << " violation"
       << (rep.findings.size() == 1 ? "" : "s")
       << (rep.findings_truncated ? " (truncated)" : "") << "\n";
    for (const VerifyFinding& f : rep.findings) {
      os << "  " << rep.file;
      if (f.step > 0) os << ": step " << f.step;
      os << ": [" << f.code << "] " << f.message << "\n";
    }
  }
  return os.str();
}

std::string to_json(const std::vector<VerifyReport>& reports) {
  std::ostringstream os;
  bool all_ok = true;
  for (const VerifyReport& rep : reports) all_ok = all_ok && rep.ok();
  os << "{\"ok\":" << (all_ok ? "true" : "false") << ",\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const VerifyReport& rep = reports[i];
    if (i) os << ",";
    os << "{\"file\":\"" << json_escape_string(rep.file) << "\","
       << "\"ok\":" << (rep.ok() ? "true" : "false") << ","
       << "\"protocol\":\"" << json_escape_string(rep.protocol) << "\","
       << "\"steps\":" << rep.steps << ","
       << "\"injected\":" << rep.injected << ","
       << "\"absorbed\":" << rep.absorbed << ","
       << "\"resident\":" << rep.resident << ","
       << "\"observed_d\":" << rep.observed_d << ","
       << "\"max_wait\":" << rep.max_wait << ","
       << "\"hash\":\"" << hash_hex(rep.trace_hash) << "\","
       << "\"truncated\":" << (rep.findings_truncated ? "true" : "false")
       << ",\"findings\":[";
    for (std::size_t j = 0; j < rep.findings.size(); ++j) {
      const VerifyFinding& f = rep.findings[j];
      if (j) os << ",";
      os << "{\"code\":\"" << json_escape_string(f.code) << "\","
         << "\"step\":" << f.step << ","
         << "\"ordinal\":"
         << (f.ordinal == kNoOrdinal
                 ? std::string("-1")
                 : std::to_string(f.ordinal))
         << ","
         << "\"edge\":"
         << (f.edge == kNoEdge ? std::string("-1") : std::to_string(f.edge))
         << ","
         << "\"message\":\"" << json_escape_string(f.message) << "\"}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace aqt
