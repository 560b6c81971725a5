#include "aqt/serve/request.hpp"

#include <algorithm>
#include <limits>

#include "aqt/util/check.hpp"

namespace aqt {
namespace serve {
namespace {

[[noreturn]] void bad(const char* code, const std::string& where,
                      const std::string& what) {
  throw RequestError(code, where + ": " + what);
}

/// Field extraction helpers: every mis-typed field reports SRV004 with the
/// field name, every missing required field SRV003.
const JsonValue& need(const JsonValue& doc, const std::string& where,
                      const char* key) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr)
    bad(errc::kMissingField, where,
        std::string("missing required field \"") + key + "\"");
  return *v;
}

std::string need_string(const JsonValue& v, const std::string& where,
                        const char* key) {
  if (!v.is_string())
    bad(errc::kBadField, where, std::string("\"") + key + "\" must be a string");
  return v.as_string();
}

std::int64_t need_int(const JsonValue& v, const std::string& where,
                      const char* key, std::int64_t lo, std::int64_t hi) {
  if (!v.is_int())
    bad(errc::kBadField, where,
        std::string("\"") + key + "\" must be an integer");
  const std::int64_t n = v.as_int();
  if (n < lo || n > hi)
    bad(errc::kBadField, where,
        std::string("\"") + key + "\" = " + std::to_string(n) +
            " out of range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]");
  return n;
}

bool need_bool(const JsonValue& v, const std::string& where,
               const char* key) {
  if (!v.is_bool())
    bad(errc::kBadField, where,
        std::string("\"") + key + "\" must be a boolean");
  return v.as_bool();
}

Rat need_rat(const JsonValue& v, const std::string& where, const char* key) {
  if (!v.is_string())
    bad(errc::kBadField, where,
        std::string("\"") + key +
            "\" must be a rational string such as \"1/4\"");
  try {
    const Rat r = Rat::parse(v.as_string());
    if (r < Rat(0))
      bad(errc::kBadField, where,
          std::string("\"") + key + "\" must be non-negative");
    return r;
  } catch (const RequestError&) {
    throw;
  } catch (const std::exception&) {
    bad(errc::kBadField, where,
        std::string("\"") + key + "\" = \"" + v.as_string() +
            "\" is not a valid rational");
  }
}

void reject_unknown_keys(const JsonValue& obj, const std::string& where,
                         const char* what,
                         const std::vector<std::string>& known) {
  for (const auto& member : obj.members()) {
    if (std::find(known.begin(), known.end(), member.first) == known.end())
      bad(errc::kUnknownField, where,
          std::string("unknown ") + what + " field \"" + member.first + "\"");
  }
}

/// A route or suffix: a non-empty array of edge names.
std::vector<std::string> need_edges(const JsonValue& v,
                                    const std::string& where,
                                    const std::string& key) {
  if (!v.is_array() || v.items().empty())
    bad(errc::kBadField, where,
        "\"" + key + "\" must be a non-empty array of edge names");
  std::vector<std::string> edges;
  edges.reserve(v.items().size());
  for (const JsonValue& item : v.items()) {
    if (!item.is_string() || item.as_string().empty())
      bad(errc::kBadField, where,
          "\"" + key + "\" must be a non-empty array of edge names");
    edges.push_back(item.as_string());
  }
  return edges;
}

/// The scripted adversary's events: the shape only.  Everything that needs
/// the graph, the order of events or the audit is Registry::compile's.
std::vector<ScriptEvent> parse_events(const JsonValue& v,
                                      const std::string& where) {
  if (!v.is_array())
    bad(errc::kBadField, where, "\"events\" must be an array of events");
  std::vector<ScriptEvent> events;
  events.reserve(v.items().size());
  for (std::size_t i = 0; i < v.items().size(); ++i) {
    const JsonValue& item = v.items()[i];
    const std::string name = "events[" + std::to_string(i) + "]";
    if (!item.is_object())
      bad(errc::kBadField, where, name + " must be an object");
    const auto field = [&](const char* key) -> const JsonValue& {
      const JsonValue* f = item.find(key);
      if (f == nullptr)
        bad(errc::kMissingField, where,
            name + " needs \"" + key +
                "\" (an injection has t, route and tag; a reroute t, "
                "packet and suffix)");
      return *f;
    };
    ScriptEvent ev;
    ev.reroute = item.find("route") == nullptr;
    reject_unknown_keys(item, where, name.c_str(),
                        ev.reroute ? std::vector<std::string>{"t", "packet",
                                                              "suffix"}
                                   : std::vector<std::string>{"t", "route",
                                                              "tag"});
    const JsonValue& t = field("t");
    if (t.is_int() && t.as_int() < 1)
      bad(errc::kBadField, where,
          name + ": inject-time-invalid: t = " + std::to_string(t.as_int()) +
              "; events start at step 1 (step 0 is the initial "
              "configuration)");
    ev.t = need_int(t, where, (name + ".t").c_str(), 1, 1000000000000LL);
    if (ev.reroute) {
      ev.packet = static_cast<std::uint64_t>(need_int(
          field("packet"), where, (name + ".packet").c_str(), 0,
          1000000000000LL));
      ev.edges = need_edges(field("suffix"), where, name + ".suffix");
    } else {
      ev.edges = need_edges(field("route"), where, name + ".route");
      if (const JsonValue* tag = item.find("tag"))
        ev.tag = static_cast<std::uint64_t>(
            need_int(*tag, where, (name + ".tag").c_str(), 0,
                     std::numeric_limits<std::int64_t>::max()));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

AdversarySpec parse_adversary(const JsonValue& v, const std::string& where) {
  if (!v.is_object())
    bad(errc::kBadField, where, "\"adversary\" must be an object");
  AdversarySpec adv;
  adv.kind = need_string(need(v, where, "kind"), where, "kind");

  // Per-kind parameter tables; defaults come from the AdversarySpec
  // initializers so the canonical form is stable.
  std::vector<std::string> known = {"kind"};
  const bool windowed =
      adv.kind == "stochastic" || adv.kind == "hotspot" || adv.kind == "convoy";
  if (windowed) known.insert(known.end(), {"w", "r", "d"});
  if (adv.kind == "bucket") known.insert(known.end(), {"burst", "r", "d"});
  if (adv.kind == "lps") known.insert(known.end(), {"r", "iterations", "s_star"});
  if (adv.kind == "scripted") known.push_back("events");
  if (adv.kind != "none" && adv.kind != "stochastic" &&
      adv.kind != "hotspot" && adv.kind != "convoy" && adv.kind != "bucket" &&
      adv.kind != "lps" && adv.kind != "scripted") {
    // Unknown kinds are the registry's domain (SRV008) so the message can
    // list what IS known; raise it here with the same code for locality.
    bad(errc::kUnknownAdversary, where,
        "unknown adversary kind \"" + adv.kind +
            "\" (known: none stochastic hotspot convoy bucket lps "
            "scripted)");
  }
  reject_unknown_keys(v, where, "adversary", known);
  if (adv.kind == "scripted")
    adv.events = parse_events(need(v, where, "events"), where);

  if (const JsonValue* f = v.find("w"))
    adv.w = need_int(*f, where, "w", 1, 1000000);
  if (const JsonValue* f = v.find("r")) adv.r = need_rat(*f, where, "r");
  if (const JsonValue* f = v.find("d"))
    adv.d = need_int(*f, where, "d", 1, 1000000);
  if (const JsonValue* f = v.find("burst"))
    adv.burst = need_int(*f, where, "burst", 1, 1000000);
  if (const JsonValue* f = v.find("iterations"))
    adv.iterations = need_int(*f, where, "iterations", 1, 1000000);
  if (const JsonValue* f = v.find("s_star"))
    adv.s_star = need_int(*f, where, "s_star", 1, 100000000);
  return adv;
}

}  // namespace

RunRequest parse_run_request(const JsonValue& doc, const std::string& where) {
  if (!doc.is_object())
    bad(errc::kBadJson, where, "request must be a JSON object");

  const JsonValue* version = doc.find("aqt_run_request");
  if (version == nullptr)
    bad(errc::kBadVersion, where,
        "missing \"aqt_run_request\" version field");
  if (!version->is_int() || version->as_int() != kRunRequestVersion)
    bad(errc::kBadVersion, where,
        "unsupported request version (this build speaks version " +
            std::to_string(kRunRequestVersion) + ")");

  reject_unknown_keys(
      doc, where, "request",
      {"aqt_run_request", "id", "topology", "protocol", "adversary", "seed",
       "steps", "stop_when_finished", "drain", "drain_cap", "audit",
       "artifacts", "deadline_ms", "resume_from"});

  RunRequest req;
  if (const JsonValue* f = doc.find("id")) {
    req.id = need_string(*f, where, "id");
    if (req.id.size() > 200)
      bad(errc::kBadField, where, "\"id\" longer than 200 bytes");
  }
  req.topology = need_string(need(doc, where, "topology"), where, "topology");
  req.protocol = need_string(need(doc, where, "protocol"), where, "protocol");
  req.adversary = parse_adversary(need(doc, where, "adversary"), where);
  if (const JsonValue* f = doc.find("seed")) {
    if (!f->is_int() || f->as_int() < 0)
      bad(errc::kBadField, where, "\"seed\" must be a non-negative integer");
    req.seed = static_cast<std::uint64_t>(f->as_int());
  }
  req.steps = need_int(need(doc, where, "steps"), where, "steps", 1,
                       1000000000000LL);
  if (const JsonValue* f = doc.find("stop_when_finished"))
    req.stop_when_finished = need_bool(*f, where, "stop_when_finished");
  if (const JsonValue* f = doc.find("drain"))
    req.drain = need_bool(*f, where, "drain");
  if (const JsonValue* f = doc.find("drain_cap"))
    req.drain_cap = need_int(*f, where, "drain_cap", 1, 1000000000000LL);

  if (const JsonValue* f = doc.find("audit")) {
    if (!f->is_object())
      bad(errc::kBadField, where, "\"audit\" must be an object");
    reject_unknown_keys(*f, where, "audit", {"w", "burst", "r"});
    const JsonValue* r = f->find("r");
    if (r == nullptr)
      bad(errc::kMissingField, where, "\"audit\" needs at least \"r\"");
    req.audit_r = need_rat(*r, where, "audit.r");
    if (const JsonValue* w = f->find("w"))
      req.audit_w = need_int(*w, where, "audit.w", 1, 1000000000LL);
    if (const JsonValue* b = f->find("burst")) {
      if (req.audit_w.has_value())
        bad(errc::kBadField, where,
            "\"audit\" takes \"w\" or \"burst\", not both");
      req.audit_burst = need_int(*b, where, "audit.burst", 1, 1000000000LL);
    }
  }

  if (const JsonValue* f = doc.find("artifacts")) {
    if (!f->is_array())
      bad(errc::kBadField, where,
          "\"artifacts\" must be an array of artifact names");
    req.art_metrics = req.art_trace_hash = req.art_growth = false;
    for (const JsonValue& item : f->items()) {
      const std::string name = need_string(item, where, "artifacts[]");
      if (name == "metrics")
        req.art_metrics = true;
      else if (name == "trace_hash")
        req.art_trace_hash = true;
      else if (name == "growth")
        req.art_growth = true;
      else
        bad(errc::kBadField, where,
            "unknown artifact \"" + name +
                "\" (known: metrics trace_hash growth)");
    }
  }

  if (const JsonValue* f = doc.find("deadline_ms")) {
    req.deadline_ms = static_cast<std::uint64_t>(
        need_int(*f, where, "deadline_ms", 0, 86400000LL));
  }
  if (const JsonValue* f = doc.find("resume_from"))
    req.resume_from = need_string(*f, where, "resume_from");

  return req;
}

RunRequest parse_run_request(const std::string& text,
                             const std::string& where) {
  JsonValue doc;
  try {
    doc = parse_json(text, where);
  } catch (const PreconditionError& e) {
    throw RequestError(errc::kBadJson, e.what());
  }
  return parse_run_request(doc, where);
}

void audit_adversary_constraint(RunRequest& req) {
  const AdversarySpec& adv = req.adversary;
  if (adv.kind == "none" || adv.kind == "scripted") return;
  req.audit_r = adv.r;
  if (adv.kind == "stochastic" || adv.kind == "hotspot" ||
      adv.kind == "convoy")
    req.audit_w = adv.w;
  else if (adv.kind == "bucket")
    req.audit_burst = adv.burst;
}

JsonValue run_request_to_json(const RunRequest& req) {
  JsonValue doc = JsonValue::make_object();
  doc.set("aqt_run_request", JsonValue::make_int(req.version));
  if (!req.id.empty()) doc.set("id", JsonValue::make_string(req.id));
  doc.set("topology", JsonValue::make_string(req.topology));
  doc.set("protocol", JsonValue::make_string(req.protocol));

  JsonValue adv = JsonValue::make_object();
  adv.set("kind", JsonValue::make_string(req.adversary.kind));
  const std::string& kind = req.adversary.kind;
  if (kind == "stochastic" || kind == "hotspot" || kind == "convoy") {
    adv.set("w", JsonValue::make_int(req.adversary.w));
    adv.set("r", JsonValue::make_string(req.adversary.r.str()));
    adv.set("d", JsonValue::make_int(req.adversary.d));
  } else if (kind == "bucket") {
    adv.set("burst", JsonValue::make_int(req.adversary.burst));
    adv.set("r", JsonValue::make_string(req.adversary.r.str()));
    adv.set("d", JsonValue::make_int(req.adversary.d));
  } else if (kind == "lps") {
    adv.set("r", JsonValue::make_string(req.adversary.r.str()));
    adv.set("iterations", JsonValue::make_int(req.adversary.iterations));
    adv.set("s_star", JsonValue::make_int(req.adversary.s_star));
  } else if (kind == "scripted") {
    JsonValue events = JsonValue::make_array();
    for (const ScriptEvent& ev : req.adversary.events) {
      JsonValue item = JsonValue::make_object();
      item.set("t", JsonValue::make_int(ev.t));
      JsonValue edges = JsonValue::make_array();
      for (const std::string& e : ev.edges)
        edges.push_back(JsonValue::make_string(e));
      if (ev.reroute) {
        item.set("packet",
                 JsonValue::make_int(static_cast<std::int64_t>(ev.packet)));
        item.set("suffix", std::move(edges));
      } else {
        item.set("route", std::move(edges));
        item.set("tag", JsonValue::make_int(static_cast<std::int64_t>(ev.tag)));
      }
      events.push_back(std::move(item));
    }
    adv.set("events", std::move(events));
  }
  doc.set("adversary", std::move(adv));

  doc.set("seed", JsonValue::make_int(static_cast<std::int64_t>(req.seed)));
  doc.set("steps", JsonValue::make_int(req.steps));
  doc.set("stop_when_finished", JsonValue::make_bool(req.stop_when_finished));
  doc.set("drain", JsonValue::make_bool(req.drain));
  doc.set("drain_cap", JsonValue::make_int(req.drain_cap));

  if (req.audit_r.has_value()) {
    JsonValue audit = JsonValue::make_object();
    if (req.audit_w.has_value())
      audit.set("w", JsonValue::make_int(*req.audit_w));
    if (req.audit_burst.has_value())
      audit.set("burst", JsonValue::make_int(*req.audit_burst));
    audit.set("r", JsonValue::make_string(req.audit_r->str()));
    doc.set("audit", std::move(audit));
  }

  JsonValue artifacts = JsonValue::make_array();
  if (req.art_metrics)
    artifacts.push_back(JsonValue::make_string("metrics"));
  if (req.art_trace_hash)
    artifacts.push_back(JsonValue::make_string("trace_hash"));
  if (req.art_growth) artifacts.push_back(JsonValue::make_string("growth"));
  doc.set("artifacts", std::move(artifacts));

  if (req.deadline_ms != 0)
    doc.set("deadline_ms",
            JsonValue::make_int(static_cast<std::int64_t>(req.deadline_ms)));
  if (!req.resume_from.empty())
    doc.set("resume_from", JsonValue::make_string(req.resume_from));
  return doc;
}

std::string canonical_request_json(const RunRequest& req) {
  return write_json(run_request_to_json(req));
}

}  // namespace serve
}  // namespace aqt
