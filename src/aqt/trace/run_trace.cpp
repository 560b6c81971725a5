#include "aqt/trace/run_trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <ostream>

#include "aqt/util/check.hpp"

namespace aqt {
namespace {

// Record lines are formatted in place: a line with at most three numeric
// fields and a route of n edges fits in kFixedChars + n * kEdgeChars bytes
// ('\n' included).
constexpr std::size_t kNumChars = 20;  ///< UINT64_MAX, INT64_MIN
constexpr std::size_t kFixedChars = 4 + 3 * (kNumChars + 1);
constexpr std::size_t kEdgeChars = 11;  ///< ' ' + UINT32_MAX

template <typename Int>
char* put_num(char* p, Int value) {
  return std::to_chars(p, p + kNumChars, value).ptr;
}

/// "<a> <b>"
template <typename A, typename B>
char* put_pair(char* p, A a, B b) {
  p = put_num(p, a);
  *p++ = ' ';
  return put_num(p, b);
}

/// "<kind> " — every record starts with one letter and a space.
char* put_kind(char* p, char kind) {
  p[0] = kind;
  p[1] = ' ';
  return p + 2;
}

char* put_edges(char* p, RouteSpan edges) {
  for (const EdgeId e : edges) {
    *p++ = ' ';
    p = put_num(p, e);
  }
  return p;
}

/// Whitespace-splits one line into tokens; the parsing primitive.  Numeric
/// fields go through std::from_chars so garbage ("12x", "-3" for unsigned,
/// overflow) is rejected exactly, with the line number in the diagnostic.
class LineTokens {
 public:
  LineTokens(const std::string& line, std::size_t line_no)
      : line_no_(line_no) {
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      std::size_t j = i;
      while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
      if (j > i) tokens_.push_back(line.substr(i, j - i));
      i = j;
    }
  }

  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] std::size_t line_no() const { return line_no_; }

  [[nodiscard]] const std::string& str(std::size_t i) const {
    AQT_REQUIRE(i < tokens_.size(),
                "run trace line " << line_no_ << ": missing field "
                                  << (i + 1));
    return tokens_[i];
  }

  template <typename Int>
  [[nodiscard]] Int num(std::size_t i) const {
    const std::string& tok = str(i);
    Int value{};
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    AQT_REQUIRE(ec == std::errc() && ptr == tok.data() + tok.size(),
                "run trace line " << line_no_ << ": '" << tok
                                  << "' is not a valid number");
    return value;
  }

 private:
  std::vector<std::string> tokens_;
  std::size_t line_no_;
};

}  // namespace

RunTraceWriter::RunTraceWriter(std::ostream& os, const Graph& graph,
                               const RunTraceMeta& meta)
    : RunTraceWriter(&os, graph, meta) {}

RunTraceWriter::RunTraceWriter(const Graph& graph, const RunTraceMeta& meta)
    : RunTraceWriter(nullptr, graph, meta) {}

RunTraceWriter::RunTraceWriter(std::ostream& os,
                               const TraceResumeState& state)
    : RunTraceWriter(&os, state) {}

RunTraceWriter::RunTraceWriter(const TraceResumeState& state)
    : RunTraceWriter(nullptr, state) {}

RunTraceWriter::RunTraceWriter(std::ostream* os, const Graph& graph,
                               const RunTraceMeta& meta)
    : os_(os), buf_(kFixedChars) {
  line("aqt-run-trace " + std::to_string(kRunTraceVersion));
  line("protocol " + meta.protocol);
  line("seed " + std::to_string(meta.seed));
  line("digest " +
       (meta.scenario_digest.empty() ? std::string("-")
                                     : meta.scenario_digest));
  if (meta.window_w.has_value() && meta.window_r.has_value())
    line("window " + std::to_string(*meta.window_w) + " " +
         meta.window_r->str());
  if (meta.rate_r.has_value()) line("rate " + meta.rate_r->str());

  line("nodes " + std::to_string(graph.node_count()));
  for (NodeId v = 0; v < graph.node_count(); ++v)
    line("node " + std::to_string(v) + " " + graph.node_name(v));
  line("edges " + std::to_string(graph.edge_count()));
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Graph::Edge& ed = graph.edge(e);
    line("edge " + std::to_string(e) + " " + ed.name + " " +
         std::to_string(ed.tail) + " " + std::to_string(ed.head));
  }
  line("begin");
}

RunTraceWriter::RunTraceWriter(std::ostream* os,
                               const TraceResumeState& state)
    : os_(os),
      buf_(kFixedChars),
      hash_(state.hash_state),
      last_step_(state.last_step) {
  // A continuation segment picks up after a fully recorded step, so the
  // P-records-precede-step-1 window is already closed.
  begun_ = true;
}

void RunTraceWriter::line(std::string_view text) {
  AQT_CHECK(!finished_, "run-trace record after finish()");
  hash_.update(text);
  hash_.update("\n");
  if (os_ != nullptr) *os_ << text << '\n';
}

char* RunTraceWriter::line_buffer(std::size_t bytes) {
  AQT_CHECK(!finished_, "run-trace record after finish()");
  if (buf_.size() < bytes) buf_.resize(bytes);
  return buf_.data();
}

void RunTraceWriter::emit(char* end) {
  *end++ = '\n';
  const auto bytes = static_cast<std::size_t>(end - buf_.data());
  hash_.update(std::string_view(buf_.data(), bytes));
  if (os_ != nullptr)
    os_->write(buf_.data(), static_cast<std::streamsize>(bytes));
}

void RunTraceWriter::record_initial(std::uint64_t ordinal, std::uint64_t tag,
                                    RouteSpan route) {
  AQT_CHECK(!begun_, "initial packets must precede step 1 in the trace");
  char* p = line_buffer(kFixedChars + kEdgeChars * route.size());
  emit(put_edges(put_pair(put_kind(p, 'P'), ordinal, tag), route));
}

void RunTraceWriter::begin_step(Time t) {
  begun_ = true;
  last_step_ = t;
  emit(put_num(put_kind(line_buffer(kFixedChars), 'T'), t));
}

void RunTraceWriter::record_send(EdgeId e, std::uint64_t ordinal) {
  emit(put_pair(put_kind(line_buffer(kFixedChars), 'S'), e, ordinal));
}

void RunTraceWriter::record_absorb(std::uint64_t ordinal) {
  emit(put_num(put_kind(line_buffer(kFixedChars), 'A'), ordinal));
}

void RunTraceWriter::record_reroute(std::uint64_t ordinal,
                                    RouteSpan new_suffix) {
  char* p = line_buffer(kFixedChars + kEdgeChars * new_suffix.size());
  emit(put_edges(put_num(put_kind(p, 'R'), ordinal), new_suffix));
}

void RunTraceWriter::record_inject(std::uint64_t ordinal, std::uint64_t tag,
                                   RouteSpan route) {
  char* p = line_buffer(kFixedChars + kEdgeChars * route.size());
  emit(put_edges(put_pair(put_kind(p, 'J'), ordinal, tag), route));
}

void RunTraceWriter::record_queue_depth(EdgeId e, std::size_t depth) {
  emit(put_pair(put_kind(line_buffer(kFixedChars), 'Q'), e, depth));
}

void RunTraceWriter::finish(std::uint64_t injected, std::uint64_t absorbed) {
  AQT_CHECK(!finished_, "finish() called twice");
  char* p = line_buffer(kFixedChars);
  std::memcpy(p, "end ", 4);
  p = put_pair(p + 4, last_step_, injected);
  *p++ = ' ';
  emit(put_num(p, absorbed));
  // The hash line itself is excluded from the hash.
  if (os_ != nullptr) {
    *os_ << "hash " << hash_hex(hash_.value()) << '\n';
    os_->flush();
  }
  finished_ = true;
}

RunTrace parse_run_trace(std::istream& is, const std::string& name) {
  RunTrace out;
  Fnv1a hash;
  std::string raw;
  std::size_t line_no = 0;
  bool saw_end = false;
  bool saw_hash = false;

  auto next_line = [&](const char* what) -> LineTokens {
    AQT_REQUIRE(std::getline(is, raw),
                "" << name << ": truncated run trace (expected " << what
                     << " after line " << line_no << ")");
    ++line_no;
    hash.update(raw);
    hash.update("\n");
    return LineTokens(raw, line_no);
  };

  // --- Header -------------------------------------------------------------
  {
    const LineTokens t = next_line("version line");
    AQT_REQUIRE(t.size() == 2 && t.str(0) == "aqt-run-trace",
                "" << name << ": line 1: not a run trace (expected "
                        "'aqt-run-trace <version>')");
    out.version = t.num<int>(1);
    AQT_REQUIRE(out.version == kRunTraceVersion,
                "" << name << ": unsupported run-trace version " << out.version
                     << " (this build reads version " << kRunTraceVersion
                     << ")");
  }
  {
    const LineTokens t = next_line("protocol line");
    AQT_REQUIRE(t.size() == 2 && t.str(0) == "protocol",
                "" << name << ": line " << t.line_no() << ": expected 'protocol "
                        "<NAME>'");
    out.meta.protocol = t.str(1);
  }
  {
    const LineTokens t = next_line("seed line");
    AQT_REQUIRE(t.size() == 2 && t.str(0) == "seed",
                "" << name << ": line " << t.line_no() << ": expected 'seed <n>'");
    out.meta.seed = t.num<std::uint64_t>(1);
  }
  {
    const LineTokens t = next_line("digest line");
    AQT_REQUIRE(t.size() == 2 && t.str(0) == "digest",
                "" << name << ": line " << t.line_no()
                     << ": expected 'digest <hex|->'");
    if (t.str(1) != "-") out.meta.scenario_digest = t.str(1);
  }

  // Optional constraint lines, then the mandatory node table.
  LineTokens t = next_line("constraint or node table");
  while (t.size() > 0 && (t.str(0) == "window" || t.str(0) == "rate")) {
    if (t.str(0) == "window") {
      AQT_REQUIRE(t.size() == 3, "" << name << ": line " << t.line_no()
                                      << ": expected 'window <w> <r>'");
      out.meta.window_w = t.num<std::int64_t>(1);
      out.meta.window_r = Rat::parse(t.str(2));
    } else {
      AQT_REQUIRE(t.size() == 2, "" << name << ": line " << t.line_no()
                                      << ": expected 'rate <r>'");
      out.meta.rate_r = Rat::parse(t.str(1));
    }
    t = next_line("node table");
  }

  AQT_REQUIRE(t.size() == 2 && t.str(0) == "nodes",
              "" << name << ": line " << t.line_no()
                   << ": expected 'nodes <count>'");
  const auto node_count = t.num<std::uint32_t>(1);
  // Untrusted count: preallocation is clamped so a tampered header cannot
  // balloon memory; the per-entry lines below still enforce the count.
  out.node_names.reserve(std::min<std::uint32_t>(node_count, 65536));
  for (std::uint32_t i = 0; i < node_count; ++i) {
    const LineTokens n = next_line("node entry");
    AQT_REQUIRE(n.size() == 3 && n.str(0) == "node" &&
                    n.num<NodeId>(1) == i,
                "" << name << ": line " << n.line_no()
                     << ": expected 'node " << i << " <name>'");
    out.node_names.push_back(n.str(2));
  }

  {
    const LineTokens e = next_line("edge table");
    AQT_REQUIRE(e.size() == 2 && e.str(0) == "edges",
                "" << name << ": line " << e.line_no()
                     << ": expected 'edges <count>'");
    const auto edge_count = e.num<std::uint32_t>(1);
    out.edges.reserve(std::min<std::uint32_t>(edge_count, 65536));
    for (std::uint32_t i = 0; i < edge_count; ++i) {
      const LineTokens d = next_line("edge entry");
      AQT_REQUIRE(d.size() == 5 && d.str(0) == "edge" &&
                      d.num<EdgeId>(1) == i,
                  "" << name << ": line " << d.line_no()
                       << ": expected 'edge " << i
                       << " <name> <tail> <head>'");
      RunTrace::EdgeDesc desc;
      desc.name = d.str(2);
      desc.tail = d.num<NodeId>(3);
      desc.head = d.num<NodeId>(4);
      AQT_REQUIRE(desc.tail < node_count && desc.head < node_count,
                  "" << name << ": line " << d.line_no()
                       << ": edge endpoint out of range (nodes: "
                       << node_count << ")");
      out.edges.push_back(std::move(desc));
    }
  }

  {
    const LineTokens b = next_line("'begin'");
    AQT_REQUIRE(b.size() == 1 && b.str(0) == "begin",
                "" << name << ": line " << b.line_no() << ": expected 'begin'");
  }

  // --- Records ------------------------------------------------------------
  const auto edge_count = static_cast<EdgeId>(out.edges.size());
  auto parse_route = [&](const LineTokens& tok, std::size_t from,
                         Route& edges) {
    for (std::size_t i = from; i < tok.size(); ++i) {
      const EdgeId e = tok.num<EdgeId>(i);
      AQT_REQUIRE(e < edge_count, "" << name << ": line " << tok.line_no()
                                       << ": edge id " << e
                                       << " out of range (edges: "
                                       << edge_count << ")");
      edges.push_back(e);
    }
  };

  while (!saw_end) {
    const LineTokens r = next_line("a record or 'end'");
    AQT_REQUIRE(r.size() > 0,
                "" << name << ": line " << r.line_no() << ": empty record line");
    const std::string& kind = r.str(0);
    RunRecord rec;
    if (kind == "end") {
      AQT_REQUIRE(r.size() == 4,
                  "" << name << ": line " << r.line_no()
                       << ": expected 'end <steps> <injected> <absorbed>'");
      out.steps = r.num<Time>(1);
      AQT_REQUIRE(out.steps >= 0, "" << name << ": line " << r.line_no()
                                       << ": negative step count");
      out.injected = r.num<std::uint64_t>(2);
      out.absorbed = r.num<std::uint64_t>(3);
      saw_end = true;
      continue;
    }
    if (kind == "P" || kind == "J") {
      AQT_REQUIRE(r.size() >= 4,
                  "" << name << ": line " << r.line_no() << ": '" << kind
                       << "' needs an ordinal, a tag, and a route");
      rec.kind = kind == "P" ? RunRecord::Kind::kInitial
                             : RunRecord::Kind::kInject;
      rec.ordinal = r.num<std::uint64_t>(1);
      rec.tag = r.num<std::uint64_t>(2);
      parse_route(r, 3, rec.edges);
    } else if (kind == "T") {
      AQT_REQUIRE(r.size() == 2,
                  "" << name << ": line " << r.line_no() << ": expected 'T <t>'");
      rec.kind = RunRecord::Kind::kStep;
      rec.t = r.num<Time>(1);
      AQT_REQUIRE(rec.t >= 1, "" << name << ": line " << r.line_no()
                                   << ": step numbers start at 1");
    } else if (kind == "S") {
      AQT_REQUIRE(r.size() == 3, "" << name << ": line " << r.line_no()
                                      << ": expected 'S <e> <ordinal>'");
      rec.kind = RunRecord::Kind::kSend;
      rec.edge = r.num<EdgeId>(1);
      rec.ordinal = r.num<std::uint64_t>(2);
      AQT_REQUIRE(rec.edge < edge_count,
                  "" << name << ": line " << r.line_no() << ": edge id "
                       << rec.edge << " out of range");
    } else if (kind == "A") {
      AQT_REQUIRE(r.size() == 2, "" << name << ": line " << r.line_no()
                                      << ": expected 'A <ordinal>'");
      rec.kind = RunRecord::Kind::kAbsorb;
      rec.ordinal = r.num<std::uint64_t>(1);
    } else if (kind == "R") {
      AQT_REQUIRE(r.size() >= 2,
                  "" << name << ": line " << r.line_no()
                       << ": expected 'R <ordinal> [<e>...]'");
      rec.kind = RunRecord::Kind::kReroute;
      rec.ordinal = r.num<std::uint64_t>(1);
      parse_route(r, 2, rec.edges);
    } else if (kind == "Q") {
      AQT_REQUIRE(r.size() == 3, "" << name << ": line " << r.line_no()
                                      << ": expected 'Q <e> <depth>'");
      rec.kind = RunRecord::Kind::kQueue;
      rec.edge = r.num<EdgeId>(1);
      rec.depth = r.num<std::uint64_t>(2);
      AQT_REQUIRE(rec.edge < edge_count,
                  "" << name << ": line " << r.line_no() << ": edge id "
                       << rec.edge << " out of range");
    } else {
      AQT_REQUIRE(false, "" << name << ": line " << r.line_no()
                              << ": unknown record kind '" << kind << "'");
    }
    if (!saw_end) out.records.push_back(std::move(rec));
  }
  out.computed_hash = hash.value();

  // --- Footer hash (excluded from the hash itself) ------------------------
  {
    AQT_REQUIRE(std::getline(is, raw),
                "" << name << ": truncated run trace (missing hash line)");
    ++line_no;
    const LineTokens h(raw, line_no);
    AQT_REQUIRE(h.size() == 2 && h.str(0) == "hash",
                "" << name << ": line " << line_no
                     << ": expected 'hash <16 hex digits>'");
    const std::string& hex = h.str(1);
    AQT_REQUIRE(hex.size() == 16,
                "" << name << ": line " << line_no
                     << ": hash must be 16 hex digits, got '" << hex << "'");
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), value, 16);
    AQT_REQUIRE(ec == std::errc() && ptr == hex.data() + hex.size(),
                "" << name << ": line " << line_no << ": '" << hex
                     << "' is not a hex hash");
    out.declared_hash = value;
    saw_hash = true;
  }
  AQT_REQUIRE(saw_hash, "" << name << ": truncated run trace");
  return out;
}

RunTrace parse_run_trace_file(const std::string& path) {
  std::ifstream in(path);
  AQT_REQUIRE(static_cast<bool>(in), "cannot open " << path);
  return parse_run_trace(in, path);
}

void replay_records(const RunTrace& trace, RunTraceSink& sink) {
  for (const RunRecord& r : trace.records) {
    switch (r.kind) {
      case RunRecord::Kind::kInitial:
        sink.record_initial(r.ordinal, r.tag, r.edges);
        break;
      case RunRecord::Kind::kStep:
        sink.begin_step(r.t);
        break;
      case RunRecord::Kind::kSend:
        sink.record_send(r.edge, r.ordinal);
        break;
      case RunRecord::Kind::kAbsorb:
        sink.record_absorb(r.ordinal);
        break;
      case RunRecord::Kind::kReroute:
        sink.record_reroute(r.ordinal, r.edges);
        break;
      case RunRecord::Kind::kInject:
        sink.record_inject(r.ordinal, r.tag, r.edges);
        break;
      case RunRecord::Kind::kQueue:
        sink.record_queue_depth(r.edge, static_cast<std::size_t>(r.depth));
        break;
    }
  }
}

std::string fnv1a_hex(std::istream& is) {
  Fnv1a hash;
  char buf[4096];
  while (is.read(buf, sizeof buf) || is.gcount() > 0)
    hash.update(std::string_view(buf, static_cast<std::size_t>(is.gcount())));
  return hash_hex(hash.value());
}

std::string file_digest_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AQT_REQUIRE(static_cast<bool>(in), "cannot open " << path);
  return fnv1a_hex(in);
}

}  // namespace aqt
