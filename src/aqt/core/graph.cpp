#include "aqt/core/graph.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>

#include "aqt/util/check.hpp"

namespace aqt {

void Graph::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  out_.reserve(nodes);
  in_.reserve(nodes);
  node_by_name_.reserve(nodes);
  edges_.reserve(edges);
  edge_by_name_.reserve(edges);
}

NodeId Graph::add_node(std::string name) {
  AQT_REQUIRE(!name.empty(), "node name must be non-empty");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  AQT_REQUIRE(node_by_name_.try_emplace(name, id).second,
              "duplicate node name: " << name);
  nodes_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

EdgeId Graph::add_edge(NodeId tail, NodeId head, std::string name) {
  AQT_REQUIRE(tail < nodes_.size() && head < nodes_.size(),
              "edge endpoints out of range");
  AQT_REQUIRE(tail != head, "self-loop edges are not allowed: " << name);
  AQT_REQUIRE(!name.empty(), "edge name must be non-empty");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  AQT_REQUIRE(edge_by_name_.try_emplace(name, id).second,
              "duplicate edge name: " << name);
  edges_.push_back(Edge{tail, head, std::move(name)});
  out_[tail].push_back(id);
  in_[head].push_back(id);
  return id;
}

EdgeId Graph::add_edge(const std::string& tail_name,
                       const std::string& head_name, std::string edge_name) {
  const auto get_or_add = [&](const std::string& n) {
    if (auto v = find_node(n)) return *v;
    return add_node(n);
  };
  const NodeId t = get_or_add(tail_name);
  const NodeId h = get_or_add(head_name);
  return add_edge(t, h, std::move(edge_name));
}

const Graph::Edge& Graph::edge(EdgeId e) const {
  AQT_REQUIRE(e < edges_.size(), "edge id out of range: " << e);
  return edges_[e];
}

const std::string& Graph::node_name(NodeId v) const {
  AQT_REQUIRE(v < nodes_.size(), "node id out of range: " << v);
  return nodes_[v];
}

const std::vector<EdgeId>& Graph::out_edges(NodeId v) const {
  AQT_REQUIRE(v < nodes_.size(), "node id out of range: " << v);
  return out_[v];
}

const std::vector<EdgeId>& Graph::in_edges(NodeId v) const {
  AQT_REQUIRE(v < nodes_.size(), "node id out of range: " << v);
  return in_[v];
}

std::optional<NodeId> Graph::find_node(std::string_view name) const {
  auto it = node_by_name_.find(std::string(name));
  if (it == node_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<EdgeId> Graph::find_edge(std::string_view name) const {
  auto it = edge_by_name_.find(std::string(name));
  if (it == edge_by_name_.end()) return std::nullopt;
  return it->second;
}

EdgeId Graph::edge_by_name(std::string_view name) const {
  const auto e = find_edge(name);
  AQT_REQUIRE(e.has_value(), "no edge named " << name);
  return *e;
}

bool Graph::is_path(const Route& route) const {
  if (route.empty()) return false;
  for (EdgeId e : route)
    if (e >= edges_.size()) return false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i)
    if (edges_[route[i]].head != edges_[route[i + 1]].tail) return false;
  return true;
}

namespace {

/// Marks each node of a contiguous route in `seen` (one bit per node,
/// cleared by the caller); false on the first node visited twice.
bool visits_distinct(const std::vector<Graph::Edge>& edges,
                     const Route& route, std::uint64_t* seen) {
  const auto mark = [seen](NodeId v) {
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((seen[v / 64] & bit) != 0) return false;
    seen[v / 64] |= bit;
    return true;
  };
  if (!mark(edges[route.front()].tail)) return false;
  for (const EdgeId e : route)
    if (!mark(edges[e].head)) return false;
  return true;
}

}  // namespace

bool Graph::is_simple_path(const Route& route) const {
  if (!is_path(route)) return false;
  // A simple path of k edges visits k + 1 distinct nodes.
  if (route.size() >= nodes_.size()) return false;
  // Graphs up to kStackWords * 64 = 32768 nodes get a bitmap on the stack,
  // larger ones a heap bitmap.  Nothing is shared, so concurrent calls on
  // one graph are safe.
  constexpr std::size_t kStackWords = 512;
  const std::size_t words = (nodes_.size() + 63) / 64;
  if (words <= kStackWords) {
    std::array<std::uint64_t, kStackWords> seen;
    std::fill_n(seen.begin(), words, 0);
    return visits_distinct(edges_, route, seen.data());
  }
  std::vector<std::uint64_t> seen(words, 0);
  return visits_distinct(edges_, route, seen.data());
}

std::size_t Graph::max_in_degree() const {
  std::size_t best = 0;
  for (const auto& v : in_) best = std::max(best, v.size());
  return best;
}

std::string Graph::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=LR;\n";
  for (std::size_t v = 0; v < nodes_.size(); ++v)
    os << "  n" << v << " [label=\"" << nodes_[v] << "\"];\n";
  for (const auto& e : edges_)
    os << "  n" << e.tail << " -> n" << e.head << " [label=\"" << e.name
       << "\"];\n";
  os << "}\n";
  return os.str();
}

}  // namespace aqt
