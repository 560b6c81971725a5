// Directed multigraph model of the communication network (paper §2).
//
// Nodes are switches; each directed edge is a unit-capacity link with one
// FIFO-agnostic buffer at its tail.  Nodes and edges carry names so
// constructions like the F_n gadget can address edges symbolically ("e3",
// "a'", ...).  Parallel edges and self-loop-free arbitrary topologies are
// supported; self-loops are rejected (a route may not revisit a node).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "aqt/core/types.hpp"

namespace aqt {

/// Immutable-after-build directed multigraph with named nodes and edges.
class Graph {
 public:
  struct Edge {
    NodeId tail;
    NodeId head;
    std::string name;
  };

  Graph() = default;

  /// Reserves room for `nodes` nodes and `edges` edges; builders that know
  /// their counts up front call it before adding anything.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Adds a node; names must be unique and non-empty.
  NodeId add_node(std::string name);

  /// Adds a directed edge tail->head; names must be unique and non-empty.
  EdgeId add_edge(NodeId tail, NodeId head, std::string name);

  /// Adds an edge between named nodes, creating the nodes if absent.
  EdgeId add_edge(const std::string& tail_name, const std::string& head_name,
                  std::string edge_name);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const;
  [[nodiscard]] const std::string& node_name(NodeId v) const;

  [[nodiscard]] NodeId tail(EdgeId e) const { return edge(e).tail; }
  [[nodiscard]] NodeId head(EdgeId e) const { return edge(e).head; }

  [[nodiscard]] const std::vector<EdgeId>& out_edges(NodeId v) const;
  [[nodiscard]] const std::vector<EdgeId>& in_edges(NodeId v) const;

  /// Looks up ids by name; nullopt if absent.
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view name) const;
  [[nodiscard]] std::optional<EdgeId> find_edge(std::string_view name) const;

  /// Like find_edge but hard-fails with a message; for construction code.
  [[nodiscard]] EdgeId edge_by_name(std::string_view name) const;

  /// True iff `route` is non-empty and consecutive edges are contiguous
  /// (head of route[i] == tail of route[i+1]).
  [[nodiscard]] bool is_path(const Route& route) const;

  /// True iff `route` is a *simple* directed path: contiguous and no node is
  /// visited twice (paper §2 requires simple routes).  Allocation-free on
  /// graphs of up to 32768 nodes, and safe to call concurrently.
  [[nodiscard]] bool is_simple_path(const Route& route) const;

  /// Maximum in-degree over nodes (the alpha of Diaz et al.'s bound).
  [[nodiscard]] std::size_t max_in_degree() const;

  /// Graphviz DOT rendering (edges labelled with their names).
  [[nodiscard]] std::string to_dot(const std::string& graph_name = "G") const;

 private:
  std::vector<std::string> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  std::unordered_map<std::string, NodeId> node_by_name_;
  std::unordered_map<std::string, EdgeId> edge_by_name_;
};

}  // namespace aqt
