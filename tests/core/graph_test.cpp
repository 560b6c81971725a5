#include "aqt/core/graph.hpp"

#include <gtest/gtest.h>

#include <string>

#include "aqt/util/check.hpp"

namespace aqt {
namespace {

Graph diamond() {
  // s -> a -> t and s -> b -> t.
  Graph g;
  g.add_edge("s", "a", "sa");
  g.add_edge("a", "t", "at");
  g.add_edge("s", "b", "sb");
  g.add_edge("b", "t", "bt");
  return g;
}

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId e = g.add_edge(a, b, "ab");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.tail(e), a);
  EXPECT_EQ(g.head(e), b);
  EXPECT_EQ(g.edge(e).name, "ab");
}

TEST(Graph, NamedEdgeCreatesNodes) {
  Graph g;
  g.add_edge("x", "y", "xy");
  EXPECT_TRUE(g.find_node("x").has_value());
  EXPECT_TRUE(g.find_node("y").has_value());
  EXPECT_TRUE(g.find_edge("xy").has_value());
}

TEST(Graph, NamedEdgeReusesNodes) {
  Graph g;
  g.add_edge("x", "y", "e1");
  g.add_edge("y", "x", "e2");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Graph, DuplicateNodeNameThrows) {
  Graph g;
  g.add_node("a");
  EXPECT_THROW(g.add_node("a"), PreconditionError);
}

TEST(Graph, DuplicateEdgeNameThrows) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, "e");
  EXPECT_THROW(g.add_edge(a, b, "e"), PreconditionError);
}

TEST(Graph, SelfLoopThrows) {
  Graph g;
  const NodeId a = g.add_node("a");
  EXPECT_THROW(g.add_edge(a, a, "loop"), PreconditionError);
}

TEST(Graph, EmptyNamesThrow) {
  Graph g;
  EXPECT_THROW(g.add_node(""), PreconditionError);
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  EXPECT_THROW(g.add_edge(a, b, ""), PreconditionError);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, "e1");
  g.add_edge(a, b, "e2");
  EXPECT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.in_edges(b).size(), 2u);
}

TEST(Graph, AdjacencyLists) {
  Graph g = diamond();
  const NodeId s = *g.find_node("s");
  const NodeId t = *g.find_node("t");
  EXPECT_EQ(g.out_edges(s).size(), 2u);
  EXPECT_EQ(g.in_edges(s).size(), 0u);
  EXPECT_EQ(g.in_edges(t).size(), 2u);
  EXPECT_EQ(g.out_edges(t).size(), 0u);
}

TEST(Graph, FindMissingReturnsNullopt) {
  Graph g;
  EXPECT_FALSE(g.find_node("ghost").has_value());
  EXPECT_FALSE(g.find_edge("ghost").has_value());
}

TEST(Graph, EdgeByNameThrowsWhenMissing) {
  Graph g;
  EXPECT_THROW((void)g.edge_by_name("ghost"), PreconditionError);
}

TEST(Graph, IsPathAcceptsContiguous) {
  Graph g = diamond();
  EXPECT_TRUE(g.is_path({g.edge_by_name("sa"), g.edge_by_name("at")}));
}

TEST(Graph, IsPathRejectsGap) {
  Graph g = diamond();
  EXPECT_FALSE(g.is_path({g.edge_by_name("sa"), g.edge_by_name("bt")}));
}

TEST(Graph, IsPathRejectsEmpty) {
  Graph g = diamond();
  EXPECT_FALSE(g.is_path({}));
}

TEST(Graph, IsPathRejectsBadEdgeId) {
  Graph g = diamond();
  EXPECT_FALSE(g.is_path({static_cast<EdgeId>(999)}));
}

TEST(Graph, SimplePathRejectsNodeRevisit) {
  // Triangle a -> b -> c -> a: traversing all three revisits node a.
  Graph g;
  g.add_edge("a", "b", "ab");
  g.add_edge("b", "c", "bc");
  g.add_edge("c", "a", "ca");
  EXPECT_TRUE(g.is_simple_path(
      {g.edge_by_name("ab"), g.edge_by_name("bc")}));
  EXPECT_FALSE(g.is_simple_path(
      {g.edge_by_name("ab"), g.edge_by_name("bc"), g.edge_by_name("ca")}));
}

TEST(Graph, SingleEdgeIsSimplePath) {
  Graph g = diamond();
  EXPECT_TRUE(g.is_simple_path({g.edge_by_name("sa")}));
}

TEST(Graph, SimplePathOnGraphsPastTheStackBitmap) {
  // 40000 nodes on a line v0 -> v1 -> ..., plus a back edge v2 -> v0: too
  // many nodes for the stack bitmap, so every route uses a heap bitmap.
  constexpr std::uint32_t kNodes = 40000;
  Graph g;
  g.reserve(kNodes, kNodes);
  for (std::uint32_t v = 0; v < kNodes; ++v)
    g.add_node("v" + std::to_string(v));
  for (std::uint32_t v = 0; v + 1 < kNodes; ++v)
    g.add_edge(v, v + 1, "l" + std::to_string(v));
  const EdgeId back = g.add_edge(2, 0, "back");

  EXPECT_TRUE(g.is_simple_path({0, 1}));
  EXPECT_TRUE(g.is_simple_path({1, back}));
  EXPECT_FALSE(g.is_simple_path({0, 1, back}));

  Route along;
  for (EdgeId e = 0; e < 100; ++e) along.push_back(e);
  EXPECT_TRUE(g.is_simple_path(along));
  Route loops;
  for (int i = 0; i < 30; ++i) loops.insert(loops.end(), {0, 1, back});
  EXPECT_FALSE(g.is_simple_path(loops));
}

TEST(Graph, MaxInDegree) {
  Graph g = diamond();
  EXPECT_EQ(g.max_in_degree(), 2u);  // Node t.
  Graph empty;
  EXPECT_EQ(empty.max_in_degree(), 0u);
}

TEST(Graph, DotExportMentionsAllEdges) {
  Graph g = diamond();
  const std::string dot = g.to_dot("D");
  EXPECT_NE(dot.find("digraph \"D\""), std::string::npos);
  for (const char* name : {"sa", "at", "sb", "bt"})
    EXPECT_NE(dot.find(name), std::string::npos) << name;
}

TEST(Graph, OutOfRangeAccessorsThrow) {
  Graph g;
  EXPECT_THROW((void)g.edge(0), PreconditionError);
  EXPECT_THROW((void)g.node_name(0), PreconditionError);
  EXPECT_THROW((void)g.out_edges(0), PreconditionError);
  EXPECT_THROW((void)g.in_edges(0), PreconditionError);
}

}  // namespace
}  // namespace aqt
