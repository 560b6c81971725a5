#include "aqt/topology/generators.hpp"

#include <charconv>
#include <cstring>
#include <string>

#include "aqt/util/check.hpp"

namespace aqt {
namespace {

/// `prefix` followed by the numbers joined with '_' ("v3_4"), formatted in
/// place so a name costs one allocation at most.
template <typename... Ints>
std::string num_name(const char* prefix, Ints... numbers) {
  char buf[64];
  const std::size_t len = std::strlen(prefix);
  std::memcpy(buf, prefix, len);
  char* p = buf + len;
  bool first = true;
  for (const std::int64_t n : {static_cast<std::int64_t>(numbers)...}) {
    if (!first) *p++ = '_';
    first = false;
    p = std::to_chars(p, buf + sizeof buf, n).ptr;
  }
  return std::string(buf, p);
}

/// A count as a size for Graph::reserve.
std::size_t as_size(std::int64_t n) { return static_cast<std::size_t>(n); }

}  // namespace

Graph make_line(std::int64_t len) {
  AQT_REQUIRE(len >= 1, "line length must be >= 1");
  Graph g;
  g.reserve(as_size(len) + 1, as_size(len));
  NodeId prev = g.add_node("v0");
  for (std::int64_t i = 1; i <= len; ++i) {
    const NodeId next = g.add_node(num_name("v", i));
    g.add_edge(prev, next, num_name("l", i - 1));
    prev = next;
  }
  return g;
}

Graph make_ring(std::int64_t len) {
  AQT_REQUIRE(len >= 2, "ring length must be >= 2");
  Graph g;
  g.reserve(as_size(len), as_size(len));
  for (std::int64_t i = 0; i < len; ++i) g.add_node(num_name("v", i));
  for (std::int64_t i = 0; i < len; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % len),
               num_name("r", i));
  }
  return g;
}

Graph make_bidirectional_ring(std::int64_t len) {
  AQT_REQUIRE(len >= 2, "ring length must be >= 2");
  Graph g;
  g.reserve(as_size(len), 2 * as_size(len));
  for (std::int64_t i = 0; i < len; ++i) g.add_node(num_name("v", i));
  for (std::int64_t i = 0; i < len; ++i) {
    const auto a = static_cast<NodeId>(i);
    const auto b = static_cast<NodeId>((i + 1) % len);
    g.add_edge(a, b, num_name("cw", i));
    g.add_edge(b, a, num_name("ccw", i));
  }
  return g;
}

Graph make_grid(std::int64_t rows, std::int64_t cols) {
  AQT_REQUIRE(rows >= 1 && cols >= 1, "grid dimensions must be >= 1");
  Graph g;
  g.reserve(as_size(rows * cols),
            as_size(rows * (cols - 1) + (rows - 1) * cols));
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      g.add_node(num_name("v", r, c));
  const auto id = [&](std::int64_t r, std::int64_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (c + 1 < cols)
        g.add_edge(id(r, c), id(r, c + 1), num_name("h", r, c));
      if (r + 1 < rows)
        g.add_edge(id(r, c), id(r + 1, c), num_name("d", r, c));
    }
  }
  return g;
}

Graph make_in_tree(std::int64_t depth) {
  AQT_REQUIRE(depth >= 1, "tree depth must be >= 1");
  Graph g;
  // Level 0 is the root; level d has 2^d nodes; edges point parent-ward.
  std::int64_t index = 0;
  std::vector<std::vector<NodeId>> levels;
  for (std::int64_t d = 0; d <= depth; ++d) {
    levels.emplace_back();
    const std::int64_t width = std::int64_t{1} << d;
    for (std::int64_t i = 0; i < width; ++i)
      levels.back().push_back(g.add_node(num_name("t", index++)));
  }
  std::int64_t edge_idx = 0;
  for (std::int64_t d = 1; d <= depth; ++d) {
    for (std::size_t i = 0; i < levels[d].size(); ++i) {
      g.add_edge(levels[d][i], levels[d - 1][i / 2],
                 num_name("up", edge_idx++));
    }
  }
  return g;
}

Graph make_random_dag(std::int64_t nodes, double p, Rng& rng) {
  AQT_REQUIRE(nodes >= 2, "random DAG needs >= 2 nodes");
  AQT_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  Graph g;
  g.reserve(as_size(nodes), as_size(nodes - 1));
  for (std::int64_t i = 0; i < nodes; ++i) g.add_node(num_name("v", i));
  std::int64_t edge_idx = 0;
  for (std::int64_t i = 0; i + 1 < nodes; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
               num_name("spine", i));
    for (std::int64_t j = i + 2; j < nodes; ++j) {
      if (rng.chance(p)) {
        g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                   num_name("x", edge_idx++));
      }
    }
  }
  return g;
}

Graph make_hypercube(std::int64_t dim) {
  AQT_REQUIRE(dim >= 1 && dim <= 20, "hypercube dimension out of range");
  Graph g;
  const std::int64_t n = std::int64_t{1} << dim;
  g.reserve(as_size(n), as_size(n * dim));
  for (std::int64_t v = 0; v < n; ++v) g.add_node(num_name("v", v));
  for (std::int64_t v = 0; v < n; ++v) {
    for (std::int64_t b = 0; b < dim; ++b) {
      const std::int64_t u = v ^ (std::int64_t{1} << b);
      g.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(u),
                 num_name("h", v, b));
    }
  }
  return g;
}

Graph make_torus(std::int64_t rows, std::int64_t cols) {
  AQT_REQUIRE(rows >= 2 && cols >= 2, "torus dimensions must be >= 2");
  Graph g;
  g.reserve(as_size(rows * cols), as_size(2 * rows * cols));
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      g.add_node(num_name("v", r, c));
  const auto id = [&](std::int64_t r, std::int64_t c) {
    return static_cast<NodeId>(((r + rows) % rows) * cols +
                               ((c + cols) % cols));
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      g.add_edge(id(r, c), id(r, c + 1), num_name("h", r, c));
      g.add_edge(id(r, c), id(r + 1, c), num_name("d", r, c));
    }
  }
  return g;
}

Graph make_parallel_edges(std::int64_t count) {
  AQT_REQUIRE(count >= 1, "need >= 1 parallel edges");
  Graph g;
  g.reserve(2, as_size(count));
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  for (std::int64_t i = 0; i < count; ++i)
    g.add_edge(a, b, num_name("p", i));
  return g;
}

}  // namespace aqt
