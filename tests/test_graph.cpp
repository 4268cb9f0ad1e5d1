// Unit tests for the immutable CSR graph (GraphBuilder / CsrGraph).  The
// `Digraph` suite pins the directed-graph contract the CDAG code relies
// on (degrees, sources/sinks, order, acyclicity, reachability, DOT); the
// `CsrGraph` and `GraphBuilder` suites pin the frozen layout and freeze().
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/csr.hpp"

namespace fmm::graph {
namespace {

/// Freezes an `n`-vertex DAG from `edges`, added in the given order.
CsrGraph dag(std::size_t n,
             const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v] : edges) {
    builder.add_edge(u, v);
  }
  return builder.freeze();
}

CsrGraph csr_diamond() { return dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}); }

/// Two components, 0 -> 1 -> 2 and 3 -> 4, plus the isolated vertex 5.
CsrGraph two_chains() { return dag(6, {{0, 1}, {1, 2}, {3, 4}}); }

TEST(Digraph, Degrees) {
  const CsrGraph g = csr_diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.out_degree(3), 0u);
  std::size_t out_sum = 0;
  std::size_t in_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out_sum += g.out_degree(v);
    in_sum += g.in_degree(v);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(Digraph, AddVerticesReturnsFirstId) {
  GraphBuilder builder;
  EXPECT_EQ(builder.add_vertices(3), 0u);
  EXPECT_EQ(builder.add_vertices(2), 3u);
  builder.add_edge(0, 4);  // edges may span the two batches
  const CsrGraph g = builder.freeze();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Digraph, EdgeOutOfRangeThrows) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(2, 1), CheckError);  // source out of range
  EXPECT_THROW(builder.add_edge(0, 2), CheckError);  // target out of range
  builder.add_vertices(1);
  EXPECT_NO_THROW(builder.add_edge(0, 2));
}

TEST(Digraph, SourcesAndSinks) {
  // An isolated vertex is both a source and a sink.
  const CsrGraph g = two_chains();
  EXPECT_EQ(g.sources(), (std::vector<VertexId>{0, 3, 5}));
  EXPECT_EQ(g.sinks(), (std::vector<VertexId>{2, 4, 5}));
}

TEST(Digraph, TopologicalOrderRespectsEdges) {
  const CsrGraph g = csr_diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = i;
  }
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Digraph, CycleDetection) {
  // A cycle cannot be frozen: its closing edge always has u > v.
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 0);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(Digraph, SelfLoopIsCycle) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 1);
  builder.add_edge(1, 2);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(Digraph, DagIsDag) {
  // Every graph freeze() accepts is a DAG, including the densest one.
  EXPECT_TRUE(csr_diamond().is_dag());
  GraphBuilder complete(6);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) {
      complete.add_edge(u, v);
    }
  }
  const CsrGraph g = complete.freeze();
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(g.is_dag());
}

TEST(Digraph, ReachableFrom) {
  EXPECT_EQ(two_chains().reachable_from({0}),
            (std::vector<bool>{true, true, true, false, false, false}));
}

TEST(Digraph, ReachableFromMultipleSources) {
  // Multiple starts union their closures.
  const CsrGraph g = two_chains();
  EXPECT_EQ(g.reachable_from({0, 3}),
            (std::vector<bool>{true, true, true, true, true, false}));
  EXPECT_EQ(g.reachable_from({1, 3}),
            (std::vector<bool>{false, true, true, true, true, false}));
}

TEST(Digraph, ReachingTo) {
  const CsrGraph g = csr_diamond();
  EXPECT_EQ(g.reaching_to({3}), std::vector<bool>(4, true));
  EXPECT_EQ(g.reaching_to({1}), (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(two_chains().reaching_to({2, 4}),
            (std::vector<bool>{true, true, true, true, true, false}));
}

TEST(Digraph, ReachabilityOutOfRangeThrows) {
  const CsrGraph g = csr_diamond();
  EXPECT_THROW(g.reaching_to({9}), CheckError);
  EXPECT_THROW(g.reachable_from({0, 4}), CheckError);
}

TEST(Digraph, DotOutputContainsEdges) {
  const std::string dot = csr_diamond().to_dot({"in", "l", "r", "out"});
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  for (const char* edge : {"v0 -> v1", "v0 -> v2", "v1 -> v3", "v2 -> v3"}) {
    EXPECT_NE(dot.find(edge), std::string::npos) << edge;
  }
  EXPECT_NE(dot.find("label=\"out\""), std::string::npos);
}

TEST(Digraph, EmptyGraphTopoOrder) {
  const CsrGraph g = GraphBuilder().freeze();
  EXPECT_TRUE(g.topological_order().empty());
  EXPECT_TRUE(g.is_dag());
}

TEST(Digraph, LinearChainOrder) {
  GraphBuilder chain(64);
  for (VertexId v = 0; v + 1 < 64; ++v) {
    chain.add_edge(v, v + 1);
  }
  const auto order = chain.freeze().topological_order();
  ASSERT_EQ(order.size(), 64u);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(order[v], v);
  }
}

TEST(CsrGraph, FreezeBasicStructure) {
  const CsrGraph g = csr_diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.sources(), (std::vector<VertexId>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<VertexId>{3}));
  EXPECT_TRUE(g.is_dag());
  // Both directions: V+1 offsets and E edge ids, 4 bytes each.
  EXPECT_EQ(g.memory_bytes(), (2 * 5 + 2 * 4) * sizeof(std::uint32_t));
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.topological_order().empty());
}

TEST(GraphBuilder, AddVerticesReturnsFirstId) {
  GraphBuilder builder;
  EXPECT_EQ(builder.add_vertices(3), 0u);
  EXPECT_EQ(builder.add_vertex(), 3u);
  EXPECT_EQ(builder.num_vertices(), 4u);
}

TEST(GraphBuilder, EdgeOutOfRangeThrows) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), CheckError);
}

TEST(GraphBuilder, FreezeRejectsParallelEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 1);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(GraphBuilder, FreezeRejectsNonTopologicalEdge) {
  {
    GraphBuilder builder(3);
    builder.add_edge(2, 1);  // u > v: would admit cycles
    EXPECT_THROW(builder.freeze(), CheckError);
  }
  {
    GraphBuilder builder(1);
    builder.add_edge(0, 0);  // self-loop
    EXPECT_THROW(builder.freeze(), CheckError);
  }
}

TEST(GraphBuilder, FreezeConsumesBuilder) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1);
  const CsrGraph g = builder.freeze();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(builder.num_vertices(), 0u);
  EXPECT_EQ(builder.num_edges(), 0u);
}

TEST(CsrGraph, NeighborOrderEqualsInsertionOrder) {
  // Bit-identical pebble simulation depends on this: the LRU clock ticks
  // in neighbor-iteration order, which must be insertion order, not
  // sorted order.
  const CsrGraph g = dag(5, {{0, 4}, {2, 4}, {1, 4}, {0, 3}, {0, 2}});
  const auto ins = g.in_neighbors(4);
  ASSERT_EQ(ins.size(), 3u);
  EXPECT_EQ(ins[0], 0u);
  EXPECT_EQ(ins[1], 2u);
  EXPECT_EQ(ins[2], 1u);
  const auto outs = g.out_neighbors(0);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], 4u);
  EXPECT_EQ(outs[1], 3u);
  EXPECT_EQ(outs[2], 2u);
}

TEST(CsrGraph, TopologicalOrderIsIdentity) {
  // freeze() validates u < v per edge, so ids are already topologically
  // sorted and topological_order() returns the identity permutation.
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 2}, {1, 2}, {2, 4}, {3, 4}, {2, 5}, {4, 5}};
  const auto order = dag(6, edges).topological_order();
  ASSERT_EQ(order.size(), 6u);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(order[v], v);
  }
  for (const auto& [u, v] : edges) {
    EXPECT_LT(order[u], order[v]);
  }
}

TEST(CsrGraph, ReachabilityBothDirections) {
  const CsrGraph g = csr_diamond();
  const auto fwd = g.reachable_from({1});
  EXPECT_FALSE(fwd[0]);
  EXPECT_TRUE(fwd[1]);
  EXPECT_FALSE(fwd[2]);
  EXPECT_TRUE(fwd[3]);
  const auto bwd = g.reaching_to({1});
  EXPECT_TRUE(bwd[0]);
  EXPECT_TRUE(bwd[1]);
  EXPECT_FALSE(bwd[2]);
  EXPECT_FALSE(bwd[3]);
  EXPECT_THROW(g.reachable_from({9}), CheckError);
}

TEST(CsrGraph, DotOutputAndGuard) {
  const CsrGraph g = csr_diamond();
  const std::string dot = g.to_dot({"in", "l", "r", "out"});
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"in\""), std::string::npos);

  GraphBuilder big(kDotVertexLimit + 1);
  const CsrGraph huge = big.freeze();
  EXPECT_THROW(huge.to_dot(), CheckError);
  EXPECT_NE(huge.to_dot({}, /*allow_large=*/true).find("digraph"),
            std::string::npos);
}

}  // namespace
}  // namespace fmm::graph
