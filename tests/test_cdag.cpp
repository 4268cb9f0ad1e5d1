// Tests for CDAG construction: structure of H^{n x n}, Lemma 2.2
// cardinalities, roles, spans, and sub-problem bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/math_util.hpp"

namespace fmm::cdag {
namespace {

using bilinear::strassen;
using bilinear::winograd;

/// The message of the CheckError `fn` throws; "" if it returns.
template <typename Fn>
std::string check_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Builder, BaseCaseStructure) {
  // H^{2x2} is Figure 1 of the paper: 4+4 inputs, 7+7 encoder vertices,
  // 7 products, 4 outputs.
  const Cdag cdag = build_cdag(strassen(), 2);
  cdag.validate();
  const auto hist = cdag.role_histogram();
  EXPECT_EQ(hist.at(Role::kInputA), 4u);
  EXPECT_EQ(hist.at(Role::kInputB), 4u);
  EXPECT_EQ(hist.at(Role::kEncodeA), 7u);
  EXPECT_EQ(hist.at(Role::kEncodeB), 7u);
  EXPECT_EQ(hist.at(Role::kProduct), 7u);
  EXPECT_EQ(hist.at(Role::kOutput), 4u);
  EXPECT_EQ(hist.count(Role::kDecode), 0u);  // top-level decodes = outputs
}

TEST(Builder, BaseCaseEdgeCount) {
  const Cdag cdag = build_cdag(strassen(), 2);
  // Encoder edges = nnz(U) + nnz(V) = 12 + 12; product edges = 2*7;
  // decoder edges = nnz(W) = 12.
  EXPECT_EQ(cdag.graph.num_edges(), 12u + 12u + 14u + 12u);
}

TEST(Builder, ValidatesForAllCatalogAlgorithms) {
  for (const auto& alg : bilinear::all_fast_2x2_algorithms()) {
    for (const std::size_t n : {2u, 4u, 8u}) {
      const Cdag cdag = build_cdag(alg, n);
      EXPECT_NO_THROW(cdag.validate()) << alg.name() << " n=" << n;
    }
  }
}

TEST(Builder, Lemma22OutputCounts) {
  // |V_out(SUB_H^{r x r})| = (n/r)^{log2 7} * r^2.
  const Cdag cdag = build_cdag(strassen(), 8);
  EXPECT_EQ(cdag.sub_outputs_flat(8).size(), 64u);            // 1 * 64
  EXPECT_EQ(cdag.sub_outputs_flat(4).size(), 7u * 16u);       // 7 * 16
  EXPECT_EQ(cdag.sub_outputs_flat(2).size(), 49u * 4u);       // 49 * 4
  EXPECT_EQ(cdag.sub_outputs_flat(1).size(), 343u * 1u);      // 343
}

TEST(Builder, ExpectedSubOutputCountFormula) {
  const auto alg = strassen();
  EXPECT_EQ(expected_sub_output_count(alg, 8, 2), 196u);
  EXPECT_EQ(expected_sub_output_count(alg, 8, 8), 64u);
  EXPECT_EQ(expected_sub_output_count(alg, 16, 4), 49u * 16u);
  const auto classic = bilinear::classic(2, 2, 2);
  EXPECT_EQ(expected_sub_output_count(classic, 8, 2), 64u * 4u);
  // Sizes that are not sub-problem sizes of n are refused with a message.
  EXPECT_NE(check_error_of([&] { expected_sub_output_count(alg, 4, 0); })
                .find("r=0 is not a sub-problem size of n=4"),
            std::string::npos);
  EXPECT_NE(check_error_of([&] { expected_sub_output_count(alg, 0, 1); })
                .find("r=1 is not a sub-problem size of n=0"),
            std::string::npos);
  EXPECT_THROW(expected_sub_output_count(alg, 4, 8), CheckError);
  EXPECT_THROW(expected_sub_output_count(alg, 8, 3), CheckError);
}

TEST(Builder, SubproblemCountsMatchLemma22) {
  const Cdag cdag = build_cdag(winograd(), 8);
  EXPECT_EQ(cdag.subproblems(8).count, 1u);
  EXPECT_EQ(cdag.subproblems(4).count, 7u);
  EXPECT_EQ(cdag.subproblems(2).count, 49u);
  EXPECT_EQ(cdag.subproblems(1).count, 343u);
  EXPECT_TRUE(cdag.has_subproblems(4));
  EXPECT_FALSE(cdag.has_subproblems(3));
  EXPECT_THROW(cdag.subproblems(16), CheckError);
}

TEST(Builder, InputsAreSourcesOutputsAreSinks) {
  const Cdag cdag = build_cdag(strassen(), 4);
  const auto sources = cdag.graph.sources();
  EXPECT_EQ(sources.size(), 32u);  // 2 * 16 inputs
  const auto sinks = cdag.graph.sinks();
  EXPECT_EQ(sinks.size(), 16u);
}

TEST(Builder, CreationOrderIsTopological) {
  const Cdag cdag = build_cdag(strassen(), 8);
  // Every edge except those out of inputs goes from lower to higher id.
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    for (const graph::VertexId w : cdag.graph.out_neighbors(v)) {
      EXPECT_LT(v, w);
    }
  }
}

TEST(Builder, EveryOutputReachableFromInputs) {
  const Cdag cdag = build_cdag(winograd(), 4);
  const auto reach = cdag.graph.reachable_from(cdag.all_inputs());
  for (const graph::VertexId v : cdag.outputs) {
    EXPECT_TRUE(reach[v]);
  }
}

TEST(Builder, ProductsHaveInDegreeTwo) {
  const Cdag cdag = build_cdag(strassen(), 4);
  std::size_t products = 0;
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    if (cdag.roles[v] == Role::kProduct) {
      ++products;
      EXPECT_EQ(cdag.graph.in_degree(v), 2u);
    }
  }
  EXPECT_EQ(products, 49u);  // 7^2 scalar products at n=4
}

TEST(Builder, SpansAreNestedAndSized) {
  const Cdag cdag = build_cdag(strassen(), 4);
  // Sub-problems of size 2: 7 of them, disjoint spans.
  const SubproblemLevel& level2 = cdag.subproblems(2);
  ASSERT_EQ(level2.count, 7u);
  for (std::size_t i = 0; i + 1 < level2.count; ++i) {
    EXPECT_LE(level2.span_of(i).second, level2.span_of(i + 1).first);
  }
  // The size-4 span contains all size-2 spans.
  const auto span4 = cdag.subproblems(4).span_of(0);
  for (std::size_t i = 0; i < level2.count; ++i) {
    const auto [b, e] = level2.span_of(i);
    EXPECT_GE(b, span4.first);
    EXPECT_LE(e, span4.second);
  }
}

TEST(Builder, SubInternalVerticesExcludeOutputs) {
  const Cdag cdag = build_cdag(strassen(), 4);
  const auto internal = cdag.sub_internal_vertices(2);
  std::vector<bool> is_output(cdag.graph.num_vertices(), false);
  for (const graph::VertexId v : cdag.sub_outputs_flat(2)) {
    is_output[v] = true;
  }
  for (const graph::VertexId v : internal) {
    EXPECT_FALSE(is_output[v]);
  }
  // Size-2 sub-CDAG: 7 encA + 7 encB + 7 products internal, 4 outputs.
  EXPECT_EQ(internal.size(), 7u * 21u);
}

TEST(Builder, SubproblemInputsTracked) {
  const Cdag cdag = build_cdag(strassen(), 4);
  const SubproblemLevel& level2 = cdag.subproblems(2);
  ASSERT_EQ(level2.count, 7u);
  for (std::size_t i = 0; i < level2.count; ++i) {
    const auto operands = level2.inputs_of(i);
    EXPECT_EQ(operands.size(), 8u);  // 2 * r^2 with r = 2
    // Operands of a size-2 sub-problem are the parent's encode vertices.
    for (const graph::VertexId v : operands) {
      EXPECT_TRUE(cdag.roles[v] == Role::kEncodeA ||
                  cdag.roles[v] == Role::kEncodeB);
    }
  }
  // Top-level sub-problem inputs are the CDAG inputs.
  const auto top_ins = cdag.subproblems(4).inputs_of(0);
  ASSERT_EQ(top_ins.size(), 32u);
  const std::vector<graph::VertexId> all = cdag.all_inputs();
  EXPECT_TRUE(std::equal(top_ins.begin(), top_ins.end(), all.begin(),
                         all.end()));
}

TEST(Builder, VertexCountRecurrence) {
  // V(s) = 2 b^2 s^2 (inputs only at top) ... verify the internal count
  // recurrence V(s) = 18 (s/2)^2 + 7 V(s/2), V(1) = 1, against the
  // constructed graph (excluding the 2 n^2 input vertices).
  for (const std::size_t n : {2u, 4u, 8u, 16u}) {
    const Cdag cdag = build_cdag(strassen(), n);
    std::function<std::size_t(std::size_t)> count = [&](std::size_t s) {
      if (s == 1) {
        return std::size_t{1};
      }
      return 18 * (s / 2) * (s / 2) + 7 * count(s / 2);
    };
    EXPECT_EQ(cdag.graph.num_vertices(), 2 * n * n + count(n)) << n;
  }
}

TEST(Builder, DotOutputNonEmpty) {
  const Cdag cdag = build_cdag(strassen(), 2);
  const std::string dot = cdag.to_dot();
  EXPECT_NE(dot.find("mul"), std::string::npos);
  EXPECT_NE(dot.find("inA"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

/// The CheckError texts build_cdag and census throw for (alg, n).
std::array<std::string, 2> refusals(const bilinear::BilinearAlgorithm& alg,
                                    std::size_t n) {
  return {check_error_of([&] { build_cdag(alg, n); }),
          check_error_of([&] { census(alg, n); })};
}

TEST(Builder, RejectsNonPowerSizes) {
  // The builder refuses through the census, so both give one text.
  for (const std::size_t n : {6u, 3u, 0u}) {
    const auto [built, counted] = refusals(strassen(), n);
    EXPECT_NE(built.find("n=" + std::to_string(n) +
                         " is not a power of base 2"),
              std::string::npos)
        << built;
    EXPECT_EQ(counted, built);
  }
}

TEST(Builder, RejectsSizesBeyondIdRange) {
  // Strassen n = 2048 has 1.38e10 vertices (~74 GB of sub-problem pools);
  // Winograd n = 1024 fits 32-bit vertex ids but has 4.50e9 edges.  Both
  // are refused from the closed-form counts before anything is allocated.
  for (const std::string& what : refusals(strassen(), 2048)) {
    EXPECT_NE(what.find("vertex count 13824509985 overflows VertexId"),
              std::string::npos)
        << what;
  }
  for (const std::string& what : refusals(winograd(), 1024)) {
    EXPECT_NE(what.find("overflows CSR offsets"), std::string::npos) << what;
  }
  // At n = 2^40 the counts leave int64 itself: a one-line CheckError from
  // checked arithmetic, with no signed overflow on the way (the sanitize
  // preset runs this under UBSan).
  for (const std::string& what : refusals(strassen(), std::size_t{1} << 40)) {
    EXPECT_NE(what.find("int64 overflow"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(Builder, RejectsRectangularBase) {
  const auto [built, counted] = refusals(bilinear::rect_2x2x4(), 4);
  EXPECT_NE(built.find("CDAG builder requires a square base"),
            std::string::npos)
      << built;
  EXPECT_EQ(counted, built);
}

TEST(Builder, ClassicAlgorithmCdag) {
  // The classical 2x2x2 recursion has 8^{log2 n} products.
  const Cdag cdag = build_cdag(bilinear::classic(2, 2, 2), 4);
  cdag.validate();
  EXPECT_EQ(cdag.role_histogram().at(Role::kProduct), 64u);
  EXPECT_EQ(cdag.sub_outputs_flat(2).size(), 8u * 4u);
}

TEST(Builder, StrassenSquaredBase4) {
  // <4,4,4;49> base: one level of recursion at n=4.
  const Cdag cdag = build_cdag(bilinear::strassen_squared(), 4);
  cdag.validate();
  EXPECT_EQ(cdag.role_histogram().at(Role::kProduct), 49u);
}

TEST(Builder, TrivialSizeOne) {
  const Cdag cdag = build_cdag(strassen(), 1);
  EXPECT_EQ(cdag.graph.num_vertices(), 3u);
  EXPECT_EQ(cdag.outputs.size(), 1u);
}

TEST(RoleName, AllNamed) {
  EXPECT_STREQ(role_name(Role::kInputA), "inA");
  EXPECT_STREQ(role_name(Role::kProduct), "mul");
  EXPECT_STREQ(role_name(Role::kOutput), "out");
}

}  // namespace
}  // namespace fmm::cdag
