// Tests for JSON export (CDAG) and the certification report bundle.
#include <gtest/gtest.h>

#include "altbasis/alt_basis.hpp"
#include "bilinear/catalog.hpp"
#include "bounds/report.hpp"
#include "cdag/builder.hpp"
#include "cdag/json_export.hpp"
#include "common/math_util.hpp"
#include "sweep/sweep.hpp"

namespace fmm {
namespace {

// Minimal structural JSON sanity: balanced braces/brackets and expected
// fields, without pulling in a JSON parser dependency.
void expect_balanced(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(CdagJson, BaseCaseDocument) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), 2);
  const std::string json = cdag::to_json(cdag);
  expect_balanced(json);
  EXPECT_NE(json.find("\"algorithm\": \"strassen\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"mul\""), std::string::npos);
  EXPECT_NE(json.find("\"inputs_a\": [0,1,2,3]"), std::string::npos);
  // 50 edges in H^{2x2}: count "[u,v]" pairs in the edges array.
  const std::size_t edges_begin = json.find("\"edges\": [");
  const std::size_t edges_end = json.find("]", json.find("]", edges_begin) );
  EXPECT_NE(edges_begin, std::string::npos);
  EXPECT_NE(edges_end, std::string::npos);
}

TEST(CdagJson, SubproblemSections) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::winograd(), 4);
  const std::string json = cdag::to_json(cdag);
  expect_balanced(json);
  EXPECT_NE(json.find("\"subproblems\""), std::string::npos);
  EXPECT_NE(json.find("\"1\": ["), std::string::npos);
  EXPECT_NE(json.find("\"2\": ["), std::string::npos);
  EXPECT_NE(json.find("\"4\": ["), std::string::npos);
  EXPECT_NE(json.find("\"inputs\":"), std::string::npos);
}

TEST(CdagJson, GrowsWithN) {
  const auto small =
      cdag::to_json(cdag::build_cdag(bilinear::strassen(), 2));
  const auto large =
      cdag::to_json(cdag::build_cdag(bilinear::strassen(), 8));
  EXPECT_GT(large.size(), 10 * small.size());
}

TEST(Report, StrassenAllPass) {
  const auto report = bounds::certify_algorithm(bilinear::strassen());
  EXPECT_TRUE(report.brent_valid);
  EXPECT_TRUE(report.is_fast_2x2);
  EXPECT_TRUE(report.all_pass());
  EXPECT_EQ(report.base_linear_ops, 18u);
  EXPECT_EQ(report.alt_basis_linear_ops, 12u);
  EXPECT_NEAR(report.leading_coefficient, 7.0, 1e-12);
  EXPECT_NEAR(report.omega, kOmega0, 1e-12);
  EXPECT_GT(report.reference_bound, 0.0);
}

TEST(Report, WinogradValues) {
  const auto report = bounds::certify_algorithm(bilinear::winograd());
  EXPECT_TRUE(report.all_pass());
  EXPECT_EQ(report.base_linear_ops, 15u);
  EXPECT_EQ(report.alt_basis_linear_ops, 12u);
  EXPECT_NEAR(report.leading_coefficient, 6.0, 1e-12);
}

TEST(Report, ClassicIsValidButNotFast) {
  const auto report = bounds::certify_algorithm(bilinear::classic(2, 2, 2));
  EXPECT_TRUE(report.brent_valid);
  EXPECT_FALSE(report.is_fast_2x2);
  EXPECT_TRUE(report.all_pass());  // non-fast algorithms only need Brent
  EXPECT_DOUBLE_EQ(report.omega, 3.0);
  // Its encoder lemmas fail, the paper's expected control, but no
  // theorem covers it, so they do not gate.
  EXPECT_EQ(report.theorem, bounds::Theorem::kNone);
  EXPECT_EQ(report.checks[1].name, "lemmas_a");
  EXPECT_FALSE(report.checks[1].pass);
  EXPECT_FALSE(report.checks[1].gating);
}

TEST(Report, BrokenAlgorithmFails) {
  bilinear::IntMat u = bilinear::strassen().u();
  u.at(0, 0) = -u.at(0, 0);
  const bilinear::BilinearAlgorithm broken(
      "broken", 2, 2, 2, u, bilinear::strassen().v(),
      bilinear::strassen().w());
  const auto report = bounds::certify_algorithm(broken);
  EXPECT_FALSE(report.brent_valid);
  EXPECT_FALSE(report.all_pass());
  // Theorem 1.1 still covers a 2x2 rank-7 scheme; its verdict fails and
  // names the check.
  EXPECT_EQ(report.theorem, bounds::Theorem::kTheorem11);
  EXPECT_EQ(report.verdict(), "Theorem 1.1 FAIL: Brent equations");
}

TEST(Report, AlternativeBasisKeysPassTheorem41) {
  for (const char* key : {"strassen-alt", "winograd-alt"}) {
    const auto report = sweep::certify_key(key);
    EXPECT_EQ(report.theorem, bounds::Theorem::kTheorem41) << key;
    EXPECT_FALSE(report.brent_valid) << key;  // the core is not A*B
    EXPECT_EQ(report.checks.front().name, "twisted") << key;
    EXPECT_TRUE(report.all_pass()) << report.to_text();
  }
}

TEST(Report, PerturbedBasisFailsTwistedValidity) {
  for (const auto& original : {bilinear::strassen(), bilinear::winograd()}) {
    altbasis::AlternativeBasis basis =
        altbasis::make_alternative_basis(original);
    basis.g.at(0, 0) += 1;
    const auto report =
        bounds::certify_algorithm(basis.transformed, &original, &basis);
    EXPECT_FALSE(report.checks.front().pass) << original.name();
    EXPECT_FALSE(report.all_pass()) << original.name();
    EXPECT_EQ(report.verdict().rfind("Theorem 4.1 FAIL: Twisted validity", 0),
              0u)
        << report.verdict();
  }
}

TEST(Report, LargeBasesSkipLemma37AndBasisSearch) {
  // Base 4 has no 2x2 sub-problems and the basis search refuses 16
  // dims: both skip, and validity alone gates.
  const auto report = bounds::certify_algorithm(bilinear::strassen_squared());
  EXPECT_EQ(report.theorem, bounds::Theorem::kNone);
  EXPECT_TRUE(report.all_pass());
  EXPECT_TRUE(report.checks.back().skipped);
  EXPECT_EQ(report.checks.back().detail, "(base 4 has no 2x2 sub-problems)");
  EXPECT_EQ(report.alt_basis_linear_ops, 0u);
  EXPECT_EQ(report.verdict(), "no theorem applies; Brent equations PASS");
}

TEST(Report, JsonRendering) {
  const auto report = bounds::certify_algorithm(bilinear::strassen());
  const std::string json = report.to_json();
  expect_balanced(json);
  EXPECT_NE(json.find("\"brent_valid\": true"), std::string::npos);
  EXPECT_NE(json.find("\"lemma31_matching_a\": true"), std::string::npos);
  EXPECT_NE(json.find("\"all_pass\": true"), std::string::npos);
  EXPECT_NE(json.find("\"alt_basis_linear_ops\": 12"), std::string::npos);
}

TEST(Report, WholeOrbitPasses) {
  for (const auto& alg : bilinear::all_fast_2x2_algorithms()) {
    const auto report = bounds::certify_algorithm(alg);
    EXPECT_TRUE(report.all_pass()) << alg.name();
    EXPECT_GE(report.alt_basis_linear_ops, 12u) << alg.name();
  }
}

}  // namespace
}  // namespace fmm
