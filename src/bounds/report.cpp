#include "bounds/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "bilinear/scheme.hpp"
#include "bounds/dominator_cert.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace fmm::bounds {

using bilinear::BilinearAlgorithm;

namespace {

const char* theorem_name(Theorem theorem) {
  static constexpr const char* kNames[] = {"none", "Theorem 1.1",
                                           "Theorem 4.1"};
  return kNames[static_cast<int>(theorem)];
}

const char* boolean(bool value) { return value ? "true" : "false"; }

void field(std::ostringstream& oss, const char* name, bool value,
           bool trailing_comma = true) {
  oss << "  \"" << name << "\": " << boolean(value)
      << (trailing_comma ? ",\n" : "\n");
}

std::string failure_detail(const std::string& failure) {
  return failure.empty() ? std::string() : "— " + failure;
}

std::string fingerprint(const BilinearAlgorithm& algorithm) {
  return bilinear::scheme_fingerprint(
      bilinear::scheme_from_algorithm(algorithm));
}

}  // namespace

bool CertificationReport::all_pass() const {
  return !checks.empty() &&
         std::all_of(checks.begin(), checks.end(),
                     [](const CertificationCheck& c) {
                       return !c.gating || c.pass;
                     });
}

std::string CertificationReport::verdict() const {
  std::string failed;
  for (const CertificationCheck& check : checks) {
    if (check.gating && !check.pass) {
      failed += (failed.empty() ? "" : ", ") + check.label;
    }
  }
  if (theorem == Theorem::kNone) {
    return "no theorem applies; " + checks.front().label +
           (failed.empty() ? " PASS" : " FAIL");
  }
  std::string text = theorem_name(theorem);
  text += failed.empty() ? " PASS" : " FAIL: " + failed;
  if (theorem == Theorem::kTheorem41) {
    text += " (the CDAG is the core: it omits the O(n^2 log n) basis "
            "transforms)";
  }
  return text;
}

std::string CertificationReport::to_text() const {
  std::ostringstream oss;
  const auto line = [&](const std::string& label, const std::string& text) {
    oss << "  " << std::left << std::setw(24) << label + ":" << text << '\n';
  };
  for (const CertificationCheck& check : checks) {
    line(check.label,
         std::string(check.skipped ? "skipped" : check.pass ? "PASS" : "FAIL") +
             (check.detail.empty() ? "" : " " + check.detail));
  }
  line("Verdict", verdict());
  return oss.str();
}

std::string CertificationReport::to_json() const {
  std::ostringstream oss;
  oss << "{\n";
  oss << "  \"algorithm\": \"" << json_escape(algorithm) << "\",\n";
  oss << "  \"theorem\": \"" << theorem_name(theorem) << "\",\n";
  field(oss, "brent_valid", brent_valid);
  field(oss, "is_fast_2x2", is_fast_2x2);
  oss << "  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const CertificationCheck& check = checks[i];
    oss << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << check.name
        << "\", \"pass\": " << boolean(check.pass)
        << ", \"skipped\": " << boolean(check.skipped)
        << ", \"gating\": " << boolean(check.gating) << ", \"detail\": \""
        << json_escape(check.detail) << "\"}";
  }
  oss << "\n  ],\n";
  if (is_fast_2x2) {
    field(oss, "lemma31_matching_a", encoder_a.lemma31_matching);
    field(oss, "lemma32_degrees_a", encoder_a.lemma32_degrees);
    field(oss, "lemma32_pairs_a", encoder_a.lemma32_pairs);
    field(oss, "lemma33_distinct_a", encoder_a.lemma33_distinct);
    field(oss, "lemma31_matching_b", encoder_b.lemma31_matching);
    field(oss, "lemma32_degrees_b", encoder_b.lemma32_degrees);
    field(oss, "lemma32_pairs_b", encoder_b.lemma32_pairs);
    field(oss, "lemma33_distinct_b", encoder_b.lemma33_distinct);
    oss << "  \"lemma31_min_slack_a\": " << encoder_a.min_matching_slack
        << ",\n";
  }
  oss << "  \"base_linear_ops\": " << base_linear_ops << ",\n";
  oss << "  \"alt_basis_linear_ops\": " << alt_basis_linear_ops << ",\n";
  oss << "  \"leading_coefficient\": " << leading_coefficient << ",\n";
  oss << "  \"omega\": " << omega << ",\n";
  oss << "  \"reference_bound_n4096_m4096\": " << reference_bound << ",\n";
  field(oss, "all_pass", all_pass(), /*trailing_comma=*/false);
  oss << "}\n";
  return oss.str();
}

void CertificationReport::attach_to(obs::RunReport& report) const {
  report.set_param("algorithm", algorithm);
  report.set_result("theorem", std::string(theorem_name(theorem)));
  report.set_result("brent_valid", brent_valid);
  report.set_result("all_pass", all_pass());
  report.set_result("omega", omega);
  report.add_raw_section("certification", to_json());
}

CertificationReport certify_algorithm(
    const BilinearAlgorithm& algorithm, const BilinearAlgorithm* original,
    const altbasis::AlternativeBasis* basis) {
  CertificationReport report;
  report.algorithm = algorithm.name();
  const auto violation = algorithm.first_brent_violation();
  report.brent_valid = !violation;
  const bool base_2x2 =
      algorithm.n() == 2 && algorithm.m() == 2 && algorithm.p() == 2;
  report.is_fast_2x2 = base_2x2 && algorithm.num_products() == 7;
  if (report.is_fast_2x2) {
    report.theorem =
        basis == nullptr ? Theorem::kTheorem11 : Theorem::kTheorem41;
  }
  const bool covered = report.theorem != Theorem::kNone;
  const auto add = [&](const char* name, const char* label, bool pass,
                       std::string detail, bool gating) {
    report.checks.push_back(
        {name, label, pass, /*skipped=*/false, gating, std::move(detail)});
  };

  // Validity: the Brent equations, or for an alternative-basis core the
  // twisted product φ(A), ψ(B) -> ν(C) of the original, from bases that
  // produce exactly this core.
  bool twisted = false;
  if (basis == nullptr) {
    add("brent", "Brent equations", report.brent_valid,
        failure_detail(violation.value_or("")), true);
  } else {
    twisted = basis->is_twisted_valid(*original);
    const bool same_core =
        fingerprint(basis->transformed) == fingerprint(algorithm);
    add("twisted", "Twisted validity", twisted && same_core,
        !twisted     ? "— G, H, E do not twist " + original->name()
        : !same_core ? "— the bases produce another core"
                     : "(phi(A), psi(B) -> nu(C) against " +
                           original->name() + ")",
        true);
  }

  if (base_2x2) {
    report.encoder_a = certify_encoder(algorithm, bilinear::Side::kA);
    report.encoder_b = certify_encoder(algorithm, bilinear::Side::kB);
    add("lemmas_a", "Lemmas 3.1-3.3 (A)", report.encoder_a.all_pass(),
        failure_detail(report.encoder_a.failure), covered);
    add("lemmas_b", "Lemmas 3.1-3.3 (B)", report.encoder_b.all_pass(),
        failure_detail(report.encoder_b.failure), covered);
    if (basis == nullptr) {
      const auto hk = certify_hopcroft_kerr(algorithm);
      add("hopcroft_kerr", "Hopcroft-Kerr sets", hk.pass,
          failure_detail(hk.failure), covered);
    } else {
      // The core's products as forms on A's standard-basis entries,
      // U'·G^{-1}: once the twist holds, the original's U up to row signs.
      HopcroftKerrCertificate hk;
      hk.failure = "no valid twist with a unimodular G to compose";
      if (twisted && std::abs(basis->g.determinant()) == 1) {
        hk = certify_hopcroft_kerr(BilinearAlgorithm(
            algorithm.name(), 2, 2, 2,
            bilinear::IntMat::multiply(algorithm.u(),
                                       basis->g.inverse_integer()),
            algorithm.v(), algorithm.w()));
      }
      add("hopcroft_kerr", "Hopcroft-Kerr (U'G^-1)", hk.pass,
          failure_detail(hk.failure), covered);
    }
  }

  // Lemma 3.7 at r = 2 on H^{8x8}: only a base-2 scheme has 2x2
  // sub-problems, so any other base skips before a build.  As in
  // SchemeTraits, base 0 means no recursive H^{n x n}.
  const std::size_t base =
      algorithm.is_square() && algorithm.n() >= 2 ? algorithm.n() : 0;
  if (base == 2) {
    Rng rng(1);
    const auto dom = certify_dominator_bound(
        cdag::build_cdag(algorithm, 8), 2, 5, ZChoice::kUniformRandom, rng);
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "(worst ratio %.2f)",
                  dom.worst_ratio);
    add("lemma37", "Lemma 3.7 (H^{8x8})", dom.all_hold, ratio, covered);
  } else {
    report.checks.push_back(
        {"lemma37", "Lemma 3.7", false, /*skipped=*/true, false,
         base == 0 ? "(rectangular base)"
                   : "(base " + std::to_string(base) +
                         " has no 2x2 sub-problems)"});
  }

  report.base_linear_ops = algorithm.base_linear_ops();
  if (base >= 2) {
    report.omega = algorithm.omega();
    if (algorithm.num_products() > algorithm.n() * algorithm.p()) {
      report.leading_coefficient = algorithm.leading_coefficient();
    }
    // The sparsest-basis search presupposes a valid algorithm and
    // enumerates 3^{n·m} candidate columns, refusing n·m > 12; ops stay
    // 0 where it does not run.
    if (report.brent_valid && algorithm.n() * algorithm.m() <= 12) {
      report.alt_basis_linear_ops =
          altbasis::make_alternative_basis(algorithm).base_linear_ops;
    }
    report.reference_bound =
        fast_memory_dependent({4096, 4096, 1}, report.omega);
  }
  return report;
}

}  // namespace fmm::bounds
