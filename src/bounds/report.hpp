// One certification verdict per scheme.
//
// certify_algorithm names the paper's theorem that covers a scheme,
// runs that theorem's checks once, and bundles them with the scheme's
// op counts and reference bound, with a console and a JSON rendering:
//   - Theorem 1.1 covers a 2x2 rank-7 scheme in the standard basis:
//     Brent validity, Lemmas 3.1-3.3 on both encoders, Hopcroft–Kerr
//     (Lemma 3.4 / Corollary 3.5) and Lemma 3.7 on H^{8x8};
//   - Theorem 4.1 covers the alternative-basis core of such a scheme:
//     the twisted product replaces Brent validity, Hopcroft–Kerr runs
//     on the composed forms U'·G^{-1}, the lemmas on the core's CDAG;
//   - no theorem covers any other scheme.
// Every check that applies runs and prints, but only validity and the
// covering theorem's checks gate all_pass(): classic's failing encoder
// lemmas, for example, are the paper's expected control.
#pragma once

#include <string>
#include <vector>

#include "altbasis/alt_basis.hpp"
#include "bilinear/algorithm.hpp"
#include "bounds/encoder_lemmas.hpp"
#include "obs/run_report.hpp"

namespace fmm::bounds {

enum class Theorem { kNone, kTheorem11, kTheorem41 };

/// One named check of a verdict.
struct CertificationCheck {
  std::string name;   // JSON key: brent, twisted, lemmas_a, lemma37, ...
  std::string label;  // console label: "Brent equations", ...
  bool pass = false;
  /// The check does not apply to the scheme and ran nothing.
  bool skipped = false;
  /// Validity, or a check the covering theorem needs.
  bool gating = false;
  /// Printed after the status: the failures, a ratio, why it skipped.
  std::string detail;
};

struct CertificationReport {
  std::string algorithm;
  Theorem theorem = Theorem::kNone;
  /// In print order; the first is validity (Brent, or twisted for 4.1).
  std::vector<CertificationCheck> checks;
  bool brent_valid = false;
  bool is_fast_2x2 = false;  // 2x2 base with 7 products
  EncoderCertificate encoder_a;
  EncoderCertificate encoder_b;
  std::size_t base_linear_ops = 0;
  std::size_t alt_basis_linear_ops = 0;  // 0 if not applicable
  double leading_coefficient = 0.0;
  double omega = 0.0;
  /// Sequential bound at the reference point (n = 4096, M = 4096).
  double reference_bound = 0.0;

  /// True iff every gating check passed.
  bool all_pass() const;

  /// The verdict line: "Theorem 1.1 PASS", "Theorem 4.1 FAIL: <the
  /// failing checks' labels>", "no theorem applies; ...".
  std::string verdict() const;

  /// One "  <label>: <PASS|FAIL|skipped> <detail>" line per check, then
  /// the verdict line.
  std::string to_text() const;

  /// JSON rendering (one object; stable field order).
  std::string to_json() const;

  /// Embeds this certification into a run report (under
  /// extra.certification) and records the headline pass/fail results,
  /// so `fmmio certify --out` emits one schema-versioned file.
  void attach_to(obs::RunReport& report) const;
};

/// The verdict on `algorithm`: Theorem 1.1's on a standard-basis
/// algorithm (none when it is not 2x2 rank 7); given `original` and
/// `basis`, Theorem 4.1's on the alternative-basis core that `basis`
/// must twist `original` into.
CertificationReport certify_algorithm(
    const bilinear::BilinearAlgorithm& algorithm,
    const bilinear::BilinearAlgorithm* original = nullptr,
    const altbasis::AlternativeBasis* basis = nullptr);

}  // namespace fmm::bounds
