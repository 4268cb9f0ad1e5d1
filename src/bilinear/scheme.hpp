// On-disk bilinear scheme format (`fmm.scheme` v1) and the scheme
// registry that unifies catalog constructors with file-loaded schemes.
//
// A scheme is a ⟨n,m,p;r⟩ bilinear matrix-multiplication algorithm given
// by exact rational coefficient matrices (U, V, W).  Schemes are the
// serializable superset of `BilinearAlgorithm`: every catalog algorithm
// round-trips through `scheme_from_algorithm` / `to_algorithm`, and any
// scheme file whose coefficients are integers can be executed by every
// engine in the stack (CDAG builder, pebble, sweeps, service).
//
// Validity is certified by the Brent equations
//     sum_r U[r,(i,k)] V[r,(k',j)] W[(i',j'),r] = [i==i'][j==j'][k==k']
// checked once at load, exactly over the rationals, by
// first_brent_violation — the one Brent verifier of the stack
// (BilinearAlgorithm::first_brent_violation runs it too).  A refusal
// names the first violated equation and its exact residual.  Invalid
// schemes are refused at load — nothing downstream ever sees one.
//
// Identity is content-addressed: `scheme_fingerprint` hashes the
// canonical JSON rendering (FNV-1a 64, the same fingerprint scheme the
// result/CDAG caches and sweep checkpoints already use), so a scheme
// loaded from a file and the equivalent catalog constructor share cache
// entries and report fingerprints.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bilinear/algorithm.hpp"

namespace fmm::bilinear {

/// Schema identifier and version of the on-disk scheme format.
inline constexpr const char* kSchemeSchema = "fmm.scheme";
inline constexpr int kSchemeSchemaVersion = 1;

/// Exact rational coefficient, always kept normalized (gcd(num,den)==1,
/// den > 0).  Arithmetic is overflow-checked via common/math_util.
struct Rational {
  std::int64_t num = 0;
  std::int64_t den = 1;

  bool is_integer() const { return den == 1; }
  bool is_zero() const { return num == 0; }
  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num == b.num && a.den == b.den;
  }
};

/// num/den reduced to lowest terms with den > 0; throws CheckError on
/// den == 0 or INT64_MIN edge cases.
Rational rat_make(std::int64_t num, std::int64_t den);
Rational rat_add(const Rational& a, const Rational& b);
Rational rat_mul(const Rational& a, const Rational& b);
/// Renders "num" when integer, "num/den" otherwise.
std::string rat_to_string(const Rational& r);

/// Dense row-major rational matrix (mirrors IntMat's layout).
struct RatMat {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<Rational> data;

  RatMat() = default;
  RatMat(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c) {}
  Rational& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  const Rational& at(std::size_t r, std::size_t c) const {
    return data[r * cols + c];
  }
};

/// A ⟨n,m,p;rank⟩ bilinear MM scheme with exact rational coefficients.
/// U is rank x (n*m) over A[i,k] (column i*m+k), V is rank x (m*p) over
/// B[k,j] (column k*p+j), W is (n*p) x rank over C[i,j] (row i*p+j) —
/// the same index conventions as BilinearAlgorithm.
struct Scheme {
  std::string name;
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t p = 0;
  RatMat u;
  RatMat v;
  RatMat w;

  std::size_t rank() const { return u.rows; }
  bool is_square() const { return n == m && m == p; }
  /// True iff every coefficient has denominator 1.
  bool is_integer() const;
};

/// Per-scheme parameters threaded through bounds / sweep / service /
/// CLI in place of loose `omega0` doubles and hard-coded 2x2 shapes.
struct SchemeTraits {
  std::string name;           // the scheme's declared name
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t p = 0;
  std::size_t rank = 0;
  /// Recursion base dim for square schemes (== n); 0 when the scheme is
  /// rectangular and cannot drive the recursive CDAG construction.
  std::size_t base = 0;
  /// log_base(rank) for square schemes (the I/O exponent of Theorem
  /// 1.1); 0 for rectangular schemes.
  double omega0 = 0.0;
  /// Content address of the canonical scheme JSON (16 hex digits).
  std::string fingerprint;
  /// max nnz over the rows of U and V (encoder fan-in bound).
  std::size_t max_encoder_row_weight = 0;
  /// max nnz over the rows of W (decoder fan-in bound).
  std::size_t max_decoder_row_weight = 0;
};

/// Exact rational Brent verification; nullopt means valid.  The string
/// names the first violated equation with its exact residual.  Throws
/// CheckError when a partial sum leaves int64 rationals.
std::optional<std::string> first_brent_violation(const Scheme& scheme);

/// Full load-time verification: shape checks, then the exact rational
/// certificate.  nullopt means the scheme is valid.
std::optional<std::string> verify_scheme(const Scheme& scheme);

/// Canonical fmm.scheme v1 JSON rendering — the fingerprint preimage
/// and the `fmmio scheme export` output.  Deterministic: fixed key
/// order, integers rendered bare, non-integers as "num/den" strings.
std::string scheme_to_json(const Scheme& scheme);

/// Parses fmm.scheme v1 JSON (shape-checked, coefficients normalized).
/// Does NOT verify the Brent equations — callers wanting a trusted
/// scheme go through load_scheme_file / SchemeRegistry.
Scheme parse_scheme_json(const std::string& text);

/// Reads, parses and verifies a scheme file; throws CheckError with the
/// offending path and reason on any failure (missing file, bad JSON,
/// Brent violation).
Scheme load_scheme_file(const std::string& path);

/// FNV-1a 64 of scheme_to_json(scheme) as 16 hex digits.
std::string scheme_fingerprint(const Scheme& scheme);

/// Derived per-scheme parameters (includes the fingerprint).
SchemeTraits traits_of(const Scheme& scheme);

/// Wraps a catalog algorithm as an (integer) scheme — the export path.
Scheme scheme_from_algorithm(const BilinearAlgorithm& alg);

/// Converts an integer scheme to an executable BilinearAlgorithm.
/// Throws CheckError when any coefficient is non-integer or exceeds the
/// int range (such schemes verify but cannot be executed yet).
BilinearAlgorithm to_algorithm(const Scheme& scheme);

/// Process-wide registry resolving algorithm keys to schemes.  Two key
/// forms: catalog names ("strassen", "winograd-dual", "classic",
/// "classic-<n>x<m>x<p>", ...) and "file:<path>" for on-disk scheme
/// files, which are loaded, Brent-verified and cached on first use.
/// Unknown keys throw CheckError listing the catalog.  Thread-safe.
class SchemeRegistry {
 public:
  static SchemeRegistry& instance();

  /// True for "file:<path>" keys.
  static bool is_file_key(const std::string& key);

  /// Resolves a key to an executable algorithm (cached).
  BilinearAlgorithm resolve(const std::string& key);

  /// Resolves a key to its traits (cached; includes the fingerprint).
  SchemeTraits traits(const std::string& key);

  /// Registers an additional named constructor for a layer above
  /// bilinear (sweep registers the alternative-basis transforms this
  /// way).  Overwrites.
  void register_factory(const std::string& key,
                        std::function<BilinearAlgorithm()> factory);

 private:
  SchemeRegistry();

  BilinearAlgorithm resolve_locked(const std::string& key);

  std::mutex mutex_;
  std::map<std::string, std::function<BilinearAlgorithm()>> factories_;
  std::map<std::string, BilinearAlgorithm> algorithms_;
  std::map<std::string, SchemeTraits> traits_;
};

}  // namespace fmm::bilinear
