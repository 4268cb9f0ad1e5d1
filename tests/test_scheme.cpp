// Scheme format, Brent verifier and registry battery (docs/SCHEMES.md):
// the whole schemes/ zoo must verify, corrupted coefficients must be
// refused at load, and a scheme loaded from a file must be
// indistinguishable from its catalog twin — same fingerprint, same
// sweep payloads across thread counts, byte-identical service
// responses hot and cold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "common/check.hpp"
#include "service/service.hpp"
#include "sweep/sweep.hpp"

namespace fmm::bilinear {
namespace {

std::string zoo_path(const std::string& file) {
  return std::string(FMM_SOURCE_ROOT) + "/schemes/" + file;
}

const std::vector<std::string>& zoo_files() {
  static const std::vector<std::string> files = {
      "laderman_333_23.json",
      "hk_style_222_7.json",
      "rect_336_46.json",
      "strassen_222_7.json",
  };
  return files;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Rational, MakeNormalizes) {
  EXPECT_EQ(rat_make(2, 4), rat_make(1, 2));
  EXPECT_EQ(rat_make(1, -2), rat_make(-1, 2));
  EXPECT_EQ(rat_make(-6, -4), rat_make(3, 2));
  EXPECT_EQ(rat_make(0, 7), rat_make(0, 1));
  EXPECT_THROW(rat_make(1, 0), CheckError);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(rat_add(rat_make(1, 2), rat_make(1, 3)), rat_make(5, 6));
  EXPECT_EQ(rat_add(rat_make(1, 2), rat_make(-1, 2)), rat_make(0, 1));
  EXPECT_EQ(rat_mul(rat_make(2, 3), rat_make(3, 4)), rat_make(1, 2));
  EXPECT_EQ(rat_to_string(rat_make(-3, 1)), "-3");
  EXPECT_EQ(rat_to_string(rat_make(1, 2)), "1/2");
}

TEST(BrentVerifier, AcceptsEveryCatalogAlgorithm) {
  for (const auto& alg : all_fast_2x2_algorithms()) {
    const Scheme scheme = scheme_from_algorithm(alg);
    EXPECT_EQ(verify_scheme(scheme), std::nullopt) << alg.name();
  }
  EXPECT_EQ(verify_scheme(scheme_from_algorithm(classic(2, 3, 4))),
            std::nullopt);
}

TEST(BrentVerifier, AcceptsTheWholeZoo) {
  for (const std::string& file : zoo_files()) {
    EXPECT_NO_THROW({
      const Scheme scheme = load_scheme_file(zoo_path(file));
      EXPECT_EQ(verify_scheme(scheme), std::nullopt) << file;
    }) << file;
  }
}

TEST(BrentVerifier, RejectsCorruptedCoefficient) {
  Scheme scheme = scheme_from_algorithm(strassen());
  scheme.u.at(0, 0) = rat_make(2, 1);  // flip one Strassen coefficient
  const auto exact = first_brent_violation(scheme);
  ASSERT_TRUE(exact.has_value());
  // Load-time verification refuses it with the exact residual.
  EXPECT_EQ(verify_scheme(scheme).value_or(""),
            "Brent equation violated at A[0,0] B[0,0] C[0,0]: got 2, "
            "expected 1");
}

TEST(SchemeFile, CorruptedZooFileIsRefusedAtLoad) {
  const std::string text = slurp(zoo_path("laderman_333_23.json"));
  // Corrupt one coefficient value without breaking the JSON shape.
  const std::string needle = "\"w\"";
  const auto at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::string corrupted = text;
  const auto digit = corrupted.find_first_of("123456789", at);
  ASSERT_NE(digit, std::string::npos);
  corrupted[digit] = (corrupted[digit] == '9') ? '8' : '9';

  const std::string path = testing::TempDir() + "corrupted_scheme.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << corrupted;
  }
  EXPECT_THROW(load_scheme_file(path), CheckError);
  std::remove(path.c_str());
}

TEST(SchemeFile, OverflowRefusalNamesTheFile) {
  // Strassen plus two products (c A[0,0]) (c B[0,0]) into C[0,0], with
  // c = 2^31: each extra term c^3 leaves int64, so the exact pass throws.
  // With W = +c and -c the two terms cancel over Z; with +c twice they
  // do not.  Either way the refusal is one line naming the file.
  const Rational c = rat_make(std::int64_t{1} << 31, 1);
  for (const bool cancelling : {true, false}) {
    Scheme scheme = scheme_from_algorithm(strassen());
    const std::size_t t = scheme.rank() + 2;
    RatMat w(scheme.w.rows, t);
    for (std::size_t q = 0; q < scheme.w.rows; ++q) {
      for (std::size_t r = 0; r + 2 < t; ++r) {
        w.at(q, r) = scheme.w.at(q, r);
      }
    }
    for (RatMat* mat : {&scheme.u, &scheme.v}) {
      mat->rows = t;
      mat->data.resize(t * mat->cols);
      mat->at(t - 2, 0) = c;
      mat->at(t - 1, 0) = c;
    }
    w.at(0, t - 2) = c;
    w.at(0, t - 1) = cancelling ? rat_make(-c.num, 1) : c;
    scheme.w = w;

    const std::string path = testing::TempDir() + "overflow_scheme_" +
                             (cancelling ? "cancelling" : "additive") +
                             ".json";
    {
      std::ofstream out(path, std::ios::binary);
      out << scheme_to_json(scheme);
    }
    try {
      load_scheme_file(path);
      ADD_FAILURE() << path << " was accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scheme file '" + path + "'"), std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
    std::remove(path.c_str());
  }
}

TEST(SchemeFile, JsonRoundTripPreservesFingerprint) {
  const Scheme scheme = scheme_from_algorithm(strassen());
  const Scheme reparsed = parse_scheme_json(scheme_to_json(scheme));
  EXPECT_EQ(scheme_fingerprint(reparsed), scheme_fingerprint(scheme));
  EXPECT_EQ(scheme_to_json(reparsed), scheme_to_json(scheme));
}

TEST(SchemeFile, ExportLoadRoundTripEscapesTheName) {
  // Names are free text: quotes, backslashes and control bytes must
  // survive export -> load, and the fingerprint must not change.
  for (const std::string name : {"str\"assen\\x", "tab\tand\x01ctl"}) {
    Scheme scheme = scheme_from_algorithm(strassen());
    scheme.name = name;
    const std::string path = testing::TempDir() + "escaped_scheme.json";
    {
      std::ofstream out(path, std::ios::binary);
      out << scheme_to_json(scheme);
    }
    const Scheme loaded = load_scheme_file(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.name, name);
    EXPECT_EQ(scheme_fingerprint(loaded), scheme_fingerprint(scheme));
  }
}

TEST(SchemeFile, RationalCoefficientsParse) {
  Scheme scheme = scheme_from_algorithm(strassen());
  scheme.u.at(0, 0) = rat_make(1, 2);  // no longer valid; parsing only
  const Scheme reparsed = parse_scheme_json(scheme_to_json(scheme));
  EXPECT_EQ(reparsed.u.at(0, 0), rat_make(1, 2));
  EXPECT_FALSE(reparsed.is_integer());
  EXPECT_THROW(to_algorithm(reparsed), CheckError);
}

TEST(SchemeFile, ExportedStrassenSharesTheCatalogFingerprint) {
  const Scheme catalog = scheme_from_algorithm(strassen());
  const Scheme file = load_scheme_file(zoo_path("strassen_222_7.json"));
  EXPECT_EQ(scheme_fingerprint(file), scheme_fingerprint(catalog));
}

TEST(SchemeTraits, LadermanParameters) {
  const SchemeTraits traits = SchemeRegistry::instance().traits(
      "file:" + zoo_path("laderman_333_23.json"));
  EXPECT_EQ(traits.name, "laderman");
  EXPECT_EQ(traits.n, 3u);
  EXPECT_EQ(traits.rank, 23u);
  EXPECT_EQ(traits.base, 3u);
  EXPECT_NEAR(traits.omega0, std::log(23.0) / std::log(3.0), 1e-12);
  EXPECT_EQ(traits.fingerprint.size(), 16u);
}

TEST(SchemeTraits, RectangularSchemesHaveNoBase) {
  const SchemeTraits traits = SchemeRegistry::instance().traits(
      "file:" + zoo_path("rect_336_46.json"));
  EXPECT_EQ(traits.base, 0u);
  EXPECT_EQ(traits.omega0, 0.0);
}

TEST(Registry, ResolvesCatalogParameterizedAndFileKeys) {
  auto& registry = SchemeRegistry::instance();
  EXPECT_EQ(registry.resolve("strassen").num_products(), 7u);
  EXPECT_EQ(registry.resolve("classic-2x3x4").num_products(), 24u);
  EXPECT_EQ(registry
                .resolve("file:" + zoo_path("laderman_333_23.json"))
                .num_products(),
            23u);
  EXPECT_THROW(registry.resolve("no-such-algorithm"), CheckError);
  EXPECT_THROW(registry.resolve("file:/no/such/path.json"), CheckError);
}

TEST(Registry, SweepResolveAlgorithmRejectsUnknownNames) {
  // Regression: unknown names used to fall back to strassen silently.
  EXPECT_THROW(sweep::resolve_algorithm("no-such-algorithm"), CheckError);
  EXPECT_THROW(sweep::resolve_traits("no-such-algorithm"), CheckError);
  EXPECT_NO_THROW(sweep::resolve_algorithm("strassen-alt"));
  EXPECT_NO_THROW(sweep::resolve_traits("winograd-alt"));
  // The alternative-basis keys are registry entries, so the refusal's
  // "known:" list names them too.
  try {
    sweep::resolve_algorithm("no-such-algorithm");
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("strassen-alt, "), std::string::npos) << what;
    EXPECT_NE(what.find("winograd-alt, "), std::string::npos) << what;
  }
}

sweep::SweepSpec scheme_spec(const std::string& algorithm) {
  sweep::SweepSpec spec;
  spec.algorithms = {algorithm};
  spec.n_grid = {4, 8};
  spec.m_grid = {16, 64};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kLiveness,
                sweep::TaskKind::kBoundCheck};
  spec.base_seed = 42;
  return spec;
}

TEST(FileLoadedScheme, SweepPayloadsMatchCatalogAcrossThreads) {
  // A file-loaded Strassen must produce the same SimResults as the
  // catalog constructor at every thread count, warm or cold cache.
  sweep::SweepSpec catalog = scheme_spec("strassen");
  catalog.num_threads = 1;
  const sweep::SweepResult reference = sweep::run_sweep(catalog);

  sweep::SweepSpec from_file =
      scheme_spec("file:" + zoo_path("strassen_222_7.json"));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    from_file.num_threads = threads;
    const sweep::SweepResult result = sweep::run_sweep(from_file);
    ASSERT_EQ(result.tasks.size(), reference.tasks.size());
    for (std::size_t i = 0; i < result.tasks.size(); ++i) {
      const sweep::TaskResult& a = reference.tasks[i];
      const sweep::TaskResult& b = result.tasks[i];
      EXPECT_EQ(b.loads, a.loads) << i;
      EXPECT_EQ(b.stores, a.stores) << i;
      EXPECT_EQ(b.total_io, a.total_io) << i;
      EXPECT_EQ(b.weighted_io, a.weighted_io) << i;
      EXPECT_EQ(b.computations, a.computations) << i;
      EXPECT_EQ(b.liveness_peak, a.liveness_peak) << i;
      EXPECT_EQ(b.lower_bound, a.lower_bound) << i;
      EXPECT_EQ(b.scheme_fingerprint, a.scheme_fingerprint) << i;
      EXPECT_EQ(b.scheme_name, a.scheme_name) << i;
      EXPECT_EQ(b.omega0, a.omega0) << i;
    }
  }
}

TEST(FileLoadedScheme, TaskRowsCarrySchemeFields) {
  sweep::SweepSpec spec = scheme_spec("strassen");
  spec.num_threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  for (const sweep::TaskResult& task : result.tasks) {
    EXPECT_EQ(task.scheme_name, "strassen");
    EXPECT_EQ(task.scheme_fingerprint.size(), 16u);
    const std::string row = sweep::task_row_json(task);
    EXPECT_NE(row.find("\"scheme\": \"strassen\""), std::string::npos);
    EXPECT_NE(row.find("\"scheme_fingerprint\": \""), std::string::npos);
    EXPECT_NE(row.find("\"omega0\": "), std::string::npos);
  }
}

std::string simulate_request(const std::string& algorithm) {
  return "{\"id\": 1, \"op\": \"simulate\", \"algorithm\": \"" + algorithm +
         "\", \"n\": 8, \"m\": 64}";
}

TEST(FileLoadedScheme, ServiceResponsesAreByteIdenticalToCatalog) {
  // The acceptance contract: resolving a scheme via registry name vs
  // loading the equivalent file must answer with the same response
  // BYTES, cold cache and hot.
  const std::string file_key = "file:" + zoo_path("strassen_222_7.json");
  service::QueryService svc;
  const std::string by_name_cold = svc.handle_line(simulate_request("strassen"));
  const std::string by_file_hot = svc.handle_line(simulate_request(file_key));
  EXPECT_EQ(by_file_hot, by_name_cold);

  // Cold cache for the file key too: a fresh service, file first.
  service::QueryService fresh;
  const std::string by_file_cold = fresh.handle_line(simulate_request(file_key));
  const std::string by_name_hot = fresh.handle_line(simulate_request("strassen"));
  EXPECT_EQ(by_file_cold, by_name_cold);
  EXPECT_EQ(by_name_hot, by_name_cold);
}

TEST(FileLoadedScheme, ServiceValidatesBaseDimNotPowerOfTwo) {
  service::QueryService svc;
  const std::string laderman =
      "file:" + zoo_path("laderman_333_23.json");
  // n=27 is fine for a base-3 scheme (and would be refused for base 2)…
  const std::string ok = svc.handle_line(
      "{\"op\": \"simulate\", \"algorithm\": \"" + laderman +
      "\", \"n\": 27, \"m\": 64}");
  EXPECT_NE(ok.find("\"ok\": true"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"omega0\": 2.8540498302"), std::string::npos) << ok;
  // …while n=16 is not a power of 3.
  const std::string bad = svc.handle_line(
      "{\"op\": \"simulate\", \"algorithm\": \"" + laderman +
      "\", \"n\": 16, \"m\": 64}");
  EXPECT_NE(bad.find("usage_error: "), std::string::npos) << bad;
  EXPECT_NE(bad.find("power of the scheme's base dim 3"), std::string::npos)
      << bad;
  // Rectangular schemes cannot drive the recursive construction at all.
  const std::string rect = svc.handle_line(
      "{\"op\": \"cdag\", \"algorithm\": \"file:" +
      zoo_path("rect_336_46.json") + "\", \"n\": 9}");
  EXPECT_NE(rect.find("usage_error: "), std::string::npos) << rect;
  EXPECT_NE(rect.find("rectangular"), std::string::npos) << rect;
}

}  // namespace
}  // namespace fmm::bilinear
