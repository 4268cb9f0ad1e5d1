#include "cdag/builder.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::cdag {

namespace {

using bilinear::BilinearAlgorithm;
using graph::VertexId;

class Builder {
 public:
  Builder(const BilinearAlgorithm& algorithm, std::size_t n)
      : alg_(algorithm), n_(n) {
    FMM_CHECK_MSG(alg_.is_square(), "CDAG builder requires a square base");
    const std::size_t base = alg_.n();
    FMM_CHECK(base >= 2);
    std::size_t d = n_;
    while (d > 1) {
      FMM_CHECK_MSG(d % base == 0,
                    "n=" << n_ << " is not a power of base " << base);
      d /= base;
    }
  }

  Cdag build() {
    FMM_TRACE_SPAN("cdag.build", "cdag");
    cdag_.n = n_;
    cdag_.base = alg_.n();
    cdag_.num_products = alg_.num_products();
    cdag_.algorithm_name = alg_.name();

    prepare_levels();

    cdag_.inputs_a = add_vertices(n_ * n_, Role::kInputA);
    cdag_.inputs_b = add_vertices(n_ * n_, Role::kInputB);

    cdag_.outputs = build_product(n_, cdag_.inputs_a, cdag_.inputs_b);
    for (const VertexId v : cdag_.outputs) {
      cdag_.roles[v] = Role::kOutput;
    }

    cdag_.graph = gb_.freeze();

    // Freeze the staging pools into the levels' FrozenArray views (the
    // recursion is done mutating them).
    for (std::size_t i = 0; i < staging_.size(); ++i) {
      SubproblemLevel& level = cdag_.subproblem_levels[i];
      level.output_pool = std::move(staging_[i].output_pool);
      level.input_pool = std::move(staging_[i].input_pool);
      level.span_begin = std::move(staging_[i].span_begin);
      level.span_end = std::move(staging_[i].span_end);
    }
    staging_.clear();

    auto& registry = obs::Registry::instance();
    registry.counter("cdag.builds").increment();
    registry.counter("cdag.vertices_built")
        .add(static_cast<std::int64_t>(cdag_.graph.num_vertices()));
    registry.counter("cdag.edges_built")
        .add(static_cast<std::int64_t>(cdag_.graph.num_edges()));
    return std::move(cdag_);
  }

 private:
  /// Lays out one SubproblemLevel per size r (ascending powers of the
  /// base up to n), each with t^{log_b(n/r)} sub-problems (Lemma 2.2),
  /// and preallocates the flat pools.  The recursion then fills slots via
  /// per-level cursors: same-size calls are siblings (never interleaved),
  /// so the k-th entry at size r is also the k-th exit, and one cursor
  /// captured at entry addresses both the input and output pools.
  void prepare_levels() {
    const std::size_t base = alg_.n();
    std::vector<std::size_t> sizes;
    for (std::size_t r = 1; r <= n_; r *= base) {
      sizes.push_back(r);
    }
    cdag_.subproblem_levels.resize(sizes.size());
    staging_.resize(sizes.size());
    cursors_.assign(sizes.size(), 0);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SubproblemLevel& level = cdag_.subproblem_levels[i];
      level.r = sizes[i];
      const auto depth = static_cast<int>(sizes.size() - 1 - i);
      level.count = static_cast<std::size_t>(checked_pow(
          static_cast<std::int64_t>(alg_.num_products()), depth));
      staging_[i].output_pool.resize(level.count * level.outputs_per_sub());
      staging_[i].input_pool.resize(level.count * level.inputs_per_sub());
      staging_[i].span_begin.resize(level.count);
      staging_[i].span_end.resize(level.count);
    }
  }

  /// Index into subproblem_levels for size s (levels hold ascending
  /// powers of the base, so this is log_base(s)).
  std::size_t level_index(std::size_t s) const {
    const std::size_t base = alg_.n();
    std::size_t idx = 0;
    while (s > 1) {
      s /= base;
      ++idx;
    }
    return idx;
  }

  std::vector<VertexId> add_vertices(std::size_t count, Role role) {
    const VertexId first = gb_.add_vertices(count);
    cdag_.roles.resize(cdag_.roles.size() + count, role);
    std::vector<VertexId> ids(count);
    for (std::size_t i = 0; i < count; ++i) {
      ids[i] = first + static_cast<VertexId>(i);
    }
    return ids;
  }

  /// Element index of block (bi, bj), element (ei, ej) in an s x s
  /// row-major matrix split into base x base blocks of size sub.
  static std::size_t blocked_index(std::size_t s, std::size_t sub,
                                   std::size_t bi, std::size_t bj,
                                   std::size_t ei, std::size_t ej) {
    return (bi * sub + ei) * s + (bj * sub + ej);
  }

  /// Encodes one operand side: for each product r, creates sub^2 vertices,
  /// each combining the support blocks of row r of `coeff`.
  std::vector<std::vector<VertexId>> encode(
      const bilinear::IntMat& coeff, const std::vector<VertexId>& elems,
      std::size_t s, Role role) {
    const std::size_t base = alg_.n();
    const std::size_t sub = s / base;
    std::vector<std::vector<VertexId>> encoded(alg_.num_products());
    for (std::size_t r = 0; r < alg_.num_products(); ++r) {
      encoded[r] = add_vertices(sub * sub, role);
      for (std::size_t q = 0; q < base * base; ++q) {
        if (coeff.at(r, q) == 0) {
          continue;
        }
        const std::size_t bi = q / base;
        const std::size_t bj = q % base;
        for (std::size_t ei = 0; ei < sub; ++ei) {
          for (std::size_t ej = 0; ej < sub; ++ej) {
            gb_.add_edge(elems[blocked_index(s, sub, bi, bj, ei, ej)],
                         encoded[r][ei * sub + ej]);
          }
        }
      }
    }
    return encoded;
  }

  std::vector<VertexId> build_product(std::size_t s,
                                      const std::vector<VertexId>& a,
                                      const std::vector<VertexId>& b) {
    FMM_CHECK(a.size() == s * s && b.size() == s * s);
    const SubproblemLevel& level = cdag_.subproblem_levels[level_index(s)];
    LevelStaging& pools = staging_[level_index(s)];
    const std::size_t idx = cursors_[level_index(s)]++;
    FMM_CHECK(idx < level.count);
    std::copy(a.begin(), a.end(),
              pools.input_pool.begin() +
                  static_cast<std::ptrdiff_t>(idx * level.inputs_per_sub()));
    std::copy(b.begin(), b.end(),
              pools.input_pool.begin() +
                  static_cast<std::ptrdiff_t>(idx * level.inputs_per_sub() +
                                              s * s));
    if (s == 1) {
      const auto begin = static_cast<VertexId>(gb_.num_vertices());
      const std::vector<VertexId> v = add_vertices(1, Role::kProduct);
      gb_.add_edge(a[0], v[0]);
      gb_.add_edge(b[0], v[0]);
      pools.output_pool[idx] = v[0];
      pools.span_begin[idx] = begin;
      pools.span_end[idx] = static_cast<VertexId>(gb_.num_vertices());
      return v;
    }

    const std::size_t base = alg_.n();
    const std::size_t sub = s / base;
    const auto span_begin = static_cast<VertexId>(gb_.num_vertices());

    const auto a_tilde = encode(alg_.u(), a, s, Role::kEncodeA);
    const auto b_tilde = encode(alg_.v(), b, s, Role::kEncodeB);

    std::vector<std::vector<VertexId>> products(alg_.num_products());
    for (std::size_t r = 0; r < alg_.num_products(); ++r) {
      products[r] = build_product(sub, a_tilde[r], b_tilde[r]);
    }

    // Decode: output element (i, j) of quadrant q combines products'
    // outputs at the same element position.
    std::vector<VertexId> outputs(s * s, graph::kNoVertex);
    for (std::size_t q = 0; q < base * base; ++q) {
      const std::size_t bi = q / base;
      const std::size_t bj = q % base;
      const std::vector<VertexId> block = add_vertices(sub * sub,
                                                       Role::kDecode);
      for (std::size_t r = 0; r < alg_.num_products(); ++r) {
        if (alg_.w().at(q, r) == 0) {
          continue;
        }
        for (std::size_t e = 0; e < sub * sub; ++e) {
          gb_.add_edge(products[r][e], block[e]);
        }
      }
      for (std::size_t ei = 0; ei < sub; ++ei) {
        for (std::size_t ej = 0; ej < sub; ++ej) {
          outputs[blocked_index(s, sub, bi, bj, ei, ej)] =
              block[ei * sub + ej];
        }
      }
    }

    std::copy(outputs.begin(), outputs.end(),
              pools.output_pool.begin() +
                  static_cast<std::ptrdiff_t>(idx * level.outputs_per_sub()));
    pools.span_begin[idx] = span_begin;
    pools.span_end[idx] = static_cast<VertexId>(gb_.num_vertices());
    return outputs;
  }

  /// Mutable pool staging for one level; frozen into the level's
  /// FrozenArray views at the end of build().
  struct LevelStaging {
    std::vector<VertexId> output_pool;
    std::vector<VertexId> input_pool;
    std::vector<VertexId> span_begin;
    std::vector<VertexId> span_end;
  };

  const BilinearAlgorithm& alg_;
  std::size_t n_;
  graph::GraphBuilder gb_;
  std::vector<std::size_t> cursors_;
  std::vector<LevelStaging> staging_;
  Cdag cdag_;
};

}  // namespace

Cdag build_cdag(const bilinear::BilinearAlgorithm& algorithm, std::size_t n) {
  return Builder(algorithm, n).build();
}

std::size_t expected_sub_output_count(
    const bilinear::BilinearAlgorithm& algorithm, std::size_t n,
    std::size_t r) {
  FMM_CHECK(algorithm.is_square() && n % r == 0);
  const std::size_t base = algorithm.n();
  std::size_t ratio = n / r;
  std::int64_t count = 1;
  while (ratio > 1) {
    FMM_CHECK(ratio % base == 0);
    ratio /= base;
    count = checked_mul(count,
                        static_cast<std::int64_t>(algorithm.num_products()));
  }
  return static_cast<std::size_t>(
      checked_mul(count, static_cast<std::int64_t>(r * r)));
}

}  // namespace fmm::cdag
