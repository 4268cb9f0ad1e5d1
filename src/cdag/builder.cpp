#include "cdag/builder.hpp"

#include <cstdint>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::cdag {

namespace {

using bilinear::BilinearAlgorithm;
using graph::VertexId;

/// The nonzero columns of each row of a coefficient matrix, flat:
/// row i's are items[offsets[i] .. offsets[i + 1]), ascending.
struct RowSupport {
  explicit RowSupport(const bilinear::IntMat& coeff) {
    offsets.push_back(0);
    for (std::size_t i = 0; i < coeff.rows; ++i) {
      for (std::size_t j = 0; j < coeff.cols; ++j) {
        if (coeff.at(i, j) != 0) {
          items.push_back(j);
        }
      }
      offsets.push_back(items.size());
    }
  }

  std::span<const std::size_t> row(std::size_t i) const {
    return {items.data() + offsets[i], items.data() + offsets[i + 1]};
  }

  std::vector<std::size_t> offsets;
  std::vector<std::size_t> items;
};

class Builder {
 public:
  Builder(const BilinearAlgorithm& algorithm, std::size_t n)
      : alg_(algorithm),
        n_(n),
        census_(census(algorithm, n)),
        depth_(census_.levels.size() - 1) {}

  Cdag build() {
    FMM_TRACE_SPAN("cdag.build", "cdag");
    cdag_.n = n_;
    cdag_.base = alg_.n();
    cdag_.num_products = alg_.num_products();
    cdag_.algorithm_name = alg_.name();

    prepare_levels();
    cdag_.roles.reserve(census_.vertices);
    gb_.reserve_edges(census_.edges);

    const std::size_t n2 = n_ * n_;
    const VertexId a = add_vertices(n2, Role::kInputA);
    const VertexId b = add_vertices(n2, Role::kInputB);
    cdag_.inputs_a.resize(n2);
    std::iota(cdag_.inputs_a.begin(), cdag_.inputs_a.end(), a);
    cdag_.inputs_b.resize(n2);
    std::iota(cdag_.inputs_b.begin(), cdag_.inputs_b.end(), b);

    build_product(depth_, a, b);
    FMM_CHECK(gb_.num_vertices() == census_.vertices &&
              gb_.num_edges() == census_.edges);
    cdag_.outputs = staging_[depth_].output_pool;
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
  /// Lays out one SubproblemLevel per census level, r = b^i with
  /// t^{depth - i} sub-problems (Lemma 2.2), and preallocates the flat
  /// pools.  The recursion then fills slots via per-level cursors:
  /// same-size calls are siblings (never interleaved), so the k-th entry
  /// at size r is also the k-th exit, one cursor captured at entry
  /// addresses both the input and output pools, and the t children of
  /// one call occupy consecutive slots of the level below.
  void prepare_levels() {
    cdag_.subproblem_levels.resize(depth_ + 1);
    staging_.resize(depth_ + 1);
    cursors_.assign(depth_ + 1, 0);
    for (std::size_t i = 0; i <= depth_; ++i) {
      SubproblemLevel& level = cdag_.subproblem_levels[i];
      std::tie(level.r, level.count) = census_.levels[i];
      staging_[i].output_pool.resize(level.count * level.outputs_per_sub());
      staging_[i].input_pool.resize(level.count * level.inputs_per_sub());
      staging_[i].span_begin.resize(level.count);
      staging_[i].span_end.resize(level.count);
    }
  }

  VertexId add_vertices(std::size_t count, Role role) {
    cdag_.roles.resize(cdag_.roles.size() + count, role);
    return gb_.add_vertices(count);
  }

  VertexId next_id() const {
    return static_cast<VertexId>(gb_.num_vertices());
  }

  /// Element index of block (bi, bj), element (ei, ej) in an s x s
  /// row-major matrix split into base x base blocks of size sub.
  static std::size_t blocked_index(std::size_t s, std::size_t sub,
                                   std::size_t bi, std::size_t bj,
                                   std::size_t ei, std::size_t ej) {
    return (bi * sub + ei) * s + (bj * sub + ej);
  }

  /// Encodes one operand side, the s x s row-major id range starting at
  /// `elems`: t blocks of sub^2 vertices, vertex (ei, ej) of block r
  /// summing element (ei, ej) of the support blocks q of row r of
  /// `rows`, q ascending.  Returns the first id of block 0.
  VertexId encode(const RowSupport& rows, VertexId elems, std::size_t s,
                  Role role) {
    const std::size_t base = alg_.n();
    const std::size_t sub = s / base;
    const VertexId first = add_vertices(alg_.num_products() * sub * sub, role);
    VertexId target = first;
    for (std::size_t r = 0; r < alg_.num_products(); ++r) {
      for (std::size_t ei = 0; ei < sub; ++ei) {
        for (std::size_t ej = 0; ej < sub; ++ej, ++target) {
          for (const std::size_t q : rows.row(r)) {
            gb_.add_edge(static_cast<VertexId>(
                             elems + blocked_index(s, sub, q / base,
                                                   q % base, ei, ej)),
                         target);
          }
        }
      }
    }
    return first;
  }

  /// Builds the sub-CDAG of one product at level `li` (size s) on the
  /// operand id ranges [a, a + s^2) and [b, b + s^2), writing its outputs
  /// into its slot of the level's output pool.
  void build_product(std::size_t li, VertexId a, VertexId b) {
    const std::size_t s = cdag_.subproblem_levels[li].r;
    const std::size_t s2 = s * s;
    LevelStaging& pools = staging_[li];
    const std::size_t idx = cursors_[li]++;
    VertexId* const inputs = pools.input_pool.data() + idx * 2 * s2;
    std::iota(inputs, inputs + s2, a);
    std::iota(inputs + s2, inputs + 2 * s2, b);
    VertexId* const outputs = pools.output_pool.data() + idx * s2;
    pools.span_begin[idx] = next_id();
    if (s == 1) {
      outputs[0] = add_vertices(1, Role::kProduct);
      gb_.add_edge(a, outputs[0]);
      gb_.add_edge(b, outputs[0]);
      pools.span_end[idx] = next_id();
      return;
    }

    const std::size_t base = alg_.n();
    const std::size_t sub = s / base;
    const std::size_t sub2 = sub * sub;
    const VertexId a_tilde = encode(u_rows_, a, s, Role::kEncodeA);
    const VertexId b_tilde = encode(v_rows_, b, s, Role::kEncodeB);
    const std::size_t first_child = cursors_[li - 1];
    for (std::size_t r = 0; r < alg_.num_products(); ++r) {
      build_product(li - 1, static_cast<VertexId>(a_tilde + r * sub2),
                    static_cast<VertexId>(b_tilde + r * sub2));
    }

    // Decode: element e of quadrant q combines element e of the outputs
    // of the products in row q of W (r ascending), read from the
    // children's slots in the level below.
    const VertexId* const products =
        staging_[li - 1].output_pool.data() + first_child * sub2;
    for (std::size_t q = 0; q < base * base; ++q) {
      const VertexId block = add_vertices(sub2, Role::kDecode);
      for (std::size_t e = 0; e < sub2; ++e) {
        for (const std::size_t r : w_rows_.row(q)) {
          gb_.add_edge(products[r * sub2 + e],
                       static_cast<VertexId>(block + e));
        }
      }
      for (std::size_t ei = 0; ei < sub; ++ei) {
        for (std::size_t ej = 0; ej < sub; ++ej) {
          outputs[blocked_index(s, sub, q / base, q % base, ei, ej)] =
              static_cast<VertexId>(block + ei * sub + ej);
        }
      }
    }
    pools.span_end[idx] = next_id();
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
  CdagCensus census_;
  /// log_base(n): levels are indexed 0 (size 1) .. depth_ (size n).
  std::size_t depth_;
  RowSupport u_rows_{alg_.u()};
  RowSupport v_rows_{alg_.v()};
  RowSupport w_rows_{alg_.w()};
  graph::GraphBuilder gb_;
  std::vector<std::size_t> cursors_;
  std::vector<LevelStaging> staging_;
  Cdag cdag_;
};

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> census_levels(
    std::size_t base, std::size_t products, std::size_t n) {
  const auto b = static_cast<std::int64_t>(base);
  FMM_CHECK(b >= 2);
  FMM_CHECK_MSG(is_power_of(static_cast<std::int64_t>(n), b),
                "n=" << n << " is not a power of base " << b);
  int depth = 0;
  for (std::size_t s = n; s > 1; s /= base) {
    ++depth;
  }
  const auto t = static_cast<std::int64_t>(products);
  std::vector<std::pair<std::size_t, std::size_t>> levels;
  for (int i = 0; i <= depth; ++i) {
    levels.emplace_back(static_cast<std::size_t>(checked_pow(b, i)),
                        static_cast<std::size_t>(checked_pow(t, depth - i)));
  }
  return levels;
}

CdagCensus census(const bilinear::BilinearAlgorithm& algorithm,
                  std::size_t n) {
  FMM_CHECK_MSG(algorithm.is_square(), "CDAG builder requires a square base");
  CdagCensus result;
  result.levels =
      census_levels(algorithm.n(), algorithm.num_products(), n);
  const std::size_t depth = result.levels.size() - 1;
  const auto side = static_cast<std::int64_t>(n);
  const auto t = static_cast<std::int64_t>(algorithm.num_products());
  const auto coeffs = static_cast<std::int64_t>(
      algorithm.u().nnz() + algorithm.v().nnz() + algorithm.w().nnz());
  // Level i: count = t^{depth - i} sub-problems of size r = b^i, whose
  // count r^2 outputs are products (i = 0) or decoders.  Below the top,
  // their operands are encoded by count / t parents, with nnz(U) + nnz(V)
  // + nnz(W) edges per element of an r^2 block; each product adds 2
  // in-edges.  The pools hold r^2 outputs, 2 r^2 inputs and a span each.
  const auto to_size = [](auto v) { return static_cast<std::size_t>(v); };
  const std::int64_t n2 = checked_mul(side, side);
  const auto leaves = static_cast<std::int64_t>(result.levels[0].second);
  std::int64_t below = 0;  // encA = encB = mul + dec
  std::int64_t edges = checked_mul(2, leaves);
  std::int64_t ids = checked_mul(3, n2);  // inputs_a, inputs_b, outputs
  for (std::size_t i = 0; i <= depth; ++i) {
    const auto r = static_cast<std::int64_t>(result.levels[i].first);
    const auto count = static_cast<std::int64_t>(result.levels[i].second);
    const std::int64_t r2 = r * r;  // r <= n, and n^2 fits
    if (i < depth) {
      below = checked_add(below, checked_mul(count, r2));
      edges = checked_add(edges,
                          checked_mul(coeffs, checked_mul(count / t, r2)));
    }
    ids = checked_add(ids,
                      checked_mul(count, checked_add(checked_mul(3, r2), 2)));
  }
  const std::int64_t vertices = checked_mul(3, checked_add(n2, below));
  FMM_CHECK_MSG(vertices < graph::kNoVertex,
                "vertex count " << vertices << " overflows VertexId");
  FMM_CHECK_MSG(edges <= UINT32_MAX,
                "edge count " << edges << " overflows CSR offsets");
  result.vertices = to_size(vertices);
  result.edges = to_size(edges);
  const std::int64_t products = depth == 0 ? 0 : leaves;
  result.roles = {{Role::kInputA, to_size(n2)},
                  {Role::kInputB, to_size(n2)},
                  {Role::kEncodeA, to_size(below)},
                  {Role::kEncodeB, to_size(below)},
                  {Role::kProduct, to_size(products)},
                  {Role::kDecode, to_size(below - products)},
                  {Role::kOutput, to_size(n2)}};
  std::erase_if(result.roles,
                [](const auto& role) { return role.second == 0; });
  // V + 1 offsets and E edges per CSR direction and the ids, all 32-bit,
  // plus a role byte per vertex; the checks above bound it below 2^64.
  result.memory_bytes =
      (2 * (result.vertices + 1) + 2 * result.edges + to_size(ids)) *
          sizeof(std::uint32_t) +
      result.vertices * sizeof(Role);
  return result;
}

Cdag build_cdag(const bilinear::BilinearAlgorithm& algorithm, std::size_t n) {
  return Builder(algorithm, n).build();
}

std::size_t expected_sub_output_count(
    const bilinear::BilinearAlgorithm& algorithm, std::size_t n,
    std::size_t r) {
  FMM_CHECK_MSG(algorithm.is_square(), "CDAG builder requires a square base");
  FMM_CHECK_MSG(r >= 1 && n % r == 0 &&
                    is_power_of(static_cast<std::int64_t>(n / r),
                                static_cast<std::int64_t>(algorithm.n())),
                "r=" << r << " is not a sub-problem size of n=" << n);
  // n / r is a power of the base, so r is one of the level sizes, all of
  // them at most n.
  const auto levels =
      census_levels(algorithm.n(), algorithm.num_products(), n);
  std::size_t i = 0;
  while (levels[i].first < r) {
    ++i;
  }
  return static_cast<std::size_t>(
      checked_mul(static_cast<std::int64_t>(levels[i].second),
                  static_cast<std::int64_t>(r * r)));
}

}  // namespace fmm::cdag
