#include "pebble/optimal.hpp"

#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace fmm::pebble {

namespace {

using Mask = std::uint64_t;

struct State {
  Mask red = 0;
  Mask blue = 0;
  Mask computed = 0;  // used only when recomputation is forbidden

  bool operator==(const State& other) const {
    return red == other.red && blue == other.blue &&
           computed == other.computed;
  }
};

std::uint64_t mix64(std::uint64_t x) {
  return splitmix64_finalize(x + kSplitMixGamma);
}

struct StateHash {
  std::size_t operator()(const State& s) const {
    return static_cast<std::size_t>(
        mix64(s.red) ^ mix64(s.blue + kSplitMixGamma) ^
        mix64(s.computed + 0x3c6ef372fe94f82aULL));
  }
};

int popcount(Mask m) { return __builtin_popcountll(m); }

[[noreturn]] void throw_infeasible(const std::string& message) {
  throw InfeasibleError(message);
}

/// Search node.  Ordering for the best-first queue: smallest f first,
/// then LARGEST g, then LARGEST insertion sequence (LIFO).  Both
/// tie-breaks dive depth-first along the f = C* corridor an exact
/// heuristic produces, so such instances finish in near-linear
/// expansions instead of flooding the optimal-cost plateau.
struct Node {
  std::int64_t f = 0;
  std::int64_t g = 0;
  std::uint64_t seq = 0;
  State state;
};

struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    if (a.f != b.f) return a.f > b.f;
    if (a.g != b.g) return a.g < b.g;
    return a.seq < b.seq;
  }
};

class Solver {
 public:
  Solver(const PebbleInstance& instance, const OptimalPebbleOptions& options)
      : nv_(instance.graph.num_vertices()), options_(options) {
    for (const graph::VertexId v : instance.inputs) {
      input_mask_ |= Mask{1} << v;
    }
    for (const graph::VertexId v : instance.outputs) {
      output_mask_ |= Mask{1} << v;
    }
    pred_mask_.assign(nv_, 0);
    succ_mask_.assign(nv_, 0);
    for (graph::VertexId v = 0; v < nv_; ++v) {
      for (const graph::VertexId u : instance.graph.in_neighbors(v)) {
        pred_mask_[v] |= Mask{1} << u;
        succ_mask_[u] |= Mask{1} << v;
      }
    }
  }

  OptimalPebbleResult run() {
    const auto m = static_cast<int>(options_.cache_size);
    State start{0, input_mask_, 0};
    canonicalize(start);
    push(start, 0);

    OptimalPebbleResult result;
    while (!open_.empty()) {
      const Node node = open_.top();
      open_.pop();
      const auto it = best_.find(node.state);
      if (it == best_.end() || it->second < node.g) {
        continue;  // stale entry superseded by a cheaper path
      }
      if ((node.state.blue & output_mask_) == output_mask_) {
        result.min_io = node.g;
        result.states_explored = best_.size();
        result.optimality = OptimalPebbleResult::Optimality::kExact;
        return result;
      }
      if (best_.size() > options_.max_states) {
        // Budget tripped.  node.f is the minimum f over the live open
        // frontier; with an admissible h some open node lies on an
        // optimal completion with f <= C*, so node.f is a certified
        // lower bound on the optimum.
        result.min_io = node.f;
        result.states_explored = best_.size();
        result.optimality =
            OptimalPebbleResult::Optimality::kBudgetExceeded;
        return result;
      }

      // Delete-on-demand normal form: a deletion in an optimal schedule
      // can always be postponed until the red capacity actually binds,
      // so instead of branching on standalone DELETE moves the solver
      // pairs an eviction with the LOAD/COMPUTE that needs the slot
      // (every victim choice is enumerated — no optimum is lost, but the
      // free-move plateau of delete permutations disappears).
      const State& s = node.state;
      const int red_count = popcount(s.red);
      const bool full = red_count >= m;
      const Mask useful = useful_mask(s);
      const auto acquire = [&](Mask bit, Mask victims_allowed,
                               Mask computed_add, std::int64_t g) {
        if (!full) {
          State next = s;
          next.red |= bit;
          next.computed |= computed_add;
          relax(next, g);
          return;
        }
        Mask victims = s.red & victims_allowed;
        while (victims != 0) {
          const Mask victim = victims & (~victims + 1);
          victims &= victims - 1;
          State next = s;
          next.red = (s.red & ~victim) | bit;
          next.computed |= computed_add;
          relax(next, g);
        }
      };
      for (graph::VertexId v = 0; v < nv_; ++v) {
        const Mask bit = Mask{1} << v;
        if (!(useful & bit)) {
          continue;  // canonical states never pebble useless vertices
        }
        // LOAD (evicting any victim when full)
        if ((s.blue & bit) && !(s.red & bit)) {
          acquire(bit, ~Mask{0}, 0, node.g + 1);
        }
        // STORE
        if ((s.red & bit) && !(s.blue & bit)) {
          State next = s;
          next.blue |= bit;
          relax(next, node.g + 1);
        }
        // COMPUTE (victims must not be predecessors of v — those have
        // to stay red through the computation)
        if (!(input_mask_ & bit) && !(s.red & bit) &&
            (s.red & pred_mask_[v]) == pred_mask_[v] &&
            (options_.allow_recomputation || !(s.computed & bit))) {
          const Mask mark =
              options_.allow_recomputation ? Mask{0} : bit;
          acquire(bit, ~pred_mask_[v], mark, node.g);
        }
      }
    }
    std::ostringstream os;
    os << "instance unsolvable with M = " << options_.cache_size
       << " (M too small)";
    throw_infeasible(os.str());
  }

 private:
  /// Vertices that can still reach an output missing its blue pebble.
  /// Pebbles elsewhere can never contribute to finishing the game.
  Mask useful_mask(const State& s) const {
    const Mask missing = output_mask_ & ~s.blue;
    Mask useful = missing;
    // Edges satisfy u < v, so one descending pass closes reachability.
    for (graph::VertexId v = nv_; v-- > 0;) {
      if ((succ_mask_[v] & useful) != 0) {
        useful |= Mask{1} << v;
      }
    }
    return useful;
  }

  /// Drops pebbles that cannot matter anymore: red and computed marks on
  /// useless vertices, and blue pebbles on useless non-outputs (output
  /// blue pebbles are the goal condition itself).  A dominance argument
  /// shows the canonical state has the same optimal completion cost, so
  /// memoizing canonical states merges whole families of equivalents.
  void canonicalize(State& s) const {
    const Mask useful = useful_mask(s);
    s.red &= useful;
    s.blue &= useful | output_mask_;
    s.computed &= useful;
  }

  /// Admissible lower bound on the I/O still required from `s`, or -1
  /// when `s` provably cannot complete (dead state):
  ///   - every output without a blue pebble needs >= 1 STORE;
  ///   - walking the must-compute cone of the missing outputs (vertices
  ///     that are neither red nor blue must be computed, so their
  ///     predecessors must all turn red), every non-red INPUT met in the
  ///     cone needs >= 1 LOAD — inputs only turn red via LOAD.
  /// In the recomputation-allowed variant blue non-input predecessors
  /// stop the walk (recomputing them might be free, so no cost is safely
  /// forced).  When recomputation is FORBIDDEN they force a LOAD each
  /// (a blue non-input was necessarily computed already), and a cone
  /// vertex already computed but evicted un-stored is lost forever —
  /// the state is dead and pruned outright.
  std::int64_t lower_bound(const State& s) const {
    const bool no_remat = !options_.allow_recomputation;
    const Mask missing = output_mask_ & ~s.blue;
    const std::int64_t stores = popcount(missing);
    Mask cone = missing & ~s.red & ~input_mask_;
    Mask forced_loads = 0;
    for (graph::VertexId v = nv_; v-- > 0;) {
      const Mask bit = Mask{1} << v;
      if (!(cone & bit)) {
        continue;
      }
      if (no_remat && (s.computed & bit)) {
        return -1;  // must be recomputed, but never can be
      }
      const Mask preds = pred_mask_[v];
      forced_loads |= preds & input_mask_ & ~s.red;
      if (no_remat) {
        forced_loads |= preds & s.blue & ~s.red & ~input_mask_;
      }
      cone |= preds & ~s.red & ~s.blue & ~input_mask_;
    }
    return stores + popcount(forced_loads);
  }

  void push(const State& s, std::int64_t g) {
    const auto [slot, inserted] = best_.try_emplace(s, g);
    if (!inserted) {
      if (slot->second <= g) {
        return;
      }
      slot->second = g;  // reopen: h is admissible but not consistent
    }
    const std::int64_t h = lower_bound(s);
    if (h < 0) {
      return;  // dead state: some forced vertex is lost for good
    }
    Node node;
    node.g = g;
    node.f = std::max(g + h, options_.root_lower_bound);
    node.seq = next_seq_++;
    node.state = s;
    open_.push(node);
  }

  void relax(State next, std::int64_t g) {
    canonicalize(next);
    push(next, g);
  }

  std::size_t nv_;
  OptimalPebbleOptions options_;
  Mask input_mask_ = 0;
  Mask output_mask_ = 0;
  std::vector<Mask> pred_mask_;
  std::vector<Mask> succ_mask_;
  std::unordered_map<State, std::int64_t, StateHash> best_;
  std::priority_queue<Node, std::vector<Node>, NodeWorse> open_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace

const char* optimality_name(OptimalPebbleResult::Optimality optimality) {
  switch (optimality) {
    case OptimalPebbleResult::Optimality::kExact:
      return "exact";
    case OptimalPebbleResult::Optimality::kBudgetExceeded:
      return "budget_exceeded";
  }
  return "?";
}

PebbleInstance to_instance(const cdag::Cdag& cdag) {
  PebbleInstance instance;
  instance.graph = cdag.graph;
  instance.inputs = cdag.all_inputs();
  instance.outputs = cdag.outputs;
  return instance;
}

OptimalPebbleResult optimal_io(const PebbleInstance& instance,
                               const OptimalPebbleOptions& options) {
  const std::size_t nv = instance.graph.num_vertices();
  if (nv > 64) {
    std::ostringstream os;
    os << "optimal pebbler limited to 64 vertices, got " << nv;
    throw_infeasible(os.str());
  }
  FMM_CHECK(options.cache_size >= 1);
  Solver solver(instance, options);
  return solver.run();
}

std::int64_t recomputation_advantage(const PebbleInstance& instance,
                                     std::int64_t cache_size) {
  OptimalPebbleOptions with;
  with.cache_size = cache_size;
  with.allow_recomputation = true;
  OptimalPebbleOptions without = with;
  without.allow_recomputation = false;
  const OptimalPebbleResult r_with = optimal_io(instance, with);
  const OptimalPebbleResult r_without = optimal_io(instance, without);
  FMM_CHECK_MSG(
      r_with.optimality == OptimalPebbleResult::Optimality::kExact &&
          r_without.optimality == OptimalPebbleResult::Optimality::kExact,
      "recomputation_advantage needs both searches exact within budget");
  FMM_CHECK_MSG(r_with.min_io <= r_without.min_io,
                "recomputation can never hurt an optimal schedule");
  return r_without.min_io - r_with.min_io;
}

PebbleInstance random_instance(std::size_t num_inputs,
                               std::size_t num_internal,
                               std::size_t max_fanin, std::uint64_t seed) {
  FMM_CHECK(num_inputs >= 1 && max_fanin >= 1);
  Rng rng(seed);
  PebbleInstance instance;
  graph::GraphBuilder builder(num_inputs + num_internal);
  for (graph::VertexId v = 0; v < num_inputs; ++v) {
    instance.inputs.push_back(v);
  }
  for (std::size_t i = 0; i < num_internal; ++i) {
    const auto v = static_cast<graph::VertexId>(num_inputs + i);
    const std::size_t fanin =
        1 + static_cast<std::size_t>(rng.uniform(max_fanin));
    const auto preds = rng.sample_without_replacement(
        v, std::min<std::size_t>(fanin, v));
    for (const std::size_t u : preds) {
      builder.add_edge(static_cast<graph::VertexId>(u), v);
    }
  }
  instance.graph = builder.freeze();
  for (const graph::VertexId v : instance.graph.sinks()) {
    if (v >= num_inputs) {
      instance.outputs.push_back(v);
    }
  }
  // Degenerate case: no internal sinks; make the last vertex an output.
  if (instance.outputs.empty() && num_internal > 0) {
    instance.outputs.push_back(
        static_cast<graph::VertexId>(num_inputs + num_internal - 1));
  }
  return instance;
}

}  // namespace fmm::pebble
