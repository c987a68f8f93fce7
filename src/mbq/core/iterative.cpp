#include "mbq/core/iterative.h"

#include <algorithm>
#include <map>

#include "mbq/common/bits.h"
#include "mbq/common/error.h"
#include "mbq/core/compiler.h"
#include "mbq/mbqc/runner.h"
#include "mbq/opt/exact.h"
#include "mbq/qaoa/qaoa.h"

namespace mbq::core {

namespace {

using WeightMap = std::map<std::pair<int, int>, real>;

std::pair<int, int> key(int a, int b) {
  return {std::min(a, b), std::max(a, b)};
}

/// Weighted MaxCut Hamiltonian from a weight map over k vertices.
qaoa::CostHamiltonian hamiltonian_of(int k, const WeightMap& w) {
  real total = 0.0;
  for (const auto& [e, wt] : w) total += wt;
  qaoa::CostHamiltonian c(k, total / 2.0);
  for (const auto& [e, wt] : w) c.add_term({e.first, e.second}, -wt / 2.0);
  return c;
}

/// Edge correlations <Z_u Z_v> from a single (deterministic) MBQC run of
/// p=1 QAOA at grid-optimized angles.
WeightMap mbqc_correlations(int k, const WeightMap& w,
                            const IterativeOptions& opt, Rng& rng) {
  const qaoa::CostHamiltonian cost = hamiltonian_of(k, w);
  const auto table = cost.cost_table();
  // Grid-search p=1 angles on the fast gate-model objective (the
  // classical outer loop); the correlations themselves come from the
  // measurement-based run below.
  real best_val = -1e300;
  qaoa::Angles best({0.1}, {0.1});
  for (int i = 0; i < opt.angle_grid; ++i) {
    const real gamma = -kPi + kTwoPi * (i + 0.5) / opt.angle_grid;
    for (int j = 0; j < opt.angle_grid; ++j) {
      const real beta = -kPi / 2 + kPi * (j + 0.5) / opt.angle_grid;
      const qaoa::Angles a({gamma}, {beta});
      const real v = qaoa::qaoa_expectation(cost, a, &table);
      if (v > best_val) {
        best_val = v;
        best = a;
      }
    }
  }
  // One adaptive MBQC run; determinism makes the state exact.
  const CompiledPattern cp = compile_qaoa(cost, best);
  const mbqc::RunResult r = mbqc::run(cp.pattern, rng);
  WeightMap corr;
  for (const auto& [e, wt] : w) {
    real m = 0.0;
    for (std::uint64_t x = 0; x < r.output_state.size(); ++x) {
      const int zu = get_bit(x, e.first) ? -1 : 1;
      const int zv = get_bit(x, e.second) ? -1 : 1;
      m += std::norm(r.output_state[x]) * zu * zv;
    }
    corr[e] = m;
  }
  return corr;
}

}  // namespace

IterativeResult iterative_maxcut(const Graph& g,
                                 const std::vector<real>& weights,
                                 const IterativeOptions& options, Rng& rng) {
  MBQ_REQUIRE(static_cast<int>(weights.size()) == g.num_edges(),
              "weight count mismatch");
  MBQ_REQUIRE(options.base_case_size >= 1, "base case must be >= 1");
  const int n = g.num_vertices();

  // Clusters: per super-vertex, the original vertices with relative signs.
  std::vector<std::vector<std::pair<int, int>>> clusters(n);
  for (int v = 0; v < n; ++v) clusters[v] = {{v, +1}};
  WeightMap w;
  {
    const auto& es = g.edges();
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (weights[i] != 0.0) w[key(es[i].u, es[i].v)] += weights[i];
    }
  }

  IterativeResult result;
  int round = 0;
  while (static_cast<int>(clusters.size()) > options.base_case_size &&
         !w.empty()) {
    const int k = static_cast<int>(clusters.size());
    const WeightMap corr = mbqc_correlations(k, w, options, rng);
    // Strongest correlation decides the merge.
    auto best = corr.begin();
    for (auto it = corr.begin(); it != corr.end(); ++it)
      if (std::abs(it->second) > std::abs(best->second)) best = it;
    const int u = best->first.first;
    const int v = best->first.second;
    const int sign = best->second >= 0 ? +1 : -1;

    IterativeRound info;
    info.round = round++;
    info.vertices_left = k;
    info.chosen = {u, v};
    info.correlation = best->second;
    info.anti_aligned = sign < 0;
    result.rounds.push_back(info);

    // Merge cluster v into u with relative sign; reindex v's edges.
    for (auto& [orig, s] : clusters[v]) clusters[u].push_back({orig, s * sign});
    WeightMap next;
    for (const auto& [e, wt] : w) {
      int a = e.first, b = e.second;
      real wval = wt;
      auto remap = [&](int x) {
        if (x == v) {
          wval *= sign;  // z_v = sign * z_u
          return u;
        }
        return x;
      };
      a = remap(a);
      b = remap(b);
      if (a == b) continue;  // internal edge: a constant, dropped
      next[key(a, b)] += wval;
    }
    // Compact indices: remove super-vertex v.
    clusters.erase(clusters.begin() + v);
    WeightMap compacted;
    for (const auto& [e, wt] : next) {
      if (wt == 0.0) continue;
      auto shift = [&](int x) { return x > v ? x - 1 : x; };
      compacted[key(shift(e.first), shift(e.second))] += wt;
    }
    w = std::move(compacted);
  }

  // Base case: brute force the residual instance.
  const int k = static_cast<int>(clusters.size());
  std::uint64_t base_x = 0;
  if (!w.empty()) {
    const auto residual = hamiltonian_of(k, w);
    base_x = opt::brute_force_maximum(residual).x;
  }
  // Expand to the original variables.
  std::uint64_t x = 0;
  for (int c = 0; c < k; ++c) {
    const int xc = get_bit(base_x, c);
    for (const auto& [orig, s] : clusters[c])
      x = set_bit(x, orig, s > 0 ? xc : 1 - xc);
  }
  result.x = x;
  result.value =
      qaoa::CostHamiltonian::maxcut_weighted(g, weights).evaluate(x);
  return result;
}

}  // namespace mbq::core
