#include "mbq/qaoa/hamiltonian.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <utility>

#include "mbq/common/bits.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"

namespace mbq::qaoa {

CostHamiltonian::CostHamiltonian(int num_qubits, real constant)
    : n_(num_qubits), constant_(constant) {
  MBQ_REQUIRE(num_qubits >= 1 && num_qubits <= 63,
              "qubit count out of range: " << num_qubits);
}

void CostHamiltonian::add_term(std::vector<int> support, real coeff) {
  // Repeated indices cancel pairwise (Z^2 = I).
  std::sort(support.begin(), support.end());
  std::vector<int> reduced;
  for (std::size_t i = 0; i < support.size();) {
    const int q = support[i];
    MBQ_REQUIRE(q >= 0 && q < n_, "term qubit out of range: " << q);
    std::size_t j = i;
    while (j < support.size() && support[j] == q) ++j;
    if ((j - i) % 2 == 1) reduced.push_back(q);
    i = j;
  }
  if (reduced.empty()) {
    constant_ += coeff;
    return;
  }
  // Terms are kept in canonical support order (size, then lexicographic):
  // merging is a binary search instead of a linear scan, and every
  // CostHamiltonian — whichever frontend built it, in whatever order —
  // stores, evaluates, and ENCODES its terms identically.
  const auto less = [](const IsingTerm& t, const std::vector<int>& s) {
    return t.support.size() != s.size() ? t.support.size() < s.size()
                                        : t.support < s;
  };
  const auto it = std::lower_bound(terms_.begin(), terms_.end(), reduced, less);
  if (it != terms_.end() && it->support == reduced) {
    it->coeff += coeff;
    return;
  }
  max_order_ = std::max(max_order_, static_cast<int>(reduced.size()));
  terms_.insert(it, {coeff, std::move(reduced)});
}

real CostHamiltonian::evaluate(std::uint64_t x) const {
  real c = constant_;
  for (const auto& t : terms_) {
    int par = 0;
    for (int q : t.support) par ^= get_bit(x, q);
    c += par ? -t.coeff : t.coeff;
  }
  return c;
}

std::vector<real> CostHamiltonian::cost_table() const {
  MBQ_REQUIRE(n_ <= 28, "cost table too large for n=" << n_);
  std::vector<real> table(std::size_t{1} << n_);
  // Precompute masks once; the per-x loop is the hot path.
  std::vector<std::uint64_t> masks(terms_.size());
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    std::uint64_t m = 0;
    for (int q : terms_[i].support) m |= 1ULL << q;
    masks[i] = m;
  }
  const real c0 = constant_;
  auto* out = table.data();
  // Fixed kParallelGrain-entry blocks, as parallel_sum cuts its sums: a
  // one-block table (n <= 12) opens no team, whose wake-up can cost
  // more than the whole table on a busy host.
  const auto size = static_cast<std::int64_t>(table.size());
  const std::int64_t blocks = (size + kParallelGrain - 1) / kParallelGrain;
  parallel_for_threads(blocks, num_threads(), [&](std::int64_t b) {
    const std::int64_t end = std::min(size, (b + 1) * kParallelGrain);
    for (std::int64_t x = b * kParallelGrain; x < end; ++x) {
      real c = c0;
      for (std::size_t i = 0; i < masks.size(); ++i) {
        const int par = parity64(static_cast<std::uint64_t>(x) & masks[i]);
        c += par ? -terms_[i].coeff : terms_[i].coeff;
      }
      out[x] = c;
    }
  });
  return table;
}

bool CostHamiltonian::has_linear_terms() const {
  return num_terms_of_order(1) > 0;
}

int CostHamiltonian::num_terms_of_order(int k) const {
  int c = 0;
  for (const auto& t : terms_)
    c += static_cast<int>(t.support.size()) == k;
  return c;
}

Graph CostHamiltonian::interaction_graph() const {
  Graph g(n_);
  for (const auto& t : terms_) {
    for (std::size_t i = 0; i < t.support.size(); ++i)
      for (std::size_t j = i + 1; j < t.support.size(); ++j)
        if (!g.has_edge(t.support[i], t.support[j]))
          g.add_edge(t.support[i], t.support[j]);
  }
  return g;
}

CostHamiltonian CostHamiltonian::maxcut(const Graph& g) {
  CostHamiltonian c(g.num_vertices(),
                    static_cast<real>(g.num_edges()) / 2.0);
  for (const Edge& e : g.edges()) c.add_term({e.u, e.v}, -0.5);
  return c;
}

CostHamiltonian CostHamiltonian::maxcut_weighted(
    const Graph& g, const std::vector<real>& weights) {
  MBQ_REQUIRE(static_cast<int>(weights.size()) == g.num_edges(),
              "weight count " << weights.size() << " != edge count "
                              << g.num_edges());
  real total = 0.0;
  for (real w : weights) total += w;
  CostHamiltonian c(g.num_vertices(), total / 2.0);
  const auto& edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i)
    c.add_term({edges[i].u, edges[i].v}, -weights[i] / 2.0);
  return c;
}

CostHamiltonian CostHamiltonian::qubo(
    int n, const std::vector<real>& linear,
    const std::vector<std::pair<Edge, real>>& quad, real constant) {
  MBQ_REQUIRE(static_cast<int>(linear.size()) == n,
              "linear coefficient count " << linear.size() << " != n=" << n);
  // Validate the whole quadratic list up front: a malformed entry must
  // throw before any term mutates the Hamiltonian, and duplicate pairs
  // would otherwise silently sum their coefficients.
  std::set<std::pair<int, int>> seen;
  for (const auto& [e, w] : quad) {
    (void)w;
    MBQ_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                "QUBO quadratic term {" << e.u << "," << e.v
                                        << "} out of range for n=" << n);
    MBQ_REQUIRE(e.u != e.v, "QUBO quadratic term {"
                                << e.u << "," << e.v
                                << "} couples a variable with itself; fold "
                                   "x_i^2 = x_i into linear[" << e.u << "]");
    const auto key = std::minmax(e.u, e.v);
    MBQ_REQUIRE(seen.insert(key).second,
                "duplicate QUBO quadratic term {" << key.first << ","
                                                  << key.second
                                                  << "}; merge coefficients "
                                                     "before constructing");
  }
  CostHamiltonian c(n, constant);
  // x_i = (1 - Z_i)/2.
  for (int i = 0; i < n; ++i) {
    if (linear[i] == 0.0) continue;
    c.constant_ += linear[i] / 2.0;
    c.add_term({i}, -linear[i] / 2.0);
  }
  for (const auto& [e, w] : quad) {
    if (w == 0.0) continue;
    // x_u x_v = (1 - Z_u - Z_v + Z_u Z_v)/4.
    c.constant_ += w / 4.0;
    c.add_term({e.u}, -w / 4.0);
    c.add_term({e.v}, -w / 4.0);
    c.add_term({e.u, e.v}, w / 4.0);
  }
  return c;
}

CostHamiltonian CostHamiltonian::pubo(int n,
                                      const std::vector<PuboTerm>& terms,
                                      real constant) {
  CostHamiltonian c(n, constant);
  // Accumulate the expansion in a support-keyed map rather than through
  // add_term's linear scan: a single order-16 monomial already expands
  // into 2^16 distinct supports, which would make repeated scans
  // quadratic.  The map is keyed by the SAME canonical (|S|, lex) order
  // add_term maintains, so the direct terms_ writes below preserve the
  // construction invariant the codecs rely on.
  const auto canonical_less = [](const std::vector<int>& a,
                                 const std::vector<int>& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  };
  std::map<std::vector<int>, real, decltype(canonical_less)> expanded(
      canonical_less);
  for (const PuboTerm& t : terms) {
    // x_i^2 = x_i: repeated indices collapse (unlike Z, where they
    // cancel), so deduplicate rather than reduce mod 2.
    std::vector<int> vars = t.vars;
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    for (int v : vars)
      MBQ_REQUIRE(v >= 0 && v < n,
                  "PUBO term variable " << v << " out of range for n=" << n);
    const int k = static_cast<int>(vars.size());
    MBQ_REQUIRE(k <= 16, "PUBO term of order " << k
                             << " exceeds the order-16 expansion cap (2^k "
                                "Ising terms per monomial)");
    if (t.coeff == 0.0) continue;
    // prod_{i in S} x_i = prod (1 - Z_i)/2
    //                   = 2^{-|S|} sum_{T subseteq S} (-1)^{|T|} Z_T.
    const real scale = t.coeff / static_cast<real>(std::uint64_t{1} << k);
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << k); ++mask) {
      std::vector<int> support;
      for (int i = 0; i < k; ++i)
        if ((mask >> i) & 1) support.push_back(vars[i]);
      const real sign = (std::popcount(mask) % 2 == 0) ? 1.0 : -1.0;
      expanded[std::move(support)] += sign * scale;
    }
  }
  for (auto& [support, coeff] : expanded) {
    if (support.empty()) {
      c.constant_ += coeff;
    } else if (coeff != 0.0) {  // drop exact cancellations: they would
      // inflate max_order() and compile to dead gadgets
      c.max_order_ =
          std::max(c.max_order_, static_cast<int>(support.size()));
      c.terms_.push_back({coeff, support});
    }
  }
  return c;
}

CostHamiltonian CostHamiltonian::independent_set_size(int n) {
  CostHamiltonian c(n, static_cast<real>(n) / 2.0);
  for (int i = 0; i < n; ++i) c.add_term({i}, -0.5);
  return c;
}

CostHamiltonian CostHamiltonian::weighted_independent_set(
    const std::vector<real>& weights) {
  const int n = static_cast<int>(weights.size());
  // x_i = (1 - Z_i)/2, so sum w_i x_i = sum(w)/2 - sum (w_i/2) Z_i.
  real total = 0.0;
  for (real w : weights) total += w;
  CostHamiltonian c(n, total / 2.0);
  for (int i = 0; i < n; ++i)
    if (weights[i] != 0.0) c.add_term({i}, -weights[i] / 2.0);
  return c;
}

CostHamiltonian CostHamiltonian::mis_penalized(const Graph& g, real penalty) {
  std::vector<real> linear(static_cast<std::size_t>(g.num_vertices()), 1.0);
  std::vector<std::pair<Edge, real>> quad;
  for (const Edge& e : g.edges()) quad.push_back({e, -penalty});
  return qubo(g.num_vertices(), linear, quad);
}

}  // namespace mbq::qaoa
