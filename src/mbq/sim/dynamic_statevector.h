#pragma once
// Statevector with dynamic qubit (wire) allocation.
//
// MBQC patterns touch far more qubits than are ever simultaneously alive:
// an ancilla is prepared, entangled, measured and discarded within a few
// commands.  This simulator exploits that (the "qubit reuse" of DeCross et
// al. cited in the paper, ref [51]): wires are added lazily and removed on
// measurement, so the amplitude vector tracks only the LIVE wires.  Wires
// are addressed by stable non-negative integer ids independent of their
// current bit position.
//
// Every hot amplitude sweep — collapses, folds, sign/swap passes — runs
// through the runtime-dispatched SIMD kernel table (sim/collapse_kernels.h,
// scalar/AVX2/AVX-512/NEON), wrapped in the chunked drivers of
// sim/collapse_threaded.h: above the chunk cutoff a sweep is tiled into
// L2-sized blocks, run on up to num_threads() threads by the budget rule
// of common/parallel.h.  The kernels' canonical reduction order and the
// drivers' fixed chunk decomposition make results bit-identical across
// ISAs AND across thread counts, so neither choice leaks into outcome
// streams.
//
// The element type is chosen at construction (Precision::F64 default,
// Precision::F32 optional): f32 halves the memory traffic per amplitude
// — roughly one extra qubit of reach at a given footprint — and is
// deterministic under the same contract WITHIN the precision, but its
// streams are NOT bit-comparable to f64's (see common/types.h).

#include <cstdint>
#include <type_traits>
#include <vector>

#include "mbq/common/rng.h"
#include "mbq/common/types.h"
#include "mbq/linalg/dense.h"

namespace mbq {

/// Single-qubit measurement bases used by patterns.
enum class MeasBasis : std::uint8_t { Z, X, XY, YZ };

/// Basis kets as the columns of a 2x2 unitary: column m is the outcome-m
/// state.  XY(angle): (|0> ± e^{i a}|1>)/sqrt(2); YZ(angle): e^{i a X/2}|m>.
Matrix measurement_basis(MeasBasis basis, real angle);

/// A sampled measurement's Bernoulli draw, taken before its probability
/// is known.  take() draws the uniform on a copy of the caller's
/// generator; resolve(p, rng) then returns exactly what rng.bernoulli(p)
/// would and leaves rng where it would: advanced by that draw when p
/// lies in (0, 1), where bernoulli compares the same u < p, and
/// untouched otherwise, where bernoulli draws nothing.  A measure that
/// throws before resolve() leaves rng untouched.  guess() is the outcome
/// to project ahead of p, which is right unless u lies between 1/2 and
/// p — within rounding for the fair-coin measurements of the QAOA
/// pattern.
struct EarlyDraw {
  Rng after;  // the generator once the draw is taken
  real u;     // the uniform bernoulli(p) compares against

  static EarlyDraw take(const Rng& rng) noexcept {
    EarlyDraw d{rng, 0.0};
    d.u = d.after.uniform();
    return d;
  }
  int guess() const noexcept { return u < 0.5 ? 1 : 0; }
  int resolve(real p, Rng& rng) const noexcept {
    if (!(p > 0.0 && p < 1.0)) return rng.bernoulli(p) ? 1 : 0;
    rng = after;
    return u < p ? 1 : 0;
  }
};

class DynamicStatevector {
 public:
  // --- zero-state thresholds -------------------------------------------
  // Three DISTINCT guards with distinct units, named so no call site
  // picks the wrong one again (they used to be scattered magic numbers
  // with accidentally different scales):

  /// Minimum AMPLITUDE norm |a| = sqrt(|a0|²+|a1|²) accepted when adding
  /// a wire in an explicit state — below this the direction of the state
  /// is numerically meaningless.
  static constexpr real kMinAddWireNorm = 1e-12;

  /// Minimum SQUARED state norm |ψ|² accepted as a Born-rule denominator
  /// (and by normalize()) — dividing probabilities by anything smaller
  /// amplifies noise past any usable precision.  Note the unit: this
  /// guards Σ|amp|² directly, the quantity the norm folds compute.
  static constexpr real kMinBornNorm2 = 1e-14;

  /// Minimum SQUARED norm |Πψ|² of a post-measurement projection —
  /// deliberately far looser than kMinBornNorm2, because a legitimately
  /// unlikely (but sampled or forced-with-reason) outcome may leave a
  /// tiny residual state that renormalization then rescues.
  static constexpr real kMinProjectionNorm2 = 1e-18;

  explicit DynamicStatevector(Precision p = Precision::F64) : prec_(p) {
    if (prec_ == Precision::F64)
      amps_ = {cplx{1.0, 0.0}};
    else
      amps32_ = {cplxf{1.0f, 0.0f}};
  }

  /// Element type of the amplitude storage, fixed at construction.
  Precision precision() const noexcept { return prec_; }

  /// Return to the empty register (scalar state 1) WITHOUT releasing the
  /// amplitude buffers or the wire-position table: a simulator reset in a
  /// shot loop reuses the same arena, so steady-state execution performs
  /// no allocations at all.
  void reset();

  int num_live() const noexcept { return static_cast<int>(order_.size()); }
  int peak_live() const noexcept { return peak_live_; }
  std::uint64_t dim() const noexcept { return std::uint64_t{1} << order_.size(); }
  bool has_wire(int wire) const noexcept {
    return wire >= 0 && static_cast<std::size_t>(wire) < pos_.size() &&
           pos_[static_cast<std::size_t>(wire)] >= 0;
  }
  /// Live wire ids in bit-position order (position 0 first).
  const std::vector<int>& wire_order() const noexcept { return order_; }
  /// Current bit position of a live wire (throws if not live).  The
  /// compiled executor uses this to build position masks for the fused
  /// kernels below.
  int bit_position(int wire) const { return position(wire); }

  /// Add wire `wire` in |+> (plus=true) or |0>.
  void add_wire(int wire, bool plus = true);

  /// Add wire `wire` in the state a0|0> + a1|1> (normalized internally;
  /// rejects amplitude norms below kMinAddWireNorm).
  void add_wire_state(int wire, cplx a0, cplx a1);

  void apply_1q(int wire, const Matrix& u);
  void apply_h(int wire);
  void apply_x(int wire);
  void apply_z(int wire);
  void apply_cz(int wire_a, int wire_b);

  /// CZ followed by the entangler noise channel: each touched wire
  /// suffers a uniformly random Pauli with probability p.  Draws from
  /// rng in the same order as apply_cz + two per-wire checks would, but
  /// executes everything as ONE fused amplitude pass (sign flips and
  /// index swaps only, so the result is bit-identical to the sequential
  /// gate composition).  p <= 0 degrades to plain apply_cz.
  void apply_cz_depolarize(int wire_a, int wire_b, real p, Rng& rng);

  /// Measure `wire` in the given basis and REMOVE it from the register.
  /// forced in {-1 (sample from Born rule), 0, 1}.  Returns the outcome.
  int measure_remove(int wire, const Matrix& basis, Rng& rng, int forced = -1);

  // --- fused kernels for the compiled pattern executor -----------------
  // Each replaces a sequence of the primitive operations above with one
  // amplitude pass, producing bit-identical amplitudes and outcome
  // streams (everything they fuse is a scale, a sign flip, an index swap
  // or a sum evaluated in the canonical kernel order).  The two fused
  // measures leave their collapsed state unnormalized, with the
  // renormalization gain pending (see gain_ below): a chain of them
  // never runs a scale pass of its own.

  /// add_wire(wire, plus=true) immediately followed by a CZ against
  /// every live wire whose POSITION bit is set in partner_pos_mask, as
  /// one pass (the fresh wire occupies the top position, so the CZs only
  /// sign the upper half being written anyway).
  void add_wire_plus_cz(int wire, std::uint64_t partner_pos_mask);

  /// A run of CZs given as position-pair masks (each mask = both
  /// endpoint position bits), one sign pass instead of `count` passes.
  void apply_cz_masks(const std::uint64_t* pair_masks, int count);

  /// The ordered composition of X- and Z-corrections folded to
  /// X^{xmask} with a Z-phase mask and an overall sign, one pass instead
  /// of one per correction.  Masks are position masks; `negate` carries
  /// the anticommutation sign the sequential order would have produced.
  void apply_pauli_masks(std::uint64_t xmask, std::uint64_t zmask,
                         bool negate);

  /// The paper's gadget step fused end to end: prepare `wire` in |+> at
  /// the top position, CZ it against partner_pos_mask, and measure it in
  /// `basis` — without ever materializing the doubled register.  The
  /// upper amplitude half is ±(scaled lower half), so probabilities,
  /// projections and the collapsed state are computed straight from the
  /// untouched register: the whole N;E...;M block costs one pass at the
  /// SMALL dimension.  A sampled gadget takes its draw first (EarlyDraw)
  /// and projects the guessed outcome.  In a YZ or Z basis
  /// (basis(0,0) == basis(1,1), basis(0,1) == basis(1,0)) the two
  /// outcomes swap the effects of a ±low pair, so their projections are
  /// equal in magnitude element by element and their folds equal bit
  /// for bit; it re-projects only when the guess was wrong, i.e. when u
  /// lies within rounding of 1/2.  Other bases project outcome 1 and
  /// re-project when the draw gives 0 (1.5 passes on average).
  /// Contract matches measure_remove.
  int prep_cz_measure(int wire, std::uint64_t partner_pos_mask,
                      const Matrix& basis, Rng& rng, int forced = -1);

  /// The teleport step fused end to end: prepare `new_wire` in |+> at
  /// the top position, CZ it against partner_pos_mask, then measure
  /// `meas_wire` (a DIFFERENT, live wire) in `basis`.  Again the doubled
  /// register never exists — the virtual upper half is ±(scaled lower
  /// half), so the collapse reads the untouched register directly and
  /// writes the final (same-sized) state in one pass, which also folds
  /// the Born denominator when sampling.  A sampled teleport takes its
  /// draw first and projects the guessed outcome when the other
  /// outcome's fold comes from the same pass: an XY or X basis
  /// (basis(0,0) == basis(0,1), basis(1,1) == −basis(1,0)), meas_wire
  /// among the CZ partners (every J step), and a chunked register (see
  /// thr::teleport_collapse_with_total).  Then it re-projects only when
  /// the guess was wrong; otherwise it projects outcome 1 and
  /// re-projects when the draw gives 0.  After the call
  /// `meas_wire` is gone and `new_wire` is live at the top position,
  /// exactly as the sequential chain would leave them.
  int prep_cz_teleport_measure(int new_wire, std::uint64_t partner_pos_mask,
                               int meas_wire, const Matrix& basis, Rng& rng,
                               int forced = -1);

  /// Probability that measuring `wire` in `basis` yields 1.
  real prob_one(int wire, const Matrix& basis) const;

  /// Precomputed readout gather: source bit position per output bit plus
  /// the Gray-walk flip table that advances the source index with one
  /// lookup per element.  fill_gather_table into a caller-owned table is
  /// allocation-free once the table has its steady-state capacity, which
  /// is what lets PatternExecutor::run_sample keep the documented
  /// zero-steady-state-allocation contract.
  struct GatherTable {
    std::vector<int> src;
    std::vector<std::uint64_t> flip;
  };

  /// Resolve `wires` (each live wire exactly once) against the CURRENT
  /// layout into `table`.  Reuses the table's storage.
  void fill_gather_table(const std::vector<int>& wires,
                         GatherTable& table) const;

  /// Amplitudes reordered so that wires[i] maps to bit i; every live wire
  /// must appear exactly once.  Use this to compare against a fixed-order
  /// reference state.
  std::vector<cplx> state_in_order(const std::vector<int>& wires) const;
  std::vector<cplx> state_in_order(const GatherTable& table) const;

  /// Cumulative Born walk over the state_in_order(wires) amplitudes
  /// WITHOUT materializing the copy: subtracts |amp|² from u in gathered
  /// order and returns the first index where u drops to <= 0 (the last
  /// index if it never does).  Bit-identical to walking the gathered
  /// vector, minus its allocation — the per-shot readout fast path.
  std::uint64_t sample_in_order(const std::vector<int>& wires, real u) const;
  std::uint64_t sample_in_order(const GatherTable& table, real u) const;

  /// Σ_j |amp_j|² · diag[j ^ flip] over the state_in_order(table)
  /// amplitudes in ascending j, WITHOUT materializing the copy: the
  /// expectation of a diagonal observable under an X-flip of the
  /// readout (a cost table and a byproduct mask).  Bit-identical to the
  /// same serial fold over the gathered vector, amplitudes widened to
  /// cplx before squaring.  diag must hold dim() entries.
  real expectation_in_order(const GatherTable& table,
                            const std::vector<real>& diag,
                            std::uint64_t flip) const;

  real norm() const;
  void normalize();

 private:
  int position(int wire) const;
  void set_position(int wire, int p);

  /// Apply a pending gain in place: one scale pass, leaving the values
  /// an eager renormalization would have left.  A no-op when none is
  /// pending.  Every mutator except the two fused measures calls it
  /// first.
  void settle();
  /// Record R(1/√nrm2) as the pending gain of the state a fused
  /// measure just collapsed.
  template <class R>
  void defer_gain(R nrm2);

  /// Active amplitude / scratch storage for element type R.  The class
  /// is runtime-polymorphic over precision (one enum member, two buffer
  /// pairs — only the pair matching prec_ is ever non-empty); the hot
  /// paths are member templates in the .cpp dispatched through these.
  template <class R>
  std::vector<std::complex<R>>& amps() noexcept {
    if constexpr (std::is_same_v<R, double>)
      return amps_;
    else
      return amps32_;
  }
  template <class R>
  const std::vector<std::complex<R>>& amps() const noexcept {
    if constexpr (std::is_same_v<R, double>)
      return amps_;
    else
      return amps32_;
  }
  template <class R>
  std::vector<std::complex<R>>& scratch() noexcept {
    if constexpr (std::is_same_v<R, double>)
      return scratch_;
    else
      return scratch32_;
  }

  template <class R>
  void reset_impl();
  template <class R>
  void settle_impl();
  template <class R>
  void add_wire_impl(bool plus);
  template <class R>
  void apply_1q_impl(int q, const Matrix& u);
  template <class R>
  void apply_x_impl(std::uint64_t xmask);
  template <class R>
  void sign_pass_impl(std::uint64_t eq_mask, std::uint64_t par_mask,
                      bool negate);
  template <class R>
  void pauli_swap_impl(std::uint64_t xmask, std::uint64_t zmask,
                       std::uint64_t eq_mask, bool negate);
  template <class R>
  void add_plus_cz_impl(std::uint64_t partner_pos_mask);
  template <class R>
  void cz_masks_impl(const std::uint64_t* pair_masks, int count);
  template <class R>
  int prep_cz_measure_impl(std::uint64_t partner_pos_mask, const Matrix& basis,
                           Rng& rng, int forced, int wire);
  template <class R>
  int teleport_measure_impl(std::uint64_t partner_pos_mask, int q,
                            const Matrix& basis, Rng& rng, int forced,
                            int meas_wire);
  template <class R>
  real prob_one_impl(int q, const Matrix& basis) const;
  template <class R>
  int measure_remove_impl(int q, const Matrix& basis, Rng& rng, int forced,
                          int wire);
  template <class R>
  std::vector<cplx> state_in_order_impl(const GatherTable& table) const;
  template <class R>
  std::uint64_t sample_in_order_impl(const GatherTable& table, real u) const;
  template <class R>
  real expectation_in_order_impl(const GatherTable& table,
                                 const std::vector<real>& diag,
                                 std::uint64_t flip) const;
  template <class R>
  real norm_impl() const;
  template <class R>
  void normalize_impl();

  Precision prec_ = Precision::F64;
  std::vector<cplx> amps_;
  std::vector<cplx> scratch_;  // measure_remove ping-pong buffer
  std::vector<cplxf> amps32_;    // f32 storage (prec_ == F32 only)
  std::vector<cplxf> scratch32_;
  std::vector<int> order_;     // wire id per bit position
  // wire id -> bit position, -1 = not live.  A flat vector instead of a
  // hash map: position() is on every kernel's setup path, and map node
  // churn was the last steady-state allocation in the shot loop.
  std::vector<std::int32_t> pos_;
  int peak_live_ = 0;

  // The deferred renormalization of the last fused measure: the stored
  // amplitudes are the raw projections y, and the state is y·g with
  // g = R(1/√|y|²) rounded once per element.  The next fused measure
  // reads (y·g)·s in its kernels, exactly the two roundings a scale
  // pass and its own ·s would perform.  Const readers (state_in_order,
  // sample_in_order, expectation_in_order, norm, prob_one) apply g the
  // same way without mutating; every other mutator settles first.
  // gain_ is 1 (exact) when nothing is pending, so readers and kernels
  // apply it unconditionally.  Stored widened; R(gain_) is exact.
  real gain_ = 1.0;
  bool gain_pending_ = false;
};

}  // namespace mbq
