#pragma once
// Measurement-based adapter ("mbqc" / "mbqc-classical").
//
// Compiles the workload into the paper's deterministic adaptive pattern
// (Sec. III) and executes it on the dynamic statevector runner.  Because
// the pattern is deterministic, expectation() needs a single adaptive
// run, whose output distribution it folds against the workload's shared
// cost table (Workload::cost_table(), built on first use; 2^n doubles);
// sample() re-executes the full protocol per shot, exactly as hardware
// would, and never builds the table.  CorrectionMode selects between
// quantum terminal corrections and classical post-processing of the X
// byproduct parities (Z byproducts do not affect computational-basis
// statistics; in classical mode expectation() reads the table at the
// byproduct-flipped index).

#include "mbq/api/backend.h"
#include "mbq/core/compiler.h"

namespace mbq::api {

class MbqcBackend final : public Backend {
 public:
  explicit MbqcBackend(
      core::CorrectionMode mode = core::CorrectionMode::Quantum)
      : mode_(mode) {}

  core::CorrectionMode mode() const noexcept { return mode_; }

  std::string name() const override;
  Capabilities capabilities() const override;

  std::shared_ptr<const Prepared> prepare(const Workload& w,
                                          const qaoa::Angles& a) const override;
  real expectation(const Workload& w, const qaoa::Angles& a, Rng& rng,
                   const Prepared* prep) const override;
  std::uint64_t sample_one(const Workload& w, const qaoa::Angles& a, Rng& rng,
                           const Prepared* prep) const override;

 private:
  core::CorrectionMode mode_;
};

}  // namespace mbq::api
