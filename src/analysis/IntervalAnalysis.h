//===- analysis/IntervalAnalysis.h - Interval domain over CHCs --*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-relational interval/constant abstract domain over CHC systems:
/// each predicate argument position is abstracted by one `Interval`, and the
/// clause-wise transfer function propagates body-argument intervals through
/// the clause constraint (conjunctions, one level of disjunction, and linear
/// atoms with integer tightening) into the head-argument terms. The fixpoint
/// strategy (sweeps, delayed widening, narrowing) lives in the shared
/// domain-parametric driver, `analysis/FixpointEngine.h`.
///
/// The result is a *candidate* over-approximation: the pass pipeline
/// (`analysis/PassManager.h`) re-verifies every emitted invariant with
/// `chc::checkClause` before anything downstream may trust it.
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_INTERVALANALYSIS_H
#define LA_ANALYSIS_INTERVALANALYSIS_H

#include "analysis/AnalysisContext.h"

#include <optional>
#include <string>
#include <vector>

namespace la::analysis {

/// The interval abstract domain: one `Interval` per argument position.
/// Implements the `AbstractDomain` concept (`analysis/AbstractDomain.h`).
class IntervalDomain {
public:
  using Value = std::vector<Interval>;

  std::string name() const { return "intervals"; }
  Value bottom(const chc::Predicate *P) const {
    return Value(P->arity(), Interval::empty());
  }
  Value top(const chc::Predicate *P) const {
    return Value(P->arity(), Interval::top());
  }
  std::optional<Value>
  transfer(const chc::HornClause &C,
           const std::vector<DomainPredState<Value>> &States) const;
  bool join(Value &Into, const Value &From) const;
  void widen(Value &Into, const Value &Joined) const;
  bool narrow(Value &Into, const Value &Step) const;
  bool isTop(const Value &V) const;
  const Term *toInvariant(TermManager &TM, const chc::Predicate *P,
                          const Value &V) const;
};

static_assert(AbstractDomain<IntervalDomain>);

/// Runs the interval fixpoint over the live clauses of \p Ctx and returns
/// one state per predicate index (`Ctx` itself is not modified; the caller
/// decides where the states go).
std::vector<IntervalState>
runIntervalAnalysis(const AnalysisContext &Ctx,
                    FixpointTelemetry *Telemetry = nullptr);

/// Renders a state with the uniform cross-domain convention of
/// `domainInvariant`: `false` for bottom, nullptr for top (no finite bound
/// anywhere), otherwise a conjunction of bound atoms over `P->Params`.
const Term *intervalInvariant(TermManager &TM, const chc::Predicate *P,
                              const IntervalState &State);

} // namespace la::analysis

#endif // LA_ANALYSIS_INTERVALANALYSIS_H
