//===- smt/SmtSolver.h - CDCL(T) solver for linear integer arith -*- C++ -*-=//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SMT entry points the paper assumes from Z3 (§4.2): `Z3Check` is
/// `SmtSolver::check`, `Z3Model` is `SmtSolver::model`, and `Z3Eval` is
/// `SmtSolver::evalInModel`. The solver decides quantifier-free linear
/// integer arithmetic with arbitrary boolean structure plus `mod` by a
/// positive constant:
///
///   * equalities are split into two inequalities;
///   * `mod` terms are lowered with fresh quotient/remainder variables;
///   * atoms are canonicalised, integer-tightened, and become bounds on
///     simplex slack variables;
///   * the boolean skeleton runs on the CDCL core with the simplex as the
///     theory; integrality is enforced by branch-and-bound case splits
///     injected as splitting-on-demand atoms.
///
/// The solver is incremental: push()/pop() open and close assertion scopes,
/// and assert/check may be interleaved freely. Scoped assertions are
/// encoded as *assumption literals* (decisions of the CDCL core), never as
/// clauses, so the clause database — Tseitin definitions, theory conflict
/// clauses, branch-and-bound lemmas and everything learnt — stays globally
/// valid across pop() and is retained. Tseitin gates, theory atoms and
/// simplex variables are interned once and persist for the lifetime of the
/// solver, so re-asserting a formula in a later scope reuses the existing
/// encoding and tableau rows. This matches the CHC solver's CEGAR loop:
/// assert the clause skeleton once, then push/check/pop per candidate
/// interpretation.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SMT_SMTSOLVER_H
#define LA_SMT_SMTSOLVER_H

#include "logic/LinearExpr.h"
#include "logic/Term.h"
#include "sat/SatSolver.h"
#include "smt/Simplex.h"
#include "support/Cancellation.h"

#include <memory>

namespace la::smt {

/// Verdict of an SMT query.
enum class SmtResult { Sat, Unsat, Unknown };

/// Incremental CDCL(T) solver for QF linear integer arithmetic.
class SmtSolver {
public:
  /// Options bounding the search; defaults are generous for CHC-sized VCs.
  /// The conflict/split/time budgets apply per check() call.
  struct Options {
    int64_t MaxConflicts = 200000;
    /// Cap on branch-and-bound case splits (guards unbounded integer VCs).
    int64_t MaxBranchSplits = 20000;
    /// Wall-clock cap per check() in seconds (0 = unlimited).
    double TimeoutSeconds = 10;
    /// Learnt clauses are kept across checks (they are implied by the
    /// permanent clauses), but a single check may keep at most this many of
    /// them; beyond it the clause database is shrunk back to its pre-check
    /// mark to bound memory over long CEGAR runs.
    size_t LearntCarryCap = 4096;
    /// Cooperative cancellation: polled at every theory check, so a
    /// portfolio loser aborts its in-flight check() (verdict Unknown)
    /// within one propagation round instead of running out its wall clock.
    std::shared_ptr<const CancellationToken> Cancel;
  };

  explicit SmtSolver(TermManager &TM) : SmtSolver(TM, Options{}) {}
  SmtSolver(TermManager &TM, Options Opts);
  ~SmtSolver();

  SmtSolver(const SmtSolver &) = delete;
  SmtSolver &operator=(const SmtSolver &) = delete;

  /// Adds \p F (Bool sort, no unknown-predicate applications) to the
  /// assertion set. Outside any scope the formula is asserted permanently;
  /// inside a scope it is retracted by the matching pop().
  void assertFormula(const Term *F);

  /// Opens an assertion scope.
  void push();

  /// Closes the innermost scope, retracting its assertions. The encodings
  /// (Tseitin gates, atoms, simplex rows) and all learnt clauses persist.
  void pop();

  size_t numScopes() const { return ScopeMarks.size(); }

  /// Replaces the wall-clock cap of later check() calls (0 = unlimited).
  void setTimeout(double Seconds) { Opts.TimeoutSeconds = Seconds; }

  /// Decides the conjunction of currently asserted formulas. May be called
  /// repeatedly, interleaved with assert/push/pop.
  SmtResult check();

  /// Model access; valid only after check() returned Sat. Every Int variable
  /// occurring in the assertions is mapped to an integer-valued Rational.
  const std::unordered_map<const Term *, Rational> &model() const;

  /// Evaluates a term under the current model, the `Z3Eval` analogue.
  /// Variables missing from the model (unconstrained) evaluate as 0.
  Rational evalInModel(const Term *T) const;

  /// Statistics for benchmarking. Counters are cumulative over the life of
  /// the solver.
  struct Stats {
    uint64_t NumAtoms = 0;
    uint64_t NumBranchSplits = 0;
    uint64_t Checks = 0;
    uint64_t ScopePushes = 0;
    uint64_t ScopePops = 0;
    uint64_t LearntDropped = 0; ///< learnt clauses shed by the carry cap
    sat::SatSolver::Stats Sat;
    Simplex::Stats SimplexStats;
  };
  Stats stats() const;

private:
  class TheoryBridge;

  const Term *lowerModAndEq(const Term *F);
  sat::Lit encode(const Term *F);
  sat::Lit atomLiteral(const Term *Atom);
  /// Registers the canonical atom `Expr <= 0` / `Expr < 0`; returns the
  /// positive literal of its SAT variable.
  sat::Lit registerAtom(const LinearAtom &Atom);
  Simplex::VarId simplexVarFor(const Term *Var);

  TermManager &TM;
  Options Opts;
  std::unique_ptr<TheoryBridge> Bridge;
  std::unique_ptr<sat::SatSolver> Sat;
  /// Gate literals of scoped assertions, enqueued as assumptions at check().
  std::vector<sat::Lit> Assumptions;
  /// Assumption-stack size at each push().
  std::vector<size_t> ScopeMarks;
  std::vector<const Term *> SideConstraints; ///< from mod lowering
  size_t SideCursor = 0; ///< side constraints already asserted
  std::unordered_map<const Term *, sat::Lit> EncodeCache;
  std::unordered_map<const Term *, const Term *> ModCache;
  std::unordered_map<std::string, sat::Lit> AtomCache;
  std::unordered_map<std::string, Simplex::VarId> SlackCache;
  std::unordered_map<const Term *, Simplex::VarId> VarOfTerm;
  std::vector<const Term *> IntVars; ///< registration order
  mutable std::unordered_map<const Term *, Rational> Model;
  bool RootUnsat = false; ///< a permanent assertion already failed
  uint64_t NumChecks = 0;
  uint64_t ScopePushes = 0;
  uint64_t ScopePops = 0;
  uint64_t CumulativeSplits = 0;
  uint64_t LearntDropped = 0;
};

/// Result of deciding a plain conjunction of linear atoms over rationals
/// (no integrality); used by the interpolation-based baselines.
struct ConjunctionResult {
  bool Sat = false;
  /// Model when Sat.
  std::unordered_map<const Term *, Rational> Model;
  /// Signed Farkas coefficients (indexed like the input atoms, zero when
  /// unused) when Unsat: sum coeff_i * Expr_i is a non-negative constant,
  /// positive unless some strict atom participates. Coefficients of Le/Lt
  /// atoms are non-negative; Eq atoms may contribute with either sign.
  std::vector<Rational> FarkasCoeffs;
};

/// Decides satisfiability of `Atoms` (conjunction) over the rationals with
/// exact arithmetic, returning a model or a Farkas certificate.
ConjunctionResult checkLinearConjunction(const std::vector<LinearAtom> &Atoms);

} // namespace la::smt

#endif // LA_SMT_SMTSOLVER_H
