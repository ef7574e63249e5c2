//===- chc/ChcCheck.h - Clause validity checking ----------------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discharging interpreted clauses with the SMT solver: the `Z3Check` /
/// `Z3Model` side of Algorithm 3, plus end-to-end witness checking
/// (interpretations and counterexample derivation trees).
///
//===----------------------------------------------------------------------===//

#ifndef LA_CHC_CHCCHECK_H
#define LA_CHC_CHCCHECK_H

#include "chc/Chc.h"
#include "smt/SmtSolver.h"

#include <list>
#include <memory>

namespace la {
class FileCache;
}

namespace la::chc {

/// Verdict for one clause under an interpretation.
enum class ClauseStatus { Valid, Invalid, Unknown };

/// Result of checking one clause; on Invalid the model witnesses the
/// violation (an assignment of the clause variables).
struct ClauseCheckResult {
  ClauseStatus Status = ClauseStatus::Unknown;
  std::unordered_map<const Term *, Rational> Model;
};

/// Checks `Constraint /\ /\_i A(p_i)(T_i) -> A(head)` by deciding the
/// satisfiability of its negation. One-shot reference path: builds a fresh
/// solver per call. Hot callers should use ClauseCheckContext instead.
ClauseCheckResult checkClause(const ChcSystem &System, const HornClause &Clause,
                              const Interpretation &Interp,
                              const smt::SmtSolver::Options &Opts = {});

/// Counters for the incremental clause-check backend, shared by the CEGAR
/// loop, the analysis verify pass and the baselines.
struct CheckStats {
  uint64_t ChecksIssued = 0;    ///< checks actually sent to an SMT solver
  uint64_t CacheHits = 0;       ///< verdicts served from the memo cache
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;  ///< LRU evictions at capacity
  uint64_t ScopePushes = 0;     ///< solver scopes opened for checks
  uint64_t SolverRebuilds = 0;  ///< per-clause solver (re)constructions
  uint64_t RebuildsAvoided = 0; ///< checks served by a live per-clause solver
  uint64_t ConjunctSplits = 0;  ///< checks decomposed conjunct-by-conjunct
  uint64_t DiskHits = 0;        ///< verdicts served from the persistent tier
  uint64_t DiskMisses = 0;      ///< persistent-tier lookups that missed
  uint64_t DiskStores = 0;      ///< verdicts written to the persistent tier

  void merge(const CheckStats &O) {
    ChecksIssued += O.ChecksIssued;
    CacheHits += O.CacheHits;
    CacheMisses += O.CacheMisses;
    CacheEvictions += O.CacheEvictions;
    ScopePushes += O.ScopePushes;
    SolverRebuilds += O.SolverRebuilds;
    RebuildsAvoided += O.RebuildsAvoided;
    ConjunctSplits += O.ConjunctSplits;
    DiskHits += O.DiskHits;
    DiskMisses += O.DiskMisses;
    DiskStores += O.DiskStores;
  }
};

/// Incremental clause-check backend (the `Z3Check` of Algorithm 3, made
/// persistent). Keeps one SmtSolver per clause for the lifetime of a solve:
/// the interpretation-independent part of the clause (constraint, and the
/// negated head formula of queries) is asserted once at scope zero; each
/// check then pushes a scope, asserts only the current interpretation's
/// predicate formulas, checks, extracts the model, and pops. A system-wide
/// LRU memo cache keyed by (clause index, hash-consed interpretation term
/// ids) makes repeated candidate interpretations — common across DT/SVM
/// restarts and analysis fixpoints — free; a hit refreshes the entry's
/// recency, so hot keys survive capacity evictions. Unknown verdicts are
/// never cached (they
/// are budget-dependent) and drop the per-clause solver so the next attempt
/// starts fresh.
///
/// With the environment variable LA_CHECK_INCREMENTAL set, every non-cached
/// verdict is replayed on the one-shot path and asserted to agree
/// verdict-for-verdict (and Invalid models are re-evaluated on the clause).
///
/// An optional persistent tier (a shared `FileCache`) sits under the memo
/// cache: Valid verdicts — the only ones that carry no model — are written
/// to disk under a process-independent key (canonical hash of the printed
/// system + clause index + hash of the printed interpretation formulas),
/// so repeated solves of the same system across daemon restarts skip their
/// SMT checks entirely. In-memory misses consult the disk tier before the
/// solver; disk hits are promoted back into the LRU.
class ClauseCheckContext {
public:
  explicit ClauseCheckContext(const ChcSystem &System,
                              smt::SmtSolver::Options Opts = {},
                              size_t CacheCapacity = 1 << 14,
                              std::shared_ptr<FileCache> Persistent = nullptr);

  /// Checks clause \p ClauseIndex of the system under \p Interp.
  ClauseCheckResult check(size_t ClauseIndex, const Interpretation &Interp);

  /// Checks every clause; Valid only when all clauses are valid.
  ClauseStatus checkAll(const Interpretation &Interp);

  /// Replaces the SMT wall-clock cap (0 = unlimited) of later checks,
  /// including those on per-clause solvers built earlier. The cap bounds
  /// one check() call, however many sub-checks a conjunction head splits
  /// into.
  void setTimeout(double Seconds) { Opts.TimeoutSeconds = Seconds; }

  const CheckStats &stats() const { return Statistics; }
  const ChcSystem &system() const { return System; }

private:
  smt::SmtSolver &solverFor(size_t ClauseIndex);
  std::string cacheKey(size_t ClauseIndex, const Interpretation &Interp) const;
  std::string diskKey(size_t ClauseIndex, const Interpretation &Interp) const;
  void memoize(std::string Key, const ClauseCheckResult &Result);
  void crossCheckVerdict(size_t ClauseIndex, const Interpretation &Interp,
                         const ClauseCheckResult &Incremental) const;

  const ChcSystem &System;
  smt::SmtSolver::Options Opts;
  size_t CacheCapacity;
  bool CrossCheck; ///< LA_CHECK_INCREMENTAL differential mode
  std::shared_ptr<FileCache> Persistent;
  std::string SystemHash; ///< canonical hash of the printed system
  std::vector<std::unique_ptr<smt::SmtSolver>> Solvers; ///< one per clause

  /// LRU recency list (least recent at the front) and the cache entries
  /// pointing back into it, so a hit can splice its key to the back in O(1).
  struct CacheEntry {
    ClauseCheckResult Result;
    std::list<std::string>::iterator LruPos;
  };
  std::list<std::string> LruList;
  std::unordered_map<std::string, CacheEntry> Cache;
  CheckStats Statistics;
};

/// Evaluates \p T under \p Model, defaulting unbound variables to 0 (the SMT
/// solver omits don't-care variables).
Rational evalWithDefaults(const Term *T,
                          const std::unordered_map<const Term *, Rational> &Model);

/// Checks every clause; returns Valid only if all clauses are valid (the
/// full soundness check used by tests and the harness on solver output).
ClauseStatus checkInterpretation(const ChcSystem &System,
                                 const Interpretation &Interp,
                                 const smt::SmtSolver::Options &Opts = {});

/// A counterexample to satisfiability: a derivation tree of ground predicate
/// facts ending in a violated query clause (paper §4.2, line 15).
struct Counterexample {
  struct Node {
    const Predicate *Pred = nullptr;
    std::vector<Rational> Args;
    /// Clause whose instantiation derives this fact; children are the body
    /// predicate applications in order.
    size_t ClauseIndex = 0;
    std::vector<size_t> Children; ///< Indices into Nodes.
  };
  std::vector<Node> Nodes;
  /// The violated query clause and the derivation-node index for each body
  /// application of that clause.
  size_t QueryClauseIndex = 0;
  std::vector<size_t> QueryChildren;

  std::string toString(const ChcSystem &System) const;
};

/// Replays a counterexample: every node's fact must be derivable from its
/// children via its clause, and the query clause must be violated by the
/// root facts. Returns true when the tree is a genuine refutation.
bool validateCounterexample(const ChcSystem &System, const Counterexample &Cex);

} // namespace la::chc

#endif // LA_CHC_CHCCHECK_H
