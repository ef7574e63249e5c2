//===- chc/ChcCheck.cpp - Clause validity checking -------------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "chc/ChcCheck.h"

#include "support/FileCache.h"
#include "support/Timer.h"

#include <cassert>
#include <cstdlib>

using namespace la;
using namespace la::chc;
using smt::SmtResult;
using smt::SmtSolver;

ClauseCheckResult chc::checkClause(const ChcSystem &System,
                                   const HornClause &Clause,
                                   const Interpretation &Interp,
                                   const SmtSolver::Options &Opts) {
  TermManager &TM = System.termManager();
  std::vector<const Term *> Parts{Clause.Constraint};
  for (const PredApp &App : Clause.Body)
    Parts.push_back(Interp.instantiate(App));
  const Term *Head = Clause.HeadPred ? Interp.instantiate(*Clause.HeadPred)
                                     : Clause.HeadFormula;
  Parts.push_back(TM.mkNot(Head));

  SmtSolver Solver(TM, Opts);
  Solver.assertFormula(TM.mkAnd(std::move(Parts)));
  ClauseCheckResult Result;
  switch (Solver.check()) {
  case SmtResult::Unsat:
    Result.Status = ClauseStatus::Valid;
    break;
  case SmtResult::Sat:
    Result.Status = ClauseStatus::Invalid;
    Result.Model = Solver.model();
    break;
  case SmtResult::Unknown:
    Result.Status = ClauseStatus::Unknown;
    break;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// ClauseCheckContext: per-clause solver reuse + system-wide memo cache
//===----------------------------------------------------------------------===//

ClauseCheckContext::ClauseCheckContext(const ChcSystem &System,
                                       SmtSolver::Options Opts,
                                       size_t CacheCapacity,
                                       std::shared_ptr<FileCache> Persistent)
    : System(System), Opts(Opts), CacheCapacity(CacheCapacity),
      CrossCheck(std::getenv("LA_CHECK_INCREMENTAL") != nullptr),
      Persistent(std::move(Persistent)) {
  Solvers.resize(System.clauses().size());
  // The disk key must survive process boundaries, so it hashes the printed
  // system instead of this manager's term ids. Computed once per context.
  if (this->Persistent)
    SystemHash = FileCache::hashKey(System.toString());
}

SmtSolver &ClauseCheckContext::solverFor(size_t ClauseIndex) {
  std::unique_ptr<SmtSolver> &Slot = Solvers[ClauseIndex];
  if (Slot) {
    ++Statistics.RebuildsAvoided;
    return *Slot;
  }
  ++Statistics.SolverRebuilds;
  TermManager &TM = System.termManager();
  const HornClause &Clause = System.clauses()[ClauseIndex];
  Slot = std::make_unique<SmtSolver>(TM, Opts);
  // Scope zero: the interpretation-independent clause skeleton. Asserting
  // the constraint also interns every clause variable, so later scopes hit
  // the existing simplex columns.
  Slot->assertFormula(Clause.Constraint);
  if (!Clause.HeadPred)
    Slot->assertFormula(TM.mkNot(Clause.HeadFormula));
  return *Slot;
}

std::string ClauseCheckContext::cacheKey(size_t ClauseIndex,
                                         const Interpretation &Interp) const {
  // Interpretation formulas are hash-consed, so their term ids identify
  // them; the key lists the interpretation of every predicate occurrence in
  // clause order (body applications, then the head).
  const HornClause &Clause = System.clauses()[ClauseIndex];
  std::string Key = std::to_string(ClauseIndex);
  for (const PredApp &App : Clause.Body)
    Key += ":" + std::to_string(Interp.get(App.Pred)->id());
  if (Clause.HeadPred)
    Key += ">" + std::to_string(Interp.get(Clause.HeadPred->Pred)->id());
  return Key;
}

std::string ClauseCheckContext::diskKey(size_t ClauseIndex,
                                        const Interpretation &Interp) const {
  // Process-independent analogue of cacheKey: term ids are private to one
  // TermManager, so the disk tier hashes the printed interpretation
  // formulas (deterministic rendering) under the canonical system hash.
  const HornClause &Clause = System.clauses()[ClauseIndex];
  std::string Rendered;
  for (const PredApp &App : Clause.Body)
    Rendered += Interp.get(App.Pred)->toString() + "\x1f";
  if (Clause.HeadPred)
    Rendered += ">" + Interp.get(Clause.HeadPred->Pred)->toString();
  return "c1|" + SystemHash + "|" + std::to_string(ClauseIndex) + "|" +
         FileCache::hashKey(Rendered);
}

void ClauseCheckContext::memoize(std::string Key,
                                 const ClauseCheckResult &Result) {
  auto [Slot, Inserted] = Cache.try_emplace(Key);
  if (!Inserted) {
    // Re-insertion of a live key (possible when a crosscheck re-ran the
    // clause): refresh the stored verdict and its recency; this is not an
    // eviction.
    Slot->second.Result = Result;
    LruList.splice(LruList.end(), LruList, Slot->second.LruPos);
    return;
  }
  if (Cache.size() > CacheCapacity && !LruList.empty()) {
    Cache.erase(LruList.front());
    LruList.pop_front();
    ++Statistics.CacheEvictions;
  }
  Slot->second.Result = Result;
  Slot->second.LruPos = LruList.insert(LruList.end(), std::move(Key));
}

void ClauseCheckContext::crossCheckVerdict(
    size_t ClauseIndex, const Interpretation &Interp,
    const ClauseCheckResult &Incremental) const {
  const HornClause &Clause = System.clauses()[ClauseIndex];
  ClauseCheckResult OneShot = checkClause(System, Clause, Interp, Opts);
  // Unknown is budget-dependent, so only definite verdicts must agree.
  if (Incremental.Status == ClauseStatus::Unknown ||
      OneShot.Status == ClauseStatus::Unknown)
    return;
  assert(Incremental.Status == OneShot.Status &&
         "incremental and one-shot clause checks disagree");
  if (Incremental.Status != ClauseStatus::Invalid)
    return;
  // The incremental model must genuinely violate the clause.
  TermManager &TM = System.termManager();
  std::vector<const Term *> Parts{Clause.Constraint};
  for (const PredApp &App : Clause.Body)
    Parts.push_back(Interp.instantiate(App));
  const Term *Head = Clause.HeadPred ? Interp.instantiate(*Clause.HeadPred)
                                     : Clause.HeadFormula;
  Parts.push_back(TM.mkNot(Head));
  const Term *Negation = TM.mkAnd(std::move(Parts));
  std::unordered_map<const Term *, Rational> Extended = Incremental.Model;
  std::vector<const Term *> Stack{Negation};
  while (!Stack.empty()) {
    const Term *Node = Stack.back();
    Stack.pop_back();
    if (Node->kind() == TermKind::Var && !Extended.count(Node))
      Extended.emplace(Node, Rational(0));
    for (const Term *Op : Node->operands())
      Stack.push_back(Op);
  }
  assert(evalFormula(Negation, Extended) &&
         "incremental model does not violate the clause");
  (void)Negation;
}

ClauseCheckResult ClauseCheckContext::check(size_t ClauseIndex,
                                            const Interpretation &Interp) {
  assert(ClauseIndex < System.clauses().size() && "clause index out of range");
  const HornClause &Clause = System.clauses()[ClauseIndex];
  TermManager &TM = System.termManager();

  // Cancellation checkpoint: a cancelled solve must not open new solver
  // scopes or pollute the memo cache; like any Unknown, this verdict is
  // budget-dependent and is never cached.
  if (isCancelled(Opts.Cancel))
    return ClauseCheckResult{};

  std::string Key = cacheKey(ClauseIndex, Interp);
  auto Hit = Cache.find(Key);
  if (Hit != Cache.end()) {
    ++Statistics.CacheHits;
    // Touch-on-hit: move the key to the most-recent end of the LRU list.
    LruList.splice(LruList.end(), LruList, Hit->second.LruPos);
    return Hit->second.Result;
  }
  ++Statistics.CacheMisses;

  // Persistent tier: only Valid verdicts live on disk (they carry no model,
  // so a one-line record fully reproduces the result). A hit is promoted
  // back into the in-memory LRU.
  std::string DKey;
  if (Persistent) {
    DKey = diskKey(ClauseIndex, Interp);
    std::string Stored;
    if (Persistent->lookup(DKey, Stored) && Stored == "valid") {
      ++Statistics.DiskHits;
      ClauseCheckResult FromDisk;
      FromDisk.Status = ClauseStatus::Valid;
      memoize(std::move(Key), FromDisk);
      return FromDisk;
    }
    ++Statistics.DiskMisses;
  }

  // One SMT cap per clause check: the sub-checks of a split conjunction
  // head share it rather than getting it each. A solver built under an
  // earlier cap takes the current one.
  SmtSolver &Solver = solverFor(ClauseIndex);
  Solver.setTimeout(Opts.TimeoutSeconds);
  Deadline CheckClock(Opts.TimeoutSeconds);
  Solver.push();
  ++Statistics.ScopePushes;
  for (const PredApp &App : Clause.Body)
    Solver.assertFormula(Interp.instantiate(App));

  // Conjunction heads are checked conjunct by conjunct: `body -> /\ c_j` is
  // one obligation per conjunct, and k queries with a single negated atom
  // each are far easier on the solver than one query whose negated head is
  // a k-way disjunction multiplied into a wide clause constraint (the
  // scalability family's branch cascades time out on the monolithic
  // negation but discharge in milliseconds per conjunct). Semantically
  // identical: the negation is satisfiable iff some `body /\ !c_j` is.
  const Term *Head =
      Clause.HeadPred ? Interp.instantiate(*Clause.HeadPred) : nullptr;
  ClauseCheckResult Result;
  if (Head && Head->kind() == TermKind::And) {
    ++Statistics.ConjunctSplits;
    Result.Status = ClauseStatus::Valid;
    for (const Term *Conjunct : Head->operands()) {
      // Read the clock once: a cap of 0 would mean unlimited, not expired.
      double Left = CheckClock.remainingSeconds();
      if (isCancelled(Opts.Cancel) || Left <= 0) {
        Result = ClauseCheckResult{}; // Unknown: budget expired mid-split
        break;
      }
      if (CheckClock.hasLimit())
        Solver.setTimeout(Left);
      Solver.push();
      ++Statistics.ScopePushes;
      Solver.assertFormula(TM.mkNot(Conjunct));
      ++Statistics.ChecksIssued;
      SmtResult R = Solver.check();
      if (R == SmtResult::Sat) {
        Result.Status = ClauseStatus::Invalid;
        Result.Model = Solver.model();
      }
      Solver.pop();
      if (R == SmtResult::Sat)
        break;
      if (R == SmtResult::Unknown) {
        Result.Status = ClauseStatus::Unknown;
        Result.Model.clear();
        break;
      }
      // `body -> Conjunct` just proved valid, so the conjunct is entailed
      // and asserting it positively is sound. It prunes the later (harder)
      // sub-checks: the cheap unary bounds land first and fence the search
      // space of the relational conjuncts rendered after them.
      Solver.assertFormula(Conjunct);
    }
  } else {
    if (Head)
      Solver.assertFormula(TM.mkNot(Head));
    ++Statistics.ChecksIssued;
    switch (Solver.check()) {
    case SmtResult::Unsat:
      Result.Status = ClauseStatus::Valid;
      break;
    case SmtResult::Sat:
      Result.Status = ClauseStatus::Invalid;
      Result.Model = Solver.model();
      break;
    case SmtResult::Unknown:
      Result.Status = ClauseStatus::Unknown;
      break;
    }
  }
  Solver.pop();

  if (CrossCheck)
    crossCheckVerdict(ClauseIndex, Interp, Result);

  if (Result.Status == ClauseStatus::Unknown) {
    // Budget-dependent: never cache, and start the next attempt on this
    // clause from a fresh solver (the failed search may have bloated the
    // clause database with split atoms).
    Solvers[ClauseIndex].reset();
    return Result;
  }

  memoize(std::move(Key), Result);
  if (Persistent && Result.Status == ClauseStatus::Valid) {
    Persistent->store(DKey, "valid");
    ++Statistics.DiskStores;
  }
  return Result;
}

ClauseStatus ClauseCheckContext::checkAll(const Interpretation &Interp) {
  bool SawUnknown = false;
  for (size_t I = 0; I < System.clauses().size(); ++I) {
    ClauseCheckResult R = check(I, Interp);
    if (R.Status == ClauseStatus::Invalid)
      return ClauseStatus::Invalid;
    SawUnknown |= R.Status == ClauseStatus::Unknown;
  }
  return SawUnknown ? ClauseStatus::Unknown : ClauseStatus::Valid;
}

Rational chc::evalWithDefaults(
    const Term *T, const std::unordered_map<const Term *, Rational> &Model) {
  std::unordered_map<const Term *, Rational> Extended = Model;
  std::vector<const Term *> Stack{T};
  while (!Stack.empty()) {
    const Term *Node = Stack.back();
    Stack.pop_back();
    if (Node->kind() == TermKind::Var && !Extended.count(Node))
      Extended.emplace(Node, Rational(0));
    for (const Term *Op : Node->operands())
      Stack.push_back(Op);
  }
  return evalTerm(T, Extended);
}

ClauseStatus chc::checkInterpretation(const ChcSystem &System,
                                      const Interpretation &Interp,
                                      const SmtSolver::Options &Opts) {
  bool SawUnknown = false;
  for (const HornClause &Clause : System.clauses()) {
    ClauseCheckResult R = checkClause(System, Clause, Interp, Opts);
    if (R.Status == ClauseStatus::Invalid)
      return ClauseStatus::Invalid;
    SawUnknown |= R.Status == ClauseStatus::Unknown;
  }
  return SawUnknown ? ClauseStatus::Unknown : ClauseStatus::Valid;
}

std::string Counterexample::toString(const ChcSystem &System) const {
  (void)System;
  std::string Out = "counterexample derivation (query clause #" +
                    std::to_string(QueryClauseIndex) + "):\n";
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    Out += "  [" + std::to_string(I) + "] " + N.Pred->Name + "(";
    for (size_t J = 0; J < N.Args.size(); ++J)
      Out += (J ? ", " : "") + N.Args[J].toString();
    Out += ") via clause #" + std::to_string(N.ClauseIndex);
    if (!N.Children.empty()) {
      Out += " from";
      for (size_t C : N.Children)
        Out += " [" + std::to_string(C) + "]";
    }
    Out += "\n";
  }
  return Out;
}

/// Builds the formula "clause instance matches the given ground facts".
static const Term *
instanceFormula(TermManager &TM, const HornClause &Clause,
                const std::vector<const Counterexample::Node *> &BodyFacts,
                const Counterexample::Node *HeadFact) {
  std::vector<const Term *> Parts{Clause.Constraint};
  assert(BodyFacts.size() == Clause.Body.size() && "body arity mismatch");
  for (size_t I = 0; I < Clause.Body.size(); ++I) {
    const PredApp &App = Clause.Body[I];
    assert(BodyFacts[I]->Pred == App.Pred && "body predicate mismatch");
    for (size_t J = 0; J < App.Args.size(); ++J)
      Parts.push_back(TM.mkEq(
          App.Args[J], TM.mkIntConst(BodyFacts[I]->Args[J])));
  }
  if (HeadFact) {
    assert(Clause.HeadPred && HeadFact->Pred == Clause.HeadPred->Pred &&
           "head predicate mismatch");
    for (size_t J = 0; J < Clause.HeadPred->Args.size(); ++J)
      Parts.push_back(TM.mkEq(Clause.HeadPred->Args[J],
                              TM.mkIntConst(HeadFact->Args[J])));
  }
  return TM.mkAnd(std::move(Parts));
}

bool chc::validateCounterexample(const ChcSystem &System,
                                 const Counterexample &Cex) {
  TermManager &TM = System.termManager();
  auto Satisfiable = [&](const Term *F) {
    SmtSolver Solver(TM);
    Solver.assertFormula(F);
    return Solver.check() == SmtResult::Sat;
  };

  // Each node must be derivable from its children through its clause.
  for (const Counterexample::Node &N : Cex.Nodes) {
    if (N.ClauseIndex >= System.clauses().size())
      return false;
    const HornClause &Clause = System.clauses()[N.ClauseIndex];
    if (!Clause.HeadPred || Clause.HeadPred->Pred != N.Pred)
      return false;
    if (N.Children.size() != Clause.Body.size())
      return false;
    std::vector<const Counterexample::Node *> BodyFacts;
    for (size_t C : N.Children) {
      if (C >= Cex.Nodes.size())
        return false;
      BodyFacts.push_back(&Cex.Nodes[C]);
    }
    if (!Satisfiable(instanceFormula(TM, Clause, BodyFacts, &N)))
      return false;
  }

  // The query clause must be violated by the root facts.
  if (Cex.QueryClauseIndex >= System.clauses().size())
    return false;
  const HornClause &Query = System.clauses()[Cex.QueryClauseIndex];
  if (!Query.isQuery())
    return false;
  if (Cex.QueryChildren.size() != Query.Body.size())
    return false;
  std::vector<const Counterexample::Node *> BodyFacts;
  for (size_t C : Cex.QueryChildren) {
    if (C >= Cex.Nodes.size())
      return false;
    BodyFacts.push_back(&Cex.Nodes[C]);
  }
  const Term *Violation =
      TM.mkAnd(instanceFormula(TM, Query, BodyFacts, nullptr),
               TM.mkNot(Query.HeadFormula));
  return Satisfiable(Violation);
}
