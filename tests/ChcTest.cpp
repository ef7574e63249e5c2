//===- tests/ChcTest.cpp - CHC system and checking tests ------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "chc/ChcCheck.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace la;
using namespace la::chc;

namespace {

/// Builds the CHC system of Fig. 1 in the paper:
///   x = 1 /\ y = 0 -> p(x, y)
///   p(x, y) /\ x' = x + y /\ y' = y + 1 -> p(x', y')
///   p(x, y) /\ x' = x + y /\ y' = y + 1 -> x' >= y'
///   x = 1 /\ y = 0 -> x >= y
class Fig1System : public ::testing::Test {
protected:
  Fig1System() : System(TM) {
    P = System.addPredicate("p", 2);
    X = TM.mkVar("x");
    Y = TM.mkVar("y");
    XP = TM.mkVar("x'");
    YP = TM.mkVar("y'");

    const Term *Init =
        TM.mkAnd(TM.mkEq(X, TM.mkIntConst(1)), TM.mkEq(Y, TM.mkIntConst(0)));
    const Term *Step =
        TM.mkAnd(TM.mkEq(XP, TM.mkAdd(X, Y)),
                 TM.mkEq(YP, TM.mkAdd(Y, TM.mkIntConst(1))));

    HornClause C1;
    C1.Constraint = Init;
    C1.HeadPred = PredApp{P, {X, Y}};
    System.addClause(std::move(C1));

    HornClause C2;
    C2.Constraint = Step;
    C2.Body.push_back(PredApp{P, {X, Y}});
    C2.HeadPred = PredApp{P, {XP, YP}};
    System.addClause(std::move(C2));

    HornClause C3;
    C3.Constraint = Step;
    C3.Body.push_back(PredApp{P, {X, Y}});
    C3.HeadFormula = TM.mkGe(XP, YP);
    System.addClause(std::move(C3));

    HornClause C4;
    C4.Constraint = Init;
    C4.HeadFormula = TM.mkGe(X, Y);
    System.addClause(std::move(C4));
  }

  TermManager TM;
  ChcSystem System;
  const Predicate *P;
  const Term *X, *Y, *XP, *YP;
};

TEST_F(Fig1System, StructureQueries) {
  EXPECT_EQ(System.predicates().size(), 1u);
  EXPECT_TRUE(System.isRecursive());
  ASSERT_EQ(System.recursivePredicates().size(), 1u);
  EXPECT_EQ(System.recursivePredicates()[0], P);
  EXPECT_EQ(System.clausesWithHead(P), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(System.clausesUsing(P), (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(System.clauses()[0].isFact());
  EXPECT_FALSE(System.clauses()[1].isQuery());
  EXPECT_TRUE(System.clauses()[2].isQuery());
}

TEST_F(Fig1System, TrueInterpretationFailsQueryClause) {
  Interpretation A(TM);
  // With p := true, clause 3 is invalid: nothing prevents x' < y'.
  ClauseCheckResult R = checkClause(System, System.clauses()[2], A);
  EXPECT_EQ(R.Status, ClauseStatus::Invalid);
  // The model must witness the violation.
  const HornClause &C = System.clauses()[2];
  EXPECT_FALSE(evalFormula(C.HeadFormula, R.Model));
  EXPECT_TRUE(evalFormula(C.Constraint, R.Model));
}

TEST_F(Fig1System, PaperInvariantIsASolution) {
  // x >= 1 /\ y >= 0 (the invariant from the paper's introduction).
  Interpretation A(TM);
  A.set(P, TM.mkAnd(TM.mkGe(P->Params[0], TM.mkIntConst(1)),
                    TM.mkGe(P->Params[1], TM.mkIntConst(0))));
  EXPECT_EQ(checkInterpretation(System, A), ClauseStatus::Valid);
}

TEST_F(Fig1System, TooWeakAndTooStrongInterpretationsFail) {
  // x >= 0 alone is not inductive enough for the query clause.
  Interpretation Weak(TM);
  Weak.set(P, TM.mkGe(P->Params[0], TM.mkIntConst(0)));
  EXPECT_EQ(checkInterpretation(System, Weak), ClauseStatus::Invalid);
  // x = 1 /\ y = 0 is not inductive (fails the step clause).
  Interpretation Strong(TM);
  Strong.set(P, TM.mkAnd(TM.mkEq(P->Params[0], TM.mkIntConst(1)),
                         TM.mkEq(P->Params[1], TM.mkIntConst(0))));
  ClauseCheckResult R = checkClause(System, System.clauses()[1], Strong);
  EXPECT_EQ(R.Status, ClauseStatus::Invalid);
}

TEST_F(Fig1System, InterpretationInstantiation) {
  Interpretation A(TM);
  A.set(P, TM.mkGe(P->Params[0], P->Params[1]));
  PredApp App{P, {TM.mkIntConst(3), TM.mkIntConst(5)}};
  const Term *Inst = A.instantiate(App);
  EXPECT_EQ(Inst, TM.mkFalse()); // 3 >= 5 folds to false
}

//===----------------------------------------------------------------------===//
// ClauseCheckContext: incremental backend + memo cache
//===----------------------------------------------------------------------===//

TEST_F(Fig1System, ContextAgreesWithOneShotOnAllClauses) {
  // A spread of interpretations: trivial, the paper's solution, too weak,
  // too strong.
  std::vector<Interpretation> Interps;
  Interps.emplace_back(TM); // p := true
  Interps.emplace_back(TM);
  Interps.back().set(P, TM.mkAnd(TM.mkGe(P->Params[0], TM.mkIntConst(1)),
                                 TM.mkGe(P->Params[1], TM.mkIntConst(0))));
  Interps.emplace_back(TM);
  Interps.back().set(P, TM.mkGe(P->Params[0], TM.mkIntConst(0)));
  Interps.emplace_back(TM);
  Interps.back().set(P, TM.mkAnd(TM.mkEq(P->Params[0], TM.mkIntConst(1)),
                                 TM.mkEq(P->Params[1], TM.mkIntConst(0))));

  ClauseCheckContext Checker(System);
  for (const Interpretation &A : Interps) {
    for (size_t CI = 0; CI < System.clauses().size(); ++CI) {
      ClauseCheckResult Inc = Checker.check(CI, A);
      ClauseCheckResult One = checkClause(System, System.clauses()[CI], A);
      EXPECT_EQ(Inc.Status, One.Status) << "clause " << CI;
      if (Inc.Status == ClauseStatus::Invalid) {
        // The incremental model must falsify the clause: body holds, head
        // does not.
        const HornClause &C = System.clauses()[CI];
        EXPECT_TRUE(evalFormula(C.Constraint, Inc.Model)) << "clause " << CI;
        for (const PredApp &App : C.Body)
          EXPECT_TRUE(evalFormula(A.instantiate(App), Inc.Model))
              << "clause " << CI;
        if (C.HeadPred)
          EXPECT_FALSE(evalFormula(A.instantiate(*C.HeadPred), Inc.Model))
              << "clause " << CI;
        else
          EXPECT_FALSE(evalFormula(C.HeadFormula, Inc.Model))
              << "clause " << CI;
      }
    }
  }
  // Clause 3 mentions no predicate, so its key is interpretation-independent
  // and the last three rounds hit the cache; the other three clauses are
  // distinct keys every round. Each clause builds its solver exactly once.
  // Conjunction-headed checks decompose conjunct-by-conjunct: the two
  // two-conjunct interpretations on the two P-headed clauses account for
  // four split checks issuing one extra solver query each.
  const CheckStats &St = Checker.stats();
  EXPECT_EQ(St.CacheHits, 3u);
  EXPECT_EQ(St.CacheMisses, 13u);
  EXPECT_EQ(St.SolverRebuilds, 4u);
  EXPECT_EQ(St.RebuildsAvoided, 9u);
  EXPECT_EQ(St.ConjunctSplits, 4u);
  EXPECT_EQ(St.ChecksIssued, 17u);
}

TEST_F(Fig1System, RepeatedInterpretationHitsCache) {
  Interpretation A(TM);
  A.set(P, TM.mkAnd(TM.mkGe(P->Params[0], TM.mkIntConst(1)),
                    TM.mkGe(P->Params[1], TM.mkIntConst(0))));
  ClauseCheckContext Checker(System);
  EXPECT_EQ(Checker.checkAll(A), ClauseStatus::Valid);
  uint64_t IssuedAfterFirst = Checker.stats().ChecksIssued;
  EXPECT_EQ(Checker.stats().CacheHits, 0u);

  // Same interpretation again: every verdict is served from the cache.
  EXPECT_EQ(Checker.checkAll(A), ClauseStatus::Valid);
  EXPECT_EQ(Checker.stats().ChecksIssued, IssuedAfterFirst);
  EXPECT_EQ(Checker.stats().CacheHits, System.clauses().size());

  // A different interpretation must not be served stale verdicts.
  Interpretation B(TM);
  B.set(P, TM.mkGe(P->Params[0], TM.mkIntConst(0)));
  EXPECT_EQ(Checker.checkAll(B), ClauseStatus::Invalid);
  EXPECT_GT(Checker.stats().ChecksIssued, IssuedAfterFirst);
}

TEST_F(Fig1System, CacheEvictionAtCapacity) {
  // Capacity 2: distinct (clause, interpretation) keys beyond 2 must evict.
  ClauseCheckContext Checker(System, {}, /*CacheCapacity=*/2);
  for (int K = 0; K < 4; ++K) {
    Interpretation A(TM);
    A.set(P, TM.mkGe(P->Params[0], TM.mkIntConst(K)));
    Checker.check(1, A);
  }
  EXPECT_EQ(Checker.stats().CacheEvictions, 2u);
  EXPECT_EQ(Checker.stats().CacheMisses, 4u);
}

TEST_F(Fig1System, LoweredTimeoutReachesSolversBuiltEarlier) {
  ClauseCheckContext Checker(System, {});
  Interpretation A(TM);
  A.set(P, TM.mkGe(P->Params[0], TM.mkIntConst(0)));
  EXPECT_EQ(Checker.check(1, A).Status, ClauseStatus::Invalid);
  ASSERT_EQ(Checker.stats().SolverRebuilds, 1u);

  // The clause's solver now exists; a cap far below one theory round must
  // still reach it and turn the next (uncached) check into Unknown.
  Checker.setTimeout(1e-300);
  Interpretation B(TM);
  B.set(P, TM.mkGe(P->Params[0], TM.mkIntConst(1)));
  EXPECT_EQ(Checker.check(1, B).Status, ClauseStatus::Unknown);
  EXPECT_EQ(Checker.stats().RebuildsAvoided, 1u);

  // Unknown is not memoised: with the cap lifted (0 = unlimited) the same
  // check runs again and decides (y < 0 breaks x >= 1).
  Checker.setTimeout(0);
  EXPECT_EQ(Checker.check(1, B).Status, ClauseStatus::Invalid);
  EXPECT_EQ(Checker.stats().CacheHits, 0u);
}

TEST_F(Fig1System, CheckAllMatchesCheckInterpretation) {
  std::vector<Interpretation> Interps;
  Interps.emplace_back(TM);
  Interps.emplace_back(TM);
  Interps.back().set(P, TM.mkAnd(TM.mkGe(P->Params[0], TM.mkIntConst(1)),
                                 TM.mkGe(P->Params[1], TM.mkIntConst(0))));
  Interps.emplace_back(TM);
  Interps.back().set(P, TM.mkAnd(TM.mkEq(P->Params[0], TM.mkIntConst(1)),
                                 TM.mkEq(P->Params[1], TM.mkIntConst(0))));
  ClauseCheckContext Checker(System);
  for (const Interpretation &A : Interps)
    EXPECT_EQ(Checker.checkAll(A), checkInterpretation(System, A));
}

TEST_F(Fig1System, CrossCheckModeAgreesUnderEnvToggle) {
  // With LA_CHECK_INCREMENTAL set, every miss replays on the one-shot path
  // and asserts agreement internally; the test exercises that path end to
  // end (a disagreement would abort the process).
  ASSERT_EQ(setenv("LA_CHECK_INCREMENTAL", "1", /*overwrite=*/1), 0);
  {
    ClauseCheckContext Checker(System);
    Interpretation A(TM);
    A.set(P, TM.mkGe(P->Params[0], P->Params[1]));
    Checker.checkAll(A);
    Interpretation B(TM);
    B.set(P, TM.mkAnd(TM.mkGe(P->Params[0], TM.mkIntConst(1)),
                      TM.mkGe(P->Params[1], TM.mkIntConst(0))));
    EXPECT_EQ(Checker.checkAll(B), ClauseStatus::Valid);
  }
  unsetenv("LA_CHECK_INCREMENTAL");
}

//===----------------------------------------------------------------------===//
// Counterexample validation
//===----------------------------------------------------------------------===//

/// An unsafe variant of Fig. 1: assert x > y strictly, falsified at x=1,y=1.
TEST(CounterexampleTest, ValidatesRealDerivation) {
  TermManager TM;
  ChcSystem System(TM);
  const Predicate *P = System.addPredicate("p", 2);
  const Term *X = TM.mkVar("cx"), *Y = TM.mkVar("cy");
  const Term *XP = TM.mkVar("cx'"), *YP = TM.mkVar("cy'");

  HornClause Init;
  Init.Constraint =
      TM.mkAnd(TM.mkEq(X, TM.mkIntConst(1)), TM.mkEq(Y, TM.mkIntConst(0)));
  Init.HeadPred = PredApp{P, {X, Y}};
  System.addClause(std::move(Init));

  HornClause Step;
  Step.Constraint = TM.mkAnd(TM.mkEq(XP, TM.mkAdd(X, Y)),
                             TM.mkEq(YP, TM.mkAdd(Y, TM.mkIntConst(1))));
  Step.Body.push_back(PredApp{P, {X, Y}});
  Step.HeadPred = PredApp{P, {XP, YP}};
  System.addClause(std::move(Step));

  HornClause Query;
  Query.Constraint = TM.mkTrue();
  Query.Body.push_back(PredApp{P, {X, Y}});
  Query.HeadFormula = TM.mkGt(X, Y); // violated at p(1, 1)
  System.addClause(std::move(Query));

  Counterexample Cex;
  Cex.Nodes.push_back({P, {Rational(1), Rational(0)}, 0, {}});
  Cex.Nodes.push_back({P, {Rational(1), Rational(1)}, 1, {0}});
  Cex.QueryClauseIndex = 2;
  Cex.QueryChildren = {1};
  EXPECT_TRUE(validateCounterexample(System, Cex));

  // A corrupted derivation must be rejected.
  Counterexample Bad = Cex;
  Bad.Nodes[1].Args[1] = Rational(7); // p(1,7) is not derivable from p(1,0)
  EXPECT_FALSE(validateCounterexample(System, Bad));

  Counterexample BadQuery = Cex;
  BadQuery.QueryChildren = {0}; // p(1,0) does not violate x > y
  EXPECT_FALSE(validateCounterexample(System, BadQuery));
}

} // namespace
