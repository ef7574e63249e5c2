//===- smtlib2/Parser.cpp - Strict SMT-LIB2 HORN front end ----------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smtlib2/Parser.h"

#include "logic/SExpr.h"
#include "support/BigInt.h"

#include <cassert>
#include <cctype>
#include <set>
#include <unordered_map>

using namespace la;
using namespace la::chc;
using namespace la::smtlib2;

std::string ParseResult::error(const ParseOptions &Opts) const {
  if (Ok)
    return "";
  std::string Loc;
  if (!Opts.Filename.empty())
    Loc = Opts.Filename + ":" + std::to_string(Line) + ":" +
          std::to_string(Col);
  else
    Loc = "line " + std::to_string(Line) + ", col " + std::to_string(Col);
  return Loc + ": " + Message;
}

namespace {

/// A sorted value during term conversion. For `S == Int`, `T` is the integer
/// term. For `S == Bool`, `T` is the formula reading and `IntView` (when
/// already available, e.g. for Bool variables and literals) is the 0/1
/// integer rendering used for predicate arguments.
struct Val {
  Sort S = Sort::Int;
  const Term *T = nullptr;
  const Term *IntView = nullptr;
};

/// Translation state for one `parseSmtLib2` call.
class Parser {
public:
  Parser(ChcSystem &Out) : Out(Out), TM(Out.termManager()) {}

  ParseResult run(const std::string &Text) {
    SExprParseResult Parsed = parseSExprs(Text);
    if (!Parsed.Ok) {
      Result.Ok = false;
      Result.Line = Parsed.ErrLine;
      Result.Col = Parsed.ErrCol;
      // Strip the reader's own "line N: " prefix; we relocate precisely.
      std::string Msg = Parsed.Error;
      if (size_t P = Msg.find(": "); P != std::string::npos)
        Msg = Msg.substr(P + 2);
      Result.Message = Msg;
      return Result;
    }
    for (const SExpr &Cmd : Parsed.TopLevel)
      if (!command(Cmd))
        return Result;
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // Diagnostics
  //===--------------------------------------------------------------------===//

  bool error(const SExpr &Where, const std::string &Message) {
    Result.Ok = false;
    Result.Line = Where.Line;
    Result.Col = Where.Col;
    Result.Message = Message;
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Commands
  //===--------------------------------------------------------------------===//

  bool command(const SExpr &Cmd) {
    if (Cmd.IsAtom)
      return error(Cmd, "expected a command list");
    if (Cmd.Items.empty())
      return error(Cmd, "empty command");
    if (!Cmd.Items[0].IsAtom)
      return error(Cmd.Items[0], "command head must be a symbol");
    const std::string &Head = Cmd.Items[0].Atom;
    if (Head == "set-logic")
      return setLogic(Cmd);
    if (Head == "set-info" || Head == "set-option" || Head == "get-model" ||
        Head == "get-info" || Head == "get-proof" || Head == "get-unsat-core" ||
        Head == "echo" || Head == "exit" || Head == "reset" ||
        Head == "push" || Head == "pop")
      return true;
    if (Head == "check-sat") {
      Result.SawCheckSat = true;
      return true;
    }
    if (Head == "declare-fun")
      return declareFun(Cmd);
    if (Head == "declare-const")
      return declareConst(Cmd);
    if (Head == "declare-rel")
      return declareRel(Cmd);
    if (Head == "declare-var")
      return declareVar(Cmd);
    if (Head == "assert" || Head == "rule") {
      if (Cmd.Items.size() != 2)
        return error(Cmd, "'" + Head + "' takes exactly one formula");
      return clause(Cmd.Items[1]);
    }
    if (Head == "query") {
      if (Cmd.Items.size() != 2)
        return error(Cmd, "'query' takes exactly one predicate application");
      return query(Cmd.Items[1]);
    }
    if (Head == "define-fun")
      return error(Cmd, "'define-fun' is not supported (inline the body)");
    return error(Cmd, "unsupported command '" + Head + "'");
  }

  bool setLogic(const SExpr &Cmd) {
    if (Cmd.Items.size() != 2 || !Cmd.Items[1].IsAtom)
      return error(Cmd, "expected (set-logic HORN)");
    if (Result.SawLogic)
      return error(Cmd, "repeated set-logic");
    if (Cmd.Items[1].Atom != "HORN")
      return error(Cmd.Items[1], "unsupported logic '" + Cmd.Items[1].Atom +
                                     "' (only HORN is supported)");
    Result.SawLogic = true;
    return true;
  }

  /// Parses one sort S-expression; only the atoms `Int` and `Bool` are in
  /// the supported fragment.
  bool sort(const SExpr &E, Sort &Out) {
    if (!E.IsAtom)
      return error(E, "unsupported parametric sort '" + E.toString() +
                          "' (only Int and Bool)");
    if (E.Atom == "Int") {
      Out = Sort::Int;
      return true;
    }
    if (E.Atom == "Bool") {
      Out = Sort::Bool;
      return true;
    }
    return error(E,
                 "unsupported sort '" + E.Atom + "' (only Int and Bool)");
  }

  bool checkFreshName(const SExpr &Where, const std::string &Name) {
    if (Preds.count(Name))
      return error(Where, "'" + Name + "' is already a predicate");
    if (Globals.count(Name))
      return error(Where, "'" + Name + "' is already a constant");
    return true;
  }

  bool declarePredicate(const SExpr &Where, const std::string &Name,
                        std::vector<Sort> ArgSorts) {
    if (!checkFreshName(Where, Name))
      return false;
    PredInfo Info;
    Info.ArgSorts = std::move(ArgSorts);
    Info.P = Out.addPredicate(Name, Info.ArgSorts.size());
    Preds.emplace(Name, std::move(Info));
    return true;
  }

  bool declareGlobal(const SExpr &Where, const std::string &Name, Sort S) {
    if (!checkFreshName(Where, Name))
      return false;
    Globals.emplace(Name, makeVar(Name, S));
    return true;
  }

  bool declareFun(const SExpr &Cmd) {
    if (Cmd.Items.size() != 4 || !Cmd.Items[1].IsAtom || Cmd.Items[2].IsAtom)
      return error(Cmd, "expected (declare-fun name (sort*) sort)");
    Sort Codomain;
    if (!sort(Cmd.Items[3], Codomain))
      return false;
    if (Codomain == Sort::Bool) {
      std::vector<Sort> ArgSorts;
      for (const SExpr &S : Cmd.Items[2].Items) {
        Sort A;
        if (!sort(S, A))
          return false;
        ArgSorts.push_back(A);
      }
      return declarePredicate(Cmd.Items[1], Cmd.Items[1].Atom,
                              std::move(ArgSorts));
    }
    // Int codomain: a zero-arity declare-fun is a global constant; true
    // uninterpreted functions are outside the fragment.
    if (!Cmd.Items[2].Items.empty())
      return error(Cmd, "uninterpreted Int functions are not supported");
    return declareGlobal(Cmd.Items[1], Cmd.Items[1].Atom, Sort::Int);
  }

  bool declareConst(const SExpr &Cmd) {
    if (Cmd.Items.size() != 3 || !Cmd.Items[1].IsAtom)
      return error(Cmd, "expected (declare-const name sort)");
    Sort S;
    if (!sort(Cmd.Items[2], S))
      return false;
    return declareGlobal(Cmd.Items[1], Cmd.Items[1].Atom, S);
  }

  bool declareRel(const SExpr &Cmd) {
    if (Cmd.Items.size() != 3 || !Cmd.Items[1].IsAtom || Cmd.Items[2].IsAtom)
      return error(Cmd, "expected (declare-rel name (sort*))");
    std::vector<Sort> ArgSorts;
    for (const SExpr &S : Cmd.Items[2].Items) {
      Sort A;
      if (!sort(S, A))
        return false;
      ArgSorts.push_back(A);
    }
    return declarePredicate(Cmd.Items[1], Cmd.Items[1].Atom,
                            std::move(ArgSorts));
  }

  bool declareVar(const SExpr &Cmd) {
    if (Cmd.Items.size() != 3 || !Cmd.Items[1].IsAtom)
      return error(Cmd, "expected (declare-var name sort)");
    Sort S;
    if (!sort(Cmd.Items[2], S))
      return false;
    return declareGlobal(Cmd.Items[1], Cmd.Items[1].Atom, S);
  }

  //===--------------------------------------------------------------------===//
  // Variables and scopes
  //===--------------------------------------------------------------------===//

  /// Builds the `Val` of a variable named \p Name: Int variables are
  /// themselves; Bool variables are 0/1-encoded Int variables whose formula
  /// reading is `(= v 1)`.
  Val makeVar(const std::string &Name, Sort S) {
    // Reuse the name when free, otherwise rename apart: an inner binder
    // shadowing an outer one (or a global) must not capture it.
    const Term *V = nullptr;
    if (!boundAnywhere(Name))
      V = TM.mkVar(Name);
    else
      V = TM.mkFreshVar(Name);
    if (S == Sort::Int)
      return Val{Sort::Int, V, nullptr};
    return Val{Sort::Bool, TM.mkEq(V, TM.mkIntConst(1)), V};
  }

  bool boundAnywhere(const std::string &Name) const {
    if (Globals.count(Name) || Preds.count(Name))
      return true;
    for (const auto &Scope : Scopes)
      if (Scope.count(Name))
        return true;
    return false;
  }

  const Val *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->find(Name); Found != It->end())
        return &Found->second;
    if (auto Found = Globals.find(Name); Found != Globals.end())
      return &Found->second;
    return nullptr;
  }

  /// The {0,1} domain constraint of a Bool variable's Int encoding, emitted
  /// into the current clause on first use.
  void ensureBoolDomain(const Term *IntVar) {
    if (!DomainDone.insert(IntVar).second)
      return;
    Sides.push_back(TM.mkOr(TM.mkEq(IntVar, TM.mkIntConst(0)),
                            TM.mkEq(IntVar, TM.mkIntConst(1))));
  }

  /// 0/1 Int rendering of a Bool value, synthesizing a fresh constrained
  /// variable when the value has no direct one (a compound formula).
  const Term *intViewOf(const Val &V) {
    assert(V.S == Sort::Bool);
    if (V.IntView) {
      ensureBoolDomain(V.IntView);
      return V.IntView;
    }
    const Term *B = TM.mkFreshVar("b!arg");
    Sides.push_back(
        TM.mkOr(TM.mkAnd(V.T, TM.mkEq(B, TM.mkIntConst(1))),
                TM.mkAnd(TM.mkNot(V.T), TM.mkEq(B, TM.mkIntConst(0)))));
    return B;
  }

  //===--------------------------------------------------------------------===//
  // Clauses
  //===--------------------------------------------------------------------===//

  /// Strips a chain of top-level binders of kind \p Which, entering their
  /// bindings into a fresh scope (already pushed by the caller).
  const SExpr *stripQuantifiers(const SExpr &F, const char *Which) {
    if (!F.isCall(Which))
      return &F;
    if (F.Items.size() != 3 || F.Items[1].IsAtom) {
      error(F, std::string("malformed '") + Which + "'");
      return nullptr;
    }
    std::set<std::string> Here;
    for (const SExpr &Binding : F.Items[1].Items) {
      if (Binding.IsAtom || Binding.Items.size() != 2 ||
          !Binding.Items[0].IsAtom) {
        error(Binding, "quantifier bindings must be ((name sort) ...)");
        return nullptr;
      }
      const std::string &Name = Binding.Items[0].Atom;
      if (!Here.insert(Name).second) {
        error(Binding.Items[0],
              "duplicate binder '" + Name + "' in one quantifier");
        return nullptr;
      }
      Sort S;
      if (!sort(Binding.Items[1], S))
        return nullptr;
      Scopes.back().insert_or_assign(Name, makeVar(Name, S));
    }
    return stripQuantifiers(F.Items[2], Which);
  }

  /// RAII-free scope bracket: the parser is single-pass, so an explicit
  /// push/pop around each assert keeps binder lifetimes obvious.
  struct ScopeGuard {
    Parser &P;
    explicit ScopeGuard(Parser &P) : P(P) { P.Scopes.emplace_back(); }
    ~ScopeGuard() { P.Scopes.pop_back(); }
  };

  bool clause(const SExpr &FormulaExpr) {
    Sides.clear();
    DomainDone.clear();
    ScopeGuard Scope(*this);

    const SExpr *Core = stripQuantifiers(FormulaExpr, "forall");
    if (!Core)
      return false;

    const SExpr *HeadExpr = nullptr;
    std::vector<const SExpr *> BodyExprs;
    bool NegatedBody = false;
    if (Core->isCall("=>")) {
      if (Core->Items.size() < 3)
        return error(*Core, "'=>' needs at least two operands");
      for (size_t I = 1; I + 1 < Core->Items.size(); ++I)
        BodyExprs.push_back(&Core->Items[I]);
      HeadExpr = &Core->Items.back();
    } else if (Core->isCall("not")) {
      // Query shape: (not body) or (not (exists (...) body)).
      if (Core->Items.size() != 2)
        return error(*Core, "'not' takes one operand");
      const SExpr *Body = stripQuantifiers(Core->Items[1], "exists");
      if (!Body)
        return false;
      BodyExprs.push_back(Body);
      NegatedBody = true;
    } else {
      HeadExpr = Core;
    }

    HornClause C;
    std::vector<const Term *> ConstraintParts;
    if (!BodyExprs.empty()) {
      std::vector<const Term *> Parts;
      for (const SExpr *B : BodyExprs) {
        Val V;
        if (!term(*B, V))
          return false;
        if (V.S != Sort::Bool)
          return error(*B, "clause body must be Bool, got Int");
        Parts.push_back(V.T);
      }
      const Term *Body = TM.mkAnd(std::move(Parts));
      if (!splitBody(*BodyExprs.front(), Body, C.Body, ConstraintParts))
        return false;
    }

    if (NegatedBody) {
      C.HeadFormula = TM.mkFalse();
    } else {
      assert(HeadExpr && "clause without a head");
      Val Head;
      if (!term(*HeadExpr, Head))
        return false;
      if (Head.S != Sort::Bool)
        return error(*HeadExpr, "clause head must be Bool, got Int");
      if (Head.T->kind() == TermKind::PredApp) {
        PredApp App;
        resolveApp(Head.T, App);
        C.HeadPred = std::move(App);
      } else if (TermManager::containsPredApp(Head.T)) {
        return error(*HeadExpr,
                     "head mixes a predicate application with other "
                     "structure (not a Horn clause)");
      } else {
        C.HeadFormula = Head.T;
      }
    }

    for (const Term *Side : Sides)
      ConstraintParts.push_back(Side);
    C.Constraint = TM.mkAnd(std::move(ConstraintParts));
    Out.addClause(std::move(C));
    return true;
  }

  bool query(const SExpr &AppExpr) {
    // (query p) / (query (p x ...)): reachability of p, i.e. the clause
    // `p(fresh...) -> false`.
    const PredInfo *Info = nullptr;
    if (AppExpr.IsAtom) {
      auto It = Preds.find(AppExpr.Atom);
      if (It != Preds.end())
        Info = &It->second;
    } else if (!AppExpr.Items.empty() && AppExpr.Items[0].IsAtom) {
      auto It = Preds.find(AppExpr.Items[0].Atom);
      if (It != Preds.end())
        Info = &It->second;
    }
    if (!Info)
      return error(AppExpr, "query of an undeclared predicate");
    HornClause C;
    PredApp App;
    App.Pred = Info->P;
    for (size_t I = 0; I < Info->P->arity(); ++I)
      App.Args.push_back(TM.mkFreshVar("q!" + Info->P->Name));
    C.Body.push_back(std::move(App));
    C.Constraint = TM.mkTrue();
    C.HeadFormula = TM.mkFalse();
    Out.addClause(std::move(C));
    return true;
  }

  /// Splits a converted clause body into predicate applications and the
  /// predicate-free constraint conjuncts.
  bool splitBody(const SExpr &Where, const Term *Body,
                 std::vector<PredApp> &Apps,
                 std::vector<const Term *> &ConstraintParts) {
    std::vector<const Term *> Conjuncts;
    if (Body->kind() == TermKind::And)
      Conjuncts.assign(Body->operands().begin(), Body->operands().end());
    else
      Conjuncts.push_back(Body);
    for (const Term *Conj : Conjuncts) {
      if (Conj->kind() == TermKind::PredApp) {
        PredApp App;
        resolveApp(Conj, App);
        Apps.push_back(std::move(App));
        continue;
      }
      if (TermManager::containsPredApp(Conj))
        return error(Where, "predicate application under non-conjunctive "
                            "structure (not a Horn clause)");
      ConstraintParts.push_back(Conj);
    }
    return true;
  }

  /// Rebuilds a `chc::PredApp` from a converted PredApp term. The term was
  /// produced by `term()`, so the predicate exists and arities match.
  void resolveApp(const Term *AppTerm, PredApp &App) {
    const Predicate *P = Out.findPredicate(AppTerm->name());
    assert(P && P->arity() == AppTerm->numOperands() &&
           "PredApp term for an unknown predicate");
    App.Pred = P;
    App.Args.assign(AppTerm->operands().begin(), AppTerm->operands().end());
  }

  //===--------------------------------------------------------------------===//
  // Terms
  //===--------------------------------------------------------------------===//

  bool wantInt(const SExpr &Where, const Val &V, const std::string &What) {
    if (V.S == Sort::Int)
      return true;
    return error(Where, What + " expects an Int operand, got Bool");
  }

  bool wantBool(const SExpr &Where, const Val &V, const std::string &What) {
    if (V.S == Sort::Bool)
      return true;
    return error(Where, What + " expects a Bool operand, got Int");
  }

  bool term(const SExpr &E, Val &Out) {
    if (E.IsAtom)
      return atom(E, Out);
    if (E.Items.empty() || !E.Items[0].IsAtom)
      return error(E, "expected an operator application");
    const std::string &Op = E.Items[0].Atom;

    if (Op == "let")
      return letTerm(E, Out);
    if (Op == "!") {
      // (! t :attribute ...) annotation wrapper; attributes are dropped.
      if (E.Items.size() < 2)
        return error(E, "'!' needs an annotated term");
      return term(E.Items[1], Out);
    }
    if (Op == "forall" || Op == "exists")
      return error(E, "quantifiers are only supported at the top of an "
                      "assertion");
    // `(- <numeral>)` is one negative literal, not negation of a constant,
    // so that `(- 9223372036854775808)` (INT64_MIN) stays representable.
    if (Op == "-" && E.Items.size() == 2 && E.Items[1].IsAtom &&
        !E.Items[1].Atom.empty() &&
        std::isdigit(static_cast<unsigned char>(E.Items[1].Atom[0])))
      return parseNumeral(E, "-" + E.Items[1].Atom, Out);
    if (Op == "ite")
      return iteTerm(E, Out);

    std::vector<Val> Args;
    for (size_t I = 1; I < E.Items.size(); ++I) {
      Val V;
      if (!term(E.Items[I], V))
        return false;
      Args.push_back(V);
    }

    auto Quoted = [&] { return "'" + Op + "'"; };
    auto IntArgs = [&](size_t Min) -> bool {
      if (Args.size() < Min)
        return error(E, Quoted() + " needs at least " + std::to_string(Min) +
                            " operands");
      for (size_t I = 0; I < Args.size(); ++I)
        if (!wantInt(E.Items[I + 1], Args[I], Quoted()))
          return false;
      return true;
    };
    auto BoolArgs = [&](size_t Min) -> bool {
      if (Args.size() < Min)
        return error(E, Quoted() + " needs at least " + std::to_string(Min) +
                            " operands");
      for (size_t I = 0; I < Args.size(); ++I)
        if (!wantBool(E.Items[I + 1], Args[I], Quoted()))
          return false;
      return true;
    };
    auto Ints = [&] {
      std::vector<const Term *> Ts;
      for (const Val &V : Args)
        Ts.push_back(V.T);
      return Ts;
    };
    auto Bools = [&] {
      std::vector<const Term *> Ts;
      for (const Val &V : Args)
        Ts.push_back(V.T);
      return Ts;
    };

    if (Op == "+") {
      if (!IntArgs(1))
        return false;
      Out = Val{Sort::Int, TM.mkAdd(Ints()), nullptr};
      return true;
    }
    if (Op == "-") {
      if (!IntArgs(1))
        return false;
      if (Args.size() == 1) {
        Out = Val{Sort::Int, TM.mkNeg(Args[0].T), nullptr};
        return true;
      }
      const Term *Acc = Args[0].T;
      for (size_t I = 1; I < Args.size(); ++I)
        Acc = TM.mkSub(Acc, Args[I].T);
      Out = Val{Sort::Int, Acc, nullptr};
      return true;
    }
    if (Op == "*") {
      // Linear products only: at most one non-constant factor.
      if (!IntArgs(1))
        return false;
      Rational Factor(1);
      const Term *NonConst = nullptr;
      for (size_t I = 0; I < Args.size(); ++I) {
        if (Args[I].T->isIntConst()) {
          Factor *= Args[I].T->value();
          continue;
        }
        if (NonConst)
          return error(E.Items[I + 1],
                       "non-linear multiplication is not supported");
        NonConst = Args[I].T;
      }
      Out = Val{Sort::Int,
                NonConst ? TM.mkMul(Factor, NonConst) : TM.mkIntConst(Factor),
                nullptr};
      return true;
    }
    if (Op == "mod" || Op == "div") {
      if (Args.size() != 2)
        return error(E, Quoted() + " expects 2 operands");
      if (!IntArgs(2))
        return false;
      if (!Args[1].T->isIntConst() || Args[1].T->value().signum() <= 0)
        return error(E.Items[2],
                     Quoted() + " requires a positive constant divisor");
      const Term *Rem = TM.mkMod(Args[0].T, Args[1].T->value().numerator());
      if (Op == "mod") {
        Out = Val{Sort::Int, Rem, nullptr};
        return true;
      }
      // Euclidean division by k, lowered to a fresh quotient variable q
      // defined by the clause-local side constraint a = k*q + (a mod k).
      const Term *Q = TM.mkFreshVar("div!q");
      Sides.push_back(TM.mkEq(
          Args[0].T, TM.mkAdd(TM.mkMul(Args[1].T->value(), Q), Rem)));
      Out = Val{Sort::Int, Q, nullptr};
      return true;
    }
    if (Op == "<=" || Op == "<" || Op == ">=" || Op == ">") {
      if (Args.size() < 2)
        return error(E, Quoted() + " needs at least 2 operands");
      if (!IntArgs(2))
        return false;
      // Chained comparisons: (< a b c) == a<b and b<c.
      std::vector<const Term *> Parts;
      for (size_t I = 0; I + 1 < Args.size(); ++I) {
        const Term *L = Args[I].T, *R = Args[I + 1].T;
        if (Op == "<=")
          Parts.push_back(TM.mkLe(L, R));
        else if (Op == "<")
          Parts.push_back(TM.mkLt(L, R));
        else if (Op == ">=")
          Parts.push_back(TM.mkGe(L, R));
        else
          Parts.push_back(TM.mkGt(L, R));
      }
      Out = Val{Sort::Bool, TM.mkAnd(std::move(Parts)), nullptr};
      return true;
    }
    if (Op == "=" || Op == "distinct") {
      if (Args.size() < 2)
        return error(E, Quoted() + " needs at least 2 operands");
      for (size_t I = 1; I < Args.size(); ++I)
        if (Args[I].S != Args[0].S)
          return error(E.Items[I + 1],
                       Quoted() + " mixes Int and Bool operands");
      if (Op == "distinct" && Args.size() != 2)
        return error(E, "'distinct' with more than 2 operands is not "
                        "supported");
      // Int `distinct` lowers through `mkNe` to `(or (< a b) (< b a))`, the
      // form the mini-C encoder gives `!=`: the CEGAR loop needs fewer
      // samples over the two strict atoms than over a negated equality.
      std::vector<const Term *> Parts;
      for (size_t I = 0; I + 1 < Args.size(); ++I) {
        const Term *L = Args[I].T, *R = Args[I + 1].T;
        if (Args[0].S == Sort::Int) {
          Parts.push_back(Op == "=" ? TM.mkEq(L, R) : TM.mkNe(L, R));
          continue;
        }
        const Term *EqPart =
            TM.mkOr(TM.mkAnd(L, R), TM.mkAnd(TM.mkNot(L), TM.mkNot(R)));
        Parts.push_back(Op == "=" ? EqPart : TM.mkNot(EqPart));
      }
      Out = Val{Sort::Bool, TM.mkAnd(std::move(Parts)), nullptr};
      return true;
    }
    if (Op == "not") {
      if (Args.size() != 1)
        return error(E, "'not' takes one operand");
      if (!BoolArgs(1))
        return false;
      Out = Val{Sort::Bool, TM.mkNot(Args[0].T), nullptr};
      return true;
    }
    if (Op == "and") {
      if (!BoolArgs(0))
        return false;
      Out = Val{Sort::Bool, TM.mkAnd(Bools()), nullptr};
      return true;
    }
    if (Op == "or") {
      if (!BoolArgs(0))
        return false;
      Out = Val{Sort::Bool, TM.mkOr(Bools()), nullptr};
      return true;
    }
    if (Op == "xor") {
      if (!BoolArgs(2))
        return false;
      const Term *Acc = Args[0].T;
      for (size_t I = 1; I < Args.size(); ++I)
        Acc = TM.mkOr(TM.mkAnd(Acc, TM.mkNot(Args[I].T)),
                      TM.mkAnd(TM.mkNot(Acc), Args[I].T));
      Out = Val{Sort::Bool, Acc, nullptr};
      return true;
    }
    if (Op == "=>") {
      if (!BoolArgs(2))
        return false;
      const Term *Acc = Args.back().T;
      for (size_t I = Args.size() - 1; I-- > 0;)
        Acc = TM.mkImplies(Args[I].T, Acc);
      Out = Val{Sort::Bool, Acc, nullptr};
      return true;
    }

    // Predicate application with per-position sort coercion.
    if (auto It = Preds.find(Op); It != Preds.end()) {
      const PredInfo &Info = It->second;
      if (Info.ArgSorts.size() != Args.size())
        return error(E, "'" + Op + "' expects " +
                            std::to_string(Info.ArgSorts.size()) +
                            " arguments, got " + std::to_string(Args.size()));
      std::vector<const Term *> IntArgsV;
      for (size_t I = 0; I < Args.size(); ++I) {
        if (Info.ArgSorts[I] == Sort::Int) {
          if (!wantInt(E.Items[I + 1], Args[I],
                       "argument " + std::to_string(I + 1) + " of '" + Op +
                           "'"))
            return false;
          IntArgsV.push_back(Args[I].T);
        } else {
          if (!wantBool(E.Items[I + 1], Args[I],
                        "argument " + std::to_string(I + 1) + " of '" + Op +
                            "'"))
            return false;
          IntArgsV.push_back(intViewOf(Args[I]));
        }
      }
      Out = Val{Sort::Bool, TM.mkPredApp(Op, std::move(IntArgsV)), nullptr};
      return true;
    }
    return error(E.Items[0], "unknown function or predicate '" + Op + "'");
  }

  bool letTerm(const SExpr &E, Val &Out) {
    if (E.Items.size() != 3 || E.Items[1].IsAtom)
      return error(E, "expected (let ((name term) ...) body)");
    // Parallel let: right-hand sides are evaluated in the outer scope.
    std::vector<std::pair<std::string, Val>> Bindings;
    for (const SExpr &B : E.Items[1].Items) {
      if (B.IsAtom || B.Items.size() != 2 || !B.Items[0].IsAtom)
        return error(B, "let bindings must be ((name term) ...)");
      Val V;
      if (!term(B.Items[1], V))
        return false;
      Bindings.emplace_back(B.Items[0].Atom, V);
    }
    ScopeGuard Scope(*this);
    for (auto &[Name, V] : Bindings)
      Scopes.back().insert_or_assign(Name, V);
    return term(E.Items[2], Out);
  }

  bool iteTerm(const SExpr &E, Val &Out) {
    if (E.Items.size() != 4)
      return error(E, "'ite' expects 3 operands");
    Val Cond, Then, Else;
    if (!term(E.Items[1], Cond) || !term(E.Items[2], Then) ||
        !term(E.Items[3], Else))
      return false;
    if (!wantBool(E.Items[1], Cond, "'ite' condition"))
      return false;
    if (Then.S != Else.S)
      return error(E, "'ite' branches have different sorts");
    if (Then.S == Sort::Bool) {
      Out = Val{Sort::Bool,
                TM.mkOr(TM.mkAnd(Cond.T, Then.T),
                        TM.mkAnd(TM.mkNot(Cond.T), Else.T)),
                nullptr};
      return true;
    }
    // Int ite, lowered to a fresh variable defined by a side constraint.
    const Term *V = TM.mkFreshVar("ite!v");
    Sides.push_back(TM.mkOr(TM.mkAnd(Cond.T, TM.mkEq(V, Then.T)),
                            TM.mkAnd(TM.mkNot(Cond.T), TM.mkEq(V, Else.T))));
    Out = Val{Sort::Int, V, nullptr};
    return true;
  }

  /// Parses \p A (matching `[+-]?[0-9]+`) into an Int constant. Literals
  /// outside the signed 64-bit range are rejected: downstream consumers
  /// convert through `BigInt::toInt64`.
  bool parseNumeral(const SExpr &E, const std::string &A, Val &Out) {
    std::optional<BigInt> Value =
        BigInt::fromString(A[0] == '+' ? A.substr(1) : A);
    if (!Value)
      return error(E, "malformed numeral '" + A + "'");
    if (!Value->toInt64())
      return error(E, "integer literal '" + A +
                          "' is outside the supported 64-bit range");
    Out = Val{Sort::Int, TM.mkIntConst(Rational(*Value)), nullptr};
    return true;
  }

  /// Classifies one atom as a numeral: 1 = numeral parsed, 0 = not numeric
  /// (a symbol), -1 = malformed/out-of-range (error set).
  int numeralAtom(const SExpr &E, Val &Out) {
    const std::string &A = E.Atom;
    if (A.empty())
      return 0;
    size_t Begin = (A[0] == '-' || A[0] == '+') ? 1 : 0;
    size_t I = Begin;
    while (I < A.size() && std::isdigit(static_cast<unsigned char>(A[I])))
      ++I;
    if (I == Begin)
      return 0;
    if (I != A.size()) {
      error(E, "malformed numeral '" + A + "'");
      return -1;
    }
    return parseNumeral(E, A, Out) ? 1 : -1;
  }

  bool atom(const SExpr &E, Val &Out) {
    const std::string &A = E.Atom;
    if (A == "true") {
      Out = Val{Sort::Bool, TM.mkTrue(), TM.mkIntConst(1)};
      return true;
    }
    if (A == "false") {
      Out = Val{Sort::Bool, TM.mkFalse(), TM.mkIntConst(0)};
      return true;
    }
    if (int Num = numeralAtom(E, Out))
      return Num > 0;
    if (const Val *Bound = lookup(A)) {
      Out = *Bound;
      if (Out.S == Sort::Bool && Out.IntView)
        ensureBoolDomain(Out.IntView);
      return true;
    }
    if (auto It = Preds.find(A); It != Preds.end()) {
      if (!It->second.ArgSorts.empty())
        return error(E, "predicate '" + A + "' used without arguments");
      Out = Val{Sort::Bool, TM.mkPredApp(A, {}), nullptr};
      return true;
    }
    return error(E, "unknown symbol '" + A +
                        "' (declare it or bind it with forall/let)");
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  struct PredInfo {
    const Predicate *P = nullptr;
    std::vector<Sort> ArgSorts;
  };

  ChcSystem &Out;
  TermManager &TM;
  ParseResult Result;
  std::unordered_map<std::string, PredInfo> Preds;
  std::unordered_map<std::string, Val> Globals;
  std::vector<std::unordered_map<std::string, Val>> Scopes;
  /// Clause-local side constraints: Bool variable domains, `ite`/`div`
  /// definitions, Bool-argument encodings. Conjoined into the clause
  /// constraint by `clause()`.
  std::vector<const Term *> Sides;
  std::set<const Term *> DomainDone;
};

} // namespace

ParseResult smtlib2::parseSmtLib2(const std::string &Text, ChcSystem &Out,
                                  const ParseOptions &) {
  return Parser(Out).run(Text);
}
