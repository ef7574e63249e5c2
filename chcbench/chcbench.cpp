//===- chcbench/chcbench.cpp - End-to-end and per-layer solver benchmark ---===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver benchmark (see README.md next to this file). Three
/// workloads:
///
///   corpus-la     every mini-C corpus program through the default data-driven
///                 engine with the full analysis ladder, one solve at a time;
///   corpus-cegar  the same programs with the analysis off (Algorithm 3 as
///                 published);
///   serve-mix     an in-process SolverService driven as a closed loop by
///                 client threads sending SMT-LIB2 and mini-C source text.
///
/// Every verdict is checked against ground truth, and every corpus witness is
/// re-checked on a freshly encoded system in a fresh term manager. With
/// `--trace 1` the benchmark records one span around each call it makes into a
/// layer's public function (plus spans derived from the per-pass analysis
/// timings the solver returns) and reports per-layer metrics; with
/// `--trace 0` it reports the end-to-end metrics. Nothing here reaches into
/// the solver's internals: all numbers come from spans taken outside the
/// calls and from the counters those calls already return.
///
/// The last line of standard output is one JSON object
/// `{"correct", "attempted", "failed", "metrics"}`.
///
//===----------------------------------------------------------------------===//

#include "chc/ChcCheck.h"
#include "corpus/Corpus.h"
#include "corpus/Harness.h"
#include "corpus/Smt2Corpus.h"
#include "frontend/Encoder.h"
#include "ml/Learn.h"
#include "server/SolverService.h"
#include "smtlib2/Parser.h"
#include "solver/DataDrivenSolver.h"
#include "solver/SolverRegistry.h"
#include "support/Cancellation.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char **environ;

using namespace la;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Run configuration
//===----------------------------------------------------------------------===//

/// Per-solve wall budget of every workload. Programs that the solver cannot
/// decide cost this much (up to budget + grace on the corpus workloads,
/// which stop a solve there), so it sets most of a corpus pass's length.
constexpr double BudgetSeconds = 1.0;
/// An answer later than budget + grace misses the time limit: it is *late*
/// and not solved, even when its verdict is right. Late answers are counted
/// on their own (`cegar.late_answers`), not in `failed`: whether a program
/// that finishes near the limit is late changes from run to run with the
/// host's speed, and `failed` must repeat exactly.
constexpr double GraceSeconds = 0.5;
/// Set-up is timed in a fresh process once per `SetupEverySeconds` of the
/// run, and at least `SetupMinSamples` times; `setup_s` is the median.
constexpr double SetupEverySeconds = 0.5;
constexpr size_t SetupMinSamples = 15;
/// Corpus programs decided in under `RetimeBelowSeconds` are solved again,
/// the one with the fewest solves first, until the run's `--seconds` are
/// used up. During the pass, re-solves take up to `RetimeShare` of the
/// pass's own time, so that they spread over the whole run (see runCorpus).
constexpr double RetimeBelowSeconds = 0.15;
constexpr double RetimeShare = 0.4;
/// serve-mix: service workers (and closed-loop clients), capped at the
/// machine's hardware threads.
constexpr size_t MixWorkers = 2;
/// serve-mix: requests replayed verbatim after the window to read the memo
/// cache. Fewer than the cache's 128 entries, so each should still be held.
constexpr size_t CacheReplays = 64;

/// Corpus programs serve-mix leaves out: the ones corpus-la does not decide
/// well within the budget at this budget. Three answer far past it (a
/// per-check SMT timeout of max(10 s, budget/2) and an analysis that
/// overruns its cap), six run into it, and gen_parport_r64 finishes right
/// at it. Both corpus workloads keep all of them, so these defects show in
/// their `solved` counts and `cegar.late_answers`. In the service mix each
/// of them holds a worker for one to ten budgets: together they took over
/// two thirds of the workers' time in a trial, so the mix's throughput and
/// tail latency measured how many of them landed in the window, not the
/// service.
const char *const ServeMixExcluded[] = {
    "paper_fig4_b",   "gen_parport_r200", "gen_elevator_f48",
    "rec_fib2calls",  "rec_mccarthy91",   "fibo_sv_34",
    "gen_nested_n5",  "gen_nested_n8",    "gen_nested_bug",
    "gen_parport_r64"};

enum class Workload { CorpusLa, CorpusCegar, ServeMix };

struct Args {
  Workload Kind = Workload::CorpusLa;
  std::string WorkloadName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  bool SetupProbe = false; ///< time the set-up once, print it and exit
  std::string OutDir = ".";
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed call into a layer. `Item` is the corpus program or service
/// request the call belongs to; `Derived` marks spans placed from a
/// duration the solver reported rather than timed by the benchmark.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Item = 0;
  std::string Name;
  double Start = 0;
  double End = 0;
  bool Derived = false;
};

/// In-memory span store, written out when the run ends. A disabled tracer
/// records nothing and hands out span id 0.
class Tracer {
public:
  Tracer(bool Enabled, Clock::time_point Origin)
      : Enabled(Enabled), Origin(Origin) {}

  bool enabled() const { return Enabled; }

  uint64_t begin(const char *Name, uint64_t Parent, uint64_t Item) {
    if (!Enabled)
      return 0;
    double Now = secondsBetween(Origin, Clock::now());
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back({Spans.size() + 1, Parent, Item, Name, Now, -1, false});
    return Spans.size();
  }

  void end(uint64_t Id) {
    if (!Enabled || Id == 0)
      return;
    double Now = secondsBetween(Origin, Clock::now());
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[Id - 1].End = Now;
  }

  /// Records a span whose placement comes from a reported duration.
  uint64_t addDerived(const std::string &Name, uint64_t Parent, uint64_t Item,
                      double Start, double End) {
    if (!Enabled)
      return 0;
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back({Spans.size() + 1, Parent, Item, Name, Start, End, true});
    return Spans.size();
  }

  double startOf(uint64_t Id) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Id ? Spans[Id - 1].Start : 0;
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  Clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Parent, uint64_t Item)
      : T(T), Id(T.begin(Name, Parent, Item)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  uint64_t id() const { return Id; }

private:
  Tracer &T;
  uint64_t Id;
};

/// Total and self time (duration minus the part covered by child spans) per
/// span name.
struct SpanTimes {
  std::map<std::string, double> Total;
  std::map<std::string, double> Self;
  size_t Count = 0;
};

SpanTimes spanTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent - 1].push_back({S.Start, S.End});
  SpanTimes Out;
  Out.Count = Spans.size();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Duration = S.End - S.Start;
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0, Reach = S.Start;
    for (auto [Lo, Hi] : C) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, S.End);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Out.Total[S.Name] += Duration;
    Out.Self[S.Name] += Duration - Covered;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Small statistics and JSON helpers
//===----------------------------------------------------------------------===//

/// The Harrell-Davis estimate of quantile \p Q (0 < Q < 1): the mean of
/// all order statistics weighted by a Beta((n+1)Q, (n+1)(1-Q)) density. A
/// percentile read from one or two order statistics jumps when a sample is
/// added or removed next to a gap in the values: on the corpus workloads
/// the 90th percentile of the solved programs sits at such a gap, and the
/// count of solved programs moves by a few from run to run.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  const double A = static_cast<double>(N + 1) * Q;
  const double B = static_cast<double>(N + 1) * (1 - Q);
  // The density integrated over each order statistic's share of [0, 1] by
  // the midpoint rule, in logs scaled to the largest so nothing underflows.
  const size_t Steps = 64 * N;
  std::vector<double> LogDensity(Steps);
  double Max = -INFINITY;
  for (size_t K = 0; K < Steps; ++K) {
    double X = (static_cast<double>(K) + 0.5) / static_cast<double>(Steps);
    LogDensity[K] = (A - 1) * std::log(X) + (B - 1) * std::log1p(-X);
    Max = std::max(Max, LogDensity[K]);
  }
  double Sum = 0, Weight = 0;
  for (size_t K = 0; K < Steps; ++K) {
    double W = std::exp(LogDensity[K] - Max);
    Sum += W * V[K / 64];
    Weight += W;
  }
  return Sum / Weight;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

/// Ordered metric list: name -> (value, unit).
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Items;
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Items.push_back({Name, {Value, Unit}});
  }
  std::string json() const {
    std::string Out = "{";
    for (size_t I = 0; I < Items.size(); ++I) {
      if (I)
        Out += ", ";
      Out += jsonString(Items[I].first) + ": {\"value\": " +
             jsonNumber(Items[I].second.first) +
             ", \"unit\": " + jsonString(Items[I].second.second) + "}";
    }
    return Out + "}";
  }
};

/// One JSON object line built field by field.
class JsonRow {
public:
  JsonRow &str(const char *Key, const std::string &V) {
    return raw(Key, jsonString(V));
  }
  JsonRow &num(const char *Key, double V) { return raw(Key, jsonNumber(V)); }
  JsonRow &flag(const char *Key, bool V) { return raw(Key, V ? "true" : "false"); }
  std::string line() const { return "{" + Body + "}\n"; }

private:
  JsonRow &raw(const char *Key, const std::string &V) {
    if (!Body.empty())
      Body += ", ";
    Body += jsonString(Key) + ": " + V;
    return *this;
  }
  std::string Body;
};

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

//===----------------------------------------------------------------------===//
// Independent witness check
//===----------------------------------------------------------------------===//

/// Re-checks a corpus verdict's witness on a freshly encoded copy of the
/// program in a fresh term manager, through the one-shot checking path: no
/// ClauseCheckContext, memo cache or disk cache that helped produce the
/// witness is involved. Returns false when the witness is missing or fails.
bool witnessHoldsOnFreshSystem(const corpus::BenchmarkProgram &Program,
                               const chc::ChcSystem &Solved,
                               const chc::ChcSolverResult &R, Tracer &Tr,
                               uint64_t Parent, uint64_t Item) {
  TermManager TM;
  chc::ChcSystem Fresh(TM);
  {
    ScopedSpan S(Tr, "check.encode", Parent, Item);
    if (!frontend::encodeMiniC(Program.Source, Fresh).Ok)
      return false;
  }
  const auto &Preds = Solved.predicates();
  if (Fresh.predicates().size() != Preds.size() ||
      Fresh.clauses().size() != Solved.clauses().size())
    return false;
  for (const chc::Predicate *P : Preds)
    if (Fresh.predicates()[P->Index]->Name != P->Name)
      return false;

  ScopedSpan S(Tr, "smt.validate", Parent, Item);
  if (R.Status == chc::ChcResult::Sat) {
    chc::Interpretation Interp(TM);
    for (const chc::Predicate *P : Preds)
      Interp.set(Fresh.predicates()[P->Index], TM.import(R.Interp.get(P)));
    return chc::checkInterpretation(Fresh, Interp) == chc::ClauseStatus::Valid;
  }
  if (R.Status == chc::ChcResult::Unsat && R.Cex) {
    chc::Counterexample Cex = *R.Cex;
    for (chc::Counterexample::Node &N : Cex.Nodes)
      N.Pred = Fresh.predicates()[N.Pred->Index];
    return chc::validateCounterexample(Fresh, Cex);
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Corpus workloads
//===----------------------------------------------------------------------===//

/// Trips a cancellation token once a solve has run past budget + grace. By
/// then its answer is late whatever it will be; without the stop, the
/// per-check SMT timeout of max(10 s, budget / 2) keeps some late solves
/// running for ten budgets. The engines poll the token at every loop head
/// and SMT theory check, so the solve returns soon after.
class Watchdog {
public:
  Watchdog(std::shared_ptr<CancellationToken> Token, Clock::time_point Due)
      : Thread([this, Token, Due] {
          std::unique_lock<std::mutex> Lock(Mutex);
          if (!Wake.wait_until(Lock, Due, [this] { return Done; }))
            Token->cancel();
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Done = true;
    }
    Wake.notify_all();
    Thread.join();
  }
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

private:
  std::mutex Mutex;
  std::condition_variable Wake;
  bool Done = false;
  std::thread Thread;
};

/// Accumulated `ml::learn` calls of one solve, seen through the Learner
/// timing wrapper.
struct LearnTally {
  size_t Calls = 0;
  size_t Failed = 0;
  size_t Points = 0;
  size_t Hyperplanes = 0;
  size_t DtNodes = 0;
};

/// Calls `ml::learn` exactly as the solver's default path does when the
/// analysis is off (per-call seed, no extra features), with a span around
/// each call.
solver::LearnerFn timedLearner(const ml::LearnOptions &Base, Tracer &Tr,
                               const uint64_t &Parent, const uint64_t &Item,
                               LearnTally &Tally) {
  return [Base, &Tr, &Parent, &Item, &Tally](
             TermManager &TM, const std::vector<const Term *> &Vars,
             const ml::Dataset &Data, uint64_t Seed) {
    ml::LearnOptions Opts = Base;
    Opts.LA.Seed = Seed;
    uint64_t Id = Tr.begin("ml.learn", Parent, Item);
    ml::LearnResult R = ml::learn(TM, Vars, Data, Opts);
    Tr.end(Id);
    ++Tally.Calls;
    Tally.Failed += R.Ok ? 0 : 1;
    Tally.Points += Data.size();
    Tally.Hyperplanes += R.NumHyperplanes;
    Tally.DtNodes += R.NumDtNodes;
    return R;
  };
}

/// Outcome of one corpus program.
struct ProgramRow {
  std::string Name;
  std::string Category;
  bool ExpectedSafe = false;
  chc::ChcResult Status = chc::ChcResult::Unknown;
  double Seconds = 0;        ///< solve() wall time
  double ValidateSeconds = 0;
  bool Late = false;
  bool Stopped = false;      ///< still running at budget + grace: cancelled
  bool Solved = false;
  bool Wrong = false;
  bool Unwitnessed = false;  ///< right verdict, no witness to check
  size_t Clauses = 0, Predicates = 0;
  chc::EngineStats Stats;
  solver::DataDrivenChcSolver::DetailedStats Details;
  std::vector<analysis::PassStats> Passes;
  LearnTally Learn;
  size_t Resolves = 0;       ///< re-solves for timing (runCorpus)
  size_t ResolvesFailed = 0; ///< of those, unwitnessed
  size_t ResolvesLate = 0;   ///< of those, late
};

struct SolveConfig {
  bool Analysis = true;
  bool WrapLearner = false;
};

ProgramRow solveProgram(const corpus::BenchmarkProgram &P, uint64_t Item,
                        const SolveConfig &Cfg, Tracer &Tr) {
  ProgramRow Row;
  Row.Name = P.Name;
  Row.Category = P.Category;
  Row.ExpectedSafe = P.ExpectedSafe;
  ScopedSpan Root(Tr, "program", 0, Item);

  TermManager TM;
  chc::ChcSystem System(TM);
  {
    ScopedSpan S(Tr, "frontend.encode", Root.id(), Item);
    if (!frontend::encodeMiniC(P.Source, System).Ok) {
      Row.Wrong = true; // the corpus guarantees every program encodes
      return Row;
    }
  }
  Row.Clauses = System.clauses().size();
  Row.Predicates = System.predicates().size();

  solver::DataDrivenOptions Opts = corpus::defaultOptionsFor(P, BudgetSeconds);
  Opts.EnableAnalysis = Cfg.Analysis;
  // The wrapper reads SolveSpan when it is called, after it is set below.
  uint64_t SolveSpan = 0;
  if (Cfg.WrapLearner)
    Opts.Learner = timedLearner(Opts.Learn, Tr, SolveSpan, Item, Row.Learn);
  auto Token = std::make_shared<CancellationToken>();
  Opts.Cancel = Token;
  solver::DataDrivenChcSolver Solver(Opts);

  SolveSpan = Tr.begin("solver.solve", Root.id(), Item);
  auto Stop = std::make_unique<Watchdog>(
      Token, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    BudgetSeconds + GraceSeconds)));
  Clock::time_point T0 = Clock::now();
  chc::ChcSolverResult R = Solver.solve(System);
  Row.Seconds = secondsBetween(T0, Clock::now());
  Stop.reset();
  Tr.end(SolveSpan);
  Row.Stopped = Token->cancelled();

  Row.Status = R.Status;
  Row.Stats = R.Stats;
  Row.Details = Solver.detailedStats();
  Row.Passes = Solver.analysisResult().Passes;
  // The analysis runs first inside solve(): place its passes back to back
  // from the solve span's start, using the durations the solver reports.
  if (Tr.enabled() && !Row.Passes.empty()) {
    double At = Tr.startOf(SolveSpan);
    uint64_t A = Tr.addDerived("analysis", SolveSpan, Item, At,
                               At + Row.Details.AnalysisSeconds);
    for (const analysis::PassStats &PS : Row.Passes) {
      Tr.addDerived("analysis." + PS.Name, A, Item, At, At + PS.Seconds);
      At += PS.Seconds;
    }
  }

  Row.Late = Row.Stopped || Row.Seconds > BudgetSeconds + GraceSeconds;
  if (R.Status == chc::ChcResult::Unknown)
    return Row;
  if ((R.Status == chc::ChcResult::Sat) != P.ExpectedSafe) {
    Row.Wrong = true;
    return Row;
  }
  ScopedSpan Check(Tr, "check", Root.id(), Item);
  Clock::time_point V0 = Clock::now();
  bool Holds = witnessHoldsOnFreshSystem(P, System, R, Tr, Check.id(), Item);
  Row.ValidateSeconds = secondsBetween(V0, Clock::now());
  if (!Holds) {
    if (R.Status == chc::ChcResult::Unsat && !R.Cex)
      Row.Unwitnessed = true;
    else
      Row.Wrong = true;
    return Row;
  }
  Row.Solved = !Row.Late;
  return Row;
}

std::string rowJson(const ProgramRow &R) {
  uint64_t LpPivots = 0;
  size_t XferHits = 0, VerifyChecks = 0;
  for (const analysis::PassStats &P : R.Passes) {
    LpPivots += P.LpPivots;
    XferHits += P.XferCacheHits;
    if (P.Name == "verify")
      VerifyChecks += P.SmtChecks;
  }
  return JsonRow()
      .str("program", R.Name)
      .str("category", R.Category)
      .flag("expected_safe", R.ExpectedSafe)
      .str("verdict", chc::toString(R.Status))
      .num("seconds", R.Seconds)
      .flag("late", R.Late)
      .flag("stopped", R.Stopped)
      .flag("solved", R.Solved)
      .flag("wrong", R.Wrong)
      .flag("unwitnessed", R.Unwitnessed)
      .num("validate_s", R.ValidateSeconds)
      .num("resolves", static_cast<double>(R.Resolves))
      .num("resolves_failed", static_cast<double>(R.ResolvesFailed))
      .num("resolves_late", static_cast<double>(R.ResolvesLate))
      .num("clauses", static_cast<double>(R.Clauses))
      .num("predicates", static_cast<double>(R.Predicates))
      .num("iterations", static_cast<double>(R.Stats.Iterations))
      .num("learn_calls", static_cast<double>(R.Details.LearnCalls))
      .num("samples", static_cast<double>(R.Stats.Samples))
      .num("smt_queries", static_cast<double>(R.Stats.SmtQueries))
      .num("checks_issued", static_cast<double>(R.Stats.Check.ChecksIssued))
      .num("check_cache_hits", static_cast<double>(R.Stats.Check.CacheHits))
      .num("scope_pushes", static_cast<double>(R.Stats.Check.ScopePushes))
      .num("solver_rebuilds", static_cast<double>(R.Stats.Check.SolverRebuilds))
      .num("conjunct_splits", static_cast<double>(R.Stats.Check.ConjunctSplits))
      .num("predicates_inlined", static_cast<double>(R.Details.PredicatesInlined))
      .num("lp_pivots", static_cast<double>(LpPivots))
      .num("xfer_hits", static_cast<double>(XferHits))
      .num("verify_checks", static_cast<double>(VerifyChecks))
      .flag("solved_by_analysis", R.Details.SolvedByAnalysis)
      .num("learn_hyperplanes", static_cast<double>(R.Learn.Hyperplanes))
      .num("learn_dt_nodes", static_cast<double>(R.Learn.DtNodes))
      .num("learn_points", static_cast<double>(R.Learn.Points))
      .line();
}

/// The run plan of a corpus workload: the corpus in seeded order.
std::vector<const corpus::BenchmarkProgram *> corpusPlan(uint64_t Seed) {
  std::vector<const corpus::BenchmarkProgram *> Plan;
  for (const corpus::BenchmarkProgram &P : corpus::allPrograms())
    Plan.push_back(&P);
  std::mt19937_64 Rng(Seed);
  std::shuffle(Plan.begin(), Plan.end(), Rng);
  return Plan;
}

/// Shared result of any workload run.
struct RunResult {
  size_t Attempted = 0;
  size_t Failed = 0;
  size_t Wrong = 0;
  Metrics EndToEnd;
  Metrics PerLayer;
};

server::ServiceOptions mixServiceOptions() {
  server::ServiceOptions SO;
  SO.Workers = std::max<size_t>(
      1, std::min<size_t>(MixWorkers, std::thread::hardware_concurrency()));
  SO.DefaultLimits = Budget{BudgetSeconds, 0};
  return SO;
}

/// The program's one-time set-up before its first solve: building the
/// corpus and, on serve-mix, the SMT-LIB2 corpus list, the engine registry
/// and the service with its workers. What it builds is built once per
/// process, so it is timed in a fresh process (`--setup-probe`, see
/// SetupSampler).
double timeSetUp(Workload Kind) {
  Clock::time_point T0 = Clock::now();
  corpus::allPrograms();
  std::unique_ptr<server::SolverService> Service;
  if (Kind == Workload::ServeMix) {
    corpus::smt2Benchmarks();
    solver::SolverRegistry::global();
    Service = std::make_unique<server::SolverService>(mixServiceOptions());
  }
  return secondsBetween(T0, Clock::now());
}

/// Takes `setup_s` samples over the whole run: each one starts this program
/// again with `--setup-probe`, which times the set-up and prints the
/// seconds. The set-up takes well under a millisecond, and how long moves
/// with the host's speed from second to second, so one sample is taken
/// every `SetupEverySeconds` while the workload runs and `setup_s` is their
/// median. The workload's own timings do not include the samples.
class SetupSampler {
public:
  SetupSampler(const std::string &WorkloadName) : WorkloadName(WorkloadName) {}

  /// Takes a sample when the last one is `SetupEverySeconds` old.
  void sampleIfDue() {
    if (Clock::now() >= Due)
      sample();
  }

  /// The median sample, after taking more if fewer than `SetupMinSamples`.
  double median() {
    while (Times.size() < SetupMinSamples)
      sample();
    return quantile(Times, 0.5);
  }

private:
  void sample() {
    int Pipe[2];
    if (pipe(Pipe) != 0)
      die("pipe failed");
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
    posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
    std::string Self = "/proc/self/exe";
    std::string Probe = "--setup-probe", Flag = "--workload";
    std::vector<char *> Argv = {Self.data(), Probe.data(), Flag.data(),
                                WorkloadName.data(), nullptr};
    pid_t Pid;
    int Err = posix_spawn(&Pid, Self.c_str(), &Actions, nullptr, Argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&Actions);
    close(Pipe[1]);
    if (Err != 0)
      die("cannot start the set-up probe");
    std::string Out;
    char Buf[64];
    ssize_t Got;
    while ((Got = read(Pipe[0], Buf, sizeof(Buf))) > 0 ||
           (Got < 0 && errno == EINTR))
      if (Got > 0)
        Out.append(Buf, static_cast<size_t>(Got));
    close(Pipe[0]);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    char *End = nullptr;
    double Seconds = std::strtod(Out.c_str(), &End);
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || End == Out.c_str())
      die("the set-up probe failed");
    Times.push_back(Seconds);
    Due = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(SetupEverySeconds));
  }

  [[noreturn]] static void die(const char *Message) {
    fprintf(stderr, "chcbench: %s\n", Message);
    std::exit(1);
  }

  std::string WorkloadName;
  std::vector<double> Times;
  Clock::time_point Due = Clock::now();
};

/// Per-layer numbers of one traced run, in the order they are reported. A
/// layer the workload does not reach stays 0.
struct LayerNumbers {
  double EncodeS = 0, Clauses = 0, Predicates = 0, ParseS = 0;
  double AnalysisS = 0, InlineS = 0, IntervalsS = 0, OctagonsS = 0,
         PolyhedraS = 0, VerifyS = 0;
  double Discharged = 0, Inlined = 0, LpPivots = 0, XferHitRate = 0,
         VerifyChecks = 0;
  double CegarS = 0, CegarSelfS = 0, Iterations = 0, LearnCalls = 0,
         Samples = 0, LateAnswers = 0;
  double LearnS = 0, MlCalls = 0, LearnUsPerCall = 0, PointsMean = 0,
         Hyperplanes = 0, DtNodes = 0, FailedFrac = 0;
  double Checks = 0, CheckHitRate = 0, Pushes = 0, Rebuilds = 0, Splits = 0;
  double Queries = 0, ValidateS = 0;
  double QueueP50 = 0, QueueP90 = 0, RunP50 = 0, RunP90 = 0,
         ServerHitRate = 0, HitLatencyP50 = 0, Rejected = 0, Expired = 0;
  double WindowP50 = 0, WindowP90 = 0, WindowRps = 0;
  double Spans = 0;
};

void addLayerMetrics(const LayerNumbers &L, Metrics &M) {
  M.add("frontend.encode_s", L.EncodeS, "s");
  M.add("frontend.clauses", L.Clauses, "count");
  M.add("frontend.predicates", L.Predicates, "count");
  M.add("smtlib2.parse_s", L.ParseS, "s");
  M.add("analysis.s", L.AnalysisS, "s");
  M.add("analysis.inline.s", L.InlineS, "s");
  M.add("analysis.intervals.s", L.IntervalsS, "s");
  M.add("analysis.octagons.s", L.OctagonsS, "s");
  M.add("analysis.polyhedra.s", L.PolyhedraS, "s");
  M.add("analysis.verify.s", L.VerifyS, "s");
  M.add("analysis.discharged", L.Discharged, "count");
  M.add("analysis.predicates_inlined", L.Inlined, "count");
  M.add("analysis.lp_pivots", L.LpPivots, "count");
  M.add("analysis.xfer_cache_hit_rate", L.XferHitRate, "ratio");
  M.add("analysis.verify_checks", L.VerifyChecks, "count");
  M.add("cegar.s", L.CegarS, "s");
  M.add("cegar.self_s", L.CegarSelfS, "s");
  M.add("cegar.iterations", L.Iterations, "count");
  M.add("cegar.learn_calls", L.LearnCalls, "count");
  M.add("cegar.samples", L.Samples, "count");
  M.add("cegar.late_answers", L.LateAnswers, "count");
  M.add("ml.learn_s", L.LearnS, "s");
  M.add("ml.learn_calls", L.MlCalls, "count");
  M.add("ml.learn_us_per_call", L.LearnUsPerCall, "us");
  M.add("ml.points_mean", L.PointsMean, "count");
  M.add("ml.hyperplanes", L.Hyperplanes, "count");
  M.add("ml.dt_nodes", L.DtNodes, "count");
  M.add("ml.failed_frac", L.FailedFrac, "ratio");
  M.add("chc.checks_issued", L.Checks, "count");
  M.add("chc.cache_hit_rate", L.CheckHitRate, "ratio");
  M.add("chc.scope_pushes", L.Pushes, "count");
  M.add("chc.solver_rebuilds", L.Rebuilds, "count");
  M.add("chc.conjunct_splits", L.Splits, "count");
  M.add("smt.queries", L.Queries, "count");
  M.add("smt.validate_s", L.ValidateS, "s");
  M.add("server.queue_wait_p50_s", L.QueueP50, "s");
  M.add("server.queue_wait_p90_s", L.QueueP90, "s");
  M.add("server.run_p50_s", L.RunP50, "s");
  M.add("server.run_p90_s", L.RunP90, "s");
  M.add("server.cache_hit_rate", L.ServerHitRate, "ratio");
  M.add("server.hit_latency_p50_s", L.HitLatencyP50, "s");
  M.add("server.rejected", L.Rejected, "count");
  M.add("server.expired_in_queue", L.Expired, "count");
  M.add("client.latency_p50_s", L.WindowP50, "s");
  M.add("client.latency_p90_s", L.WindowP90, "s");
  M.add("client.throughput_rps", L.WindowRps, "1/s");
  M.add("trace.spans", L.Spans, "count");
}

double lookup(const std::map<std::string, double> &M, const std::string &K) {
  auto It = M.find(K);
  return It == M.end() ? 0.0 : It->second;
}

/// Per-layer numbers of a corpus run. Times come from the spans and cover
/// every program; counts and ratios are summed over the programs decided
/// within the budget, on which they repeat exactly from run to run.
LayerNumbers corpusLayers(const std::vector<ProgramRow> &Rows,
                          const SpanTimes &Times) {
  LayerNumbers L;
  L.EncodeS = lookup(Times.Total, "frontend.encode");
  L.AnalysisS = lookup(Times.Total, "analysis");
  L.InlineS = lookup(Times.Total, "analysis.inline");
  L.IntervalsS = lookup(Times.Total, "analysis.intervals");
  L.OctagonsS = lookup(Times.Total, "analysis.octagons");
  L.PolyhedraS = lookup(Times.Total, "analysis.polyhedra");
  L.VerifyS = lookup(Times.Total, "analysis.verify");
  L.CegarS = lookup(Times.Total, "solver.solve");
  L.CegarSelfS = lookup(Times.Self, "solver.solve");
  L.LearnS = lookup(Times.Total, "ml.learn");
  L.ValidateS = lookup(Times.Total, "smt.validate");
  L.Spans = static_cast<double>(Times.Count);

  size_t AllLearnCalls = 0;
  double XferHits = 0, XferLookups = 0, CacheHits = 0, CacheLookups = 0;
  LearnTally Learn;
  for (const ProgramRow &R : Rows) {
    AllLearnCalls += R.Learn.Calls;
    L.LateAnswers += static_cast<double>(R.Late + R.ResolvesLate);
    if (!R.Solved)
      continue;
    const chc::CheckStats &C = R.Stats.Check;
    L.Clauses += static_cast<double>(R.Clauses);
    L.Predicates += static_cast<double>(R.Predicates);
    L.Discharged += R.Details.SolvedByAnalysis ? 1 : 0;
    L.Inlined += static_cast<double>(R.Details.PredicatesInlined);
    for (const analysis::PassStats &P : R.Passes) {
      L.LpPivots += static_cast<double>(P.LpPivots);
      XferHits += static_cast<double>(P.XferCacheHits);
      XferLookups += static_cast<double>(P.XferCacheHits + P.XferCacheMisses);
      if (P.Name == "verify")
        L.VerifyChecks += static_cast<double>(P.SmtChecks);
    }
    L.Iterations += static_cast<double>(R.Stats.Iterations);
    L.LearnCalls += static_cast<double>(R.Details.LearnCalls);
    L.Samples += static_cast<double>(R.Stats.Samples);
    L.Queries += static_cast<double>(R.Stats.SmtQueries);
    L.Checks += static_cast<double>(C.ChecksIssued);
    CacheHits += static_cast<double>(C.CacheHits);
    CacheLookups += static_cast<double>(C.CacheHits + C.CacheMisses);
    L.Pushes += static_cast<double>(C.ScopePushes);
    L.Rebuilds += static_cast<double>(C.SolverRebuilds);
    L.Splits += static_cast<double>(C.ConjunctSplits);
    Learn.Calls += R.Learn.Calls;
    Learn.Failed += R.Learn.Failed;
    Learn.Points += R.Learn.Points;
    Learn.Hyperplanes += R.Learn.Hyperplanes;
    Learn.DtNodes += R.Learn.DtNodes;
  }
  double Calls = static_cast<double>(Learn.Calls);
  L.XferHitRate = ratio(XferHits, XferLookups);
  L.CheckHitRate = ratio(CacheHits, CacheLookups);
  L.MlCalls = Calls;
  L.LearnUsPerCall = 1e6 * ratio(L.LearnS, static_cast<double>(AllLearnCalls));
  L.PointsMean = ratio(static_cast<double>(Learn.Points), Calls);
  L.Hyperplanes = static_cast<double>(Learn.Hyperplanes);
  L.DtNodes = static_cast<double>(Learn.DtNodes);
  L.FailedFrac = ratio(static_cast<double>(Learn.Failed), Calls);
  return L;
}

RunResult runCorpus(const Args &A, Tracer &Tr, const std::string &RowsPath) {
  SolveConfig Cfg;
  Cfg.Analysis = A.Kind == Workload::CorpusLa;
  Cfg.WrapLearner = A.Trace && A.Kind == Workload::CorpusCegar;

  SetupSampler Setup(A.WorkloadName);
  std::vector<const corpus::BenchmarkProgram *> Plan = corpusPlan(A.Seed);

  // One pass over the whole corpus, with the short solves re-timed beside
  // it and after it until the run's seconds are used up. Most programs take
  // milliseconds, and on a shared machine a solve's wall time moves by tens
  // of percent with slow spells that last seconds. So each program decided
  // quickly is solved again, untraced, and its time is the fastest of its
  // solves; spreading the re-solves over the whole run puts them into
  // different spells. The next re-solve is always of the quick program with
  // the fewest solves so far (the earliest found among equals), so after the
  // pass they go round in turn and every quick program gets nearly as many
  // samples. Every re-solve is checked like the first. A re-solve that is
  // wrong makes the program wrong; one that is unwitnessed counts in
  // `failed`; one that is late or answers unknown is only not solved. Those
  // give no sample.
  const size_t N = Plan.size();
  std::vector<ProgramRow> Rows;
  std::vector<std::vector<double>> Samples(N);
  std::vector<size_t> Quick; // in pass order
  Tracer Untraced(false, Clock::now());
  // Re-solves the quick program with the fewest solves; false when there
  // is none.
  auto RetimeNext = [&] {
    if (Quick.empty())
      return false;
    size_t Q = *std::min_element(Quick.begin(), Quick.end(),
                                 [&](size_t X, size_t Y) {
                                   return Rows[X].Resolves < Rows[Y].Resolves;
                                 });
    ProgramRow &First = Rows[Q];
    ProgramRow Again = solveProgram(*Plan[Q], Q + 1, Cfg, Untraced);
    ++First.Resolves;
    if (Again.Solved) {
      Samples[Q].push_back(Again.Seconds);
      return true;
    }
    fprintf(stderr, "chcbench: re-solve of %s answered %s after %.2fs\n",
            First.Name.c_str(), chc::toString(Again.Status), Again.Seconds);
    First.Wrong |= Again.Wrong;
    First.Solved &= !Again.Wrong;
    First.ResolvesFailed += Again.Unwitnessed;
    First.ResolvesLate += Again.Late;
    return true;
  };
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Seconds));
  double PassSeconds = 0, RetimeSpent = 0;
  for (size_t P = 0; P < N; ++P) {
    Setup.sampleIfDue();
    Clock::time_point T0 = Clock::now();
    Rows.push_back(solveProgram(*Plan[P], P + 1, Cfg, Tr));
    Clock::time_point T1 = Clock::now();
    PassSeconds += secondsBetween(T0, T1);
    Samples[P].push_back(Rows[P].Seconds);
    if (Rows[P].Solved && Rows[P].Seconds < RetimeBelowSeconds)
      Quick.push_back(P);
    while (T1 < Deadline && RetimeSpent < RetimeShare * PassSeconds &&
           RetimeNext()) {
      Clock::time_point T2 = Clock::now();
      RetimeSpent += secondsBetween(T1, T2);
      T1 = T2;
    }
  }
  while (Clock::now() < Deadline && RetimeNext())
    Setup.sampleIfDue();
  double Wall = secondsBetween(Start, Clock::now());
  for (size_t I = 0; I < N; ++I)
    Rows[I].Seconds = *std::min_element(Samples[I].begin(), Samples[I].end());

  std::ofstream Out(RowsPath);
  RunResult Res;
  double Par2 = 0, InTimeSeconds = 0;
  size_t Solved = 0, Late = 0;
  std::vector<double> Times, SolvedTimes;
  for (const ProgramRow &R : Rows) {
    Out << rowJson(R);
    Res.Attempted += 1 + R.Resolves;
    Res.Failed += R.ResolvesFailed;
    Times.push_back(R.Seconds);
    if (R.Solved)
      SolvedTimes.push_back(R.Seconds);
    if (!R.Late)
      InTimeSeconds += R.Seconds;
    Par2 += R.Solved ? R.Seconds : 2 * BudgetSeconds;
    Solved += R.Solved;
    Late += R.Late;
    Res.Wrong += R.Wrong;
    if (R.Wrong || R.Unwitnessed)
      ++Res.Failed;
    if (R.Wrong)
      fprintf(stderr, "chcbench: WRONG verdict or witness on %s (%s)\n",
              R.Name.c_str(), chc::toString(R.Status));
    if (R.Late)
      fprintf(stderr, "chcbench: late answer on %s: %s after %.2fs\n",
              R.Name.c_str(), chc::toString(R.Status), R.Seconds);
  }
  fprintf(stderr,
          "chcbench: %s solved %zu/%zu, late %zu, wrong %zu; pass %.1fs, "
          "%zu re-solves of %zu programs, %.1fs in all\n",
          A.WorkloadName.c_str(), Solved, Rows.size(), Late, Res.Wrong,
          PassSeconds, Res.Attempted - Rows.size(), Quick.size(), Wall);

  Metrics &M = Res.EndToEnd;
  M.add("solved", static_cast<double>(Solved), "count");
  M.add("par2_s", Par2 / static_cast<double>(Rows.size()), "s");
  M.add("solve_geomean_s", geomean(Times), "s");
  // How long a solved program's answer takes. Unsolved programs, which
  // `solved` and `par2_s` count, would put the 90th percentile right at the
  // budget on corpus-cegar, where about a tenth of the programs are unsolved.
  M.add("latency_p50_s", quantile(SolvedTimes, 0.5), "s");
  M.add("latency_p90_s", quantile(SolvedTimes, 0.9), "s");
  // Answers within the time limit per second spent on them; the time of late
  // answers, the defect that `cegar.late_answers` shows, is left out.
  M.add("throughput_rps",
        static_cast<double>(Rows.size() - Late) / InTimeSeconds, "1/s");
  M.add("setup_s", Setup.median(), "s");
  M.add("peak_rss_mb", peakRssMb(), "MB");
  if (A.Trace)
    addLayerMetrics(corpusLayers(Rows, spanTimes(Tr.spans())), Res.PerLayer);
  return Res;
}

//===----------------------------------------------------------------------===//
// serve-mix workload
//===----------------------------------------------------------------------===//

/// One distinct input of the serve mix.
struct MixInput {
  std::string Name;
  std::string Source;
  bool Smt2 = false;
  bool ExpectedSafe = false;
  /// The corpus program behind a mini-C input (null for SMT-LIB2 files).
  const corpus::BenchmarkProgram *Program = nullptr;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

std::vector<MixInput> mixInputs() {
  std::vector<MixInput> Inputs;
  for (const corpus::Smt2Benchmark &B : corpus::smt2Benchmarks()) {
    std::string Text = readFile(B.Path);
    if (Text.empty()) {
      fprintf(stderr, "chcbench: cannot read %s\n", B.Path.c_str());
      std::exit(1);
    }
    Inputs.push_back({B.Name, Text, true, B.ExpectedSafe, nullptr});
  }
  for (const corpus::BenchmarkProgram &P : corpus::allPrograms())
    if (std::find(std::begin(ServeMixExcluded), std::end(ServeMixExcluded),
                  P.Name) == std::end(ServeMixExcluded))
      Inputs.push_back({P.Name, P.Source, false, P.ExpectedSafe, &P});
  return Inputs;
}

/// The order in which the clients send the inputs: rounds, each a seeded
/// permutation of every input, so that every stretch of the window holds
/// nearly the same mix and every input gets nearly as many requests.
std::vector<size_t> requestOrder(uint64_t Seed, size_t NumInputs,
                                 size_t Rounds) {
  std::mt19937_64 Rng(Seed);
  std::vector<size_t> Order;
  std::vector<size_t> Round(NumInputs);
  for (size_t R = 0; R < Rounds; ++R) {
    for (size_t I = 0; I < NumInputs; ++I)
      Round[I] = I;
    std::shuffle(Round.begin(), Round.end(), Rng);
    Order.insert(Order.end(), Round.begin(), Round.end());
  }
  return Order;
}

/// The request for input \p In at place \p Tag of the sequence. The tag, a
/// trailing comment, makes the source text unique, so the memo cache cannot
/// answer the request unless the same text is sent again.
solver::SolveRequest mixRequest(const MixInput &In, uint64_t Tag) {
  solver::SolveRequest Req;
  Req.Source = In.Source + (In.Smt2 ? "\n; request " : "\n// request ") +
               std::to_string(Tag) + "\n";
  Req.Format =
      In.Smt2 ? solver::SourceFormat::SmtLib2 : solver::SourceFormat::MiniC;
  Req.Options.Limits = Budget{BudgetSeconds, 0};
  if (In.Program)
    Req.Options.Solver = corpus::defaultOptionsFor(*In.Program, BudgetSeconds);
  return Req;
}

/// Outcome of one serve-mix request as the client saw it: the parts of its
/// `JobResult` the benchmark reads. A run keeps every row, so a row holds no
/// text (models, diagnostics) whose size would make the benchmark's own
/// memory grow with the request count.
struct RequestRow {
  size_t Input = 0;
  uint64_t Tag = 0;
  const char *Phase = "window";
  bool Accepted = false;
  bool Ok = false; ///< accepted and answered without error
  chc::ChcResult Status = chc::ChcResult::Unknown;
  bool ModelValidated = false;
  bool CacheHit = false;
  bool ExpiredInQueue = false;
  double QueueSeconds = 0;
  double RunSeconds = 0;
  chc::EngineStats Solver;
  double Submitted = 0; ///< seconds since the window opened
  double Answered = 0;
  double Latency = 0; ///< submit -> ready future
  bool Solved = false;
  bool Wrong = false;
  bool Late = false;
};

/// Sends one request, waits for its answer and checks it against ground
/// truth: a definite verdict must match the input's, and every `sat`,
/// memo-cache hits included, must carry a validated model.
RequestRow sendRequest(server::SolverService &Service, const MixInput &In,
                       size_t Input, uint64_t Tag, Clock::time_point Origin,
                       Tracer &Tr, const char *Phase) {
  RequestRow Row;
  Row.Input = Input;
  Row.Tag = Tag;
  Row.Phase = Phase;
  solver::SolveRequest Req = mixRequest(In, Tag);
  uint64_t Root = Tr.begin(Phase, 0, Tag + 1);
  Clock::time_point T0 = Clock::now();
  server::Ticket T = Service.submit(std::move(Req));
  server::JobResult Job;
  if (T.Status == server::SubmitStatus::Accepted) {
    Row.Accepted = true;
    Job = T.Result.get();
  }
  Clock::time_point T1 = Clock::now();
  Tr.end(Root);
  Row.Submitted = secondsBetween(Origin, T0);
  Row.Answered = secondsBetween(Origin, T1);
  Row.Latency = secondsBetween(T0, T1);
  const solver::SolveResult &R = Job.Result;
  Row.Ok = Row.Accepted && R.Ok;
  Row.Status = R.Status;
  Row.ModelValidated = R.ModelValidated;
  Row.CacheHit = Job.CacheHit;
  Row.ExpiredInQueue = Job.ExpiredInQueue;
  Row.QueueSeconds = Job.QueueSeconds;
  Row.RunSeconds = Job.RunSeconds;
  Row.Solver = R.Solver;
  bool Definite = Row.Ok && R.Status != chc::ChcResult::Unknown;
  if (Definite) {
    bool Safe = R.Status == chc::ChcResult::Sat;
    Row.Wrong = Safe != In.ExpectedSafe || (Safe && !R.ModelValidated);
  }
  Row.Late = Row.Latency > BudgetSeconds + GraceSeconds;
  Row.Solved = Definite && !Row.Wrong && !Row.Late;
  return Row;
}

RunResult runServeMix(const Args &A, Tracer &Tr, const std::string &RowsPath) {
  SetupSampler Setup(A.WorkloadName);
  std::vector<MixInput> Inputs = mixInputs();
  const size_t N = Inputs.size();
  // Far more rounds than a window can use.
  const std::vector<size_t> Order = requestOrder(A.Seed, N, 256);
  server::SolverService Service(mixServiceOptions());
  const size_t Clients = Service.metrics().Workers;

  // Closed loop: each client sends the next request of the shared order
  // once its previous one is answered, until the window closes. Every
  // request is fresh: how often real clients repeat a request is not
  // known, so repeats are kept out of the timed window and the memo cache
  // is read in a phase of its own after it.
  // Room for every request a client could send, reserved up front: memory
  // is only touched as rows are written, and no reallocation copies them.
  std::vector<std::vector<RequestRow>> PerClient(Clients);
  for (std::vector<RequestRow> &Rows : PerClient)
    Rows.reserve(Order.size());
  std::atomic<size_t> Next{0};
  Clock::time_point Start = Clock::now();
  Clock::time_point Stop =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Seconds));
  auto Client = [&](size_t C) {
    while (Clock::now() < Stop) {
      size_t K = Next++;
      if (K >= Order.size())
        break;
      const MixInput &In = Inputs[Order[K]];
      PerClient[C].push_back(
          sendRequest(Service, In, Order[K], K, Start, Tr, "window"));
      // The parser/encoder cost of this input, timed outside the service
      // after the answer so the request's own latency does not include it.
      if (Tr.enabled()) {
        TermManager TM;
        chc::ChcSystem System(TM);
        ScopedSpan S(Tr, In.Smt2 ? "smtlib2.parse" : "frontend.encode", 0,
                     K + 1);
        if (In.Smt2)
          smtlib2::parseSmtLib2(In.Source, System);
        else
          frontend::encodeMiniC(In.Source, System);
      }
    }
  };
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  // The set-up samples run beside the clients, on the cores they leave.
  while (Clock::now() < Stop) {
    Setup.sampleIfDue();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread &T : Threads)
    T.join();
  std::vector<const RequestRow *> Window;
  for (const std::vector<RequestRow> &Rows : PerClient)
    for (const RequestRow &R : Rows)
      Window.push_back(&R);
  std::sort(Window.begin(), Window.end(),
            [](const RequestRow *X, const RequestRow *Y) {
              return X->Answered < Y->Answered;
            });
  server::ServiceMetrics SM = Service.metrics();

  // Memo-cache phase: the last definite answers of the window are sent
  // again verbatim, one after another, while a second client keeps sending
  // fresh requests that write the cache beside these reads.
  std::vector<RequestRow> Replays, After;
  {
    std::vector<const RequestRow *> Cached;
    for (auto It = Window.rbegin();
         It != Window.rend() && Cached.size() < CacheReplays; ++It)
      if ((*It)->Ok && (*It)->Status != chc::ChcResult::Unknown)
        Cached.push_back(*It);
    std::atomic<bool> Replaying{true};
    std::thread Fresh([&] {
      while (Replaying.load()) {
        size_t K = Next++;
        if (K >= Order.size())
          break;
        After.push_back(sendRequest(Service, Inputs[Order[K]], Order[K], K,
                                    Start, Tr, "fresh"));
      }
    });
    for (const RequestRow *Prev : Cached)
      Replays.push_back(sendRequest(Service, Inputs[Prev->Input], Prev->Input,
                                    Prev->Tag, Start, Tr, "replay"));
    Replaying = false;
    Fresh.join();
  }
  Service.shutdown(true);

  std::ofstream Out(RowsPath);
  RunResult Res;
  size_t Late = 0;
  std::vector<const RequestRow *> All = Window;
  for (const std::vector<RequestRow> *Rows : {&Replays, &After})
    for (const RequestRow &R : *Rows)
      All.push_back(&R);
  for (const RequestRow *Row : All) {
    const RequestRow &R = *Row;
    const MixInput &In = Inputs[R.Input];
    Out << JsonRow()
               .str("input", In.Name)
               .str("phase", R.Phase)
               .num("tag", static_cast<double>(R.Tag))
               .flag("accepted", R.Accepted)
               .flag("ok", R.Ok)
               .str("verdict", chc::toString(R.Status))
               .flag("cache_hit", R.CacheHit)
               .flag("model_validated", R.ModelValidated)
               .num("submitted_s", R.Submitted)
               .num("latency_s", R.Latency)
               .num("queue_s", R.QueueSeconds)
               .num("run_s", R.RunSeconds)
               .flag("late", R.Late)
               .flag("solved", R.Solved)
               .flag("wrong", R.Wrong)
               .line();
    ++Res.Attempted;
    Res.Wrong += R.Wrong;
    Late += R.Late;
    if (!R.Ok || R.Wrong || R.ExpiredInQueue)
      ++Res.Failed;
    if (R.Wrong)
      fprintf(stderr, "chcbench: WRONG answer on %s (%s, validated=%d)\n",
              In.Name.c_str(), chc::toString(R.Status), R.ModelValidated);
  }

  // Timings of the window, per input: whether a request for it was solved,
  // and its fastest answer. The end-to-end timings rest on each
  // input's fastest request, as the corpus workloads' rest on a program's
  // fastest solve, so that they hold still under the host's slow spells;
  // the window's raw client-side figures are reported per layer. An input
  // none of whose requests was answered misses any latency limit.
  struct InputTally {
    double BestSolved = INFINITY;
    double BestLatency = INFINITY;
    double BestRun = INFINITY;
  };
  std::map<size_t, InputTally> PerInput;
  std::vector<double> Latencies, RunTimes, QueueWaits;
  double FirstSubmit = INFINITY, LastAnswer = 0;
  for (const RequestRow *Row : Window) {
    const RequestRow &R = *Row;
    InputTally &T = PerInput[R.Input];
    if (R.Solved)
      T.BestSolved = std::min(T.BestSolved, R.Latency);
    Latencies.push_back(R.Ok ? R.Latency : 1e3 * BudgetSeconds);
    FirstSubmit = std::min(FirstSubmit, R.Submitted);
    LastAnswer = std::max(LastAnswer, R.Answered);
    if (!R.Accepted)
      continue;
    QueueWaits.push_back(R.QueueSeconds);
    RunTimes.push_back(R.RunSeconds);
    if (R.Ok)
      T.BestLatency = std::min(T.BestLatency, R.Latency);
    T.BestRun = std::min(T.BestRun, R.RunSeconds);
  }
  double Solved = 0, Par2 = 0, LatencySum = 0;
  std::vector<double> BestLatencies, BestRuns;
  for (const auto &[Input, T] : PerInput) {
    bool Ok = std::isfinite(T.BestSolved);
    Solved += Ok;
    Par2 += Ok ? T.BestSolved : 2 * BudgetSeconds;
    double Best =
        std::isfinite(T.BestLatency) ? T.BestLatency : 1e3 * BudgetSeconds;
    BestLatencies.push_back(Best);
    LatencySum += Best;
    if (std::isfinite(T.BestRun))
      BestRuns.push_back(T.BestRun);
  }
  size_t Hits = 0;
  std::vector<double> HitLatencies;
  for (const RequestRow &R : Replays)
    if (R.CacheHit) {
      ++Hits;
      HitLatencies.push_back(R.Latency);
    }
  fprintf(stderr,
          "chcbench: serve-mix %zu window requests over %zu inputs, %g "
          "inputs solved, %zu late, %zu wrong; %zu/%zu replays answered from "
          "the memo cache beside %zu fresh requests\n",
          Window.size(), PerInput.size(), Solved, Late, Res.Wrong, Hits,
          Replays.size(), After.size());

  Metrics &M = Res.EndToEnd;
  M.add("solved", Solved, "count");
  M.add("par2_s", ratio(Par2, static_cast<double>(PerInput.size())), "s");
  M.add("solve_geomean_s", geomean(BestRuns), "s");
  M.add("latency_p50_s", quantile(BestLatencies, 0.5), "s");
  M.add("latency_p90_s", quantile(BestLatencies, 0.9), "s");
  // The closed loop's rate by Little's law (no request waits for a worker):
  // clients over the mean time a request takes, here each input's fastest.
  M.add("throughput_rps",
        static_cast<double>(Clients) /
            ratio(LatencySum, static_cast<double>(PerInput.size())),
        "1/s");
  M.add("setup_s", Setup.median(), "s");
  M.add("peak_rss_mb", peakRssMb(), "MB");

  if (A.Trace) {
    // The service runs the solver in-process; its per-solve counters come
    // back in each result's EngineStats.
    SpanTimes Times = spanTimes(Tr.spans());
    LayerNumbers L;
    L.EncodeS = lookup(Times.Total, "frontend.encode");
    L.ParseS = lookup(Times.Total, "smtlib2.parse");
    L.Spans = static_cast<double>(Times.Count);
    L.LateAnswers = static_cast<double>(Late);
    double CacheHits = 0, CacheLookups = 0;
    for (const RequestRow *Row : Window) {
      const RequestRow &R = *Row;
      if (!R.Accepted)
        continue;
      const chc::EngineStats &S = R.Solver;
      L.CegarS += S.Seconds;
      L.Iterations += static_cast<double>(S.Iterations);
      L.Samples += static_cast<double>(S.Samples);
      L.Queries += static_cast<double>(S.SmtQueries);
      L.Checks += static_cast<double>(S.Check.ChecksIssued);
      CacheHits += static_cast<double>(S.Check.CacheHits);
      CacheLookups +=
          static_cast<double>(S.Check.CacheHits + S.Check.CacheMisses);
      L.Pushes += static_cast<double>(S.Check.ScopePushes);
      L.Rebuilds += static_cast<double>(S.Check.SolverRebuilds);
      L.Splits += static_cast<double>(S.Check.ConjunctSplits);
      // Parsing and model validation inside the façade: its run time
      // minus the engine's own seconds.
      L.ValidateS += std::max(0.0, R.RunSeconds - S.Seconds);
    }
    L.CheckHitRate = ratio(CacheHits, CacheLookups);
    L.QueueP50 = quantile(QueueWaits, 0.5);
    L.QueueP90 = quantile(QueueWaits, 0.9);
    L.RunP50 = quantile(RunTimes, 0.5);
    L.RunP90 = quantile(RunTimes, 0.9);
    L.ServerHitRate = ratio(static_cast<double>(Hits),
                            static_cast<double>(Replays.size()));
    L.HitLatencyP50 = quantile(HitLatencies, 0.5);
    L.WindowP50 = quantile(Latencies, 0.5);
    L.WindowP90 = quantile(Latencies, 0.9);
    L.WindowRps = ratio(static_cast<double>(Window.size()),
                        LastAnswer - FirstSubmit);
    L.Rejected = static_cast<double>(SM.Rejected);
    L.Expired = static_cast<double>(SM.ExpiredInQueue);
    addLayerMetrics(L, Res.PerLayer);
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Self-test: the Learner timing wrapper changes nothing
//===----------------------------------------------------------------------===//

/// Solves the whole corpus with the analysis off, once through the default
/// learner and once through the timing wrapper, and compares verdicts,
/// iterations, learn calls and clause checks on every program both runs
/// decide within the budget. Returns the process exit code.
int selfTest() {
  Tracer Off(false, Clock::now());
  Tracer On(true, Clock::now());
  SolveConfig Plain{false, false}, Wrapped{false, true};
  size_t Compared = 0, Mismatched = 0;
  for (const corpus::BenchmarkProgram &P : corpus::allPrograms()) {
    ProgramRow A = solveProgram(P, 1, Plain, Off);
    ProgramRow B = solveProgram(P, 1, Wrapped, On);
    if (!A.Solved || !B.Solved)
      continue;
    ++Compared;
    bool Same = A.Status == B.Status &&
                A.Stats.Iterations == B.Stats.Iterations &&
                A.Details.LearnCalls == B.Details.LearnCalls &&
                A.Stats.Check.ChecksIssued == B.Stats.Check.ChecksIssued &&
                B.Learn.Calls == B.Details.LearnCalls;
    if (!Same) {
      ++Mismatched;
      fprintf(stderr,
              "selftest: %s differs: verdict %s/%s iterations %zu/%zu "
              "learn calls %zu/%zu (wrapper saw %zu) checks %llu/%llu\n",
              P.Name.c_str(), chc::toString(A.Status), chc::toString(B.Status),
              A.Stats.Iterations, B.Stats.Iterations, A.Details.LearnCalls,
              B.Details.LearnCalls, B.Learn.Calls,
              static_cast<unsigned long long>(A.Stats.Check.ChecksIssued),
              static_cast<unsigned long long>(B.Stats.Check.ChecksIssued));
    }
  }
  printf("selftest: learner wrapper compared on %zu programs decided by both "
         "runs, %zu mismatched\n",
         Compared, Mismatched);
  return Mismatched == 0 && Compared > 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void writeSpans(const Tracer &Tr, const std::string &Path) {
  std::ofstream Out(Path);
  for (const Span &S : Tr.spans())
    Out << JsonRow()
               .num("id", static_cast<double>(S.Id))
               .num("parent", static_cast<double>(S.Parent))
               .num("item", static_cast<double>(S.Item))
               .str("name", S.Name)
               .num("start", S.Start)
               .num("end", S.End)
               .flag("derived", S.Derived)
               .line();
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--selftest") {
      A.SelfTest = true;
      continue;
    }
    if (Flag == "--setup-probe") {
      A.SetupProbe = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.WorkloadName = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--out")
      A.OutDir = V;
    else
      return false;
  }
  if (A.SelfTest)
    return true;
  if (A.WorkloadName == "corpus-la")
    A.Kind = Workload::CorpusLa;
  else if (A.WorkloadName == "corpus-cegar")
    A.Kind = Workload::CorpusCegar;
  else if (A.WorkloadName == "serve-mix")
    A.Kind = Workload::ServeMix;
  else
    return false;
  return A.SetupProbe || A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    fprintf(stderr,
            "usage: %s --workload corpus-la|corpus-cegar|serve-mix --seed N "
            "--seconds S --trace 0|1 [--out DIR]\n"
            "       %s --selftest\n",
            Argv[0], Argv[0]);
    return 2;
  }
  if (A.SelfTest)
    return selfTest();
  if (A.SetupProbe) {
    printf("%.17g\n", timeSetUp(A.Kind));
    return 0;
  }

  Tracer Tr(A.Trace, Clock::now());
  std::string Stem = A.OutDir + "/" + A.WorkloadName + "-seed" +
                     std::to_string(A.Seed) + "-trace" + (A.Trace ? "1" : "0");
  RunResult R = A.Kind == Workload::ServeMix
                    ? runServeMix(A, Tr, Stem + ".rows.jsonl")
                    : runCorpus(A, Tr, Stem + ".rows.jsonl");
  if (A.Trace)
    writeSpans(Tr, Stem + ".spans.jsonl");
  // The end-to-end numbers of a traced run are kept beside its spans, so the
  // tracing overhead is the traced file minus the untraced one.
  std::ofstream(Stem + ".e2e.json") << R.EndToEnd.json() << "\n";

  bool Correct = R.Wrong == 0;
  printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
         "\"metrics\": %s}\n",
         Correct ? "true" : "false", R.Attempted, R.Failed,
         (A.Trace ? R.PerLayer : R.EndToEnd).json().c_str());
  return Correct ? 0 : 1;
}
