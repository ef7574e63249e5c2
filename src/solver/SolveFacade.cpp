//===- solver/SolveFacade.cpp - One-call CHC solving façade ---------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/SolveFacade.h"

#include "frontend/Encoder.h"
#include "smtlib2/Parser.h"
#include "smtlib2/Printer.h"
#include "support/FileCache.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace la;
using namespace la::chc;

const char *solver::toString(SourceFormat F) {
  switch (F) {
  case SourceFormat::Auto:
    return "auto";
  case SourceFormat::SmtLib2:
    return "smt2";
  case SourceFormat::MiniC:
    return "mini-c";
  }
  return "?";
}

std::optional<solver::SourceFormat>
solver::parseSourceFormat(const std::string &Name) {
  if (Name == "auto")
    return SourceFormat::Auto;
  if (Name == "smt2" || Name == "smtlib2" || Name == "horn")
    return SourceFormat::SmtLib2;
  if (Name == "mini-c" || Name == "minic" || Name == "c")
    return SourceFormat::MiniC;
  return std::nullopt;
}

std::optional<double> solver::parseBudgetSeconds(const std::string &Text) {
  char *End = nullptr;
  double Seconds = std::strtod(Text.c_str(), &End);
  if (End == Text.c_str() || *End != '\0' || !std::isfinite(Seconds) ||
      Seconds <= 0)
    return std::nullopt;
  return Seconds;
}

std::optional<size_t> solver::parseCount(const std::string &Text) {
  size_t N = 0;
  const char *End = Text.data() + Text.size();
  std::from_chars_result R = std::from_chars(Text.data(), End, N);
  if (R.ec != std::errc() || R.ptr != End)
    return std::nullopt;
  return N;
}

std::string solver::SolveResult::summary() const {
  if (!Ok)
    return "error: " + Error;
  std::string Out = toString(Status);
  Out += " (" + SolverName + ", " + Solver.summary() + ")";
  size_t Inlined = 0, Removed = 0;
  for (const analysis::PassStats &P : AnalysisPasses) {
    Inlined += P.PredicatesInlined;
    Removed += P.ClausesRemoved;
  }
  if (Inlined + Removed > 0)
    Out += " [inlined " + std::to_string(Inlined) + " preds, removed " +
           std::to_string(Removed) + " clauses]";
  // Per-pass wall-clock and the new hot-path counters (transfer cache, LP
  // pivots) so a one-line summary shows where the analysis time went.
  if (!AnalysisPasses.empty()) {
    size_t XferHits = 0, XferMisses = 0;
    unsigned long long Pivots = 0;
    std::string Times;
    for (const analysis::PassStats &P : AnalysisPasses) {
      XferHits += P.XferCacheHits;
      XferMisses += P.XferCacheMisses;
      Pivots += P.LpPivots;
      char Seg[96];
      snprintf(Seg, sizeof(Seg), "%s%s %.0fms", Times.empty() ? "" : "  ",
               P.Name.c_str(), P.Seconds * 1000.0);
      Times += Seg;
    }
    Out += " [" + Times + "]";
    if (XferHits + XferMisses > 0)
      Out += " [xfer-cache " + std::to_string(XferHits) + "/" +
             std::to_string(XferHits + XferMisses) + "]";
    if (Pivots > 0)
      Out += " [lp-pivots " + std::to_string(Pivots) + "]";
  }
  if (SolvedByAnalysis)
    Out += " [solved by pre-analysis]";
  if (!Stages.empty()) {
    // Staged run: which rung of the ladder answered ('*'), and whether the
    // escalation race was needed at all.
    Out += " [stages:";
    for (const StageReport &S : Stages) {
      char Seg[96];
      snprintf(Seg, sizeof(Seg), " %s%s %.3fs", S.Stage.c_str(),
               S.Hit ? "*" : "", S.Seconds);
      Out += Seg;
    }
    Out += Escalated ? "; escalated]" : "]";
  }
  if (FromDiskCache)
    Out += " [disk-cache]";
  // Per-lane block for portfolio runs — and for any run with a killed or
  // crashed lane, so isolation events are never silent. `Engines` is sorted
  // by lane label, so the rendering is deterministic regardless of
  // completion order.
  bool AnyAbnormal =
      std::any_of(Engines.begin(), Engines.end(), [](const EngineReport &R) {
        return R.Crashed || R.Outcome != LaneOutcome::Completed;
      });
  if (Engines.size() > 1 || AnyAbnormal) {
    for (const EngineReport &R : Engines) {
      char Mark = R.Winner ? '*' : R.Crashed ? '!' : R.Cancelled ? '~' : ' ';
      char Line[160];
      snprintf(Line, sizeof(Line), "\n  %c %-12s %-8s %.3fs", Mark,
               R.Lane.c_str(), toString(R.Status), R.Seconds);
      Out += Line;
      if (R.Outcome != LaneOutcome::Completed)
        Out += std::string("  [") + la::toString(R.Outcome) + "]";
      if (R.Crashed || !R.Error.empty())
        Out += "  [" + R.Error + "]";
    }
  }
  return Out;
}

namespace {

std::string unknownEngineError(const solver::SolverRegistry &Registry,
                               const solver::EngineId &Id) {
  std::string Error = "unknown engine '" + Id.str() + "' (registered:";
  for (const solver::EngineId &Known : Registry.engineIds())
    Error += " " + Known.str();
  Error += ")";
  return Error;
}

} // namespace

solver::SolveResult solver::solveSystem(const ChcSystem &System,
                                        const SolveOptions &Opts) {
  SolveResult Out;
  Out.Clauses = System.clauses().size();
  Out.Predicates = System.predicates().size();
  Out.Recursive = System.isRecursive();

  const SolverRegistry &Registry = SolverRegistry::global();
  EngineOptions EO;
  EO.Limits = Opts.Limits;
  EO.Cancel = Opts.Cancel;
  EO.DataDriven = Opts.Solver;
  // The persistent clause-verdict tier rides inside the data-driven
  // options, so every lane (and the bare "la"/"analysis" engines) shares
  // one disk cache.
  EO.DataDriven.CheckCache = Opts.DiskCache;
  // Non-data-driven engines share the data-driven SMT budget by default.
  EO.Smt = Opts.Solver.Smt;

  // Resolve the schedule policy first: `auto` means staged when there is a
  // real engine choice to make, the plain race otherwise.
  SchedulePolicy Policy = Opts.Schedule.Policy;
  if (Policy == SchedulePolicy::Auto)
    Policy = Registry.selectable().size() >= 2 ? SchedulePolicy::Staged
                                               : SchedulePolicy::Race;

  std::unique_ptr<ChcSolverInterface> Solver;
  bool SingleLaneWrapper = false;
  if (Policy == SchedulePolicy::Staged) {
    // Built directly (not via the registry "staged" id) so the schedule
    // knobs, custom portfolio settings and isolation mode all survive.
    PortfolioOptions PO = Opts.Portfolio;
    PO.Lanes.clear(); // stages pick their own lanes
    PO.Base = EO;
    PO.Limits = PO.Limits.resolvedOver(Opts.Limits);
    if (Opts.Isolate == Isolation::Process)
      PO.Isolate = Isolation::Process;
    Solver = std::make_unique<StagedSolver>(Opts.Schedule, std::move(PO));
  } else if (Policy == SchedulePolicy::Race ||
             Opts.Engine == EngineId("portfolio")) {
    // Build the portfolio directly so custom lanes in `Opts.Portfolio`
    // survive; the registry path would drop them.
    PortfolioOptions PO = Opts.Portfolio;
    PO.Base = EO;
    PO.Limits = PO.Limits.resolvedOver(Opts.Limits);
    if (Opts.Isolate == Isolation::Process)
      PO.Isolate = Isolation::Process;
    Solver = std::make_unique<PortfolioSolver>(std::move(PO));
  } else if (Opts.Isolate == Isolation::Process) {
    // Single engine under process isolation: a one-lane portfolio gives the
    // fork/rlimit/kill machinery and the report classification for free.
    if (!Registry.contains(Opts.Engine)) {
      Out.Error = unknownEngineError(Registry, Opts.Engine);
      return Out;
    }
    PortfolioOptions PO = Opts.Portfolio;
    PO.Lanes = {{Opts.Engine, Opts.Engine.str(), {}}};
    PO.Isolate = Isolation::Process;
    PO.Base = EO;
    PO.Limits = PO.Limits.resolvedOver(Opts.Limits);
    PO.Name = Opts.Engine.str();
    Solver = std::make_unique<PortfolioSolver>(std::move(PO));
    SingleLaneWrapper = true;
  } else {
    Solver = Registry.create(Opts.Engine, EO);
    if (!Solver) {
      Out.Error = unknownEngineError(Registry, Opts.Engine);
      return Out;
    }
  }
  Out.Ok = true;
  Out.SolverName = Solver->name();

  ChcSolverResult R(System.termManager());
  try {
    R = Solver->solve(System);
  } catch (const std::exception &E) {
    // An engine throw must never escape the façade — in the daemon this is
    // the difference between one failed request and a dead worker. The
    // verdict stays Unknown and the report keeps the engine's own words.
    const char *What = E.what();
    EngineReport Rep;
    Rep.Lane = Opts.Engine.str();
    Rep.Engine = Opts.Engine.str();
    Rep.Name = Out.SolverName;
    Rep.Crashed = true;
    Rep.Outcome = LaneOutcome::Failed;
    Rep.Error = (What != nullptr && *What != '\0')
                    ? What
                    : "engine threw an exception with no message";
    Out.Engines.push_back(std::move(Rep));
    return Out;
  }
  Out.Status = R.Status;
  Out.Solver = R.Stats;
  if (R.Status == ChcResult::Sat) {
    Out.Model = R.Interp.toString();
    if (Opts.ValidateModel)
      Out.ModelValidated =
          checkInterpretation(System, R.Interp) == ClauseStatus::Valid;
  }
  if (R.Status == ChcResult::Unsat && R.Cex)
    Out.Cex = R.Cex->toString(System);

  if (auto *Staged = dynamic_cast<StagedSolver *>(Solver.get())) {
    Out.Engines = Staged->reports();
    Out.Stages = Staged->stages();
    Out.Escalated = Staged->escalated();
    Out.AnalysisPasses = Staged->probeAnalysis().Passes;
    Out.SolvedByAnalysis = Staged->solvedByProbe();
  } else if (auto *Portfolio = dynamic_cast<PortfolioSolver *>(Solver.get())) {
    Out.Engines = Portfolio->reports();
    // The implicit single-lane wrapper should read like the engine it ran:
    // surface the child-reported display name, not the wrapper's.
    if (SingleLaneWrapper && Out.Engines.size() == 1 &&
        !Out.Engines[0].Name.empty())
      Out.SolverName = Out.Engines[0].Name;
  } else {
    if (auto *DataDriven = dynamic_cast<DataDrivenChcSolver *>(Solver.get())) {
      Out.AnalysisPasses = DataDriven->analysisResult().Passes;
      Out.SolvedByAnalysis = DataDriven->detailedStats().SolvedByAnalysis;
    }
    EngineReport Rep;
    Rep.Lane = Opts.Engine.str();
    Rep.Engine = Opts.Engine.str();
    Rep.Name = Out.SolverName;
    Rep.Status = R.Status;
    Rep.Winner = R.Status != ChcResult::Unknown;
    Rep.Seconds = R.Stats.Seconds;
    Rep.Stats = R.Stats;
    Out.Engines.push_back(std::move(Rep));
  }
  return Out;
}

solver::SolveOptionsBuilder::Validated solver::SolveOptionsBuilder::build()
    const {
  Validated V;
  V.Options = Opts;
  const Budget &Limits = Opts.Limits;
  if (!(Limits.WallSeconds >= 0) || std::isinf(Limits.WallSeconds)) {
    V.Error = "wall budget must be a finite non-negative number of seconds";
    return V;
  }
  if (Opts.Schedule.TopK < 1) {
    V.Error = "staged scheduling needs top-k >= 1";
    return V;
  }
  if (Opts.Schedule.ProbeFraction < 0 || Opts.Schedule.ProbeFraction > 1 ||
      Opts.Schedule.StagedFraction < 0 || Opts.Schedule.StagedFraction > 1) {
    V.Error = "probe/staged budget fractions must lie in [0, 1]";
    return V;
  }
  if (CrashEngines && Opts.Isolate != Isolation::Process) {
    V.Error = "crash engines require process isolation "
              "(--isolation process): a thread-mode segfault kills the "
              "whole process";
    return V;
  }
  if (EngineExplicit && ScheduleExplicit &&
      Opts.Schedule.Policy != SchedulePolicy::Single &&
      Opts.Engine != EngineId("portfolio")) {
    V.Error = "an explicit engine ('" + Opts.Engine.str() +
              "') contradicts schedule policy '" +
              toString(Opts.Schedule.Policy) +
              "', which picks engines itself; drop one of the two";
    return V;
  }
  V.Ok = true;
  return V;
}

namespace {

/// Budgets are bucketed by ceil(log2(seconds)) so near-identical budgets
/// share cache records while a much larger budget (which could turn an
/// Unknown into a verdict) gets its own keyspace. -1 = unlimited.
int budgetBucket(double WallSeconds) {
  if (WallSeconds <= 0)
    return -1;
  int B = 0;
  double V = 1;
  while (V < WallSeconds && B < 24) {
    V *= 2;
    ++B;
  }
  return B;
}

std::string verdictCacheKey(const ChcSystem &System,
                            const solver::SolveOptions &Opts) {
  smtlib2::PrintOptions PO;
  PO.ClauseComments = false;
  // The schedule policy (and its top-k width) is part of the key: under
  // `single` the verdict depends on which engine ran, under `staged` on how
  // far the escalation ladder got within the budget.
  std::string Policy = solver::toString(Opts.Schedule.Policy);
  if (Opts.Schedule.Policy == solver::SchedulePolicy::Staged ||
      Opts.Schedule.Policy == solver::SchedulePolicy::Auto)
    Policy += "k" + std::to_string(Opts.Schedule.TopK);
  return "v2|" + FileCache::hashKey(smtlib2::printSmtLib2(System, PO)) + "|" +
         Opts.Engine.str() + "|" + Policy + "|b" +
         std::to_string(budgetBucket(Opts.Limits.WallSeconds)) + "|" +
         (Opts.ValidateModel ? "val" : "noval");
}

void putBlock(std::string &Out, const char *Tag, const std::string &Text) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Text.size());
  Out += '\n';
  Out += Text;
  Out += '\n';
}

bool getBlock(std::istream &In, const char *Tag, std::string &Out) {
  std::string Word;
  size_t Len = 0;
  if (!(In >> Word) || Word != Tag || !(In >> Len) || In.get() != '\n')
    return false;
  if (Len > (size_t(1) << 28))
    return false;
  Out.resize(Len);
  if (Len > 0 && !In.read(Out.data(), static_cast<std::streamsize>(Len)))
    return false;
  return In.get() == '\n';
}

void putStats(std::string &Out, const EngineStats &S) {
  const CheckStats &C = S.Check;
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "stats %zu %zu %zu %.6f %zu %zu %llu %llu %llu %llu %llu %llu "
           "%llu %llu %llu %llu %llu\n",
           S.SmtQueries, S.Samples, S.Iterations, S.Seconds, S.TemplatesMined,
           S.PolyhedraFacts, static_cast<unsigned long long>(C.ChecksIssued),
           static_cast<unsigned long long>(C.CacheHits),
           static_cast<unsigned long long>(C.CacheMisses),
           static_cast<unsigned long long>(C.CacheEvictions),
           static_cast<unsigned long long>(C.ScopePushes),
           static_cast<unsigned long long>(C.SolverRebuilds),
           static_cast<unsigned long long>(C.RebuildsAvoided),
           static_cast<unsigned long long>(C.ConjunctSplits),
           static_cast<unsigned long long>(C.DiskHits),
           static_cast<unsigned long long>(C.DiskMisses),
           static_cast<unsigned long long>(C.DiskStores));
  Out += Buf;
}

bool getStats(std::istream &In, EngineStats &S) {
  std::string Word;
  CheckStats &C = S.Check;
  return static_cast<bool>(
      (In >> Word) && Word == "stats" &&
      (In >> S.SmtQueries >> S.Samples >> S.Iterations >> S.Seconds >>
       S.TemplatesMined >> S.PolyhedraFacts >> C.ChecksIssued >> C.CacheHits >>
       C.CacheMisses >> C.CacheEvictions >> C.ScopePushes >> C.SolverRebuilds >>
       C.RebuildsAvoided >> C.ConjunctSplits >> C.DiskHits >> C.DiskMisses >>
       C.DiskStores));
}

std::optional<ChcResult> parseStatus(const std::string &Word) {
  if (Word == "sat")
    return ChcResult::Sat;
  if (Word == "unsat")
    return ChcResult::Unsat;
  if (Word == "unknown")
    return ChcResult::Unknown;
  return std::nullopt;
}

} // namespace

std::string solver::serializeResult(const SolveResult &R) {
  // Version 2: the engine line grew the lane index + race-clock offsets,
  // and stage records follow the engine list. Version-1 records simply
  // read as cache misses.
  std::string Out = "la-solve 2\n";
  Out += std::string("status ") + chc::toString(R.Status) + "\n";
  Out += "flags " + std::to_string(R.ModelValidated ? 1 : 0) + ' ' +
         std::to_string(R.Recursive ? 1 : 0) + ' ' +
         std::to_string(R.SolvedByAnalysis ? 1 : 0) + ' ' +
         std::to_string(R.Escalated ? 1 : 0) + '\n';
  Out += "sizes " + std::to_string(R.Clauses) + ' ' +
         std::to_string(R.Predicates) + '\n';
  putBlock(Out, "solver", R.SolverName);
  putBlock(Out, "model", R.Model);
  putBlock(Out, "cex", R.Cex);
  putStats(Out, R.Solver);
  Out += "engines " + std::to_string(R.Engines.size()) + '\n';
  for (const EngineReport &E : R.Engines) {
    char Buf[192];
    snprintf(Buf, sizeof(Buf), "engine %s %d %d %d %d %.6f %zu %.6f %.6f %.6f\n",
             chc::toString(E.Status), E.Winner ? 1 : 0, E.Cancelled ? 1 : 0,
             E.Crashed ? 1 : 0, static_cast<int>(E.Outcome), E.Seconds,
             E.LaneIndex, E.QueuedSeconds, E.StartSeconds, E.StopSeconds);
    Out += Buf;
    putBlock(Out, "lane", E.Lane);
    putBlock(Out, "id", E.Engine);
    putBlock(Out, "name", E.Name);
    putBlock(Out, "error", E.Error);
    putStats(Out, E.Stats);
  }
  Out += "stages " + std::to_string(R.Stages.size()) + '\n';
  for (const StageReport &S : R.Stages) {
    char Buf[128];
    snprintf(Buf, sizeof(Buf), "stage %s %d %.6f %.6f\n",
             chc::toString(S.Status), S.Hit ? 1 : 0, S.BudgetSeconds,
             S.Seconds);
    Out += Buf;
    putBlock(Out, "stage-name", S.Stage);
    Out += "stage-engines " + std::to_string(S.Engines.size()) + '\n';
    for (const std::string &E : S.Engines)
      putBlock(Out, "stage-engine", E);
  }
  Out += "end\n";
  return Out;
}

bool solver::deserializeResult(const std::string &Text, SolveResult &R) {
  std::istringstream In(Text);
  std::string Word;
  int Version = 0;
  if (!(In >> Word >> Version) || Word != "la-solve" || Version != 2)
    return false;
  if (!(In >> Word) || Word != "status" || !(In >> Word))
    return false;
  std::optional<ChcResult> Status = parseStatus(Word);
  if (!Status)
    return false;
  R.Status = *Status;
  int Validated = 0;
  int Recursive = 0;
  int ByAnalysis = 0;
  int Escalated = 0;
  if (!(In >> Word) || Word != "flags" ||
      !(In >> Validated >> Recursive >> ByAnalysis >> Escalated))
    return false;
  R.ModelValidated = Validated != 0;
  R.Recursive = Recursive != 0;
  R.SolvedByAnalysis = ByAnalysis != 0;
  R.Escalated = Escalated != 0;
  if (!(In >> Word) || Word != "sizes" || !(In >> R.Clauses >> R.Predicates))
    return false;
  In.ignore(1, '\n');
  if (!getBlock(In, "solver", R.SolverName) || !getBlock(In, "model", R.Model) ||
      !getBlock(In, "cex", R.Cex) || !getStats(In, R.Solver))
    return false;
  size_t NumEngines = 0;
  if (!(In >> Word) || Word != "engines" || !(In >> NumEngines) ||
      NumEngines > 256)
    return false;
  R.Engines.resize(NumEngines);
  for (EngineReport &E : R.Engines) {
    int Winner = 0;
    int Cancelled = 0;
    int Crashed = 0;
    int Outcome = 0;
    if (!(In >> Word) || Word != "engine" || !(In >> Word))
      return false;
    Status = parseStatus(Word);
    if (!Status || !(In >> Winner >> Cancelled >> Crashed >> Outcome) ||
        !(In >> E.Seconds >> E.LaneIndex >> E.QueuedSeconds >>
          E.StartSeconds >> E.StopSeconds))
      return false;
    E.Status = *Status;
    E.Winner = Winner != 0;
    E.Cancelled = Cancelled != 0;
    E.Crashed = Crashed != 0;
    if (Outcome < 0 || Outcome > static_cast<int>(LaneOutcome::MemoryLimit))
      return false;
    E.Outcome = static_cast<LaneOutcome>(Outcome);
    In.ignore(1, '\n');
    if (!getBlock(In, "lane", E.Lane) || !getBlock(In, "id", E.Engine) ||
        !getBlock(In, "name", E.Name) || !getBlock(In, "error", E.Error) ||
        !getStats(In, E.Stats))
      return false;
  }
  size_t NumStages = 0;
  if (!(In >> Word) || Word != "stages" || !(In >> NumStages) || NumStages > 16)
    return false;
  R.Stages.resize(NumStages);
  for (StageReport &S : R.Stages) {
    int Hit = 0;
    if (!(In >> Word) || Word != "stage" || !(In >> Word))
      return false;
    Status = parseStatus(Word);
    if (!Status || !(In >> Hit >> S.BudgetSeconds >> S.Seconds))
      return false;
    S.Status = *Status;
    S.Hit = Hit != 0;
    In.ignore(1, '\n');
    if (!getBlock(In, "stage-name", S.Stage))
      return false;
    size_t NumLabels = 0;
    if (!(In >> Word) || Word != "stage-engines" || !(In >> NumLabels) ||
        NumLabels > 256)
      return false;
    In.ignore(1, '\n');
    S.Engines.resize(NumLabels);
    for (std::string &L : S.Engines)
      if (!getBlock(In, "stage-engine", L))
        return false;
  }
  if (!(In >> Word) || Word != "end")
    return false;
  R.Ok = true;
  R.Error.clear();
  return true;
}

solver::SourceFormat solver::detectFormat(const std::string &Path,
                                          const std::string &Source) {
  // Conclusive extensions first.
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::string(Suffix).size();
    return Path.size() >= N && Path.compare(Path.size() - N, N, Suffix) == 0;
  };
  if (EndsWith(".smt2") || EndsWith(".sl") || EndsWith(".chc"))
    return SourceFormat::SmtLib2;
  if (EndsWith(".c") || EndsWith(".mc") || EndsWith(".minic"))
    return SourceFormat::MiniC;
  // Content sniff: the first token after whitespace and `;` line comments.
  // SMT-LIB2 scripts open with `(`; mini-C opens with a declaration or
  // statement keyword. Anything else is inconclusive — returning Auto (not
  // guessing) lets `solve()` run the deterministic two-parser fallback and
  // report a diagnostic naming both rejected interpretations.
  size_t I = 0;
  while (I < Source.size()) {
    char C = Source[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (C == ';') {
      while (I < Source.size() && Source[I] != '\n')
        ++I;
      continue;
    }
    break;
  }
  if (I < Source.size() && Source[I] == '(')
    return SourceFormat::SmtLib2;
  size_t End = I;
  while (End < Source.size() &&
         (std::isalpha(static_cast<unsigned char>(Source[End])) != 0 ||
          Source[End] == '_'))
    ++End;
  std::string Word = Source.substr(I, End - I);
  for (const char *Kw : {"int", "assume", "assert", "while", "if", "return"})
    if (Word == Kw)
      return SourceFormat::MiniC;
  return SourceFormat::Auto;
}

solver::SolveResult solver::solve(const SolveRequest &Request) {
  std::string Source;
  if (!Request.Path.empty()) {
    std::ifstream In(Request.Path);
    if (!In) {
      SolveResult Out;
      Out.Error = "cannot open " + Request.Path;
      return Out;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  } else {
    Source = Request.Source;
  }

  SourceFormat Format = Request.Format;
  if (Format == SourceFormat::Auto)
    Format = detectFormat(Request.Path, Source);

  auto TM = std::make_unique<TermManager>();
  auto System = std::make_unique<ChcSystem>(*TM);
  smtlib2::ParseOptions PO;
  PO.Filename = Request.Path;
  if (Format == SourceFormat::SmtLib2) {
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Source, *System, PO);
    if (!P.Ok) {
      SolveResult Out;
      Out.Format = Format;
      Out.Error = "parse error: " + P.error(PO);
      return Out;
    }
  } else if (Format == SourceFormat::MiniC) {
    frontend::EncodeResult E = frontend::encodeMiniC(Source, *System);
    if (!E.Ok) {
      SolveResult Out;
      Out.Format = Format;
      Out.Error = "parse error: " + E.Error;
      return Out;
    }
  } else {
    // Inconclusive sniff: deterministic fallback order — mini-C first (the
    // paper's native language), then SMT-LIB2. A partially-populated system
    // must be discarded, so each attempt parses into a fresh one.
    frontend::EncodeResult E = frontend::encodeMiniC(Source, *System);
    if (E.Ok) {
      Format = SourceFormat::MiniC;
    } else {
      auto TM2 = std::make_unique<TermManager>();
      auto System2 = std::make_unique<ChcSystem>(*TM2);
      smtlib2::ParseResult P = smtlib2::parseSmtLib2(Source, *System2, PO);
      if (P.Ok) {
        Format = SourceFormat::SmtLib2;
        TM = std::move(TM2);
        System = std::move(System2);
      } else {
        SolveResult Out;
        Out.Error = "cannot determine input format: not mini-C (" + E.Error +
                    "); not SMT-LIB2 (" + P.error(PO) + ")";
        return Out;
      }
    }
  }

  // Persistent verdict tier: the key canonicalises the *parsed* system via
  // the SMT-LIB2 printer, so mini-C and HORN spellings of the same system,
  // or the same script with different comments, share one record.
  std::string CacheKey;
  if (Request.Options.DiskCache) {
    CacheKey = verdictCacheKey(*System, Request.Options);
    std::string Stored;
    SolveResult Cached;
    if (Request.Options.DiskCache->lookup(CacheKey, Stored) &&
        deserializeResult(Stored, Cached)) {
      Cached.FromDiskCache = true;
      Cached.Format = Format;
      return Cached;
    }
  }

  SolveResult Out = solveSystem(*System, Request.Options);
  Out.Format = Format;
  // Only definitive, error-free verdicts are worth persisting: Unknown is
  // budget-dependent and must be retried with the next budget.
  if (Request.Options.DiskCache && Out.Ok &&
      Out.Status != ChcResult::Unknown)
    Request.Options.DiskCache->store(CacheKey, serializeResult(Out));
  return Out;
}

solver::SolveResult solver::solveChcText(const std::string &Text,
                                         const SolveOptions &Opts) {
  SolveRequest Request;
  Request.Source = Text;
  Request.Format = SourceFormat::SmtLib2;
  Request.Options = Opts;
  return solve(Request);
}

solver::SolveResult solver::solveFile(const std::string &Path,
                                      const SolveOptions &Opts) {
  SolveRequest Request;
  Request.Path = Path;
  Request.Options = Opts;
  return solve(Request);
}
