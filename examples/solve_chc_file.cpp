//===- examples/solve_chc_file.cpp - Command-line CHC solver --------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
// The command-line driver over the façade's request API. Solves SMT-LIB2
// HORN files (the CHC-COMP exchange format restricted to linear integer
// arithmetic) and mini-C programs, auto-detecting the format:
//
//   $ ./solve_chc_file file.smt2
//   $ ./solve_chc_file program.c --engine portfolio --budget 30
//   $ ./solve_chc_file input.txt --format smt2 --schedule staged
//
// Flags:
//
//   --format auto|smt2|mini-c       input language (default: auto-detect)
//   --engine <id>                   registry engine id: la (default),
//                                   portfolio, analysis, spacer, gpdr, ...
//   --budget <seconds>              wall-clock budget (default 60)
//   --schedule single|race|staged|auto
//                                   engine schedule: `single` runs exactly
//                                   --engine, `race` the full portfolio,
//                                   `staged` the probe -> top-k -> race
//                                   escalation ladder
//   --selector <file>               table-driven selector model for staged
//                                   runs (fit by bench/fit_selector.py)
//
// Prints sat/unsat/unknown plus the witness, mirroring `z3
// fp.engine=spacer file.smt2` usage. "portfolio" races the registered
// engines in parallel and reports the first definitive answer. Flags are
// assembled through `SolveOptionsBuilder`, so contradictions (an explicit
// --engine under --schedule race) are rejected up front with a message
// instead of silently running something else.
//
//===----------------------------------------------------------------------===//

#include "baselines/RegisterEngines.h"
#include "solver/SolveFacade.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace la;
using namespace la::chc;

namespace {

int usage(const char *Prog) {
  std::string Ids;
  for (const solver::EngineId &Id :
       solver::SolverRegistry::global().engineIds())
    Ids += (Ids.empty() ? "" : "|") + Id.str();
  fprintf(stderr,
          "usage: %s <file> [--format auto|smt2|mini-c] [--engine %s]\n"
          "       %*s [--budget seconds] [--schedule single|race|staged|auto]\n"
          "       %*s [--selector model-file]\n",
          Prog, Ids.c_str(), static_cast<int>(strlen(Prog)), "",
          static_cast<int>(strlen(Prog)), "");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // Make the baseline engines (pdr/spacer, unwind/duality, pie, dig, ...)
  // available by name next to the built-in la/analysis/portfolio.
  baselines::registerBuiltinEngines();

  solver::SolveRequest Request;
  solver::SolveOptions Defaults;
  Defaults.Limits.WallSeconds = 60;
  Defaults.Solver.Learn.ModFeatures = {2, 3}; // generic mod features
  solver::SolveOptionsBuilder Builder(std::move(Defaults));

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto FlagValue = [&](const char *Flag) -> const char * {
      if (Arg != Flag)
        return nullptr;
      if (I + 1 >= Argc) {
        fprintf(stderr, "error: %s needs a value\n", Flag);
        exit(2);
      }
      return Argv[++I];
    };
    if (const char *V = FlagValue("--format")) {
      std::optional<solver::SourceFormat> F = solver::parseSourceFormat(V);
      if (!F) {
        fprintf(stderr, "error: unknown format '%s'\n", V);
        return 2;
      }
      Request.Format = *F;
    } else if (const char *V = FlagValue("--engine")) {
      Builder.engine(solver::EngineId(V));
    } else if (const char *V = FlagValue("--budget")) {
      std::optional<double> Seconds = solver::parseBudgetSeconds(V);
      if (!Seconds) {
        fprintf(stderr, "error: bad budget '%s' (want seconds > 0)\n", V);
        return 2;
      }
      Builder.wallSeconds(*Seconds);
    } else if (const char *V = FlagValue("--schedule")) {
      std::optional<solver::SchedulePolicy> P = solver::parseSchedulePolicy(V);
      if (!P) {
        fprintf(stderr,
                "error: unknown schedule '%s' (want single, race, staged or "
                "auto)\n",
                V);
        return 2;
      }
      Builder.schedule(*P);
    } else if (const char *V = FlagValue("--selector")) {
      std::string Error;
      std::shared_ptr<solver::TableSelector> Selector =
          solver::TableSelector::loadFile(V, Error);
      if (!Selector) {
        fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
      Builder.selector(std::move(Selector));
    } else if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    } else if (Request.Path.empty()) {
      Request.Path = Arg;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Request.Path.empty())
    return usage(Argv[0]);

  solver::SolveOptionsBuilder::Validated V = Builder.build();
  if (!V.Ok) {
    fprintf(stderr, "error: %s\n", V.Error.c_str());
    return 2;
  }
  Request.Options = std::move(V.Options);

  // The façade owns file I/O, format detection, parsing, engine
  // construction (through the registry) and model validation; this driver
  // only fills in the request.
  solver::SolveResult S = solver::solve(Request);
  if (!S.Ok) {
    fprintf(stderr, "error: %s\n", S.Error.c_str());
    return 2;
  }
  fprintf(stderr, "; %zu clauses, %zu predicates, %s, format=%s, solver=%s\n",
          S.Clauses, S.Predicates, S.Recursive ? "recursive" : "non-recursive",
          solver::toString(S.Format), S.SolverName.c_str());
  printf("%s\n", toString(S.Status));
  fprintf(stderr, "; stats: %s\n", S.Solver.summary().c_str());
  for (const analysis::PassStats &Pass : S.AnalysisPasses)
    fprintf(stderr, "; analysis: %s\n", Pass.toString().c_str());
  // Per-stage records of a staged run (* = the stage produced the verdict).
  for (const solver::StageReport &Stage : S.Stages)
    fprintf(stderr, "; stage %c %-8s budget %.3fs spent %.3fs %s\n",
            Stage.Hit ? '*' : ' ', Stage.Stage.c_str(), Stage.BudgetSeconds,
            Stage.Seconds, toString(Stage.Status));
  // Per-lane reports (one line for single-engine runs, one per lane for the
  // portfolio; * winner, ! crashed, ~ cancelled).
  for (const solver::EngineReport &R : S.Engines)
    fprintf(stderr, "; lane %c %-12s %-8s %.3fs%s%s\n",
            R.Winner ? '*' : R.Crashed ? '!' : R.Cancelled ? '~' : ' ',
            R.Lane.c_str(), toString(R.Status), R.Seconds,
            R.Error.empty() ? "" : " error: ", R.Error.c_str());
  if (S.Status == ChcResult::Sat) {
    fprintf(stderr, "; model:\n%s", S.Model.c_str());
    if (!S.ModelValidated) {
      fprintf(stderr, "; INTERNAL ERROR: model failed validation\n");
      return 1;
    }
  }
  if (S.Status == ChcResult::Unsat && !S.Cex.empty())
    fprintf(stderr, "; %s", S.Cex.c_str());
  return 0;
}
