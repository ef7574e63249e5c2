//===- examples/chc_serve.cpp - Solver-as-a-service daemon ----------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
// The solver daemon: a thread pool serving solve requests over a stdin/
// stdout line protocol (see server/Daemon.h for the grammar):
//
//   $ ./chc_serve --workers 8 --queue 64 --budget 30
//       [--isolation process] [--cache-dir /var/tmp/chc-cache]
//       [--schedule staged] [--selector model.txt]
//   solve job1 benchmarks/counter.smt2 engine=portfolio budget=10
//   metrics
//   shutdown
//
// Responses arrive as jobs finish, tagged with the client-chosen id, so
// many requests can be in flight at once. A full queue answers
// `rejected <id> retry-after=<seconds>` instead of buffering unboundedly.
//
// `--isolation process` forks every engine lane into a hard-killable
// child, so a segfaulting or runaway engine cannot take the daemon down.
// `--cache-dir DIR` persists definitive verdicts (and Valid clause-check
// records) on disk, surviving daemon restarts and crashes.
// `--schedule staged|race|auto|single` sets the default per-request
// schedule (requests override with `schedule=`); `--selector FILE` loads
// a table-driven engine-selector model fit by `bench/fit_selector.py`.
//
//===----------------------------------------------------------------------===//

#include "baselines/RegisterEngines.h"
#include "server/Daemon.h"
#include "support/FileCache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>

using namespace la;

namespace {

/// The parsed value of \p Flag; exits 2 naming \p Text when parsing failed.
template <typename T>
T valueOrExit(std::optional<T> Parsed, const char *Flag, const char *Text) {
  if (!Parsed) {
    fprintf(stderr, "error: bad %s value '%s'\n", Flag, Text);
    exit(2);
  }
  return *Parsed;
}

} // namespace

int main(int Argc, char **Argv) {
  baselines::registerBuiltinEngines();

  server::DaemonOptions Opts;
  bool CrashEngines = false;
  for (int I = 1; I < Argc; ++I) {
    auto FlagValue = [&](const char *Flag) -> const char * {
      if (strcmp(Argv[I], Flag) != 0)
        return nullptr;
      if (I + 1 >= Argc) {
        fprintf(stderr, "error: %s needs a value\n", Flag);
        exit(2);
      }
      return Argv[++I];
    };
    if (const char *V = FlagValue("--workers")) {
      Opts.Service.Workers = valueOrExit(solver::parseCount(V), "--workers", V);
    } else if (const char *V = FlagValue("--queue")) {
      Opts.Service.QueueCapacity =
          valueOrExit(solver::parseCount(V), "--queue", V);
    } else if (const char *V = FlagValue("--budget")) {
      Opts.DefaultBudgetSeconds =
          valueOrExit(solver::parseBudgetSeconds(V), "--budget", V);
    } else if (const char *V = FlagValue("--cache")) {
      Opts.Service.CacheCapacity =
          valueOrExit(solver::parseCount(V), "--cache", V);
    } else if (const char *V = FlagValue("--isolation")) {
      std::optional<solver::Isolation> Iso = solver::parseIsolation(V);
      if (!Iso) {
        fprintf(stderr,
                "error: unknown isolation '%s' (want thread or process)\n",
                V);
        return 2;
      }
      Opts.DefaultIsolation = *Iso;
    } else if (const char *V = FlagValue("--cache-dir")) {
      FileCache::Options CO;
      CO.Dir = V;
      Opts.Service.DiskCache = std::make_shared<FileCache>(CO);
    } else if (const char *V = FlagValue("--schedule")) {
      std::optional<solver::SchedulePolicy> P = solver::parseSchedulePolicy(V);
      if (!P) {
        fprintf(stderr,
                "error: unknown schedule '%s' (want single, race, staged or "
                "auto)\n",
                V);
        return 2;
      }
      Opts.DefaultSchedule = *P;
    } else if (const char *V = FlagValue("--selector")) {
      std::string Error;
      std::shared_ptr<solver::TableSelector> Selector =
          solver::TableSelector::loadFile(V, Error);
      if (!Selector) {
        fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
      Opts.DefaultSelector = std::move(Selector);
    } else if (strcmp(Argv[I], "--crash-engines") == 0) {
      CrashEngines = true;
    } else {
      fprintf(stderr,
              "usage: %s [--workers N] [--queue N] [--budget SECONDS] "
              "[--cache N] [--isolation thread|process] [--cache-dir DIR] "
              "[--schedule single|race|staged|auto] [--selector FILE] "
              "[--crash-engines]\n",
              Argv[0]);
      return 2;
    }
  }
  if (CrashEngines) {
    // Deliberately misbehaving engines (segfault/abort/spin), for
    // exercising process isolation end to end. Same invariant the options
    // builder enforces per request: without process isolation a crashing
    // lane takes the whole daemon down.
    if (Opts.DefaultIsolation != solver::Isolation::Process) {
      fprintf(stderr, "error: --crash-engines requires --isolation process "
                      "(a thread-mode segfault kills the whole daemon)\n");
      return 2;
    }
    baselines::registerCrashEngines();
  }

  size_t Accepted = server::runDaemon(std::cin, std::cout, Opts);
  fprintf(stderr, "; served %zu requests\n", Accepted);
  return 0;
}
