//===- solver/SolverRegistry.h - Typed CHC engine registry ------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine registry behind the façade, the CLI driver, the benchmark
/// tables, the portfolio and the staged scheduler. An engine is a typed
/// `EngineId` plus an `EngineInfo` capability descriptor plus a factory
/// turning one `EngineOptions` blob into a ready `ChcSolverInterface`.
///
/// The capability descriptor is what replaced the stringly-typed id-only
/// registry: the scheduler ranks engines by what they *can do*
/// (supports-nonlinear, needs-analysis, deterministic, typical cost class)
/// instead of by hard-coded name lists, and meta engines (portfolio,
/// staged) and diagnostic engines (crash-*) declare themselves so no
/// selector ever schedules a race inside a race or a deliberate segfault.
///
/// The baselines register themselves via an explicit
/// `baselines::registerBuiltinEngines()` call (static-initializer
/// registration is unreliable from static libraries: the linker drops
/// unreferenced object files). The data-driven engines ("la", "analysis")
/// and the meta engines ("portfolio", "staged") are always present.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SOLVER_SOLVERREGISTRY_H
#define LA_SOLVER_SOLVERREGISTRY_H

#include "solver/DataDrivenSolver.h"

#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace la::solver {

/// Typed engine identifier. Deliberately explicit-from-string: ids enter
/// the program at the CLI/daemon boundary (where the string is validated
/// against the registry) and travel as `EngineId` from there on, so a
/// misspelled literal cannot silently flow into a lane or a cache key.
class EngineId {
public:
  EngineId() = default;
  explicit EngineId(std::string Name) : Name(std::move(Name)) {}

  const std::string &str() const { return Name; }
  bool empty() const { return Name.empty(); }

  friend bool operator==(const EngineId &, const EngineId &) = default;
  friend auto operator<=>(const EngineId &, const EngineId &) = default;

private:
  std::string Name;
};

/// Coarse a-priori cost of one engine run, the scheduler's staging hint.
enum class CostClass {
  Probe,    ///< Sub-second static analysis; runs in the probe stage.
  Cheap,    ///< Typically well under the budget.
  Moderate, ///< The common case; shares the staged budget comfortably.
  Heavy,    ///< Regularly consumes its whole budget.
};

const char *toString(CostClass C);

/// Capability descriptor registered alongside every factory. The scheduler
/// consumes these instead of hard-coded engine-name lists.
struct EngineInfo {
  EngineId Id;
  std::string Description;
  /// Handles clauses with more than one body predicate application.
  bool SupportsNonlinear = true;
  /// Consumes the static pre-analysis (seeded invariants, inlining): worth
  /// boosting when the probe stage found facts, and worth skipping the
  /// analysis for when false.
  bool NeedsAnalysis = false;
  /// Same input + seed => same verdict and witness.
  bool Deterministic = true;
  CostClass TypicalCost = CostClass::Moderate;
  /// Composes other registry engines (portfolio, staged); never a
  /// selector candidate — scheduling a race inside a race only burns cores.
  bool IsMeta = false;
  /// Deliberately misbehaving test engine (crash-*); never selectable.
  bool IsDiagnostic = false;
};

/// The options blob handed to every engine factory. Engines read the
/// caller-level fields (`Limits`, `Cancel`, `Seed`) on top of their own
/// defaults — nonzero caller fields win (`Budget::resolvedOver`).
struct EngineOptions {
  /// Caller-level budget overlaid on the engine's defaults.
  Budget Limits;
  /// Cooperative cancellation token handed through to the engine (and its
  /// SMT checks). The portfolio sets this per lane.
  std::shared_ptr<const CancellationToken> Cancel;
  /// Learner seed override for the data-driven engines (0 = engine
  /// default). Portfolio lanes use distinct seeds to diversify.
  uint64_t Seed = 0;
  /// Base configuration for the data-driven engines ("la", "analysis" and
  /// derived lanes). Other engines ignore it.
  DataDrivenOptions DataDriven;
  /// SMT options for engines that do not embed a `DataDrivenOptions`
  /// (pdr, gpdr, unwind, ...). The "la" family configures its SMT backend
  /// via `DataDriven.Smt` instead.
  smt::SmtSolver::Options Smt;
};

/// Thread-safe map from engine id to capability descriptor + factory. One
/// process-wide instance (`global()`) serves the façade and the CLI; tests
/// may build private registries.
class SolverRegistry {
public:
  using Factory = std::function<std::unique_ptr<chc::ChcSolverInterface>(
      const EngineOptions &)>;

  /// A fresh registry pre-populated with the built-in engines
  /// ("la", "analysis", "portfolio", "staged").
  SolverRegistry();

  /// The process-wide registry used by `solveSystem` / `solveFile`.
  static SolverRegistry &global();

  /// Registers \p Info.Id with its capabilities; returns false (and changes
  /// nothing) when the id is already taken, so repeated registration calls
  /// are idempotent.
  bool add(EngineInfo Info, Factory F);

  /// Registers \p Alias as a second name for the already-registered
  /// \p Target (e.g. "spacer" -> "pdr"). The alias shares the target's
  /// capabilities but is excluded from `selectable()` so a selector never
  /// races an engine against its own alias.
  bool addAlias(const EngineId &Alias, const EngineId &Target);

  bool contains(const EngineId &Id) const;

  /// Instantiates the engine \p Id with \p Opts; null when the id is
  /// unknown.
  std::unique_ptr<chc::ChcSolverInterface>
  create(const EngineId &Id, const EngineOptions &Opts = {}) const;

  /// All registered ids (aliases included), sorted — rendered into the
  /// unknown-engine error message and the CLI usage text.
  std::vector<EngineId> engineIds() const;

  /// Capability descriptor of \p Id (nullopt when unknown).
  std::optional<EngineInfo> info(const EngineId &Id) const;

  /// The selector candidate set: every registered concrete engine —
  /// aliases, meta engines and diagnostic engines excluded — sorted by id.
  std::vector<EngineInfo> selectable() const;

private:
  struct Entry {
    EngineInfo Info;
    Factory Make;
    bool IsAlias = false;
  };
  mutable std::mutex Mutex;
  std::map<EngineId, Entry> Entries;
};

} // namespace la::solver

#endif // LA_SOLVER_SOLVERREGISTRY_H
