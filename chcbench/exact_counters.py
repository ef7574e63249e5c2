#!/usr/bin/env python3
"""Lists which per-program counters repeat exactly across corpus runs.

    python3 chcbench/exact_counters.py ROWS.jsonl ROWS.jsonl [ROWS.jsonl ...]

Each argument is the per-program rows file of one run of the same corpus
workload (<build dir>/runs/<workload>-seed<N>-trace<T>.rows.jsonl). The
script keeps the programs every run solved within the budget and reports,
for each counter column, whether it is identical across the runs on all of
them, and which per-layer metric sums it. A change may claim a count only on
a counter reported exact here.
"""

import json
import sys

# Row column -> the per-layer metric that sums it over decided programs.
COUNTERS = {
    "clauses": "frontend.clauses",
    "predicates": "frontend.predicates",
    "solved_by_analysis": "analysis.discharged",
    "predicates_inlined": "analysis.predicates_inlined",
    "lp_pivots": "analysis.lp_pivots",
    "xfer_hits": "analysis.xfer_cache_hit_rate (numerator)",
    "verify_checks": "analysis.verify_checks",
    "iterations": "cegar.iterations",
    "learn_calls": "cegar.learn_calls",
    "samples": "cegar.samples",
    "learn_points": "ml.points_mean (numerator)",
    "learn_hyperplanes": "ml.hyperplanes",
    "learn_dt_nodes": "ml.dt_nodes",
    "checks_issued": "chc.checks_issued",
    "check_cache_hits": "chc.cache_hit_rate (numerator)",
    "scope_pushes": "chc.scope_pushes",
    "solver_rebuilds": "chc.solver_rebuilds",
    "conjunct_splits": "chc.conjunct_splits",
    "smt_queries": "smt.queries",
}


def main(paths):
    if len(paths) < 2:
        sys.exit(__doc__)
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append({row["program"]: row for row in map(json.loads, f)})
    decided = [name for name in runs[0]
               if all(name in run and run[name]["solved"] for run in runs)]
    print(f"{len(decided)} programs solved within the budget in all "
          f"{len(runs)} runs")
    for column, metric in COUNTERS.items():
        differ = [name for name in decided
                  if len({run[name][column] for run in runs}) > 1]
        verdict = "exact" if not differ else (
            f"varies on {len(differ)}: {', '.join(differ[:5])}")
        print(f"  {column:20s} {metric:42s} {verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
