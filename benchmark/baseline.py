"""Measure a baseline and write benchmark/baseline.json.

    python3 benchmark/baseline.py --commit REV

Run from the root of a checkout. Every workload runs once per seed of
SEEDS with tracing off and once (first seed) with tracing on, each run
for BENCHMARK.json's run_seconds. The file records each end-to-end
metric's median, quartiles and spread ((q3 - q1) / median), the same for
the times as measured before the host-speed scaling, the per-layer
metrics of the traced run, every workload's job list, and the table of
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))

# layer, per-layer metrics, end-to-end metrics they should move, workloads.
LAYER_TABLE = [
    ("exactlin", ["exactlin.rank.calls", "exactlin.rank.self_s",
                  "exactlin.rref.calls", "exactlin.rref.self_s",
                  "exactlin.kernel_basis.self_s", "exactlin.elim.in_nnz",
                  "exactlin.elim.in_cells", "exactlin.elim.pivots"],
     ["wall_s", "job_s.p50"], "betti-large (little on lqt-verify)"),
    ("exactlin", ["exactlin.solve.calls", "exactlin.solve.rhs",
                  "exactlin.solve.rhs_per_call", "exactlin.solve.self_s",
                  "exactlin.rref.fill_ratio", "exactlin.rref.max_bits"],
     ["wall_s", "peak_rss_mb"], "cyclic-models"),
    ("exactlin", ["exactlin.matmul.calls", "exactlin.matmul.self_s",
                  "exactlin.construct.calls", "exactlin.construct.self_s",
                  "exactlin.subspace_reduce.self_s", "exactlin.guard.trips"],
     ["wall_s"], "lqt-verify"),
    ("complexes", ["complexes.homology.calls", "complexes.homology.self_s",
                   "complexes.homology.total_s",
                   "complexes.homology.betti_only_share"],
     ["wall_s"], "betti-large"),
    ("complexes", ["complexes.induced_on_homology.self_s",
                   "complexes.induced_on_homology.total_s",
                   "complexes.verify.total_s",
                   "complexes.total_complex.total_s"],
     ["wall_s"], "cyclic-models"),
    ("complexes", ["complexes.spectral.total_s", "complexes.tensor.total_s"],
     ["job_s.p50", "job_s.p90"], "many-small"),
    ("assoc_homology", ["assoc_homology.validate.total_s",
                        "assoc_homology.operators.total_s",
                        "assoc_homology.operators.nnz",
                        "assoc_homology.connes_quotient.self_s",
                        "assoc_homology.bicomplex.total_s",
                        "assoc_homology.comparison.self_s"],
     ["wall_s on cyclic-models", "job_s.p50 on many-small"],
     "cyclic-models, many-small"),
    ("lie_homology", ["lie_homology.gl_n_of.total_s",
                      "lie_homology.ce_complex.total_s",
                      "lie_homology.ce_complex.dim_sum",
                      "lie_homology.ce_complex.nnz"],
     ["wall_s", "peak_rss_mb"], "betti-large"),
    ("lie_homology", ["lie_homology.module_validate.total_s",
                      "lie_homology.coinvariant_reduction.self_s"],
     ["wall_s"], "lqt-verify"),
    ("lqt", ["lqt.specht_module.self_s", "lqt.trace_checks.self_s",
             "lqt.theta.self_s", "lqt.theta_codomain.self_s",
             "lqt.cyclic_wedge.total_s", "lqt.stable_check.self_s"],
     ["wall_s on lqt-verify",
      "wall_s on betti-large (lqt.stable_check.self_s only)"],
     "lqt-verify, betti-large"),
    ("cech_cosheaf", ["cech_cosheaf.cech_report.total_s",
                      "cech_cosheaf.axiom_check.total_s",
                      "cech_cosheaf.coresolution.total_s"],
     ["job_s.p50"], "many-small"),
    ("cli", ["cli.main.calls", "cli.main.self_s", "cli.load.total_s",
             "cli.emit.total_s", "cli.parallel_map.items",
             "cli.parallel_map.busy_over_wall",
             "cli.parallel_map.queue_wait_s"],
     ["job_s.p50", "job_s.p90", "wall_s"], "many-small"),
    ("trace", ["trace.overhead_ratio"],
     [], "all (reported so later changes can discount it)"),
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """run.py's result line; untraced, with its metrics as measured under
    `raw`."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        result["raw"] = json.loads(
            (HERE / "out" / f"{workload}-seed{seed}-trace0" / "summary.json")
            .read_text("utf-8"))["raw"]
    return result


def summary(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def job_list(workload: str) -> List[dict]:
    _files, jobs = workloads.build(workload, 0, Path("<inputs>"))
    return [{"id": j.id, "argv": list(j.argv)} if j.argv is not None
            else {"id": j.id, "library_call": True} for j in jobs]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--commit", default="", help="commit measured")
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    out: dict = {"commit": args.commit,
                 "python": platform.python_version(),
                 "machine": f"{platform.machine()}, "
                            f"{len(os.sched_getaffinity(0))} CPUs available",
                 "seconds": seconds, "seeds": SEEDS, "workloads": {},
                 "layer_table": [{"layer": layer, "metrics": metrics,
                                  "should_move": move, "on": on}
                                 for layer, metrics, move, on in LAYER_TABLE]}
    for workload in workloads.WORKLOADS:
        runs = [run(workload, s, seconds, 0) for s in SEEDS]
        traced = run(workload, SEEDS[0], seconds, 1)
        metrics = runs[0]["metrics"]
        out["workloads"][workload] = {
            "why": why[workload],
            "jobs": job_list(workload),
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: dict(summary([r["metrics"][name]["value"]
                                    for r in runs]),
                           unit=metrics[name]["unit"],
                           as_measured=summary([r["raw"][name]
                                                for r in runs]))
                for name in metrics},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        print(workload, {n: (round(v["spread"], 4),
                             round(v["as_measured"]["spread"], 4))
                         for n, v in
                         out["workloads"][workload]["end_to_end"].items()},
              flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
