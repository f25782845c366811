"""exacthom benchmark: one workload run, printed as metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src. With
--trace 0 the run first starts SETUP_PROBES short-lived worker processes,
one after another, that only import exacthom and write the seed's inputs,
to time set-up; then one worker process runs the workload's job list in
passes for about S seconds.

--trace 0 prints the end-to-end metrics, measured with tracing off. Their
times are scaled to a reference host speed (see calibrate.py): this
process times a fixed task before and after every set-up probe and, while
the worker waits, between its jobs. The times as measured are printed too.
--trace 1 prints the per-layer metrics from a run that makes one untraced
warm-up pass and then runs every job untraced and traced back to back,
plus trace.overhead_ratio (summed traced / summed untraced job time).
The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
same numbers for people. The inputs, the canonical report of every job,
summary.json (scaled and measured metrics) and (with --trace 1) the spans
are left in benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
# A worker that outlives its budget by this much is stopped and the run
# fails; it keeps every run under the three minutes a run may take.
GRACE_S = 90.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s",
                    "job_s.p90": "s", "peak_rss_mb": "MB"}


def spawn_worker(args: argparse.Namespace, mode: str, out: Path,
                 env: Dict[str, str], timeout: float) -> dict:
    """Run one worker to completion; return its result with the set-up
    time measured from just before the process was started, and the
    calibration times taken while it waited between jobs."""
    ask_r, ask_w = os.pipe()
    answer_r, answer_w = os.pipe()
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--mode", mode, "--out", str(out), "--link", f"{ask_w},{answer_r}"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        pass_fds=(ask_w, answer_r))
    os.close(ask_w)
    os.close(answer_r)
    samples: List[float] = []
    try:
        with open(ask_r, "rb", buffering=0) as ask, \
                open(answer_w, "wb", buffering=0) as answer:
            while True:
                left = started + timeout - time.monotonic()
                if left <= 0 or not select.select([ask], [], [], left)[0]:
                    raise RuntimeError(f"{mode} worker ran over {timeout} s")
                if not ask.read(1):
                    break  # the worker has closed its end: it is done
                samples += calibrate.sample()
                answer.write(b"!")
        code = proc.wait(max(1.0, started + timeout - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{mode} worker exited with {code}")
    result = json.loads((out / f"result-{mode}.json").read_text("utf-8"))
    result["setup_s"] = result["ready"] - started
    result["calibrate_s"] = samples
    return result


def set_up(args: argparse.Namespace, out: Path, env: Dict[str, str]
           ) -> Tuple[List[float], List[float]]:
    """Set-up times of SETUP_PROBES processes, one after another, and the
    calibration times taken just before and after each of them."""
    setups: List[float] = []
    samples = calibrate.sample()
    for i in range(SETUP_PROBES):
        setups.append(spawn_worker(args, "setup", out / f"probe{i}", env,
                                   60.0)["setup_s"])
        samples += calibrate.sample()
    return setups, samples


def end_to_end(setups: List[float], passes: List[dict], peak_rss_kb: int,
               setup_scale: float, scale: float) -> Dict[str, float]:
    """wall_s is one pass over the job list with each job at its median
    time across the run's passes. setup_s is multiplied by `setup_scale`,
    the other times by `scale`."""
    per_job = zip(*(p["job_s"] for p in passes))
    jobs = [d for p in passes for d in p["job_s"]]
    return {"setup_s": statistics.median(setups) * setup_scale,
            "wall_s": sum(statistics.median(ts) for ts in per_job) * scale,
            "job_s.p50": statistics.median(jobs) * scale,
            "job_s.p90": (statistics.quantiles(jobs, n=10)[8]
                          if len(jobs) > 1 else jobs[0]) * scale,
            "peak_rss_mb": peak_rss_kb / 1024}


def host_scale(samples: List[float]) -> float:
    """The factor that expresses times measured while the calibration task
    took `samples` at the reference host speed."""
    return calibrate.REFERENCE_S / statistics.median(samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "exacthom" / "__init__.py").is_file():
        print("error: run from the root of an exacthom checkout "
              "(src/exacthom not found)", file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"

    setups, setup_samples = ([], []) if args.trace else set_up(args, out,
                                                                  env)
    result = spawn_worker(args, "trace" if args.trace else "measure",
                          out, env, args.seconds * 2 + GRACE_S)

    passes = result["passes"]
    attempted = sum(len(p["job_s"]) + len(p["traced_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for i, p in enumerate(passes):
        for job_id, reason in sorted(p["failures"].items()):
            print(f"FAILED pass {i} {job_id}: {reason}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in _layer(result).items()}
        how = f"a warm-up pass and {len(passes) - 1} paired passes"
        measured = ""
    else:
        setup_scale = host_scale(setup_samples)
        scale = host_scale(result["calibrate_s"])
        raw = end_to_end(setups, passes, result["peak_rss_kb"], 1.0, 1.0)
        scaled = end_to_end(setups, passes, result["peak_rss_kb"],
                            setup_scale, scale)
        (out / "summary.json").write_text(json.dumps(
            {"raw": raw, "scaled": scaled, "setup_scale": setup_scale,
             "scale": scale, "setup_calibrate_s": setup_samples,
             "calibrate_s": result["calibrate_s"]}, indent=1) + "\n", encoding="utf-8")
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in scaled.items()}
        how = f"{len(passes)} passes, {len(setups)} set-up probes"
        measured = ("  as measured: " + ", ".join(
            f"{name} = {value:.6g} {END_TO_END_UNITS[name]}"
            for name, value in raw.items())
            + f"; host speed scale {scale:.4g} (set-up {setup_scale:.4g})\n")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(result['jobs'])} jobs per pass, {how}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(measured, end="")
    print(f"  fail_ratio = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer(result: dict) -> Dict[str, tuple]:
    units = {name: unit for name, (unit, _get) in
             tracer.LAYER_METRICS.items()}
    units["trace.overhead_ratio"] = "1"
    return {name: (result["layer"][name], unit)
            for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
