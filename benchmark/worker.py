"""One workload process: import exacthom, write the seeded inputs, then run
the workload's fixed job list back to back (a closed loop with one client)
in timed passes until the time budget is spent.

Started by run.py, never imported by it; see run.py for the arguments and
the metrics built from the result file this process writes. With --link,
the worker stops between jobs, at most every CALIBRATE_EVERY_S seconds,
while run.py times the host's speed in its own process.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from exacthom import cli

import tracer
import workloads


def run_job(job: workloads.Job) -> Tuple[float, Optional[str], Optional[str]]:
    """(seconds, canonical output text or None, failure reason or None).

    Only the call itself is timed; parsing the output and the oracle are
    not."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if job.argv is not None:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([*job.argv, "--format", "json"])
            text = out.getvalue()
        else:
            code = 0
            text = json.dumps(job.call(), sort_keys=True, indent=2) + "\n"
    except Exception as e:  # a crashed job is a failed exact answer
        return time.perf_counter() - start, None, \
            f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    if code != cli.EXIT_PASS:
        return elapsed, text, \
            f"exit code {code}: {err.getvalue().strip()[-300:]}"
    try:
        reason = job.check(json.loads(text))
    except (ValueError, KeyError, IndexError, TypeError) as e:
        reason = f"unexpected output: {e!r}"
    return elapsed, text, reason


# Seconds between two host-speed samples; each takes about 10 ms.
CALIBRATE_EVERY_S = 0.5


class HostLink:
    """The worker's end of run.py's calibration pipes: `pause()` asks run.py
    to time the host and blocks until it has, at most once every
    CALIBRATE_EVERY_S seconds."""

    def __init__(self, spec: str):
        ask, answer = (int(fd) for fd in spec.split(","))
        self.ask = open(ask, "wb", buffering=0)
        self.answer = open(answer, "rb", buffering=0)
        self.last = float("-inf")

    def pause(self) -> None:
        if time.monotonic() - self.last < CALIBRATE_EVERY_S:
            return
        self.ask.write(b"?")
        if not self.answer.read(1):
            raise RuntimeError("run.py closed the calibration pipe")
        self.last = time.monotonic()


def run_pass(jobs: List[workloads.Job],
             trace: Optional[tracer.Tracer] = None,
             traced_first: bool = False,
             between: Optional[Callable[[], None]] = None) -> dict:
    """Run every job once, calling `between` (untimed) before each. With a
    tracer, run each job twice back to back, untraced and with the tracer
    installed for that call only (in the order `traced_first` says);
    `outputs` are then the traced outputs, and an untraced output that
    differs is a failure."""
    durations: List[float] = []
    traced_s: List[float] = []
    outputs: Dict[str, Optional[str]] = {}
    failures: Dict[str, str] = {}
    for job in jobs:
        if between is not None:
            between()
        if trace is None:
            elapsed, text, reason = run_job(job)
        else:
            trace.job = job.id
            runs = {}
            for traced in ((True, False) if traced_first else (False, True)):
                with trace if traced else nullcontext():
                    runs[traced] = run_job(job)
            elapsed, plain, plain_reason = runs[False]
            t_elapsed, text, reason = runs[True]
            traced_s.append(t_elapsed)
            if plain != text and not reason:
                reason = "untraced output differs from the traced one"
            reason = reason or plain_reason
        durations.append(elapsed)
        outputs[job.id] = text
        if reason:
            failures[job.id] = reason
    return {"job_s": durations, "traced_s": traced_s, "outputs": outputs,
            "failures": failures}


def canonical_report(outputs: Dict[str, Optional[str]]) -> str:
    """The canonical documents of one pass, keyed by job id, as one JSON
    text; it holds no timing, so equal answers give equal bytes."""
    return json.dumps({job_id: json.loads(text) if text else None
                       for job_id, text in outputs.items()},
                      sort_keys=True, indent=1) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--link", help="ASK_FD,ANSWER_FD of run.py's "
                                  "calibration pipes (measure mode)")
    args = p.parse_args(argv)

    inputs_dir = args.out / "inputs"
    files, jobs = workloads.build(args.workload, args.seed, inputs_dir)
    workloads.write_inputs(files, inputs_dir)
    ready = time.monotonic()
    result: dict = {"ready": ready, "jobs": [j.id for j in jobs],
                    "passes": []}
    if args.mode != "setup":
        run_passes(jobs, args, result)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.out / f"result-{args.mode}.json").write_text(
        json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def run_passes(jobs: List[workloads.Job], args: argparse.Namespace,
               result: dict) -> None:
    """Passes until the next one would overrun the budget, at least one.

    A traced run makes an untraced warm-up pass first (lru caches, first
    imports), then passes that run each job untraced and traced back to
    back, alternating which comes first, at least one of them. The
    overhead ratio is the summed traced over the summed untraced time of
    those paired runs."""
    tracing = args.mode == "trace"
    link = HostLink(args.link) if args.link and not tracing else None
    start = time.monotonic()
    passes: List[dict] = []
    layer: List[Dict[str, float]] = []
    spans_path = args.out / "spans.jsonl"  # one line of span rows per pass
    while True:
        pass_start = time.monotonic()
        if tracing and passes:
            t = tracer.Tracer()
            passes.append(run_pass(jobs, t, traced_first=len(passes) % 2 == 0))
            layer.append(tracer.layer_metrics(t.spans))
            with spans_path.open("a", encoding="utf-8") as f:
                f.write(json.dumps(tracer.spans_as_rows(t.spans)) + "\n")
        else:
            passes.append(run_pass(jobs, between=link and link.pause))
        passes[-1]["wall_s"] = time.monotonic() - pass_start
        if tracing and len(passes) < 2:
            continue
        longest = max(p["wall_s"] for p in passes[tracing:])
        if time.monotonic() - start + longest > args.seconds:
            break

    # Every pass must reproduce the first pass's canonical outputs.
    reference = passes[0]["outputs"]
    for p in passes[1:]:
        for job_id, text in p["outputs"].items():
            if text != reference[job_id] and job_id not in p["failures"]:
                p["failures"][job_id] = "output differs from the first pass"
    (args.out / f"report-{args.mode}.json").write_text(
        canonical_report(passes[-1]["outputs"]), encoding="utf-8")
    if tracing:
        paired = passes[1:]
        result["layer"] = {name: statistics.median(m[name] for m in layer)
                           for name in tracer.LAYER_METRICS}
        result["layer"]["trace.overhead_ratio"] = (
            sum(sum(p["traced_s"]) for p in paired)
            / sum(sum(p["job_s"]) for p in paired))
    for p in passes:
        del p["outputs"]
    result["passes"] = passes


if __name__ == "__main__":
    sys.exit(main())
