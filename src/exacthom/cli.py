"""Command-line front end for the workbench.

Three commands:

- ``homology KIND``: build one of the chain complexes for an input algebra
  (or Lie algebra) and print its Betti table.
- ``verify KIND``: run one of the verification suites and exit 0/1 on its
  verdict.
- ``report FILE...``: aggregate previously written JSON reports into a single
  document.

Every run prints a human-readable table to stdout (or the canonical JSON
itself with ``--format json``) and optionally writes the canonical JSON
document to ``--json PATH``.  JSON is the interchange format; the table is a
derived view.  Documents are serialized with sorted keys and no timing data,
so identical (command, inputs, seed) produce byte-identical files regardless
of thread count.  Wall-clock time goes to stderr only.

Exit codes: 0 pass, 1 verdict failure, 2 parse/usage error (malformed JSON is
reported with line and column), 3 invariant violation in the input data
(associativity, Jacobi, cosheaf functoriality, missing unit, ...), 4 resource
guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .assoc_homology import (AlgebraAxiomError, MissingUnitError,
                             StructureConstantAlgebra, algebra_from_json,
                             bB_bicomplex, bar_complex,
                             connes_quotient_complex, cyclic_bicomplex,
                             cyclic_comparison_report, h_unitality_report,
                             hochschild_complex)
from .cech_cosheaf import (CosheafDataError, FinitePrecosheaf, cech_report,
                           cosheaf_axiom_check, precosheaf_from_json)
from .complexes import (ChainComplex, betti_numbers, kunneth_check,
                        random_complex, random_double_complex,
                        spectral_sequence, total_complex, truncate_complex)
from .exactlin import ResourceGuardError
from .lie_homology import (LieAxiomError, StructureConstantLieAlgebra,
                           ce_complex, gl_n_of, gln_coinvariant_complex,
                           lie_algebra_from_json)
from .lqt import (equivariance_check, lqt_stable_check, psi_restriction_check,
                  theta_check, trace_invariant_check, xi_sequence)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_RESOURCE = 4


class CliError(Exception):
    """Usage or input error carrying the process exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters for one CLI run."""

    command: str
    kind: str = ""
    algebra: Optional[str] = None
    lie: Optional[str] = None
    cover: Optional[str] = None
    gl: int = 2
    n: int = 2
    k: int = 1
    m: int = 1
    max_degree: int = 3
    max_r: int = 1
    max_k: int = 8
    count: int = 0
    threads: int = 1
    seed: int = 0
    json_path: Optional[str] = None
    out_format: str = "table"
    files: Tuple[str, ...] = ()

    def __post_init__(self):
        checks = [("--max-degree", self.max_degree, 1),
                  ("--n", self.n, 1), ("--gl", self.gl, 1),
                  ("--k", self.k, 0), ("--max-r", self.max_r, 0),
                  ("--max-k", self.max_k, 0), ("--count", self.count, 0),
                  ("--threads", self.threads, 1), ("--m", self.m, 0)]
        for name, value, low in checks:
            if value < low:
                raise CliError(EXIT_PARSE, f"{name} must be >= {low}")
        if self.out_format not in ("table", "json"):
            raise CliError(EXIT_PARSE, "--format must be table or json")


# -- input loading ------------------------------------------------------------


def load_json_file(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(EXIT_PARSE, f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError(EXIT_PARSE, f"{path}: not UTF-8 at byte {e.start}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_PARSE,
                       f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def _load_structured(path: str, builder: Callable, what: str):
    obj = load_json_file(path)
    if not isinstance(obj, Mapping):
        raise CliError(EXIT_PARSE, f"{path}: expected a JSON object")
    try:
        return builder(obj)
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as e:
        raise CliError(EXIT_PARSE, f"{path}: bad {what} document: {e!r}")
    # Axiom errors (ValueError subclasses) propagate to main -> exit 3.


def load_algebra(cfg: RunConfig) -> StructureConstantAlgebra:
    if not cfg.algebra:
        raise CliError(EXIT_PARSE, "this command needs --algebra PATH")
    return _load_structured(cfg.algebra, algebra_from_json, "algebra")


def load_lie(cfg: RunConfig) -> StructureConstantLieAlgebra:
    if not cfg.lie:
        raise CliError(EXIT_PARSE, "this command needs --lie PATH")
    return _load_structured(cfg.lie, lie_algebra_from_json, "Lie algebra")


def load_precosheaf(cfg: RunConfig) -> FinitePrecosheaf:
    if not cfg.cover:
        raise CliError(EXIT_PARSE, "this command needs --cover PATH")
    return _load_structured(cfg.cover, precosheaf_from_json, "precosheaf")


# -- shared helpers -----------------------------------------------------------


def parallel_map(fn: Callable, items: Sequence, threads: int) -> List:
    """Apply fn to every item, fanning out over a thread pool.

    Results come back in input order, so the output is independent of the
    thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def verdict_ok(report: Mapping) -> bool:
    v = report.get("verdict")
    if isinstance(v, str):
        return v == "pass"
    return bool(v)


def _betti_doc(check: str, cx: ChainComplex) -> dict:
    return {"check": check, "dims": list(cx.dims),
            "betti": betti_numbers(cx), "truncated": bool(cx.truncated)}


def _total_betti_doc(check: str, bicomplex, max_degree: int) -> dict:
    """Betti table of a total complex, reliable through max_degree.

    The bicomplex is built out to max_degree + 1 and the total complex
    truncated there, so every reported degree <= max_degree is exact."""
    tot = total_complex(bicomplex, truncated=True)
    sliced = truncate_complex(tot.complex, max_degree + 1)
    return {"check": check,
            "dims": list(sliced.dims)[:max_degree + 1],
            "betti": betti_numbers(sliced)[:max_degree + 1],
            "truncated": True}


# -- homology subcommands -----------------------------------------------------


def _homology_hochschild(cfg: RunConfig) -> dict:
    return _betti_doc("hochschild_homology",
                      hochschild_complex(load_algebra(cfg), cfg.max_degree))


def _homology_bar(cfg: RunConfig) -> dict:
    return _betti_doc("bar_homology",
                      bar_complex(load_algebra(cfg), cfg.max_degree))


def _homology_connes(cfg: RunConfig) -> dict:
    cx, _ = connes_quotient_complex(load_algebra(cfg), cfg.max_degree)
    return _betti_doc("cyclic_quotient_homology", cx)


def _homology_cyclic_total(cfg: RunConfig) -> dict:
    a = load_algebra(cfg)
    return _total_betti_doc("cyclic_bicomplex_total_homology",
                            cyclic_bicomplex(a, cfg.max_degree + 1),
                            cfg.max_degree)


def _homology_bb_total(cfg: RunConfig) -> dict:
    a = load_algebra(cfg)
    return _total_betti_doc("bB_bicomplex_total_homology",
                            bB_bicomplex(a, cfg.max_degree + 1),
                            cfg.max_degree)


def _ce_input(cfg: RunConfig) -> StructureConstantLieAlgebra:
    if cfg.lie:
        return load_lie(cfg)
    if cfg.algebra:
        return gl_n_of(load_algebra(cfg), cfg.gl)
    raise CliError(EXIT_PARSE,
                   "homology ce needs --lie PATH, or --algebra PATH with "
                   "--gl N for the matrix Lie algebra over it")


def _homology_ce(cfg: RunConfig) -> dict:
    g = _ce_input(cfg)
    doc = _betti_doc("lie_chain_homology", ce_complex(g, cfg.max_degree))
    doc["lie_dim"] = g.dim
    return doc


def _homology_gl(cfg: RunConfig) -> dict:
    a = load_algebra(cfg)
    qcx, _ = gln_coinvariant_complex(a, cfg.gl, cfg.max_degree)
    return _betti_doc("gl_coinvariant_homology", qcx)


HOMOLOGY_HANDLERS: Dict[str, Callable[[RunConfig], dict]] = {
    "hochschild": _homology_hochschild,
    "bar": _homology_bar,
    "connes": _homology_connes,
    "cyclic-total": _homology_cyclic_total,
    "bB-total": _homology_bb_total,
    "ce": _homology_ce,
    "gl": _homology_gl,
}

HOMOLOGY_PARAMS: Dict[str, Tuple[str, ...]] = {
    "hochschild": ("algebra", "max_degree"),
    "bar": ("algebra", "max_degree"),
    "connes": ("algebra", "max_degree"),
    "cyclic-total": ("algebra", "max_degree"),
    "bB-total": ("algebra", "max_degree"),
    "ce": ("algebra", "lie", "gl", "max_degree"),
    "gl": ("algebra", "gl", "max_degree"),
}


# -- verify subcommands -------------------------------------------------------


def _verify_lqt(cfg: RunConfig) -> dict:
    return lqt_stable_check(load_algebra(cfg), cfg.n, cfg.max_r)


def _verify_hunital(cfg: RunConfig) -> dict:
    return h_unitality_report(load_algebra(cfg), cfg.max_degree)


def _verify_theta(cfg: RunConfig) -> dict:
    return theta_check(load_algebra(cfg), cfg.max_degree)


def _verify_phi(cfg: RunConfig) -> dict:
    invariant = trace_invariant_check(cfg.n, cfg.k)
    equivariance = equivariance_check(cfg.n, cfg.k)
    ok = verdict_ok(invariant) and verdict_ok(equivariance)
    return {"check": "trace_invariant_suite", "n": cfg.n, "k": cfg.k,
            "invariant_map": invariant, "equivariance": equivariance,
            "verdict": ok}


def _verify_psi(cfg: RunConfig) -> dict:
    part = (1,) * cfg.m
    return psi_restriction_check(load_algebra(cfg), cfg.n, cfg.m,
                                 part, part, cfg.max_degree)


def _verify_quasi_iso(cfg: RunConfig) -> dict:
    return cyclic_comparison_report(load_algebra(cfg), cfg.max_degree + 1)


def _verify_kunneth(cfg: RunConfig) -> dict:
    count = cfg.count or 20
    pairs = [(cfg.seed + 2 * i, cfg.seed + 2 * i + 1) for i in range(count)]

    def one(pair: Tuple[int, int]) -> dict:
        ca, _ = random_complex(pair[0])
        cb, _ = random_complex(pair[1])
        return dict(kunneth_check(ca, cb), seeds=list(pair))

    instances = parallel_map(one, pairs, cfg.threads)
    ok = all(verdict_ok(r) for r in instances)
    return {"check": "kunneth_suite", "count": count,
            "instances": instances, "verdict": "pass" if ok else "fail"}


def _verify_cech(cfg: RunConfig) -> dict:
    p = load_precosheaf(cfg)
    u = p.cover_model
    axiom = cosheaf_axiom_check(p, u)
    cech = cech_report(p, u)
    ok = verdict_ok(axiom) and verdict_ok(cech)
    return {"check": "cosheaf_suite", "axiom": axiom, "cech": cech,
            "verdict": ok}


def _verify_spectral(cfg: RunConfig) -> dict:
    count = cfg.count or 10
    seeds = list(range(cfg.seed, cfg.seed + count))

    def one(seed: int) -> dict:
        report = spectral_sequence(random_double_complex(seed))
        return dict(report.convergence_report(), seed=seed)

    instances = parallel_map(one, seeds, cfg.threads)
    ok = all(verdict_ok(r) for r in instances)
    return {"check": "spectral_suite", "count": count,
            "instances": instances, "verdict": "pass" if ok else "fail"}


def _verify_xi(cfg: RunConfig) -> dict:
    seq = xi_sequence(cfg.n, cfg.max_k)
    # Independent reconstruction: ramp 0..n, then alternate n+1, n, n+1, ...
    expected: List[int] = []
    for k in range(cfg.max_k + 1):
        if k <= cfg.n:
            expected.append(k)
        elif (k - cfg.n) % 2 == 1:
            expected.append(cfg.n + 1)
        else:
            expected.append(cfg.n)
    return {"check": "stable_boundary_sequence", "n": cfg.n,
            "max_k": cfg.max_k, "sequence": seq, "expected_shape": expected,
            "verdict": seq == expected}


VERIFY_HANDLERS: Dict[str, Callable[[RunConfig], dict]] = {
    "lqt": _verify_lqt,
    "hunital": _verify_hunital,
    "theta": _verify_theta,
    "phi": _verify_phi,
    "psi": _verify_psi,
    "quasi-iso": _verify_quasi_iso,
    "kunneth": _verify_kunneth,
    "cech": _verify_cech,
    "spectral": _verify_spectral,
    "xi": _verify_xi,
}

VERIFY_PARAMS: Dict[str, Tuple[str, ...]] = {
    "lqt": ("algebra", "n", "max_r"),
    "hunital": ("algebra", "max_degree"),
    "theta": ("algebra", "max_degree"),
    "phi": ("n", "k"),
    "psi": ("algebra", "n", "m", "max_degree"),
    "quasi-iso": ("algebra", "max_degree"),
    "kunneth": ("count",),
    "cech": ("cover",),
    "spectral": ("count",),
    "xi": ("n", "max_k"),
}


# -- document assembly and output ---------------------------------------------


def _parameters(cfg: RunConfig, names: Tuple[str, ...]) -> dict:
    out = {}
    for name in names:
        value = getattr(cfg, name)
        if value is not None:
            out[name] = value
    return out


def make_document(cfg: RunConfig, report: dict, verdict: bool) -> dict:
    params = _parameters(cfg, HOMOLOGY_PARAMS.get(cfg.kind, ())
                         if cfg.command == "homology"
                         else VERIFY_PARAMS.get(cfg.kind, ()))
    return {"command": cfg.command, "kind": cfg.kind, "parameters": params,
            "seed": cfg.seed, "report": report,
            "verdict": "pass" if verdict else "fail"}


def cmd_homology(cfg: RunConfig) -> dict:
    report = HOMOLOGY_HANDLERS[cfg.kind](cfg)
    return make_document(cfg, report, True)


def cmd_verify(cfg: RunConfig) -> dict:
    report = VERIFY_HANDLERS[cfg.kind](cfg)
    return make_document(cfg, report, verdict_ok(report))


def cmd_report(cfg: RunConfig) -> dict:
    """Aggregate previously written JSON report documents into one."""
    entries: List[Mapping] = []
    for path in cfg.files:
        obj = load_json_file(path)
        if not isinstance(obj, Mapping):
            raise CliError(EXIT_PARSE, f"{path}: expected a JSON object")
        entries.append(obj)
    seeds: List[object] = []
    for entry in entries:
        if "seed" in entry and entry["seed"] not in seeds:
            seeds.append(entry["seed"])
    n_pass = sum(1 for e in entries if verdict_ok(e))
    n_fail = len(entries) - n_pass
    doc = {"command": "report", "kind": "", "parameters": {},
           "seed": cfg.seed, "files": list(cfg.files), "entries": entries,
           "seeds": seeds,
           "summary": {"entries": len(entries), "pass": n_pass,
                       "fail": n_fail},
           "verdict": "pass" if n_fail == 0 else "fail"}
    return doc


def canonical_json(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def render_table(doc: Mapping) -> str:
    """Flat indented key/value view of a report document (derived from the
    JSON, same sorted-key order)."""
    lines: List[str] = []

    def walk(key: str, value, depth: int) -> None:
        pad = "  " * depth
        if isinstance(value, Mapping):
            lines.append(f"{pad}{key}:")
            for k in sorted(value, key=str):
                walk(str(k), value[k], depth + 1)
        elif isinstance(value, (list, tuple)) and any(
                isinstance(x, (Mapping, list, tuple)) for x in value):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                walk(f"[{i}]", item, depth + 1)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: " + ", ".join(str(x) for x in value))
        else:
            lines.append(f"{pad}{key}: {value}")

    for k in sorted(doc, key=str):
        walk(str(k), doc[k], 0)
    return "\n".join(lines) + "\n"


def emit(doc: Mapping, cfg: RunConfig) -> None:
    text = canonical_json(doc)
    if cfg.json_path:
        Path(cfg.json_path).write_text(text, encoding="utf-8")
    if cfg.out_format == "json":
        sys.stdout.write(text)
    else:
        sys.stdout.write(render_table(doc))


# -- argument parsing ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker threads (results are thread-count "
                          "independent; default: available parallelism)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the report and used by "
                          "randomized suites (default 0)")
    sub.add_argument("--json", dest="json_path", metavar="PATH",
                     help="also write the canonical JSON document here")
    sub.add_argument("--format", dest="out_format", default="table",
                     choices=("table", "json"),
                     help="stdout rendering (default table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exacthom",
        description="Exact-arithmetic homological algebra workbench over Q.")
    commands = parser.add_subparsers(dest="command", required=True)

    hom = commands.add_parser(
        "homology", help="build a complex and print its Betti table")
    hom.add_argument("kind", choices=HOMOLOGY_HANDLERS)
    hom.add_argument("--algebra", metavar="PATH",
                     help="associative algebra JSON file")
    hom.add_argument("--lie", metavar="PATH", help="Lie algebra JSON file")
    hom.add_argument("--gl", type=int, default=2, metavar="N",
                     help="matrix size for ce/gl kinds (default 2)")
    hom.add_argument("--max-degree", type=int, default=3, metavar="D",
                     dest="max_degree",
                     help="top homological degree reported (default 3)")
    _add_common(hom)

    ver = commands.add_parser(
        "verify", help="run a verification suite; exit 1 on a failed verdict")
    ver.add_argument("kind", choices=VERIFY_HANDLERS)
    ver.add_argument("--algebra", metavar="PATH",
                     help="associative algebra JSON file")
    ver.add_argument("--cover", metavar="PATH",
                     help="cover + precosheaf JSON file (cech)")
    ver.add_argument("--n", type=int, default=2, metavar="N",
                     help="matrix size / stability parameter (default 2)")
    ver.add_argument("--k", type=int, default=1, metavar="K",
                     help="tensor degree for phi (default 1)")
    ver.add_argument("--m", type=int, default=1, choices=(0, 1),
                     help="number of exterior blocks for psi (default 1)")
    ver.add_argument("--max-degree", type=int, default=3, metavar="D",
                     dest="max_degree",
                     help="top degree checked (default 3)")
    ver.add_argument("--max-r", type=int, default=1, metavar="R",
                     dest="max_r",
                     help="top stable degree for lqt (default 1)")
    ver.add_argument("--max-k", type=int, default=8, metavar="K",
                     dest="max_k",
                     help="top index for the xi sequence (default 8)")
    ver.add_argument("--count", type=int, default=0, metavar="C",
                     help="instances for kunneth/spectral suites "
                          "(default 20 / 10)")
    _add_common(ver)

    rep = commands.add_parser(
        "report", help="aggregate JSON report files into one document")
    rep.add_argument("files", nargs="*", metavar="FILE",
                     help="JSON report documents from earlier runs")
    _add_common(rep)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    fields = {"command": ns.command,
              "threads": ns.threads, "seed": ns.seed,
              "json_path": ns.json_path, "out_format": ns.out_format}
    if ns.command == "report":
        fields["files"] = tuple(ns.files)
    else:
        fields["kind"] = ns.kind
        fields["max_degree"] = ns.max_degree
        if ns.command == "homology":
            fields.update(algebra=ns.algebra, lie=ns.lie, gl=ns.gl)
        else:
            fields.update(algebra=ns.algebra, cover=ns.cover, n=ns.n,
                          k=ns.k, m=ns.m, max_r=ns.max_r, max_k=ns.max_k,
                          count=ns.count)
    return RunConfig(**fields)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed the usage message; its error exit is 2,
        # matching the parse-error contract.
        return int(e.code or 0)
    started = time.monotonic()
    try:
        cfg = config_from_args(ns)
        if cfg.command == "homology":
            doc = cmd_homology(cfg)
        elif cfg.command == "verify":
            doc = cmd_verify(cfg)
        else:
            doc = cmd_report(cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except ResourceGuardError as e:
        print(f"error: resource guard: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (AlgebraAxiomError, LieAxiomError, CosheafDataError,
            MissingUnitError) as e:
        print(f"error: input invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as e:
        print(f"error: invalid input: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except AssertionError as e:
        # Structural identities (chain map, double complex) failed during a
        # verification: that is a verdict failure, not a crash.
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    emit(doc, cfg)
    print(f"elapsed_seconds: {time.monotonic() - started:.2f}",
          file=sys.stderr)
    return EXIT_PASS if doc["verdict"] == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
