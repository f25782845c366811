"""Command-line front end for the workbench.

Three commands:

- ``homology KIND``: build one of the chain complexes for an input algebra
  (or Lie algebra) and print its Betti table.
- ``verify KIND``: run one of the verification suites and exit 0/1 on its
  verdict.
- ``report FILE...``: aggregate previously written JSON reports into a single
  document.

Two tables describe the commands. ``OPTIONS`` declares every option once
(flag, metavar, default, lowest allowed value, help); ``KINDS`` gives each
kind its handler and the options it reads, which are also the parameters its
document records. The parser is generated from the tables, once per process.

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
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .assoc_homology import (AlgebraAxiomError, MissingUnitError,
                             StructureConstantAlgebra, algebra_from_json,
                             bB_bicomplex, bar_complex,
                             connes_quotient_complex, cyclic_bicomplex,
                             cyclic_comparison_report, h_unitality_report,
                             hochschild_complex)
from .cech_cosheaf import (CosheafDataError, FinitePrecosheaf, cech_report,
                           cosheaf_axiom_check, precosheaf_from_json)
from .complexes import (ChainComplex, homology, kunneth_check,
                        random_complex, random_double_complex,
                        spectral_sequence, total_complex)
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


def load_algebra(ns: argparse.Namespace) -> StructureConstantAlgebra:
    if not ns.algebra:
        raise CliError(EXIT_PARSE, "this command needs --algebra PATH")
    return _load_structured(ns.algebra, algebra_from_json, "algebra")


def load_lie(ns: argparse.Namespace) -> StructureConstantLieAlgebra:
    if not ns.lie:
        raise CliError(EXIT_PARSE, "this command needs --lie PATH")
    return _load_structured(ns.lie, lie_algebra_from_json, "Lie algebra")


def load_precosheaf(ns: argparse.Namespace) -> FinitePrecosheaf:
    if not ns.cover:
        raise CliError(EXIT_PARSE, "this command needs --cover PATH")
    return _load_structured(ns.cover, precosheaf_from_json, "precosheaf")


# -- shared helpers -----------------------------------------------------------


def parallel_map(fn: Callable, items: Sequence, threads: int) -> List:
    """Apply fn to every item, fanning out over a thread pool.

    Results come back in input order, so the output is independent of the
    thread count. The pool is imported here, so only a fan-out pays for
    `concurrent.futures`."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def verdict_ok(report: Mapping) -> bool:
    v = report.get("verdict")
    if isinstance(v, str):
        return v == "pass"
    return bool(v)


def _betti_doc(check: str, cx: ChainComplex,
               top: Optional[int] = None) -> dict:
    """Betti table of cx in degrees 0..top (default: all of them), with each
    degree's flag, "exact" or "upper_bound"."""
    h = homology(cx)
    end = None if top is None else top + 1
    return {"check": check, "dims": list(cx.dims)[:end],
            "betti": list(h.betti)[:end], "flags": list(h.flags)[:end],
            "truncated": bool(cx.truncated)}


def _total_betti_doc(check: str, bicomplex, max_degree: int) -> dict:
    """Betti table of a total complex, reliable through max_degree.

    The bicomplex is built out to max_degree + 1, its last complete total
    degree, where the total complex ends, so every reported degree
    <= max_degree is exact."""
    tot = total_complex(bicomplex, max_degree + 1)
    return _betti_doc(check, tot.complex, max_degree)


# -- homology kinds -----------------------------------------------------------


def _homology_hochschild(ns: argparse.Namespace) -> dict:
    return _betti_doc("hochschild_homology",
                      hochschild_complex(load_algebra(ns), ns.max_degree))


def _homology_bar(ns: argparse.Namespace) -> dict:
    return _betti_doc("bar_homology",
                      bar_complex(load_algebra(ns), ns.max_degree))


def _homology_connes(ns: argparse.Namespace) -> dict:
    cx, _ = connes_quotient_complex(load_algebra(ns), ns.max_degree)
    return _betti_doc("cyclic_quotient_homology", cx)


def _homology_cyclic_total(ns: argparse.Namespace) -> dict:
    return _total_betti_doc("cyclic_bicomplex_total_homology",
                            cyclic_bicomplex(load_algebra(ns),
                                             ns.max_degree + 1),
                            ns.max_degree)


def _homology_bb_total(ns: argparse.Namespace) -> dict:
    return _total_betti_doc("bB_bicomplex_total_homology",
                            bB_bicomplex(load_algebra(ns), ns.max_degree + 1),
                            ns.max_degree)


def _homology_ce(ns: argparse.Namespace) -> dict:
    if ns.lie:
        g = load_lie(ns)
    elif ns.algebra:
        g = gl_n_of(load_algebra(ns), ns.gl)
    else:
        raise CliError(EXIT_PARSE,
                       "homology ce needs --lie PATH, or --algebra PATH with "
                       "--gl N for the matrix Lie algebra over it")
    doc = _betti_doc("lie_chain_homology", ce_complex(g, ns.max_degree))
    doc["lie_dim"] = g.dim
    return doc


def _homology_gl(ns: argparse.Namespace) -> dict:
    qcx, _ = gln_coinvariant_complex(load_algebra(ns), ns.gl, ns.max_degree)
    return _betti_doc("gl_coinvariant_homology", qcx)


# -- verify kinds -------------------------------------------------------------


def _verify_phi(ns: argparse.Namespace) -> dict:
    invariant = trace_invariant_check(ns.n, ns.k)
    equivariance = equivariance_check(ns.n, ns.k)
    ok = verdict_ok(invariant) and verdict_ok(equivariance)
    return {"check": "trace_invariant_suite", "n": ns.n, "k": ns.k,
            "invariant_map": invariant, "equivariance": equivariance,
            "verdict": ok}


def _verify_psi(ns: argparse.Namespace) -> dict:
    if 2 * ns.m > ns.n:
        raise CliError(EXIT_PARSE, f"--m {ns.m} needs --n >= {2 * ns.m}")
    part = (1,) * ns.m
    return psi_restriction_check(load_algebra(ns), ns.n, ns.m,
                                 part, part, ns.max_degree)


def _verify_kunneth(ns: argparse.Namespace) -> dict:
    count = ns.count or 20
    pairs = [(ns.seed + 2 * i, ns.seed + 2 * i + 1) for i in range(count)]

    def one(pair: Tuple[int, int]) -> dict:
        ca, _ = random_complex(pair[0])
        cb, _ = random_complex(pair[1])
        return dict(kunneth_check(ca, cb), seeds=list(pair))

    instances = parallel_map(one, pairs, ns.threads)
    ok = all(verdict_ok(r) for r in instances)
    return {"check": "kunneth_suite", "count": count,
            "instances": instances, "verdict": "pass" if ok else "fail"}


def _verify_cech(ns: argparse.Namespace) -> dict:
    p = load_precosheaf(ns)
    u = p.cover_model
    axiom = cosheaf_axiom_check(p, u)
    cech = cech_report(p, u)
    ok = verdict_ok(axiom) and verdict_ok(cech)
    return {"check": "cosheaf_suite", "axiom": axiom, "cech": cech,
            "verdict": ok}


def _verify_spectral(ns: argparse.Namespace) -> dict:
    count = ns.count or 10
    seeds = list(range(ns.seed, ns.seed + count))

    def one(seed: int) -> dict:
        report = spectral_sequence(random_double_complex(seed))
        return dict(report.convergence_report(), seed=seed)

    instances = parallel_map(one, seeds, ns.threads)
    ok = all(verdict_ok(r) for r in instances)
    return {"check": "spectral_suite", "count": count,
            "instances": instances, "verdict": "pass" if ok else "fail"}


def _verify_xi(ns: argparse.Namespace) -> dict:
    seq = xi_sequence(ns.n, ns.max_k)
    # Independent reconstruction: ramp 0..n, then alternate n+1, n, n+1, ...
    expected = [k if k <= ns.n else ns.n + (k - ns.n) % 2
                for k in range(ns.max_k + 1)]
    return {"check": "stable_boundary_sequence", "n": ns.n,
            "max_k": ns.max_k, "sequence": seq, "expected_shape": expected,
            "verdict": seq == expected}


# -- the command tables -------------------------------------------------------


class Option(NamedTuple):
    """A command-line option. An int default makes it an int option, whose
    lowest allowed value is `low` (None: unbounded)."""

    flag: str
    metavar: Optional[str]
    default: object
    low: Optional[int]
    help: str
    choices: Optional[Tuple] = None


OPTIONS: Dict[str, Option] = {
    "algebra": Option("--algebra", "PATH", None, None,
                      "associative algebra JSON file"),
    "lie": Option("--lie", "PATH", None, None, "Lie algebra JSON file"),
    "cover": Option("--cover", "PATH", None, None,
                    "cover + precosheaf JSON file (cech)"),
    "gl": Option("--gl", "N", 2, 1,
                 "matrix size for ce/gl kinds (default %(default)s)"),
    "n": Option("--n", "N", 2, 1,
                "matrix size / stability parameter (default %(default)s)"),
    "k": Option("--k", "K", 1, 1,
                "tensor degree for phi (default %(default)s)"),
    "m": Option("--m", None, 1, 0,
                "number of exterior blocks for psi (default %(default)s)",
                choices=(0, 1)),
    "max_degree": Option("--max-degree", "D", 3, 1,
                         "top homological degree reported or checked "
                         "(default %(default)s)"),
    "max_r": Option("--max-r", "R", 1, 0,
                    "top stable degree for lqt (default %(default)s)"),
    "max_k": Option("--max-k", "K", 8, 0,
                    "top index for the xi sequence (default %(default)s)"),
    "count": Option("--count", "C", 0, 0,
                    "instances for kunneth/spectral suites (default 20 / 10)"),
    "threads": Option("--threads", None, os.cpu_count() or 1, 1,
                      "worker threads (results are thread-count independent; "
                      "default: available parallelism)"),
    "seed": Option("--seed", None, 0, None,
                   "seed recorded in the report and used by randomized "
                   "suites (default %(default)s)"),
    "json_path": Option("--json", "PATH", None, None,
                        "also write the canonical JSON document here"),
    "out_format": Option("--format", None, "table", None,
                         "stdout rendering (default %(default)s)",
                         choices=("table", "json")),
}

COMMON = ("threads", "seed", "json_path", "out_format")

Handler = Callable[[argparse.Namespace], dict]

KINDS: Dict[str, Dict[str, Tuple[Handler, Tuple[str, ...]]]] = {
    "homology": {
        "hochschild": (_homology_hochschild, ("algebra", "max_degree")),
        "bar": (_homology_bar, ("algebra", "max_degree")),
        "connes": (_homology_connes, ("algebra", "max_degree")),
        "cyclic-total": (_homology_cyclic_total, ("algebra", "max_degree")),
        "bB-total": (_homology_bb_total, ("algebra", "max_degree")),
        "ce": (_homology_ce, ("algebra", "lie", "gl", "max_degree")),
        "gl": (_homology_gl, ("algebra", "gl", "max_degree")),
    },
    "verify": {
        "lqt": (lambda ns: lqt_stable_check(load_algebra(ns), ns.n, ns.max_r),
                ("algebra", "n", "max_r")),
        "hunital": (lambda ns: h_unitality_report(load_algebra(ns),
                                                  ns.max_degree),
                    ("algebra", "max_degree")),
        "theta": (lambda ns: theta_check(load_algebra(ns), ns.max_degree),
                  ("algebra", "max_degree")),
        "phi": (_verify_phi, ("n", "k")),
        "psi": (_verify_psi, ("algebra", "n", "m", "max_degree")),
        "quasi-iso": (lambda ns: cyclic_comparison_report(
            load_algebra(ns), ns.max_degree + 1), ("algebra", "max_degree")),
        "kunneth": (_verify_kunneth, ("count",)),
        "cech": (_verify_cech, ("cover",)),
        "spectral": (_verify_spectral, ("count",)),
        "xi": (_verify_xi, ("n", "max_k")),
    },
}


# -- document assembly and output ---------------------------------------------


def make_document(ns: argparse.Namespace, report: dict, verdict: bool) -> dict:
    _, names = KINDS[ns.command][ns.kind]
    params = {name: getattr(ns, name) for name in names
              if getattr(ns, name) is not None}
    return {"command": ns.command, "kind": ns.kind, "parameters": params,
            "seed": ns.seed, "report": report,
            "verdict": "pass" if verdict else "fail"}


def cmd_report(ns: argparse.Namespace) -> dict:
    """Aggregate previously written JSON report documents into one."""
    entries: List[Mapping] = []
    for path in ns.files:
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
    return {"command": "report", "kind": "", "parameters": {},
            "seed": ns.seed, "files": list(ns.files), "entries": entries,
            "seeds": seeds,
            "summary": {"entries": len(entries), "pass": n_pass,
                        "fail": n_fail},
            "verdict": "pass" if n_fail == 0 else "fail"}


def canonical_json(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def render_table(doc: Mapping) -> str:
    """Flat indented key/value view of a report document (derived from the
    JSON, same sorted-key order). A Betti number whose flag is
    "upper_bound" is shown as ≤b."""
    lines: List[str] = []

    def items(mapping: Mapping):
        for k in sorted(mapping, key=str):
            value = mapping[k]
            if k == "betti" and "flags" in mapping:
                value = [f"≤{b}" if flag == "upper_bound" else b
                         for b, flag in zip(value, mapping["flags"])]
            yield str(k), value

    def walk(key: str, value, depth: int) -> None:
        pad = "  " * depth
        if isinstance(value, Mapping):
            lines.append(f"{pad}{key}:")
            for k, v in items(value):
                walk(k, v, depth + 1)
        elif isinstance(value, (list, tuple)) and any(
                isinstance(x, (Mapping, list, tuple)) for x in value):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                walk(f"[{i}]", item, depth + 1)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: " + ", ".join(str(x) for x in value))
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in items(doc):
        walk(k, v, 0)
    return "\n".join(lines) + "\n"


def emit(doc: Mapping, ns: argparse.Namespace) -> None:
    text = canonical_json(doc)
    if ns.json_path:
        try:
            Path(ns.json_path).write_text(text, encoding="utf-8")
        except OSError as e:
            raise CliError(EXIT_PARSE, f"{ns.json_path}: {e.strerror or e}")
    if ns.out_format == "json":
        sys.stdout.write(text)
    else:
        sys.stdout.write(render_table(doc))


# -- argument parsing ---------------------------------------------------------


def _int_at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an int option with a lowest allowed value."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return parse


def _add_options(sub: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for dest in names:
        opt = OPTIONS[dest]
        parse = None
        if isinstance(opt.default, int):
            parse = int if opt.low is None else _int_at_least(opt.low)
        sub.add_argument(opt.flag, dest=dest, metavar=opt.metavar,
                         default=opt.default, type=parse, choices=opt.choices,
                         help=opt.help)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser generated from OPTIONS and KINDS: each command offers the
    options its kinds read, plus the COMMON ones. Built once per process."""
    parser = argparse.ArgumentParser(
        prog="exacthom",
        description="Exact-arithmetic homological algebra workbench over Q.")
    commands = parser.add_subparsers(dest="command", required=True)
    helps = {"homology": "build a complex and print its Betti table",
             "verify": "run a verification suite; exit 1 on a failed verdict"}
    for command, kinds in KINDS.items():
        sub = commands.add_parser(command, help=helps[command])
        sub.add_argument("kind", choices=kinds)
        used = [dest for dest in OPTIONS
                if any(dest in names for _, names in kinds.values())]
        _add_options(sub, used + list(COMMON))
    rep = commands.add_parser(
        "report", help="aggregate JSON report files into one document")
    rep.add_argument("files", nargs="*", metavar="FILE",
                     help="JSON report documents from earlier runs")
    _add_options(rep, COMMON)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse already printed the usage message; its error exit is 2,
        # matching the parse-error contract.
        return int(e.code or 0)
    started = time.monotonic()
    try:
        if ns.command == "report":
            doc = cmd_report(ns)
        else:
            handler, _ = KINDS[ns.command][ns.kind]
            report = handler(ns)
            doc = make_document(ns, report,
                                ns.command == "homology" or verdict_ok(report))
        emit(doc, ns)
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
    print(f"elapsed_seconds: {time.monotonic() - started:.2f}",
          file=sys.stderr)
    return EXIT_PASS if doc["verdict"] == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
