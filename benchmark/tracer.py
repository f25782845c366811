"""Outside-in tracer for the traced benchmark run.

The tracer replaces public exacthom functions and methods by timing
wrappers from the outside: a function is swapped in every exacthom module
namespace that binds it (``complexes`` imports ``rank`` by name, for
example), a method on its class. `uninstall` puts every original back.

Each call becomes a span ``[name, start, end, parent, job, info]`` kept in
memory; `parent` is the enclosing span object of the same thread (or the
`parallel_map` span, for its worker threads), `job` the id of the
benchmark job running, and `info` the shape counters derived from the
arguments and the return value. `layer_metrics` turns the spans of one pass
into the per-layer metrics; self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = list  # [name, start, end, parent span or None, job, info dict or None]
Shape = Callable[[tuple, dict, object], Optional[dict]]

PACKAGE = "exacthom"


# -- shape counters -----------------------------------------------------------------


def _elim_in(m) -> dict:
    return {"rows": m.rows, "cols": m.cols, "in_nnz": len(m.entries),
            "in_cells": m.rows * m.cols}


def _rank_shape(args, kwargs, result) -> dict:
    return dict(_elim_in(args[0]), pivots=result)


def _entry_bits(entries: Iterable) -> int:
    bits = 0
    for v in entries:
        bits = max(bits, abs(v.numerator).bit_length(),
                   v.denominator.bit_length())
    return bits


def _rref_shape(args, kwargs, result) -> dict:
    r, pivots = result
    return dict(_elim_in(args[0]), pivots=len(pivots),
                out_nnz=len(r.entries), max_bits=_entry_bits(r.entries.values()))


def _solve_matrix_shape(args, kwargs, result) -> dict:
    return {"rhs": args[1].cols}


def _solve_vector_shape(args, kwargs, result) -> dict:
    return {"rhs": 1}


def _nnz_shape(args, kwargs, result) -> dict:
    return {"nnz": len(result.entries)}


def _complex_shape(args, kwargs, result) -> dict:
    return {"dim_sum": sum(result.dims),
            "nnz": sum(len(m.entries) for m in result.differentials.values())}


# -- targets ------------------------------------------------------------------------

# (span name, module, attribute path inside the module, shape counters).
# An attribute path with a dot names a method: "Class.method".
TARGETS: Tuple[Tuple[str, str, str, Optional[Shape]], ...] = (
    ("exactlin.rank", "exactlin", "rank", _rank_shape),
    ("exactlin.rref", "exactlin", "rref", _rref_shape),
    ("exactlin.kernel_basis", "exactlin", "kernel_basis", None),
    ("exactlin.solve", "exactlin", "solve_matrix", _solve_matrix_shape),
    ("exactlin.solve", "exactlin", "solve_vector", _solve_vector_shape),
    ("exactlin.matmul", "exactlin", "SparseMatrix.__matmul__", None),
    ("exactlin.construct", "exactlin", "SparseMatrix.__init__", None),
    ("exactlin.subspace_reduce", "exactlin", "Subspace.reduce", None),
    ("exactlin.guard", "exactlin", "guard_ambient", None),
    ("complexes.homology", "complexes", "homology", None),
    ("complexes.betti_numbers", "complexes", "betti_numbers", None),
    ("complexes.induced_on_homology", "complexes", "induced_on_homology",
     None),
    ("complexes.verify", "complexes", "verify_complex", None),
    ("complexes.verify", "complexes", "verify_chain_map", None),
    ("complexes.verify", "complexes", "verify_double_complex", None),
    ("complexes.total_complex", "complexes", "total_complex", None),
    ("complexes.spectral", "complexes", "spectral_sequence", None),
    ("complexes.spectral", "complexes",
     "SpectralSequence.convergence_report", None),
    ("complexes.tensor", "complexes", "tensor_complexes", None),
    ("complexes.tensor", "complexes", "kunneth_check", None),
    ("assoc_homology.validate", "assoc_homology",
     "StructureConstantAlgebra.__post_init__", None),
    ("assoc_homology.operators", "assoc_homology", "hochschild_boundary",
     _nnz_shape),
    ("assoc_homology.operators", "assoc_homology", "bar_boundary",
     _nnz_shape),
    ("assoc_homology.operators", "assoc_homology", "cyclic_operator",
     _nnz_shape),
    ("assoc_homology.operators", "assoc_homology", "norm_operator",
     _nnz_shape),
    ("assoc_homology.operators", "assoc_homology", "unit_insertion",
     _nnz_shape),
    ("assoc_homology.operators", "assoc_homology", "connes_b_operator",
     _nnz_shape),
    ("assoc_homology.connes_quotient", "assoc_homology",
     "connes_quotient_complex", None),
    ("assoc_homology.bicomplex", "assoc_homology", "cyclic_bicomplex", None),
    ("assoc_homology.bicomplex", "assoc_homology", "bB_bicomplex", None),
    ("assoc_homology.comparison", "assoc_homology",
     "cyclic_comparison_report", None),
    ("lie_homology.gl_n_of", "lie_homology", "gl_n_of", None),
    ("lie_homology.ce_complex", "lie_homology", "ce_complex", _complex_shape),
    ("lie_homology.module_validate", "lie_homology",
     "LieModuleAction.__post_init__", None),
    ("lie_homology.coinvariant_reduction", "lie_homology",
     "coinvariant_reduction", None),
    ("lqt.specht_module", "lqt", "specht_module", None),
    ("lqt.trace_checks", "lqt", "trace_invariant_check", None),
    ("lqt.trace_checks", "lqt", "equivariance_check", None),
    ("lqt.theta", "lqt", "theta_check", None),
    ("lqt.theta", "lqt", "theta_map", None),
    ("lqt.theta_codomain", "lqt", "theta_codomain_model", None),
    ("lqt.cyclic_wedge", "lqt", "cyclic_wedge_complex", None),
    ("lqt.stable_check", "lqt", "lqt_stable_check", None),
    ("cech_cosheaf.cech_report", "cech_cosheaf", "cech_report", None),
    ("cech_cosheaf.axiom_check", "cech_cosheaf", "cosheaf_axiom_check", None),
    ("cech_cosheaf.coresolution", "cech_cosheaf", "coresolution_homology",
     None),
    ("cli.main", "cli", "main", None),
    ("cli.load", "cli", "load_json_file", None),
    ("cli.load", "cli", "load_algebra", None),
    ("cli.load", "cli", "load_lie", None),
    ("cli.load", "cli", "load_precosheaf", None),
    ("cli.emit", "cli", "emit", None),
)

PARALLEL_MAP = ("cli", "parallel_map")


class _Stack(threading.local):
    def __init__(self):
        self.spans: List[Span] = []


class Tracer:
    """Installs the wrappers, records spans, and restores the originals.

    Use as a context manager around the traced work; `job` names the job
    that new spans belong to."""

    def __init__(self):
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self._stack = _Stack()
        self._restore: List[Tuple[object, str, object, bool]] = []

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module
        for name, module, path, shape in TARGETS:
            self._patch(module, path, lambda fn, n=name, s=shape:
                        self._wrap(n, fn, s))
        self._patch(*PARALLEL_MAP, self._wrap_parallel_map)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, owned = self._restore.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, module: str, path: str,
               make: Callable[[Callable], Callable]) -> None:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = getattr(cls, attr)
            self._restore.append((cls, attr, original, attr in cls.__dict__))
            setattr(cls, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, attr, original, True))
                    setattr(namespace, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str, parent: Optional[Span]) -> Span:
        span = [name, 0.0, 0.0, parent, self.job, None]
        self.spans.append(span)
        self._stack.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span[2] = perf_counter()
        self._stack.spans.pop()

    def _wrap(self, name: str, fn: Callable, shape: Optional[Shape]) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._open(name, stack.spans[-1] if stack.spans else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self._close(span)
                span[5] = {"raised": type(e).__name__}
                raise
            self._close(span)
            if shape is not None:
                span[5] = shape(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_parallel_map(self, fn: Callable) -> Callable:
        """parallel_map gets a span of its own, and every item a child span
        opened in whichever thread runs it, so waiting and overlap show."""
        stack = self._stack

        def traced(work, items, threads):
            items = list(items)
            span = self._open("cli.parallel_map",
                              stack.spans[-1] if stack.spans else None)
            span[5] = {"items": len(items)}

            def item(x):
                inner = self._open("cli.parallel_map.item", span)
                try:
                    return work(x)
                finally:
                    self._close(inner)

            try:
                return fn(item, items, threads)
            finally:
                self._close(span)

        return functools.update_wrapper(traced, fn)


# -- per-layer metrics ----------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of a union of intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class GroupStats:
    """What one span name adds up to over a pass."""

    def __init__(self):
        self.calls = 0       # spans with no ancestor of the same name
        self.total_s = 0.0   # their summed duration
        self.self_s = 0.0    # self time of every span of the name
        self.spans = 0       # every span of the name, nested ones included
        self.raised = 0
        self.sums: Dict[str, float] = {}
        self.top_sums: Dict[str, float] = {}
        self.max: Dict[str, float] = {}


def group_stats(spans: List[Span]) -> Dict[str, GroupStats]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    out: Dict[str, GroupStats] = {}
    for span in spans:
        name, start, end, parent, _job, info = span
        g = out.setdefault(name, GroupStats())
        dur = end - start
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(id(span), ()) if e > start and s < end]
        g.self_s += dur - _covered(kids)
        g.spans += 1
        ancestor, top = parent, True
        while ancestor is not None:
            if ancestor[0] == name:
                top = False
                break
            ancestor = ancestor[3]
        if top:
            g.calls += 1
            g.total_s += dur
        if info:
            if "raised" in info:
                g.raised += 1
            for key, value in info.items():
                if isinstance(value, (int, float)):
                    g.sums[key] = g.sums.get(key, 0) + value
                    if top:
                        g.top_sums[key] = g.top_sums.get(key, 0) + value
                    g.max[key] = max(g.max.get(key, 0), value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _parallel_map_metrics(spans: List[Span]) -> Dict[str, float]:
    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        if span[0] == "cli.parallel_map.item":
            by_parent.setdefault(id(span[3]), []).append(span)
    busy = wall = wait = 0.0
    for span in spans:
        if span[0] != "cli.parallel_map":
            continue
        items = by_parent.get(id(span), [])
        wall += span[2] - span[1]
        busy += sum(i[2] - i[1] for i in items)
        wait += sum(i[1] - span[1] for i in items)
    return {"busy_over_wall": _ratio(busy, wall), "queue_wait_s": wait}


# Per-layer metric name -> (unit, value from the group stats of one pass).
def _m(group: str, field: str):
    return lambda g, pm: getattr(g.get(group, GroupStats()), field)


def _sum(groups: Tuple[str, ...], key: str, top: bool = False):
    def get(g, pm):
        return sum((g[n].top_sums if top else g[n].sums).get(key, 0)
                   for n in groups if n in g)
    return get


def _max(group: str, key: str):
    return lambda g, pm: g[group].max.get(key, 0) if group in g else 0


def _betti_only_share(g, pm) -> float:
    return _ratio(pm["homology_under_betti"],
                  g["complexes.homology"].spans
                  if "complexes.homology" in g else 0)


ELIM = ("exactlin.rank", "exactlin.rref")

LAYER_METRICS: Dict[str, Tuple[str, Callable]] = {
    "exactlin.rank.calls": ("count", _m("exactlin.rank", "calls")),
    "exactlin.rank.self_s": ("s", _m("exactlin.rank", "self_s")),
    "exactlin.rref.calls": ("count", _m("exactlin.rref", "calls")),
    "exactlin.rref.self_s": ("s", _m("exactlin.rref", "self_s")),
    "exactlin.kernel_basis.self_s": ("s", _m("exactlin.kernel_basis",
                                             "self_s")),
    "exactlin.elim.in_nnz": ("count", _sum(ELIM, "in_nnz")),
    "exactlin.elim.in_cells": ("count", _sum(ELIM, "in_cells")),
    "exactlin.elim.pivots": ("count", _sum(ELIM, "pivots")),
    "exactlin.solve.calls": ("count", _m("exactlin.solve", "calls")),
    "exactlin.solve.rhs": ("count", _sum(("exactlin.solve",), "rhs", True)),
    "exactlin.solve.rhs_per_call": ("1", lambda g, pm: _ratio(
        _sum(("exactlin.solve",), "rhs", True)(g, pm),
        _m("exactlin.solve", "calls")(g, pm))),
    "exactlin.solve.self_s": ("s", _m("exactlin.solve", "self_s")),
    "exactlin.rref.fill_ratio": ("1", lambda g, pm: _ratio(
        _sum(("exactlin.rref",), "out_nnz")(g, pm),
        _sum(("exactlin.rref",), "in_nnz")(g, pm))),
    "exactlin.rref.max_bits": ("bits", _max("exactlin.rref", "max_bits")),
    "exactlin.matmul.calls": ("count", _m("exactlin.matmul", "calls")),
    "exactlin.matmul.self_s": ("s", _m("exactlin.matmul", "self_s")),
    "exactlin.construct.calls": ("count", _m("exactlin.construct", "calls")),
    "exactlin.construct.self_s": ("s", _m("exactlin.construct", "self_s")),
    "exactlin.subspace_reduce.self_s": ("s", _m("exactlin.subspace_reduce",
                                                "self_s")),
    "exactlin.guard.trips": ("count", _m("exactlin.guard", "raised")),
    "complexes.homology.calls": ("count", _m("complexes.homology", "calls")),
    "complexes.homology.self_s": ("s", _m("complexes.homology", "self_s")),
    "complexes.homology.total_s": ("s", _m("complexes.homology", "total_s")),
    "complexes.homology.betti_only_share": ("1", _betti_only_share),
    "complexes.induced_on_homology.self_s": (
        "s", _m("complexes.induced_on_homology", "self_s")),
    "complexes.induced_on_homology.total_s": (
        "s", _m("complexes.induced_on_homology", "total_s")),
    "complexes.verify.total_s": ("s", _m("complexes.verify", "total_s")),
    "complexes.total_complex.total_s": ("s", _m("complexes.total_complex",
                                                "total_s")),
    "complexes.spectral.total_s": ("s", _m("complexes.spectral", "total_s")),
    "complexes.tensor.total_s": ("s", _m("complexes.tensor", "total_s")),
    "assoc_homology.validate.total_s": ("s", _m("assoc_homology.validate",
                                                "total_s")),
    "assoc_homology.operators.total_s": ("s", _m("assoc_homology.operators",
                                                 "total_s")),
    "assoc_homology.operators.nnz": (
        "count", _sum(("assoc_homology.operators",), "nnz")),
    "assoc_homology.connes_quotient.self_s": (
        "s", _m("assoc_homology.connes_quotient", "self_s")),
    "assoc_homology.bicomplex.total_s": ("s", _m("assoc_homology.bicomplex",
                                                 "total_s")),
    "assoc_homology.comparison.self_s": ("s", _m("assoc_homology.comparison",
                                                 "self_s")),
    "lie_homology.gl_n_of.total_s": ("s", _m("lie_homology.gl_n_of",
                                             "total_s")),
    "lie_homology.ce_complex.total_s": ("s", _m("lie_homology.ce_complex",
                                                "total_s")),
    "lie_homology.ce_complex.dim_sum": (
        "count", _sum(("lie_homology.ce_complex",), "dim_sum")),
    "lie_homology.ce_complex.nnz": (
        "count", _sum(("lie_homology.ce_complex",), "nnz")),
    "lie_homology.module_validate.total_s": (
        "s", _m("lie_homology.module_validate", "total_s")),
    "lie_homology.coinvariant_reduction.self_s": (
        "s", _m("lie_homology.coinvariant_reduction", "self_s")),
    "lqt.specht_module.self_s": ("s", _m("lqt.specht_module", "self_s")),
    "lqt.trace_checks.self_s": ("s", _m("lqt.trace_checks", "self_s")),
    "lqt.theta.self_s": ("s", _m("lqt.theta", "self_s")),
    "lqt.theta_codomain.self_s": ("s", _m("lqt.theta_codomain", "self_s")),
    "lqt.cyclic_wedge.total_s": ("s", _m("lqt.cyclic_wedge", "total_s")),
    "lqt.stable_check.self_s": ("s", _m("lqt.stable_check", "self_s")),
    "cech_cosheaf.cech_report.total_s": ("s", _m("cech_cosheaf.cech_report",
                                                 "total_s")),
    "cech_cosheaf.axiom_check.total_s": ("s", _m("cech_cosheaf.axiom_check",
                                                 "total_s")),
    "cech_cosheaf.coresolution.total_s": (
        "s", _m("cech_cosheaf.coresolution", "total_s")),
    "cli.main.calls": ("count", _m("cli.main", "calls")),
    "cli.main.self_s": ("s", _m("cli.main", "self_s")),
    "cli.load.total_s": ("s", _m("cli.load", "total_s")),
    "cli.emit.total_s": ("s", _m("cli.emit", "total_s")),
    "cli.parallel_map.items": (
        "count", _sum(("cli.parallel_map",), "items")),
    "cli.parallel_map.busy_over_wall": (
        "1", lambda g, pm: pm["busy_over_wall"]),
    "cli.parallel_map.queue_wait_s": ("s", lambda g, pm: pm["queue_wait_s"]),
}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every per-layer metric of LAYER_METRICS for the spans of one pass; a
    layer the pass never called reads 0."""
    groups = group_stats(spans)
    pm = _parallel_map_metrics(spans)
    pm["homology_under_betti"] = sum(
        1 for s in spans if s[0] == "complexes.homology"
        and s[3] is not None and s[3][0] == "complexes.betti_numbers")
    return {name: float(get(groups, pm))
            for name, (_unit, get) in LAYER_METRICS.items()}


def spans_as_rows(spans: List[Span]) -> List[list]:
    """Spans as JSON rows [index, name, start, end, parent index, job,
    info], times in seconds relative to the first span."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0][1] if spans else 0.0
    return [[i, s[0], round(s[1] - t0, 9), round(s[2] - t0, 9),
             index.get(id(s[3])) if s[3] is not None else None, s[4], s[5]]
            for i, s in enumerate(spans)]
