"""The four benchmark workloads: seeded inputs, fixed job lists, oracles.

A job is one `exacthom.cli.main(argv)` call, or one call of a public
library function where the CLI does not expose the computation. Each job
carries an oracle that judges the job's canonical output without running
the code under test: closed formulas (exterior algebras, hook lengths,
binomials), Morita invariance, and Betti tables pinned from the canonical
input that every conjugated or permuted input must reproduce.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs

WORKLOADS = ("betti-large", "cyclic-models", "lqt-verify", "many-small")

Doc = dict
Check = Callable[[Doc], Optional[str]]


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work. Exactly one of `argv` (a CLI call)
    and `call` (a library call returning a JSON-able document) is set;
    `check` returns None when the document is the expected exact answer,
    otherwise a one-line reason."""

    id: str
    check: Check
    argv: Optional[Tuple[str, ...]] = None
    call: Optional[Callable[[], Doc]] = None


# -- oracles -------------------------------------------------------------------------


def exterior_odd(n: int, top: int) -> List[int]:
    """Dimensions in degrees 0..top of the exterior algebra on generators of
    degrees 1, 3, ..., 2n-1, which is H_*(gl_n(Q))."""
    dims = [1] + [0] * top
    for g in range(1, 2 * n, 2):
        for d in range(top, g - 1, -1):
            dims[d] += dims[d - g]
    return dims


def hook_length_dim(alpha: Sequence[int]) -> int:
    conj = [sum(1 for a in alpha if a > j) for j in range(alpha[0])]
    hooks = 1
    for i, a in enumerate(alpha):
        for j in range(a):
            hooks *= (a - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(alpha)) // hooks


def periodic(value: int, top: int) -> List[int]:
    """value, 0, value, 0, ... in degrees 0..top."""
    return [value if d % 2 == 0 else 0 for d in range(top + 1)]


def _mismatch(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got}, want {want}"


def verdict_pass(doc: Doc) -> Optional[str]:
    return _mismatch("verdict", doc.get("verdict"), "pass")


def betti_is(exact: Sequence[int], pinned: Sequence[int]) -> Check:
    """Betti table of a homology document: the exact degrees agree with an
    independent formula and the whole table, truncated top degree included,
    with the table pinned from the canonical input."""
    def check(doc: Doc) -> Optional[str]:
        betti = doc["report"]["betti"]
        return (_mismatch("exact degrees", betti[:len(exact)], list(exact))
                or _mismatch("pinned table", betti, list(pinned)))
    return check


def cyclic_is(exact: Sequence[int]) -> Check:
    """`verify quasi-iso`: the verdict passes and the cyclic homology of the
    quotient model is the expected one in every decided degree."""
    def check(doc: Doc) -> Optional[str]:
        report = doc["report"]
        decided = report["degrees_decided"]
        return (verdict_pass(doc)
                or _mismatch("HC", [report["quotient_betti"][d]
                                    for d in decided], list(exact)))
    return check


def all_of(*checks: Check) -> Check:
    def check(doc: Doc) -> Optional[str]:
        for c in checks:
            reason = c(doc)
            if reason:
                return reason
        return None
    return check


def field_is(path: Sequence[str], want) -> Check:
    def check(doc: Doc) -> Optional[str]:
        got = doc
        for key in path:
            got = got[key]
        return _mismatch("/".join(path), got, want)
    return check


# -- workload builders ----------------------------------------------------------------


class Builder:
    """Collects the input files and jobs of one workload run."""

    def __init__(self, seed: int, inputs_dir: Path):
        self.rng = random.Random(seed)
        self.dir = inputs_dir
        self.files: Dict[str, dict] = {}
        self.jobs: List[Job] = []

    def file(self, name: str, doc: dict) -> str:
        self.files[name] = doc
        return str(self.dir / name)

    def algebra(self, name: str, alg: dict) -> str:
        return self.file(f"{name}.json", inputs.algebra_json(alg))

    def conjugated(self, name: str, alg: dict,
                   shear: Tuple[int, int]) -> str:
        g, g_inv = inputs.unimodular(self.rng, alg["dim"], shear)
        return self.algebra(name, inputs.conjugate(alg, g, g_inv))

    def cli(self, job_id: str, check: Check, *argv: str) -> None:
        self.jobs.append(Job(job_id, check, argv=tuple(argv)))

    def lib(self, job_id: str, check: Check, call: Callable[[], Doc]) -> None:
        self.jobs.append(Job(job_id, check, call=call))


def _gl_lie(b: Builder, name: str, alg: dict, n: int, order: int) -> str:
    """gl_n(alg) in a signed-permutation basis: the permutation is fixed
    by `order`, the signs come from the seed."""
    dim = n * n * alg["dim"]
    table = inputs.signed_permutation(inputs.gl_bracket(alg, n), dim,
                                      random.Random(order), b.rng)
    return b.file(f"{name}.json", inputs.lie_json(table, dim))


def betti_large(b: Builder) -> None:
    """Three jobs of about the same size (CE chains of gl_4(Q) to degree 4,
    twice through the CLI's --lie input in two fixed orders of the basis,
    and once inside verify lqt) and one shorter one (verify lqt on Q[eps]),
    so the median job time is the middle of a group of like jobs. A pass
    takes about 8 s, so a run makes three."""
    q, eps = inputs.field_q(), inputs.dual_numbers()
    b.cli("lqt-q-n4", verdict_pass, "verify", "lqt", "--algebra",
          b.algebra("q", q), "--n", "4", "--max-r", "3")
    b.cli("lqt-eps-n3", verdict_pass, "verify", "lqt", "--algebra",
          b.algebra("eps", eps), "--n", "3", "--max-r", "2")
    for i in range(2):
        gl4 = _gl_lie(b, f"gl4-q-perm{i}", q, 4, i)
        b.cli(f"ce-gl4-q-{i}",
              betti_is(exterior_odd(4, 3), [1, 1, 0, 1, 1366]),
              "homology", "ce", "--lie", gl4, "--max-degree", "4")


# Pinned cyclic homology of the canonical inputs in decided degrees 0..3.
HC_DUAL = [2, 0, 2, 0]
HC_X3 = [3, 0, 3, 0]


def cyclic_models(b: Builder) -> None:
    """Two short jobs, then jobs of about 0.8, 1.1, 1.4 and 2 s, three of
    them near 1.1 s: the median job time falls inside that group. (HC_*(Q)
    is checked by many-small's Connes jobs.)"""
    eps, qq = inputs.dual_numbers(), inputs.product_of_fields()
    m2, x3 = inputs.matrix_algebra(2), inputs.truncated_polynomials(3)
    m2f = b.algebra("m2", m2)
    for name, path, hc in (("eps", b.algebra("eps", eps), HC_DUAL),
                           ("qq", b.algebra("qq", qq), periodic(2, 3))):
        b.cli(f"qiso-{name}", cyclic_is(hc), "verify", "quasi-iso",
              "--algebra", path, "--max-degree", "3")
    # Morita invariance: HC_*(M_2(Q)) = HC_*(Q), HH_*(M_2(Q)) = HH_*(Q).
    b.cli("qiso-m2", cyclic_is(periodic(1, 2)), "verify", "quasi-iso",
          "--algebra", m2f, "--max-degree", "2")
    b.cli("hh-m2", betti_is([1, 0, 0, 0], [1, 0, 0, 0, 819]),
          "homology", "hochschild", "--algebra", m2f, "--max-degree", "4")
    b.cli("qiso-x3", cyclic_is(HC_X3), "verify", "quasi-iso",
          "--algebra", b.algebra("x3", x3), "--max-degree", "3")
    # Conjugated bases must reproduce the canonical tables.
    for i in range(2):
        path = b.conjugated(f"m2-conj{i}", m2, (0, 1))
        b.cli(f"qiso-m2-conj{i}", cyclic_is(periodic(1, 2)), "verify",
              "quasi-iso", "--algebra", path, "--max-degree", "2")
    b.cli("hh-m2-conj", betti_is([1, 0, 0, 0], [1, 0, 0, 0, 819]),
          "homology", "hochschild", "--algebra",
          b.conjugated("m2-conj-hh", m2, (0, 1)), "--max-degree", "4")
    b.cli("qiso-x3-conj", cyclic_is(HC_X3), "verify", "quasi-iso",
          "--algebra", b.conjugated("x3-conj", x3, (0, 1)),
          "--max-degree", "3")


def _specht_job(alpha: Tuple[int, ...]) -> Callable[[], Doc]:
    def call() -> Doc:
        from exacthom import lqt
        s = lqt.specht_module(alpha)
        return {"partition": list(alpha), "dim": s.dim,
                "hook_length_dim": s.hook_length_dim,
                "full_polytabloid_rank": s.full_polytabloid_rank}
    return call


def _weights_job(path: str, n: int, k: int) -> Callable[[], Doc]:
    def call() -> Doc:
        from exacthom import assoc_homology, lqt
        alg = assoc_homology.algebra_from_json(
            json.loads(Path(path).read_text(encoding="utf-8")))
        return lqt.weight_decomposition_report(alg, n, k)
    return call


def lqt_verify(b: Builder) -> None:
    """Four long jobs, seven of 0.25-0.4 s and five short ones. Three of
    the middle jobs (theta on Q, phi at n = 3, weights of gl_3(Q) in
    degree 3, each about 0.35 s) run twice, so the median job time falls
    inside a group of six like jobs rather than between job kinds."""
    q, eps = inputs.field_q(), inputs.dual_numbers()
    paths = {"q": b.algebra("q", q), "eps": b.algebra("eps", eps)}
    dims = {"q": 1, "eps": 2}
    for a, copy in (("q", ""), ("eps", ""), ("q", "-again")):
        b.cli(f"theta-{a}{copy}", verdict_pass, "verify", "theta",
              "--algebra", paths[a], "--max-degree", "3")
    for n, k, copy in ((3, 3, ""), (4, 3, ""), (3, 3, "-again")):
        b.cli(f"phi-n{n}-k{k}{copy}", verdict_pass, "verify", "phi",
              "--n", str(n), "--k", str(k))
    for a, n, m, d in (("q", 3, 1, 2), ("q", 3, 0, 3), ("eps", 2, 1, 2)):
        b.cli(f"psi-{a}-n{n}-m{m}-d{d}", verdict_pass, "verify", "psi",
              "--algebra", paths[a], "--n", str(n), "--m", str(m),
              "--max-degree", str(d))
    for alpha in ((3, 1), (4, 1), (2, 2)):
        want = hook_length_dim(alpha)
        b.lib("specht-" + "-".join(map(str, alpha)),
              all_of(field_is(["dim"], want),
                     field_is(["hook_length_dim"], want)),
              _specht_job(alpha))
    for a, n, k, copy in (("q", 3, 3, ""), ("q", 3, 2, ""), ("q", 4, 2, ""),
                          ("q", 3, 3, "-again")):
        total = math.comb(n * n * dims[a], k)
        b.lib(f"weights-{a}-n{n}-k{k}{copy}",
              all_of(field_is(["verdict"], True),
                     field_is(["lhs_dims"], [total, total])),
              _weights_job(paths[a], n, k))


def _coresolution_job(path: str) -> Callable[[], Doc]:
    def call() -> Doc:
        from exacthom import cech_cosheaf
        p = cech_cosheaf.precosheaf_from_json(
            json.loads(Path(path).read_text(encoding="utf-8")))
        result = cech_cosheaf.coresolution_homology(
            p, [p], [], cech_cosheaf.identity_morphism(p))
        return {"betti": list(result.betti), "flags": list(result.flags)}
    return call


def many_small(b: Builder) -> None:
    small = {"q": inputs.field_q(), "eps": inputs.dual_numbers(),
             "qq": inputs.product_of_fields(),
             "x3": inputs.truncated_polynomials(3)}
    hc_pinned = {"q": [1, 0, 1, 0, 1], "eps": [2, 0, 2, 0, 2],
                 "qq": [2, 0, 2, 0, 2], "x3": [3, 0, 3, 0]}
    hc_top = {"q": [1, 0, 1, 0, 1, 0], "eps": [2, 0, 2, 0, 2, 7],
              "qq": [2, 0, 2, 0, 2, 7], "x3": [3, 0, 3, 0, 35]}
    paths: Dict[str, List[str]] = {}
    for name, alg in small.items():
        paths[name] = [b.algebra(name, alg)] + [
            b.conjugated(f"{name}-conj{i}", alg, (0, alg["dim"] - 1))
            for i in range(2 if alg["dim"] > 1 else 0)]
    covers = []
    for i in range(12):
        points = 5 + i % 4
        covers.append((points, b.file(f"cover{i}.json", inputs.cover_json(
            random.Random(i), b.rng, points, 3 + i % 2))))
    for rnd in range(4):
        for name, ps in paths.items():
            top = len(hc_top[name]) - 1
            for j, path in enumerate(ps):
                b.cli(f"connes-{name}-{j}-r{rnd}",
                      betti_is(hc_pinned[name], hc_top[name]),
                      "homology", "connes", "--algebra", path,
                      "--max-degree", str(top))
                b.cli(f"hunital-{name}-{j}-r{rnd}", verdict_pass, "verify",
                      "hunital", "--algebra", path, "--max-degree", "3")
        for j, path in enumerate(paths["eps"]):
            b.cli(f"gl2-eps-{j}-r{rnd}", betti_is([1, 2, 1], [1, 2, 1, 5]),
                  "homology", "gl", "--algebra", path, "--gl", "2",
                  "--max-degree", "3")
        b.cli(f"gl2-q-r{rnd}", betti_is(exterior_odd(2, 4),
                                        exterior_odd(2, 4)),
              "homology", "gl", "--algebra", paths["q"][0], "--gl", "2",
              "--max-degree", "4")
        for n, r, name in ((2, 1, "q"), (2, 1, "eps"), (3, 2, "q"),
                           (2, 1, "x3")):
            b.cli(f"lqt-{name}-n{n}-r{rnd}", verdict_pass, "verify", "lqt",
                  "--algebra", paths[name][rnd % len(paths[name])],
                  "--n", str(n), "--max-r", str(r))
        for n in (2, 3, 4):
            max_k = 8 + 2 * rnd
            want = [min(k, n + (k - n) % 2) for k in range(max_k + 1)]
            b.cli(f"xi-n{n}-r{rnd}",
                  all_of(verdict_pass,
                         field_is(["report", "sequence"], want)),
                  "verify", "xi", "--n", str(n), "--max-k", str(max_k))
        for i in range(5):
            s = str(b.rng.randrange(10 ** 6))
            b.cli(f"kunneth-{i}-r{rnd}", verdict_pass, "verify", "kunneth",
                  "--count", "2", "--seed", s)
            b.cli(f"spectral-{i}-r{rnd}", verdict_pass, "verify", "spectral",
                  "--count", "2", "--seed", s)
        for i, (points, path) in enumerate(covers):
            b.cli(f"cech-{i}-r{rnd}",
                  all_of(verdict_pass,
                         field_is(["report", "cech", "lhs_dims"],
                                  [points] + [0] * (2 + i % 2))),
                  "verify", "cech", "--cover", path)
        for i, (points, path) in enumerate(covers[:4]):
            b.lib(f"coresolution-{i}-r{rnd}",
                  field_is(["betti"], [points]), _coresolution_job(path))


BUILDERS = {"betti-large": betti_large, "cyclic-models": cyclic_models,
            "lqt-verify": lqt_verify, "many-small": many_small}


def build(workload: str, seed: int,
          inputs_dir: Path) -> Tuple[Dict[str, dict], List[Job]]:
    """Input documents (file name -> JSON) and the fixed job list of one
    workload run. The same (workload, seed) always gives the same result."""
    b = Builder(seed, inputs_dir)
    BUILDERS[workload](b)
    return b.files, b.jobs


def write_inputs(files: Dict[str, dict], inputs_dir: Path) -> None:
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in sorted(files.items()):
        (inputs_dir / name).write_text(
            json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
