"""Homology of finite-dimensional associative algebras over Q.

Builds, from a structure-constant presentation: the Hochschild complex
(boundary b), the unit-augmented bar complex (boundary b', used for the
H-unitality test), the cyclic quotient complex (mod the signed cyclic rotation),
the two-column-type cyclic double complexes, and the degree-shifted unital
double complex driven by the degree-raising boundary B.

Sign conventions, fixed once and verified exactly by the operator identity
tests:

  b (a_0 x ... x a_n)  = sum_{i<n} (-1)^i (... a_i a_{i+1} ...)
                         + (-1)^n (a_n a_0 x a_1 x ... x a_{n-1})
  b' = b without the wrap-around term
  t (a_0 x ... x a_n)  = (-1)^n (a_n x a_0 x ... x a_{n-1})
  N  = 1 + t + ... + t^n          on (n+1)-fold tensors
  s (x) = 1 x x                   (needs a two-sided unit)
  B  = (1 - t) s N

These satisfy b^2 = 0, b'^2 = 0, t^(n+1) = 1, b (1-t) = (1-t) b',
N b = b' N, B^2 = 0 and b B + B b = 0.

Index convention: the basis tensor e_(t_0) x ... x e_(t_n) of A^(x)(n+1),
d = dim A, has index idx = sum_j t_j d^(n-j) (`tensor_rank`), so t_0 is the
most significant digit. The operators compute each term's index by
integer arithmetic, never through the tuple of factors:

  face i (0 <= i < n)   is I_(d^i) x mu x I_(d^(n-i-1)): it sends
                        idx = (high d^2 + p d + q) low + tail, low =
                        d^(n-i-1), to (high d + k) low + tail for each term
                        c e_k of e_p e_q. It is walked by stride, as blocks
                        of (high, nonzero product term, tail) in which row
                        and column advance together by the tail offset;
  wrap term             sends idx = q d^n + middle d + p to k d^(n-1) +
                        middle for each term c e_k of e_p e_q, walked as
                        blocks of (product term, middle) in which the row
                        advances by 1 and the column by d;
  t^j (last j factors   sends idx to (idx % d^j) d^(n+1-j) + idx // d^j;
       to the front)
  s                     sends idx to k d^(n+1) + idx for each unit term k.

So b and b' visit only the nonzero products, each read once from `mult`.

Every operator (b, b', t, 1 - t, N, s) is built once per algebra instance
and degree and shared by all the complexes built from that instance: the
Hochschild, bar, Connes and both double complexes, and B through
`connes_b_operator`. The memo lives on the instance (`_operator`), so two
algebras never share an operator and it goes when the algebra goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exactlin import (
    SparseMatrix,
    Vec,
    decode_entries,
    guard_ambient,
    json_basis,
    json_int,
    signed_orbit_quotient,
    vec_clean,
)
from .complexes import (
    ChainComplex,
    ChainMap,
    DoubleComplex,
    TotalComplex,
    betti_numbers,
    homology,
    quasi_iso_degrees,
    quotient_complex,
    total_complex,
    verify_complex,
)


class AlgebraAxiomError(ValueError):
    """Structure constants that fail associativity or the unit axioms."""


class MissingUnitError(ValueError):
    """A construction that needs a two-sided unit got a non-unital algebra."""


@dataclass(frozen=True)
class StructureConstantAlgebra:
    """Finite-dimensional associative algebra given by structure constants.

    mult[(i, j)] holds the coordinates of e_i * e_j (missing key = zero
    product). Associativity and, when given, the two-sided unit axioms are
    checked exactly at construction time.
    """

    dim: int
    mult: Dict[Tuple[int, int], Vec]
    unit: Optional[Vec] = None
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim <= 0:
            raise AlgebraAxiomError("algebra dimension must be positive")
        if self.names and len(self.names) != self.dim:
            raise AlgebraAxiomError("names length != dim")
        for (i, j), v in self.mult.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise AlgebraAxiomError(f"mult index ({i},{j}) out of range")
            for k in v:
                if not 0 <= k < self.dim:
                    raise AlgebraAxiomError(f"mult target {k} out of range")
        guard_ambient(f"associativity triples of a {self.dim}-dimensional "
                      f"algebra", self.dim ** 3)
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.product(self.basis_product(i, j), {k: 1})
                    rhs = self.product({i: 1}, self.basis_product(j, k))
                    if lhs != rhs:
                        raise AlgebraAxiomError(
                            f"associativity fails on basis triple ({i},{j},{k})")
        if self.unit is not None:
            u = vec_clean(self.unit)
            for k in u:
                if not 0 <= k < self.dim:
                    raise AlgebraAxiomError(
                        f"unit coordinate {k} out of range")
            for i in range(self.dim):
                e = {i: 1}
                if self.product(u, e) != e or self.product(e, u) != e:
                    raise AlgebraAxiomError(
                        f"stored unit is not two-sided on basis element {i}")

    def basis_product(self, i: int, j: int) -> Vec:
        return dict(self.mult.get((i, j), {}))

    def product(self, u: Mapping[int, Fraction], v: Mapping[int, Fraction]) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            if not a:
                continue
            for j, b in v.items():
                coef = a * b
                if not coef:
                    continue
                for k, c in self.mult.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + coef * c
        return vec_clean(out)

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else f"b{i}"


# -- serialization ------------------------------------------------------------


def algebra_to_json(a: StructureConstantAlgebra) -> dict:
    mult = []
    for (i, j) in sorted(a.mult):
        for k in sorted(a.mult[(i, j)]):
            v = a.mult[(i, j)][k]
            mult.append([i, j, k, v.numerator, v.denominator])
    unit = None
    if a.unit is not None:
        unit = []
        for i in range(a.dim):
            v = a.unit.get(i, 0)
            unit.append([v.numerator, v.denominator])
    return {"dim": a.dim,
            "basis": [a.name_of(i) for i in range(a.dim)],
            "mult": mult,
            "unit": unit}


def algebra_from_json(obj: Mapping) -> StructureConstantAlgebra:
    dim = json_int(obj["dim"], "dim")
    mult: Dict[Tuple[int, int], Vec] = {}
    for (i, j, k), v in decode_entries(obj.get("mult", []), 5).items():
        mult.setdefault((i, j), {})[k] = v
    unit = None
    if obj.get("unit") is not None:
        unit = {i: v for (i,), v in decode_entries(
            [[i, *pair] for i, pair in enumerate(obj["unit"])], 3).items()}
    return StructureConstantAlgebra(dim, mult, unit, json_basis(obj, dim, "b"))


# -- built-in families --------------------------------------------------------


def field_q() -> StructureConstantAlgebra:
    return StructureConstantAlgebra(1, {(0, 0): {0: 1}}, {0: 1}, ("1",))


def dual_numbers() -> StructureConstantAlgebra:
    """Q[eps]/(eps^2)."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return StructureConstantAlgebra(2, mult, {0: 1}, ("1", "eps"))


def truncated_polynomials(m: int) -> StructureConstantAlgebra:
    """Q[x]/(x^m), basis 1, x, ..., x^(m-1)."""
    if m < 1:
        raise ValueError("need m >= 1")
    mult = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                mult[(i, j)] = {i + j: 1}
    names = tuple("1" if i == 0 else f"x^{i}" if i > 1 else "x" for i in range(m))
    return StructureConstantAlgebra(m, mult, {0: 1}, names)


def matrix_algebra(m: int) -> StructureConstantAlgebra:
    """Full matrix algebra M_m(Q) on the elementary matrices e_ij."""
    if m < 1:
        raise ValueError("need m >= 1")
    dim = m * m
    mult = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    if j == k:
                        mult[(i * m + j, k * m + l)] = {i * m + l: 1}
    unit = {i * m + i: 1 for i in range(m)}
    names = tuple(f"e{i + 1}{j + 1}" for i in range(m) for j in range(m))
    return StructureConstantAlgebra(dim, mult, unit, names)


def cyclic_group_algebra(m: int) -> StructureConstantAlgebra:
    """Group algebra Q[Z/m]."""
    if m < 1:
        raise ValueError("need m >= 1")
    mult = {(i, j): {(i + j) % m: 1} for i in range(m) for j in range(m)}
    names = tuple(f"g^{i}" if i > 1 else ("1" if i == 0 else "g") for i in range(m))
    return StructureConstantAlgebra(m, mult, {0: 1}, names)


def zero_multiplication(d: int) -> StructureConstantAlgebra:
    """d-dimensional algebra with all products zero (not H-unital)."""
    if d < 1:
        raise ValueError("need d >= 1")
    return StructureConstantAlgebra(d, {}, None,
                                    tuple(f"z{i}" for i in range(d)))


def left_unital_two_dim() -> StructureConstantAlgebra:
    """Two-dimensional algebra with a left unit but no right unit.

    Basis (e, x) with ee=e, ex=x, xe=0, xx=0; e is a left unit only, so the
    stored unit is None, yet the algebra is H-unital (1 x -) is still a
    contracting homotopy for b'.
    """
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    return StructureConstantAlgebra(2, mult, None, ("e", "x"))


def direct_sum(a: StructureConstantAlgebra,
               b: StructureConstantAlgebra) -> StructureConstantAlgebra:
    dim = a.dim + b.dim
    mult: Dict[Tuple[int, int], Vec] = {}
    for (i, j), v in a.mult.items():
        mult[(i, j)] = dict(v)
    for (i, j), v in b.mult.items():
        mult[(i + a.dim, j + a.dim)] = {k + a.dim: c for k, c in v.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = dict(a.unit)
        unit.update({k + a.dim: c for k, c in b.unit.items()})
    names = tuple([f"l.{a.name_of(i)}" for i in range(a.dim)]
                  + [f"r.{b.name_of(i)}" for i in range(b.dim)])
    return StructureConstantAlgebra(dim, mult, unit, names)


# -- tensor power indexing ----------------------------------------------------


def tensor_rank(d: int, t: Sequence[int]) -> int:
    idx = 0
    for x in t:
        idx = idx * d + x
    return idx


def tensor_unrank(d: int, m: int, idx: int) -> Tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


# -- boundary operators -------------------------------------------------------


def hochschild_boundary(a: StructureConstantAlgebra, n: int) -> SparseMatrix:
    """b: A^(x)(n+1) -> A^(x)n (chain degree n to n-1)."""
    return _operator(a, "b", n)


def bar_boundary(a: StructureConstantAlgebra, n: int) -> SparseMatrix:
    """b': same faces as b but without the wrap-around term."""
    return _operator(a, "b'", n)


def _boundary(a: StructureConstantAlgebra, n: int, wrap: bool) -> SparseMatrix:
    d = a.dim
    rows, cols = d ** n, d ** (n + 1)
    acc: Dict[Tuple[int, int], Fraction] = {}
    # both b and b' are zero out of degree 0: no face and no wrap term
    if n == 0:
        return SparseMatrix(rows, cols, acc)
    # (i, j, k, coef) for each nonzero term coef e_k of e_i * e_j
    terms = [(i, j, k, coef) for (i, j), v in a.mult.items()
             for k, coef in v.items()]
    # face f sends idx = (high d^2 + i d + j) low + tail, low = d^(n-f-1),
    # to row (high d + k) low + tail: every term shifts the same (row,
    # column) offsets of the (high, tail) blocks by (k low, (i d + j) low)
    for face in range(n):
        sign = -1 if face % 2 else 1
        low = d ** (n - face - 1)
        row_off = [h * d * low + t for h in range(d ** face) for t in range(low)]
        col_off = [h * d * d * low + t
                   for h in range(d ** face) for t in range(low)]
        for i, j, k, coef in terms:
            v = sign * coef
            for key in zip(map((k * low).__add__, row_off),
                           map(((i * d + j) * low).__add__, col_off)):
                acc[key] = acc.get(key, 0) + v
    if wrap:
        # idx = t_0 d^n + middle d + t_n, sent to k d^(n-1) + middle for each
        # term of t_n t_0: the row advances by 1, the column by d
        sign = -1 if n % 2 else 1
        top, inner = d ** n, d ** (n - 1)
        for last, first, k, coef in terms:
            col = first * top + last
            row = k * inner
            v = sign * coef
            for key in zip(range(row, row + inner),
                           range(col, col + inner * d, d)):
                acc[key] = acc.get(key, 0) + v
    return SparseMatrix(rows, cols, acc)


def cyclic_operator(dim: int, n: int) -> SparseMatrix:
    """Signed rotation t on (n+1)-fold tensors: last factor to the front,
    sign (-1)^n."""
    size = dim ** (n + 1)
    sign = -1 if n % 2 else 1
    top = dim ** n
    return SparseMatrix(size, size, {((idx % dim) * top + idx // dim, idx):
                                     sign for idx in range(size)})


def norm_operator(dim: int, n: int) -> SparseMatrix:
    """N = 1 + t + ... + t^n on (n+1)-fold tensors."""
    size = dim ** (n + 1)
    sign_t = -1 if n % 2 else 1
    # t^j moves the last j factors to the front
    shifts = [(dim ** j, dim ** (n + 1 - j), sign_t ** j)
              for j in range(n + 1)]
    acc: Dict[Tuple[int, int], Fraction] = {}
    for idx in range(size):
        for low, high, sign in shifts:
            key = ((idx % low) * high + idx // low, idx)
            acc[key] = acc.get(key, 0) + sign
    return SparseMatrix(size, size, acc)


def unit_insertion(a: StructureConstantAlgebra, n: int) -> SparseMatrix:
    """s: A^(x)(n+1) -> A^(x)(n+2), x -> 1 (x) x. Needs a two-sided unit."""
    if a.unit is None:
        raise MissingUnitError("unit insertion needs a unital algebra")
    d = a.dim
    rows, cols = d ** (n + 2), d ** (n + 1)
    return SparseMatrix(rows, cols, {(k * cols + idx, idx): coef
                                     for idx in range(cols)
                                     for k, coef in a.unit.items()})


def connes_b_operator(a: StructureConstantAlgebra, n: int) -> SparseMatrix:
    """Degree-raising boundary B = (1 - t) s N out of chain degree n."""
    return (_operator(a, "1-t", n + 1) @ _operator(a, "s", n)
            @ _operator(a, "N", n))


# Builders of the operators that `_operator` memoises, by name; each reads
# the module's builder at call time, so a wrapped builder sees every build.
_BUILDERS = {
    "b": lambda a, n: _boundary(a, n, wrap=True),
    "b'": lambda a, n: _boundary(a, n, wrap=False),
    "t": lambda a, n: cyclic_operator(a.dim, n),
    "1-t": lambda a, n: (SparseMatrix.identity(a.dim ** (n + 1))
                         - _operator(a, "t", n)),
    "N": lambda a, n: norm_operator(a.dim, n),
    "s": lambda a, n: unit_insertion(a, n),
}


def _operator(a: StructureConstantAlgebra, name: str, n: int) -> SparseMatrix:
    """The operator `name` in degree n, built once per algebra instance.

    The memo lives in the instance's `__dict__` (not a dataclass field, so
    equality and repr ignore it) and dies with the algebra; `setdefault`
    keeps one shared operator even when two threads build it at once."""
    memo = a.__dict__.setdefault("_operators", {})
    op = memo.get((name, n))
    if op is None:
        op = memo.setdefault((name, n), _BUILDERS[name](a, n))
    return op


# -- complexes ----------------------------------------------------------------


def _guard_tensor_power(a: StructureConstantAlgebra, top: int) -> None:
    """ResourceGuardError before any boundary is built when the largest
    chain space, A^(top+1), is past AMBIENT_LIMIT."""
    guard_ambient(f"tensor power {top + 1} of a {a.dim}-dimensional algebra",
                  a.dim ** (top + 1))


def hochschild_complex(a: StructureConstantAlgebra,
                       max_degree: int) -> ChainComplex:
    _guard_tensor_power(a, max_degree)
    dims = tuple(a.dim ** (n + 1) for n in range(max_degree + 1))
    diffs = {n: hochschild_boundary(a, n) for n in range(1, max_degree + 1)}
    return ChainComplex(dims, diffs, truncated=True)


def bar_complex(a: StructureConstantAlgebra, max_degree: int) -> ChainComplex:
    _guard_tensor_power(a, max_degree)
    dims = tuple(a.dim ** (n + 1) for n in range(max_degree + 1))
    diffs = {n: bar_boundary(a, n) for n in range(1, max_degree + 1)}
    return ChainComplex(dims, diffs, truncated=True)


def connes_quotient_complex(
        a: StructureConstantAlgebra,
        max_degree: int) -> Tuple[ChainComplex, List]:
    """Connes' complex C^lambda = C / im(1 - t), whose homology is HC_*
    over Q, and its per-degree quotient structures, read off the orbits of
    the signed rotation t. `quotient_complex` asserts in every degree that
    b maps im(1-t) into im(1-t) (b(1-t) = (1-t)b'), not assumed."""
    hoch = hochschild_complex(a, max_degree)
    quots = [signed_orbit_quotient(size, [_operator(a, "t", n)])
             for n, size in enumerate(hoch.dims)]
    return quotient_complex(hoch, quots), quots


def cyclic_bicomplex(a: StructureConstantAlgebra, bound: int) -> DoubleComplex:
    """Cyclic double complex: columns alternate (b, -b') vertically, rows
    alternate (1 - t, N) horizontally; all squares anticommute exactly."""
    _guard_tensor_power(a, bound)
    d = a.dim
    cells = {(p, q): d ** (q + 1) for p in range(bound + 1)
             for q in range(bound + 1)}
    b = {q: hochschild_boundary(a, q) for q in range(1, bound + 1)}
    bprime_neg = {q: -bar_boundary(a, q) for q in range(1, bound + 1)}
    one_minus = {q: _operator(a, "1-t", q) for q in range(bound + 1)}
    norm = {q: _operator(a, "N", q) for q in range(bound + 1)}
    vert = {}
    horiz = {}
    for p in range(bound + 1):
        for q in range(bound + 1):
            if q >= 1:
                vert[(p, q)] = b[q] if p % 2 == 0 else bprime_neg[q]
            if p >= 1:
                horiz[(p, q)] = one_minus[q] if p % 2 == 1 else norm[q]
    return DoubleComplex(bound, bound, cells, vert, horiz)


def bB_bicomplex(a: StructureConstantAlgebra, bound: int) -> DoubleComplex:
    """Unital mixed double complex: cell (p, q) = (q - p + 1)-fold tensors for
    q >= p, vertical b, horizontal B. Raises MissingUnitError otherwise."""
    _guard_tensor_power(a, bound)
    if a.unit is None:
        raise MissingUnitError("the (b, B) double complex needs a unit")
    d = a.dim
    b = {m: hochschild_boundary(a, m) for m in range(1, bound + 1)}
    big_b = {m: connes_b_operator(a, m) for m in range(bound)}
    cells = {}
    vert = {}
    horiz = {}
    for p in range(bound + 1):
        for q in range(p, bound + 1):
            m = q - p  # chain degree held at this cell
            cells[(p, q)] = d ** (m + 1)
            if q > p:
                vert[(p, q)] = b[m]
            if p >= 1:
                horiz[(p, q)] = big_b[m]
    return DoubleComplex(bound, bound, cells, vert, horiz)


# -- derived reports ----------------------------------------------------------


def h_unitality_report(a: StructureConstantAlgebra, max_degree: int) -> dict:
    """Bar-complex acyclicity in positive degrees, the homological unitality
    test. Every positive degree flagged exact is decided; the top degree of
    the truncation is only an upper bound and is excluded from the verdict,
    which is "inconclusive" when no degree is decided."""
    h = homology(bar_complex(a, max_degree))
    decided = [n for n, flag in enumerate(h.flags)
               if n >= 1 and flag == "exact"]
    failures = [n for n in decided if h.betti[n] != 0]
    verdict = "fail" if failures else "pass" if decided else "inconclusive"
    return {
        "check": "h_unitality",
        "betti": list(h.betti),
        "flags": list(h.flags),
        "degrees_decided": decided,
        "first_failure": failures[0] if failures else None,
        "verdict": verdict,
    }


def _column_zero_projection(tot: TotalComplex, conn: ChainComplex,
                            quots) -> ChainMap:
    """Chain map Tot(cyclic bicomplex) -> cyclic quotient complex: project to
    the column-0 cell, then to the quotient."""
    comps = {}
    for n, lay in tot.layout.items():
        comps[n] = SparseMatrix.block(
            [conn.dims[n]], [dim for _p, _q, dim in lay],
            {(0, j): quots[n].projection
             for j, (p, _q, _dim) in enumerate(lay) if p == 0})
    return ChainMap(tot.complex, conn, comps)


def cyclic_comparison_report(a: StructureConstantAlgebra, bound: int = 4) -> dict:
    """Compare the three models of cyclic homology through degree bound-1:

    - total complex of the cyclic double complex,
    - the cyclic quotient complex,
    - (unital only) total complex of the (b, B) double complex,

    and verify that projecting the first onto column 0 is a chain map inducing
    isomorphisms on homology in all decided degrees: those flagged exact on
    the total complex, which ends at its last complete degree, bound. Every
    square of the projection is checked through degree bound, the one that
    makes H_(bound-1) of it well defined included.

    It checks the total complexes it reads, by d^2 = 0: the square identities
    of exactly the cells it reads, p + q <= bound. Each d is ranked once,
    and one mapping cone per decided degree, 0..bound-1. The verdict is
    "inconclusive" when no degree is decided (bound 0).
    """
    tot = total_complex(cyclic_bicomplex(a, bound), bound)
    vr = verify_complex(tot.complex)
    if not vr["ok"]:
        raise AssertionError(f"cyclic double complex invalid: {vr}")
    conn, quots = connes_quotient_complex(a, bound)
    proj = _column_zero_projection(tot, conn, quots)
    try:
        # ValueError, before anything is ranked, unless proj is a chain map;
        # degree bound is only an upper bound, so its cone is not ranked
        qiso = quasi_iso_degrees(proj, bound - 1)
    except ValueError as e:
        raise AssertionError(
            f"column-0 projection is not a chain map: {e}") from e
    h = homology(tot.complex)
    reliable = [n for n, flag in enumerate(h.flags) if flag == "exact"]
    tot_betti = list(h.betti)
    conn_betti = betti_numbers(conn)
    report = {
        "check": "cyclic_comparison",
        "degrees_decided": reliable,
        "total_cyclic_betti": tot_betti,
        "quotient_betti": conn_betti,
        "projection_quasi_iso": {str(n): bool(qiso.get(n, False))
                                 for n in reliable},
        "unital": a.is_unital,
    }
    agree = all(tot_betti[n] == conn_betti[n] for n in reliable)
    quasi = all(qiso.get(n, False) for n in reliable)
    if a.is_unital:
        bb = total_complex(bB_bicomplex(a, bound), bound).complex
        vb = verify_complex(bb)
        if not vb["ok"]:
            raise AssertionError(f"(b, B) double complex invalid: {vb}")
        bb_betti = betti_numbers(bb)
        report["bB_betti"] = bb_betti
        agree = agree and all(bb_betti[n] == conn_betti[n] for n in reliable)
    report["verdict"] = ("inconclusive" if not reliable
                         else "pass" if agree and quasi else "fail")
    return report
