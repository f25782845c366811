"""Lie algebra homology with trivial coefficients, over Q.

Exterior-power chain spaces on strictly increasing index tuples, the standard
boundary fixed by d(x ^ y) = [x, y] (the convention under which the wedge with
X is a homotopy for the adjoint action of X), derivation actions on wedges,
and the coinvariant quotient under the scalar-matrix subalgebra action used by
the stable-range comparisons.

Every wedge term, here and in `lqt`, takes the sign of the permutation that
sorts its generators (`wedge_sort`). The builders here only ever insert one
generator into an increasing tuple, and take that rule's one-generator case,
`wedge_insert`: (-1)^p for the p generators it moves past. The boundary
visits only bracketed pairs.

For matrix Lie algebras gl_n with entries in a finite-dimensional associative
algebra A (not necessarily unital), basis elements are e_ij (x) b_c with index
(i*n + j)*dim(A) + c and bracket

  [e_ij (x) a, e_kl (x) b] = delta_jk e_il (x) ab - delta_li e_kj (x) ba.

Scalar gl_n acts on gl_n(A) through the matrix leg alone, which needs no unit
in A.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .exactlin import (
    QuotientStructure,
    SparseMatrix,
    Subspace,
    Vec,
    decode_entries,
    guard_ambient,
    inverse,
    json_basis,
    json_int,
    quotient_structure,
    vec_clean,
)
from .complexes import ChainComplex, ChainMap, quotient_complex
from .assoc_homology import StructureConstantAlgebra, field_q


class LieAxiomError(ValueError):
    """Bracket constants violating antisymmetry or the Jacobi identity."""


def _unchecked(cls, **fields):
    """The frozen dataclass `cls` over `fields` as they are, bypassing
    `__post_init__`'s validation; only for fields valid by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class StructureConstantLieAlgebra:
    """Lie algebra given by bracket structure constants; validated exactly,
    after its C(dim, 2) pairs and C(dim, 3) Jacobi triples are guarded.
    The check reads `bracket` in place: for each triple it sums
    [a, [b, c]] over the cyclic shifts term by term, with no copied or
    cleaned vectors, and the first failing pair or triple names the error.
    `gl_n_of` alone builds them through the module's `_unchecked`, which
    skips the check: a commutator bracket satisfies it by construction."""

    dim: int
    bracket: Dict[Tuple[int, int], Vec]
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim <= 0:
            raise LieAxiomError("dimension must be positive")
        guard_exterior_powers(self.dim, (2, 3))
        if self.names and len(self.names) != self.dim:
            raise LieAxiomError("names length != dim")
        for (i, j), v in self.bracket.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise LieAxiomError(f"bracket index ({i},{j}) out of range")
            for k in v:
                if not 0 <= k < self.dim:
                    raise LieAxiomError(f"bracket target {k} out of range")
        br = self.bracket
        for i in range(self.dim):
            if br.get((i, i)):
                raise LieAxiomError(f"[x,x] != 0 on basis element {i}")
            for j in range(i + 1, self.dim):
                lhs = br.get((i, j), {})
                rhs = br.get((j, i), {})
                if len(lhs) != len(rhs) or any(
                        k not in rhs or rhs[k] != -c for k, c in lhs.items()):
                    raise LieAxiomError(
                        f"antisymmetry fails on basis pair ({i},{j})")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc: Vec = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for t, x in br.get((b, c), {}).items():
                            for s, y in br.get((a, t), {}).items():
                                acc[s] = acc.get(s, 0) + x * y
                    if any(acc.values()):
                        raise LieAxiomError(
                            f"Jacobi fails on basis triple ({i},{j},{k})")

    def basis_bracket(self, i: int, j: int) -> Vec:
        return dict(self.bracket.get((i, j), {}))

    def bracket_vec(self, u: Mapping[int, Fraction],
                    v: Mapping[int, Fraction]) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                coef = a * b
                if not coef:
                    continue
                for k, c in self.bracket.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + coef * c
        return vec_clean(out)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else f"g{i}"


# -- serialization and families -----------------------------------------------


def lie_algebra_to_json(g: StructureConstantLieAlgebra) -> dict:
    bracket = []
    for (i, j) in sorted(g.bracket):
        for k in sorted(g.bracket[(i, j)]):
            v = g.bracket[(i, j)][k]
            if v:
                bracket.append([i, j, k, v.numerator, v.denominator])
    return {"dim": g.dim,
            "basis": [g.name_of(i) for i in range(g.dim)],
            "bracket": bracket}


def lie_algebra_from_json(obj: Mapping) -> StructureConstantLieAlgebra:
    """Load bracket rows `[i, j, k, num, den]`; rows (i, j) whose mirror
    (j, i) is absent also give [e_j, e_i] = -[e_i, e_j]."""
    dim = json_int(obj["dim"], "dim")
    bracket: Dict[Tuple[int, int], Vec] = {}
    for (i, j, k), v in decode_entries(obj.get("bracket", []), 5).items():
        bracket.setdefault((i, j), {})[k] = v
    for (i, j) in list(bracket):
        if (j, i) not in bracket:
            bracket[(j, i)] = {k: -v for k, v in bracket[(i, j)].items()}
    return StructureConstantLieAlgebra(dim, bracket, json_basis(obj, dim, "g"))


def abelian_lie_algebra(d: int) -> StructureConstantLieAlgebra:
    return StructureConstantLieAlgebra(d, {}, tuple(f"a{i}" for i in range(d)))


def sl2_q() -> StructureConstantLieAlgebra:
    """sl_2 with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    bracket = {
        (0, 1): {1: 2}, (1, 0): {1: -2},
        (0, 2): {2: -2}, (2, 0): {2: 2},
        (1, 2): {0: 1}, (2, 1): {0: -1},
    }
    return StructureConstantLieAlgebra(3, bracket, ("h", "e", "f"))


def gl_index(n: int, a_dim: int, i: int, j: int, c: int) -> int:
    return (i * n + j) * a_dim + c


def gl_n_of(a: StructureConstantAlgebra, n: int) -> StructureConstantLieAlgebra:
    """Matrix Lie algebra gl_n(A) on basis e_ij (x) b_c under the commutator;
    guarded as the validating constructor is, before its dim^2-entry table
    is filled. It is built unchecked: the commutator of the associative
    algebra M_n(A), whose A was validated by its own constructor, is
    antisymmetric and satisfies Jacobi."""
    if n < 1:
        raise ValueError("need n >= 1")
    dim = n * n * a.dim
    guard_exterior_powers(dim, (2, 3))
    bracket: Dict[Tuple[int, int], Vec] = {}
    for i in range(n):
        for j in range(n):
            for c in range(a.dim):
                x = gl_index(n, a.dim, i, j, c)
                for k in range(n):
                    for l in range(n):
                        for e in range(a.dim):
                            y = gl_index(n, a.dim, k, l, e)
                            out: Vec = {}
                            if j == k:
                                for t, coef in a.mult.get((c, e), {}).items():
                                    z = gl_index(n, a.dim, i, l, t)
                                    out[z] = out.get(z, 0) + coef
                            if l == i:
                                for t, coef in a.mult.get((e, c), {}).items():
                                    z = gl_index(n, a.dim, k, j, t)
                                    out[z] = out.get(z, 0) - coef
                            out = vec_clean(out)
                            if out:
                                bracket[(x, y)] = out
    names = tuple(f"e{i + 1}{j + 1}({a.name_of(c)})"
                  for i in range(n) for j in range(n) for c in range(a.dim))
    return _unchecked(StructureConstantLieAlgebra, dim=dim, bracket=bracket,
                      names=names)


def change_of_basis_lie(g: StructureConstantLieAlgebra,
                        p: SparseMatrix) -> StructureConstantLieAlgebra:
    """Transport the bracket along an invertible matrix (new basis Pe_i);
    ValueError when p is singular."""
    pinv = inverse(p)
    bracket: Dict[Tuple[int, int], Vec] = {}
    cols = [p.column(i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            w = pinv.apply(g.bracket_vec(cols[i], cols[j]))
            if w:
                bracket[(i, j)] = w
    return StructureConstantLieAlgebra(g.dim, bracket)


# -- exterior powers ----------------------------------------------------------


def guard_exterior_powers(dim: int, degrees: Iterable[int]) -> None:
    """Raise ResourceGuardError for the first k in `degrees` whose exterior
    power of a dim-dimensional space, C(dim, k) tuples, exceeds
    AMBIENT_LIMIT. It only counts, and enumerates no tuple."""
    for k in degrees:
        guard_ambient(f"exterior power {k} of a {dim}-dimensional space",
                      math.comb(dim, k))


class ExteriorBasis:
    """Strictly increasing index tuples of length k over range(dim): all of
    them in lexicographic order (guarded), or the given sublist."""

    def __init__(self, dim: int, k: int,
                 tuples: Optional[List[Tuple[int, ...]]] = None):
        if tuples is None:
            guard_exterior_powers(dim, [k])
            tuples = list(combinations(range(dim), k))
        self.dim = dim
        self.k = k
        self.tuples: List[Tuple[int, ...]] = tuples
        self.index: Dict[Tuple[int, ...], int] = \
            {t: i for i, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)


def wedge_sort(seq: Sequence) -> Optional[Tuple[int, Tuple]]:
    """The wedge of the generators `seq`, in order, as (sign of the sorting
    permutation, increasing tuple), or None when a generator repeats. An
    insertion sort, so nearly sorted input is cheap."""
    out = list(seq)
    sign = 1
    for i in range(1, len(out)):
        x = out[i]
        j = i
        while j > 0 and out[j - 1] > x:
            out[j] = out[j - 1]
            j -= 1
            sign = -sign
        if j > 0 and out[j - 1] == x:
            return None
        out[j] = x
    return sign, tuple(out)


def wedge_insert(t: Tuple[int, ...],
                 x: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """`wedge_sort((x,) + t)` for an increasing tuple t: x moves past the p
    generators of t below it, so the sign is (-1)^p; None when x occurs in
    t."""
    p = bisect_left(t, x)
    if p < len(t) and t[p] == x:
        return None
    return (-1 if p & 1 else 1), t[:p] + (x,) + t[p:]


def ce_complex(g: StructureConstantLieAlgebra,
               max_degree: int) -> ChainComplex:
    """Exterior-power complex with d(x ^ y) = [x, y] in degree 2 and the
    alternating pairwise-bracket extension in higher degrees. Complete (not
    truncated) when max_degree reaches dim(g). Every exterior power is
    guarded before any of them is enumerated."""
    guard_exterior_powers(g.dim, range(max_degree + 1))
    return ce_complex_on(g, [ExteriorBasis(g.dim, k)
                             for k in range(max_degree + 1)])


def ce_complex_on(g: StructureConstantLieAlgebra,
                  bases: Sequence[ExteriorBasis]) -> ChainComplex:
    """The boundary of `ce_complex` on bases[k] in degree k, for bases that
    span a subcomplex (each boundary of a bases[k] tuple lies in the span of
    bases[k - 1]), such as one Cartan weight of gl_n(A). Truncated when the
    top degree is below dim(g). Each bracketed pair at 1-based positions
    i < j of a tuple t contributes [t_i, t_j] inserted into t without them
    (`wedge_insert`), times the pair's sign (-1)^(i+j-1)."""
    max_degree = len(bases) - 1
    dims = tuple(len(b) for b in bases)
    diffs: Dict[int, SparseMatrix] = {}
    for k in range(2, max_degree + 1):
        src, tgt = bases[k], bases[k - 1]
        entries: Dict[Tuple[int, int], Fraction] = {}
        # (i, j, sign): the 1-based sign (-1)^(i+j-1) is + for the pair (1,2)
        pairs = [(ii, jj, 1 if (ii + jj) % 2 else -1)
                 for ii, jj in combinations(range(k), 2)]
        for ci, t in enumerate(src.tuples):
            for ii, jj, pair_sign in pairs:
                bracket = g.bracket.get((t[ii], t[jj]))
                if not bracket:
                    continue
                rest = t[:ii] + t[ii + 1:jj] + t[jj + 1:]
                for x, coef in bracket.items():
                    res = wedge_insert(rest, x)
                    if res is None:
                        continue
                    s, newt = res
                    key = (tgt.index[newt], ci)
                    entries[key] = entries.get(key, 0) + pair_sign * s * coef
        diffs[k] = SparseMatrix(len(tgt), len(src), entries)
    if max_degree >= 1:
        diffs[1] = SparseMatrix.zeros(dims[0], dims[1])
    return ChainComplex(dims, diffs, truncated=max_degree < g.dim)


def wedge_derivation_matrix(k_basis: ExteriorBasis,
                            act: Callable[[int], Vec]) -> SparseMatrix:
    """Extend a linear action on generators (index -> image Vec) to the
    exterior power as a derivation: each image y replaces its generator
    t[pos], so the term is y inserted into t without t[pos] (`wedge_insert`,
    sign (-1)^p) after moving y to the front, sign (-1)^pos."""
    size = len(k_basis)
    entries: Dict[Tuple[int, int], Fraction] = {}
    for ci, t in enumerate(k_basis.tuples):
        for pos in range(len(t)):
            rest = t[:pos] + t[pos + 1:]
            for y, coef in act(t[pos]).items():
                res = wedge_insert(rest, y)
                if res is None:
                    continue
                s, newt = res
                key = (k_basis.index[newt], ci)
                entries[key] = (entries.get(key, 0)
                                + (-s if pos & 1 else s) * coef)
    return SparseMatrix(size, size, entries)


def scalar_matrix_generator_action(n: int, a_dim: int, r: int,
                                   s: int) -> Callable[[int], Vec]:
    """Action of the scalar elementary matrix e_rs on gl_n(A) generators:
    [e_rs, e_ij] (x) id on the coefficient leg."""
    def act(idx: int) -> Vec:
        ij, c = divmod(idx, a_dim)
        i, j = divmod(ij, n)
        out: Vec = {}
        if s == i:
            out[gl_index(n, a_dim, r, j, c)] = 1
        if j == r:
            key = gl_index(n, a_dim, i, s, c)
            out[key] = out.get(key, 0) - 1
        return vec_clean(out)
    return act


def homotopy_identity_check(g: StructureConstantLieAlgebra,
                            max_degree: int) -> dict:
    """Check the Cartan formula ad_X = d W(X) + W(X) d in each degree
    k < max_degree, for every generator X, as one matrix identity:
    wedge_derivation_matrix(bases[k], ad_X) == d_{k+1} W_k + W_{k-1} d_k,
    where W_k: c |-> X ^ c comes from `wedge_insert` and W_{-1} = 0.
    Every generator/wedge pair is covered; a failure names the least
    (degree, tuple, generator) whose column differs."""
    guard_exterior_powers(g.dim, range(max_degree + 1))
    bases = [ExteriorBasis(g.dim, k) for k in range(max_degree + 1)]
    cx = ce_complex_on(g, bases)
    w = [[SparseMatrix(len(bases[k + 1]), len(bases[k]), {  # W_k(x)
        (bases[k + 1].index[ws[1]], ti): ws[0] for ti, ws in enumerate(
            wedge_insert(t, x) for t in bases[k].tuples) if ws})
        for x in range(g.dim)] for k in range(max_degree)]
    for k in range(max_degree):
        bad = []
        for x in range(g.dim):
            rhs = cx.d(k + 1) @ w[k][x]
            if k >= 1:
                rhs = rhs + w[k - 1][x] @ cx.d(k)
            diff = wedge_derivation_matrix(
                bases[k], lambda i: g.basis_bracket(x, i)) - rhs
            bad.extend((ti, x) for _r, ti in diff.entries)
        if bad:
            ti, x = min(bad)
            return {"check": "wedge_homotopy_identity", "verdict": "fail",
                    "witness": {"generator": x, "degree": k,
                                "tuple": list(bases[k].tuples[ti])}}
    return {"check": "wedge_homotopy_identity", "verdict": "pass",
            "pairs_checked": g.dim * sum(map(len, bases[:max_degree]))}


# -- Lie module actions and coinvariants ---------------------------------------


@dataclass(frozen=True)
class LieModuleAction:
    """Action of a Lie algebra on a module by one matrix per basis element.

    The constructor validates exactly: one module_dim-square matrix per
    basis element, and rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) on all basis
    pairs of the acting algebra. `gln_action_on_chains` alone builds
    actions through the module's `_unchecked`, which skips the check: it
    validates the generator action once and extends it as a derivation,
    which inherits the identity (see there).
    """

    algebra: StructureConstantLieAlgebra
    module_dim: int
    matrices: Tuple[SparseMatrix, ...]

    def __post_init__(self):
        if len(self.matrices) != self.algebra.dim:
            raise LieAxiomError("one action matrix per basis element required")
        for m in self.matrices:
            if (m.rows, m.cols) != (self.module_dim, self.module_dim):
                raise LieAxiomError("action matrix shape != module dim")
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                lhs = self.of_vec(self.algebra.basis_bracket(i, j))
                rhs = self.matrices[i] @ self.matrices[j] - \
                    self.matrices[j] @ self.matrices[i]
                if lhs != rhs:
                    raise LieAxiomError(
                        f"representation identity fails on basis pair ({i},{j})")

    def of_vec(self, x: Mapping[int, Fraction]) -> SparseMatrix:
        out = SparseMatrix.zeros(self.module_dim, self.module_dim)
        for i, c in x.items():
            out = out + self.matrices[i].scale(c)
        return out


def gln_action_on_chains(a: StructureConstantAlgebra, n: int,
                         k: int) -> LieModuleAction:
    """Scalar gl_n acting on the k-th exterior power of gl_n(A): adjoint on
    the matrix leg, nothing on the coefficient leg, extended as a derivation.

    The representation identity is checked once per call, on the generator
    action (k = 1, a space of dimension n^2 dim A), by the validating
    constructor; a LieAxiomError from there is raised at every k. The k-th
    power is then built unchecked. With D_x the derivation of the exterior
    algebra of V that extends rho(x), [D_x, D_y] and D_[x,y] are both
    derivations, and on V, which generates the algebra, they are
    [rho(x), rho(y)] = rho([x, y]); so they agree everywhere."""
    acting = _scalar_gl(n)
    dim = n * n * a.dim
    images = [[act(x) for x in range(dim)]
              for act in (scalar_matrix_generator_action(n, a.dim, r, s)
                          for r in range(n) for s in range(n))]
    gen_basis = ExteriorBasis(dim, 1)
    gens = LieModuleAction(acting, dim, tuple(
        wedge_derivation_matrix(gen_basis, im.__getitem__) for im in images))
    if k == 1:
        return gens
    k_basis = ExteriorBasis(dim, k)
    matrices = tuple(wedge_derivation_matrix(k_basis, im.__getitem__)
                     for im in images)
    return _unchecked(LieModuleAction, algebra=acting,
                      module_dim=len(k_basis), matrices=matrices)


@lru_cache(maxsize=None)
def _scalar_gl(n: int) -> StructureConstantLieAlgebra:
    """gl_n(Q), the algebra acting in `gln_action_on_chains`, built once
    per n (by `gl_n_of`, unchecked)."""
    return gl_n_of(field_q(), n)


def coinvariant_reduction(cx: ChainComplex,
                          actions: Sequence[LieModuleAction]
                          ) -> Tuple[ChainComplex, ChainMap, List[QuotientStructure]]:
    """Degreewise quotient by the span of all action images.

    Requires one action per degree 0..max_degree acting on the matching chain
    space. The differential is checked to commute with every generator action
    (exactly); on failure an AssertionError reports the degree. Returns the
    quotient complex, the projection chain map and the degreewise quotient
    structures.
    """
    if len(actions) != cx.max_degree + 1:
        raise ValueError("need one action per degree")
    for k, act in enumerate(actions):
        if act.module_dim != cx.dims[k]:
            raise ValueError(f"action in degree {k} has wrong module dim")
    for k in range(1, cx.max_degree + 1):
        for m_src, m_tgt in zip(actions[k].matrices, actions[k - 1].matrices):
            if cx.d(k) @ m_src != m_tgt @ cx.d(k):
                raise AssertionError(
                    f"action does not commute with d in degree {k}")
    quots = [quotient_structure(Subspace.from_matrix_rows(SparseMatrix.vstack(
        [m.transpose() for m in act.matrices]))) for act in actions]
    qcx = quotient_complex(cx, quots)
    proj = ChainMap(cx, qcx, {k: q.projection for k, q in enumerate(quots)})
    return qcx, proj, quots


def gln_coinvariant_complex(a: StructureConstantAlgebra, n: int,
                            max_degree: int) -> Tuple[ChainComplex, ChainMap]:
    """Exterior complex of gl_n(A) reduced by the scalar gl_n action."""
    cx = ce_complex(gl_n_of(a, n), max_degree)
    actions = [gln_action_on_chains(a, n, k) for k in range(max_degree + 1)]
    qcx, proj, _ = coinvariant_reduction(cx, actions)
    return qcx, proj
