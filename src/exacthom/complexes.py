"""Chain complexes over Q: homology, chain maps, quotients, tensor products,
double and total complexes, and the spectral sequence of the column filtration.

Grading convention: a complex is a finite list of dimensions for degrees
0..max_degree and differentials d_n: C_n -> C_{n-1}. A complex is *truncated*
when degrees above max_degree were cut off by a degree bound rather than being
genuinely zero; homology in the top degree of a truncated complex is only an
upper bound (the missing d_{max+1} could kill classes), and results carry that
flag rather than silently overclaiming.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactlin import (
    QuotientStructure,
    SparseMatrix,
    Subspace,
    Vec,
    inverse,
    kernel_basis,
    random_unimodular,
    rank,
    solve_matrix,
)


@dataclass(frozen=True)
class ChainComplex:
    """Bounded chain complex of finite-dimensional Q-vector spaces.

    dims[n] is the dimension in degree n; differentials[n] maps degree n to
    degree n-1 and must have shape dims[n-1] x dims[n]. Missing keys mean the
    zero map. `truncated=True` marks an artificial top cut.
    """

    dims: Tuple[int, ...]
    differentials: Dict[int, SparseMatrix] = field(default_factory=dict)
    truncated: bool = True

    def __post_init__(self):
        if not self.dims:
            raise ValueError("complex needs at least degree 0")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        for n, m in self.differentials.items():
            if not 1 <= n <= self.max_degree:
                raise ValueError(f"differential index {n} out of range")
            if (m.rows, m.cols) != (self.dims[n - 1], self.dims[n]):
                raise ValueError(
                    f"d_{n} has shape {m.rows}x{m.cols}, expected "
                    f"{self.dims[n - 1]}x{self.dims[n]}")

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def d(self, n: int) -> SparseMatrix:
        """Differential out of degree n (zero matrix when absent)."""
        if 1 <= n <= self.max_degree and n in self.differentials:
            return self.differentials[n]
        src = self.dims[n] if 0 <= n <= self.max_degree else 0
        tgt = self.dims[n - 1] if 0 <= n - 1 <= self.max_degree else 0
        return SparseMatrix.zeros(tgt, src)

    @cached_property
    def ranks(self) -> List[int]:
        """rank d_n for n = 0..max_degree+1, taken once per complex."""
        return [0] + [rank(self.d(n)) for n in range(1, len(self.dims))] + [0]


def verify_complex(c: ChainComplex) -> dict:
    """Check d_{n-1} @ d_n == 0 for all composable pairs.

    Returns {"ok": bool, "failures": [{"degree": n, "entry": [r, c, num, den]}]}
    where the entry is the first nonzero witness of d^2 in lexicographic order.
    """
    return _witnesses((n, c.d(n - 1) @ c.d(n))
                      for n in range(2, c.max_degree + 1))


def _witnesses(defects) -> dict:
    """verify_complex's result for (degree, defect matrix) pairs."""
    failures = []
    for n, m in defects:
        if not m.is_zero():
            (r, c), v = min(m.entries.items())
            failures.append({"degree": n,
                             "entry": [r, c, v.numerator, v.denominator]})
    return {"ok": not failures, "failures": failures}


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers with per-degree reliability flags.

    betti[n] = dims[n] - rank d_n - rank d_{n+1}. flags[n] is "upper_bound"
    exactly when the complex is truncated and n == max_degree, where unseen
    boundaries from degree max_degree+1 could lower the number; every other
    degree is "exact".
    """

    betti: Tuple[int, ...]
    flags: Tuple[str, ...]


def homology(c: ChainComplex) -> HomologyResult:
    """Betti numbers from the complex's own rank list, `ChainComplex.ranks`;
    see HomologyResult for the formula and the flags."""
    top, ranks = c.max_degree, c.ranks
    betti = tuple(c.dims[n] - ranks[n] - ranks[n + 1] for n in range(top + 1))
    flags = tuple("upper_bound" if c.truncated and n == top else "exact"
                  for n in range(top + 1))
    return HomologyResult(betti, flags)


def representatives(c: ChainComplex, n: int) -> List[Vec]:
    """Cycle representatives of a basis of H_n(c), betti[n] of them and
    independent modulo im d_{n+1}.

    The basis is canonical: the RREF basis of the cycles reduced modulo the
    boundaries, which does not depend on pivot choices.
    """
    cycles = (SparseMatrix.identity(c.dims[0]) if n == 0
              else kernel_basis(c.d(n)))
    return _reduced_basis(cycles,
                          Subspace.from_matrix_rows(c.d(n + 1).transpose()))


def _reduced_basis(vectors: SparseMatrix, modulo: Subspace) -> List[Vec]:
    """Canonical RREF basis of the rows of `vectors` reduced modulo `modulo`."""
    sub = Subspace.from_vectors(vectors.cols, [
        modulo.reduce(vectors.row(i)) for i in range(vectors.rows)])
    return [sub.basis.row(i) for i in range(sub.dim)]


def betti_numbers(c: ChainComplex) -> List[int]:
    return list(homology(c).betti)


def truncate_complex(c: ChainComplex, new_max: int) -> ChainComplex:
    """Cut a complex down to degrees 0..new_max (marked truncated unless the
    cut keeps the genuine top of a complete complex)."""
    if new_max >= c.max_degree:
        return c
    dims = c.dims[: new_max + 1]
    diffs = {n: m for n, m in c.differentials.items() if n <= new_max}
    return ChainComplex(dims, diffs, truncated=True)


def quotient_complex(c: ChainComplex,
                     quots: Sequence[QuotientStructure]) -> ChainComplex:
    """c modulo quots[n].subspace in each degree n, with the boundary
    projection @ d @ section; asserts exactly that d maps each degree's
    subspace into the one below, so that boundary is the induced one."""
    diffs = {}
    for n in range(1, c.max_degree + 1):
        pd = quots[n - 1].projection @ c.d(n)
        if not (pd @ quots[n].subspace.basis.transpose()).is_zero():
            raise AssertionError(f"d does not map the degree-{n} subspace "
                                 f"into the degree-{n - 1} one")
        diffs[n] = pd @ quots[n].section
    return ChainComplex(tuple(q.dim for q in quots), diffs,
                        truncated=c.truncated)


# -- chain maps ---------------------------------------------------------------


@dataclass(frozen=True)
class ChainMap:
    """Degreewise linear map between complexes; components[n] is tgt_n x src_n."""

    src: ChainComplex
    tgt: ChainComplex
    components: Dict[int, SparseMatrix]

    def component(self, n: int) -> SparseMatrix:
        if n in self.components:
            return self.components[n]
        src = self.src.dims[n] if 0 <= n <= self.src.max_degree else 0
        tgt = self.tgt.dims[n] if 0 <= n <= self.tgt.max_degree else 0
        return SparseMatrix.zeros(tgt, src)


def verify_chain_map(f: ChainMap) -> dict:
    """Check the squares d^tgt_n f_n == f_{n-1} d^src_n."""
    top = min(f.src.max_degree, f.tgt.max_degree)
    return _witnesses((n, f.tgt.d(n) @ f.component(n)
                       - f.component(n - 1) @ f.src.d(n))
                      for n in range(1, top + 1))


def _coordinates(reps: List[Vec], span: SparseMatrix,
                 images: SparseMatrix) -> Optional[SparseMatrix]:
    """Coordinates on `reps` of every column of `images` modulo the columns of
    `span`, from one solve (None if one is outside the span); they are unique
    because `reps` are independent modulo `span`."""
    k = len(reps)
    x = solve_matrix(SparseMatrix.hstack(
        [SparseMatrix.from_rows(reps, span.rows).transpose(), span]), images)
    if x is None:
        return None
    return SparseMatrix(k, images.cols, {(i, j): v for (i, j), v
                                         in x.entries.items() if i < k})


def induced_on_homology(f: ChainMap) -> Dict[int, SparseMatrix]:
    """Matrices of H_n(f) in the canonical representative bases: one solve
    per degree of all images f_n(z) against [target reps | d^tgt_{n+1}]."""
    out: Dict[int, SparseMatrix] = {}
    top = min(f.src.max_degree, f.tgt.max_degree)
    for n in range(top + 1):
        sreps = representatives(f.src, n)
        images = f.component(n) @ SparseMatrix.from_rows(
            sreps, f.src.dims[n]).transpose()
        m = _coordinates(representatives(f.tgt, n), f.tgt.d(n + 1), images)
        if m is None:
            raise ValueError(
                f"image of a cycle is not a cycle mod boundaries in degree {n}; "
                "not a chain map?")
        out[n] = m
    return out


def quasi_iso_degrees(f: ChainMap,
                      top: Optional[int] = None) -> Dict[int, bool]:
    """Degrees n <= top where H_n(f) is an isomorphism, decided on ranks
    alone, one mapping cone per decided degree. `top` defaults to the last
    degree of both complexes, min(src, tgt max degree), and is capped there.

    M_n = [[d_n, 0], [f_n, d'_{n+1}]] on C_n + C'_{n+1}, the mapping cone's
    differential up to the sign of d_n, has as kernel the (x, y) with dx = 0
    and f_n x = -d'y: fibres ker d'_{n+1} over {x in Z_n : f_n x in B'_n},
    which has dimension dim Z_n - rank H_n(f). So rank H_n(f) = rank M_n -
    rank d_n - rank d'_{n+1}, and H_n(f) is an isomorphism iff it equals
    b_n(src) and b_n(tgt). The d's ranks are the complexes' own, shared
    with `homology`. H_n(f) needs a chain map, so a map failing
    `verify_chain_map` raises ValueError, whatever `top` is: every square
    is checked, the one in degree top + 1 included."""
    bad = verify_chain_map(f)["failures"]
    if bad:
        raise ValueError(f"not a chain map: the square in degree "
                         f"{bad[0]['degree']} does not commute")
    last = min(f.src.max_degree, f.tgt.max_degree)
    top = last if top is None else min(top, last)
    rs, rt = f.src.ranks, f.tgt.ranks
    out: Dict[int, bool] = {}
    for n in range(top + 1):
        d, dt = f.src.d(n), f.tgt.d(n + 1)
        on_h = rank(SparseMatrix.block([d.rows, dt.rows], [d.cols, dt.cols], {
            (0, 0): d, (1, 0): f.component(n), (1, 1): dt})) - rs[n] - rt[n + 1]
        out[n] = (f.src.dims[n] - rs[n] - rs[n + 1] == on_h
                  == f.tgt.dims[n] - rt[n] - rt[n + 1])
    return out


# -- tensor products ----------------------------------------------------------


def tensor_complexes(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Tensor product with the Koszul sign: d(x0y) = dx0y + (-1)^p x0dy.

    It is the total complex of the double complex A_p (x) B_q with horizontal
    d_A (x) id and vertical (-1)^p id (x) d_B, so its basis layout in degree n
    is the blocks (p, q=n-p) with p ascending; inside a block the index is
    i * dim(B_q) + j. With a truncated factor it ends at the last complete
    degree, the smallest top degree among the truncated factors.
    """
    cells = {(p, q): a.dims[p] * b.dims[q]
             for p in range(a.max_degree + 1) for q in range(b.max_degree + 1)}
    eye = {n: SparseMatrix.identity(n) for n in {*a.dims, *b.dims}}
    neg_db = {q: -b.d(q) for q in range(1, b.max_degree + 1)}
    horiz = {(p, q): a.d(p).kron(eye[b.dims[q]])
             for p, q in cells if p >= 1 and cells[(p, q)]}
    vert = {(p, q): eye[a.dims[p]].kron(neg_db[q] if p % 2 else b.d(q))
            for p, q in cells if q >= 1 and cells[(p, q)]}
    dc = DoubleComplex(a.max_degree, b.max_degree, cells, vert, horiz)
    cuts = [c.max_degree for c in (a, b) if c.truncated]
    return total_complex(dc, min(cuts) if cuts else None).complex


def kunneth_check(a: ChainComplex, b: ChainComplex) -> dict:
    """Compare betti(a (x) b) with the convolution of betti(a) and betti(b).

    Over a field the two agree in every degree. Only meaningful for complete
    complexes; truncated inputs yield an "inconclusive" verdict.
    """
    if a.truncated or b.truncated:
        return {"check": "kunneth", "verdict": "inconclusive",
                "reason": "truncated input"}
    t = tensor_complexes(a, b)
    lhs = betti_numbers(t)
    ba, bb = betti_numbers(a), betti_numbers(b)
    rhs = [sum(ba[p] * bb[n - p]
               for p in range(max(0, n - b.max_degree), min(a.max_degree, n) + 1))
           for n in range(t.max_degree + 1)]
    return {"check": "kunneth", "lhs": lhs, "rhs": rhs,
            "verdict": "pass" if lhs == rhs else "fail"}


# -- double complexes ---------------------------------------------------------


@dataclass(frozen=True)
class DoubleComplex:
    """First-quadrant double complex with anticommuting squares.

    cells[(p, q)] is the dimension at bidegree (p, q); missing keys mean 0.
    vert[(p, q)]: (p, q) -> (p, q-1); horiz[(p, q)]: (p, q) -> (p-1, q).
    Convention: vert^2 = 0, horiz^2 = 0, vert horiz + horiz vert = 0, and the
    total differential is the plain sum vert + horiz (any signs needed to
    anticommute are already baked into the stored matrices).
    """

    max_p: int
    max_q: int
    cells: Dict[Tuple[int, int], int]
    vert: Dict[Tuple[int, int], SparseMatrix]
    horiz: Dict[Tuple[int, int], SparseMatrix]

    def dim(self, p: int, q: int) -> int:
        if 0 <= p <= self.max_p and 0 <= q <= self.max_q:
            return self.cells.get((p, q), 0)
        return 0

    def d_vert(self, p: int, q: int) -> SparseMatrix:
        m = self.vert.get((p, q))
        return m if m is not None else SparseMatrix.zeros(self.dim(p, q - 1),
                                                          self.dim(p, q))

    def d_horiz(self, p: int, q: int) -> SparseMatrix:
        m = self.horiz.get((p, q))
        return m if m is not None else SparseMatrix.zeros(self.dim(p - 1, q),
                                                          self.dim(p, q))


def verify_double_complex(d: DoubleComplex) -> dict:
    """Shape checks plus the three square identities, with witnesses."""
    failures = []
    for (p, q), m in d.vert.items():
        if (m.rows, m.cols) != (d.dim(p, q - 1), d.dim(p, q)):
            failures.append({"kind": "shape_vert", "cell": [p, q]})
    for (p, q), m in d.horiz.items():
        if (m.rows, m.cols) != (d.dim(p - 1, q), d.dim(p, q)):
            failures.append({"kind": "shape_horiz", "cell": [p, q]})
    if failures:
        return {"ok": False, "failures": failures}
    for p in range(d.max_p + 1):
        for q in range(d.max_q + 1):
            if d.dim(p, q) == 0:
                continue
            if q >= 2 and not (d.d_vert(p, q - 1) @ d.d_vert(p, q)).is_zero():
                failures.append({"kind": "vert_squared", "cell": [p, q]})
            if p >= 2 and not (d.d_horiz(p - 1, q) @ d.d_horiz(p, q)).is_zero():
                failures.append({"kind": "horiz_squared", "cell": [p, q]})
            if p >= 1 and q >= 1:
                anti = (d.d_vert(p - 1, q) @ d.d_horiz(p, q)
                        + d.d_horiz(p, q - 1) @ d.d_vert(p, q))
                if not anti.is_zero():
                    failures.append({"kind": "anticommute", "cell": [p, q]})
    return {"ok": not failures, "failures": failures}


@dataclass(frozen=True)
class TotalComplex:
    """Total complex of a double complex plus the cell layout per degree.

    layout[n] lists (p, q, dim) for the nonzero cells on the antidiagonal
    p+q=n in ascending p; the complex's degree-n space is their direct sum,
    laid out as the blocks of the differentials (see "Block layout" in
    `exactlin`). The column filtration F_p is therefore a coordinate prefix.
    """

    complex: ChainComplex
    layout: Dict[int, List[Tuple[int, int, int]]]

    def filtration_dim(self, n: int, p_max: int) -> int:
        """Dimension of the subspace F_{p_max} in degree n."""
        return sum(dim for p, _q, dim in self.layout.get(n, []) if p <= p_max)


def total_complex(d: DoubleComplex, top: Optional[int] = None) -> TotalComplex:
    """Total complex of d, in degrees 0..max_p + max_q when d is complete.

    For a double complex cut off by a degree bound, `top` is the last total
    degree whose cells are all present (`bound` for `cyclic_bicomplex` and
    `bB_bicomplex`). The complex then ends at `top` and is truncated, so its
    top degree is an upper bound and every lower degree is exact."""
    nmax = d.max_p + d.max_q if top is None else top
    layout = {n: [(p, n - p, d.dim(p, n - p))
                  for p in range(max(0, n - d.max_q), min(d.max_p, n) + 1)
                  if d.dim(p, n - p)]
              for n in range(nmax + 1)}
    cell_dims = {n: [dim for _p, _q, dim in lay] for n, lay in layout.items()}
    diffs: Dict[int, SparseMatrix] = {}
    for n in range(1, nmax + 1):
        tgt = {(p, q): i for i, (p, q, _dim) in enumerate(layout[n - 1])}
        blocks: Dict[Tuple[int, int], SparseMatrix] = {}
        for j, (p, q, _dim) in enumerate(layout[n]):
            if (p, q - 1) in tgt:
                blocks[(tgt[(p, q - 1)], j)] = d.d_vert(p, q)
            if (p - 1, q) in tgt:
                blocks[(tgt[(p - 1, q)], j)] = d.d_horiz(p, q)
        diffs[n] = SparseMatrix.block(cell_dims[n - 1], cell_dims[n], blocks)
    dims = tuple(sum(cell_dims[n]) for n in range(nmax + 1))
    cx = ChainComplex(dims, diffs, truncated=top is not None)
    return TotalComplex(cx, layout)


# -- spectral sequence of the column filtration -------------------------------


class SpectralSequence:
    """Pages of the column-filtration spectral sequence of a double complex.

    pages[r][(p, q)] is dim E^r_{p,q} (zero entries omitted);
    page_maps[r][(p, q)] is the matrix of d^r: E^r_{p,q} -> E^r_{p-r,q+r-1}
    in the canonical representative bases (omitted when either side is 0).

    Every page comes from one formula (McCleary, *A User's Guide to Spectral
    Sequences*, ch. 2). Let Z(n, c, k) be the x in the first c coordinates of
    Tot_n whose dx lies in the first k coordinates of Tot_{n-1}, and write
    F_p for the size of the column-filtration prefix (`filtration_dim`, which
    is 0 outside the complex). With n = p + q,

        E^r_{p,q} = Z(n, F_p, F_{p-r})
                    / (Z(n, F_{p-1}, F_{p-r}) + d Z(n+1, F_{p+r-1}, F_p)).

    At r = 0 the denominator is F_{p-1}, since d preserves the filtration.
    The denominator lies in the numerator, so dim E^r is the difference of
    their dimensions; only page maps need representatives. One memo holds
    each Z under ("Z", n, c, k), each denominator under its two Z keys and
    each representative basis under its three, so each is built once.
    """

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.tot = total_complex(dc)
        self.stable_page = dc.max_p + dc.max_q + 1
        self._memo: Dict[tuple, object] = {}
        self.pages: List[Dict[Tuple[int, int], int]] = []
        self.page_maps: List[Dict[Tuple[int, int], SparseMatrix]] = []
        for r in range(self.stable_page + 1):
            self.pages.append(self._page_dims(r))
            self.page_maps.append(self._page_maps(r))

    def _term(self, r: int, p: int, q: int) -> Tuple[Tuple[int, int, int], ...]:
        """The Z keys of E^r_{p,q}: its numerator, then the two terms of its
        denominator."""
        n, f = p + q, self.tot.filtration_dim
        return ((n, f(n, p), f(n - 1, p - r)),
                (n, f(n, p - 1), f(n - 1, p - r)),
                (n + 1, f(n + 1, p + r - 1), f(n, p)))

    def _z(self, n: int, c: int, k: int) -> Subspace:
        key = ("Z", n, c, k)
        if key not in self._memo:
            # the prefixes keep kernel vectors in their Tot_n coordinates
            dmat = self.tot.complex.d(n)
            kb = kernel_basis(dmat.select(range(k, dmat.rows), range(c)))
            self._memo[key] = Subspace.from_matrix_rows(
                SparseMatrix(kb.rows, dmat.cols, kb.entries))
        return self._memo[key]

    def _denominator(self, z: Tuple[int, int, int],
                     b: Tuple[int, int, int]) -> Subspace:
        """Z(z) + d Z(b)."""
        key = ("den", z, b)
        if key not in self._memo:
            boundaries = self._z(*b).basis @ self.tot.complex.d(b[0]).transpose()
            self._memo[key] = Subspace.from_matrix_rows(
                SparseMatrix.vstack([self._z(*z).basis, boundaries]))
        return self._memo[key]

    def _reps(self, term: Tuple[Tuple[int, int, int], ...]) -> List[Vec]:
        key = ("reps", *term)
        if key not in self._memo:
            num, z, b = term
            self._memo[key] = _reduced_basis(self._z(*num).basis,
                                             self._denominator(z, b))
        return self._memo[key]

    def _page_dims(self, r: int) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for p in range(self.dc.max_p + 1):
            for q in range(self.dc.max_q + 1):
                if self.dc.dim(p, q) == 0:
                    continue
                num, z, b = self._term(r, p, q)
                dim = self._z(*num).dim - self._denominator(z, b).dim
                if dim:
                    out[(p, q)] = dim
        return out

    def _page_maps(self, r: int) -> Dict[Tuple[int, int], SparseMatrix]:
        out: Dict[Tuple[int, int], SparseMatrix] = {}
        dims = self.pages[r]
        for (p, q) in dims:
            if (p - r, q + r - 1) not in dims:
                continue
            dmat = self.tot.complex.d(p + q)
            tgt = self._term(r, p - r, q + r - 1)
            images = dmat @ SparseMatrix.from_rows(
                self._reps(self._term(r, p, q)), dmat.cols).transpose()
            # an image outside the target's Z = reps + den has no coordinates
            m = _coordinates(self._reps(tgt),
                             self._denominator(*tgt[1:]).basis.transpose(),
                             images)
            if m is None:
                raise AssertionError(
                    f"page {r} differential not expressible at {(p, q)}")
            if not m.is_zero():
                out[(p, q)] = m
        return out

    def convergence_report(self) -> dict:
        """Check sum of E^infinity dims along each antidiagonal against betti(Tot)."""
        einf = self.pages[self.stable_page]
        tot_betti = betti_numbers(self.tot.complex)
        rows = []
        ok = True
        for n in range(self.tot.complex.max_degree + 1):
            s = sum(dim for (p, q), dim in einf.items() if p + q == n)
            match = (s == tot_betti[n])
            ok = ok and match
            rows.append({"degree": n, "e_infinity_sum": s,
                         "total_betti": tot_betti[n], "match": match})
        return {"check": "spectral_convergence", "stable_page": self.stable_page,
                "rows": rows, "verdict": "pass" if ok else "fail"}


def spectral_sequence(dc: DoubleComplex) -> SpectralSequence:
    return SpectralSequence(dc)


# -- seeded random families ---------------------------------------------------


def random_complex(seed: int, max_degree: int = 4,
                   max_new_per_degree: int = 2) -> Tuple[ChainComplex, List[int]]:
    """Seeded complete complex with known homology.

    Built as a direct sum of dots (surviving classes) and length-one intervals
    (cancelled pairs), then conjugated degreewise by random determinant-1
    matrices. Over a field every bounded complex is isomorphic to such a sum,
    so the family covers all isomorphism classes. Returns (complex, betti).
    """
    rng = random.Random(seed)
    dots = [rng.randint(0, max_new_per_degree) for _ in range(max_degree + 1)]
    intervals = [0] + [rng.randint(0, max_new_per_degree)
                       for _ in range(max_degree)]  # intervals[n]: top at n
    dims = []
    for n in range(max_degree + 1):
        tops = intervals[n] if n >= 1 else 0
        bottoms = intervals[n + 1] if n + 1 <= max_degree else 0
        dims.append(dots[n] + tops + bottoms)
    diffs: Dict[int, SparseMatrix] = {}
    for n in range(1, max_degree + 1):
        entries = {}
        tops = intervals[n]
        for j in range(tops):
            src = dots[n] + j
            tgt = dots[n - 1] + (intervals[n - 1] if n - 1 >= 1 else 0) + j
            entries[(tgt, src)] = 1
        diffs[n] = SparseMatrix(dims[n - 1], dims[n], entries)
    g = [random_unimodular(rng, dims[n]) for n in range(max_degree + 1)]
    ginv = [inverse(m) for m in g]
    conj = {n: g[n - 1] @ diffs[n] @ ginv[n] for n in range(1, max_degree + 1)}
    return (ChainComplex(tuple(dims), conj, truncated=False), dots)


def random_double_complex(seed: int, max_p: int = 4, max_q: int = 4,
                          max_cell_dim: int = 3) -> DoubleComplex:
    """Seeded first-quadrant double complex with anticommuting squares.

    Direct sum of dots, anticommuting unit squares, and alternating staircase
    zigzags (sink/source alternation, so no two unit maps ever compose), then a
    cellwise determinant-1 change of basis. Staircases are what make higher
    page differentials appear, so the family exercises d^r for r >= 2.
    """
    rng = random.Random(seed)
    cells: Dict[Tuple[int, int], int] = {}
    vert_entries: Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]] = {}
    horiz_entries: Dict[Tuple[int, int], Dict[Tuple[int, int], Fraction]] = {}

    def new_slot(p: int, q: int) -> Optional[int]:
        d = cells.get((p, q), 0)
        if d >= max_cell_dim:
            return None
        cells[(p, q)] = d + 1
        return d

    def add_arrow(table, key, r, c, val):
        table.setdefault(key, {})[(r, c)] = val

    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(["dot", "square", "zigzag", "zigzag"])
        if kind == "dot":
            p, q = rng.randint(0, max_p), rng.randint(0, max_q)
            new_slot(p, q)
        elif kind == "square":
            if max_p < 1 or max_q < 1:
                continue
            p, q = rng.randint(1, max_p), rng.randint(1, max_q)
            s00 = new_slot(p, q)
            s10 = new_slot(p - 1, q)
            s01 = new_slot(p, q - 1)
            s11 = new_slot(p - 1, q - 1)
            if None in (s00, s10, s01, s11):
                continue
            add_arrow(horiz_entries, (p, q), s10, s00, 1)
            add_arrow(horiz_entries, (p, q - 1), s11, s01, 1)
            add_arrow(vert_entries, (p, q), s01, s00, 1)
            add_arrow(vert_entries, (p - 1, q), s11, s10, -1)
        else:
            # staircase: X_i -> Y_i horizontally, X_{i+1} -> Y_i vertically,
            # X_i = (p-i, q+i), Y_i = (p-i-1, q+i); all Y cells are sinks
            length = rng.randint(1, 3)
            p = rng.randint(1, max_p) if max_p >= 1 else 0
            q = rng.randint(0, max_q)
            slots: Dict[Tuple[int, int], int] = {}
            plan = []
            ok = True
            for i in range(length):
                xi, yi = (p - i, q + i), (p - i - 1, q + i)
                if xi[0] < 0 or yi[0] < 0 or xi[1] > max_q:
                    break
                plan.append((xi, yi))
            if not plan:
                continue
            for xi, yi in plan:
                for cell in (xi, yi):
                    if cell not in slots:
                        s = new_slot(*cell)
                        if s is None:
                            ok = False
                            break
                        slots[cell] = s
                if not ok:
                    break
            if not ok:
                continue
            for i, (xi, yi) in enumerate(plan):
                add_arrow(horiz_entries, xi, slots[yi], slots[xi], 1)
                if i >= 1:
                    prev_y = plan[i - 1][1]
                    add_arrow(vert_entries, xi, slots[prev_y], slots[xi],
                              -1 if i % 2 else 1)

    def dim(p, q):
        return cells.get((p, q), 0)

    vert = {k: SparseMatrix(dim(k[0], k[1] - 1), dim(*k), v)
            for k, v in vert_entries.items()}
    horiz = {k: SparseMatrix(dim(k[0] - 1, k[1]), dim(*k), v)
             for k, v in horiz_entries.items()}
    # cellwise change of basis
    g = {k: random_unimodular(rng, d) for k, d in cells.items()}
    ginv = {k: inverse(m) for k, m in g.items()}

    def conj(table, tgt_of):
        out = {}
        for (p, q), m in table.items():
            tp, tq = tgt_of(p, q)
            gt = g.get((tp, tq), SparseMatrix.identity(m.rows))
            out[(p, q)] = gt @ m @ ginv[(p, q)]
        return out

    return DoubleComplex(
        max_p, max_q, cells,
        conj(vert, lambda p, q: (p, q - 1)),
        conj(horiz, lambda p, q: (p - 1, q)))
