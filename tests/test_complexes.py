"""Chain complexes, tensor products, double complexes, spectral sequences."""

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from exacthom import complexes
from exacthom.exactlin import (SparseMatrix, Subspace, Vec, inverse,
                               kernel_basis, quotient_structure,
                               random_unimodular, rank)
from exacthom.complexes import (
    ChainComplex,
    ChainMap,
    DoubleComplex,
    _coordinates,
    _reduced_basis,
    betti_numbers,
    homology,
    induced_on_homology,
    kunneth_check,
    quasi_iso_degrees,
    quotient_complex,
    random_complex,
    random_double_complex,
    representatives,
    spectral_sequence,
    tensor_complexes,
    total_complex,
    truncate_complex,
    verify_chain_map,
    verify_complex,
    verify_double_complex,
)

seeds = st.integers(min_value=0, max_value=10_000)


def interval() -> ChainComplex:
    """0 -> Q -> Q -> 0 with the identity differential."""
    return ChainComplex((1, 1), {1: SparseMatrix.identity(1)}, truncated=False)


def point() -> ChainComplex:
    return ChainComplex((1,), {}, truncated=False)


def test_complex_validation():
    with pytest.raises(ValueError):
        ChainComplex((1, 1), {1: SparseMatrix.zeros(2, 1)})
    with pytest.raises(ValueError):
        ChainComplex((), {})
    with pytest.raises(ValueError):
        ChainComplex((1, 1), {5: SparseMatrix.identity(1)})


def test_verify_complex_witness():
    # d1 @ d2 != 0 here, and the witness entry is reported
    bad = ChainComplex((1, 1, 1), {1: SparseMatrix.identity(1),
                                   2: SparseMatrix.identity(1)})
    rep = verify_complex(bad)
    assert not rep["ok"]
    assert rep["failures"][0]["degree"] == 2
    assert rep["failures"][0]["entry"] == [0, 0, 1, 1]
    assert verify_complex(interval())["ok"]


def test_homology_interval_and_flags():
    h = homology(interval())
    assert h.betti == (0, 0)
    assert h.flags == ("exact", "exact")
    trunc = ChainComplex((1, 1), {1: SparseMatrix.identity(1)}, truncated=True)
    ht = homology(trunc)
    assert ht.betti == (0, 0)
    assert ht.flags == ("exact", "upper_bound")


def test_homology_representatives_are_reduced_cycles():
    # two-sphere-like complex: dims (1, 0, 1), zero differentials
    c = ChainComplex((1, 0, 1), {}, truncated=False)
    h = homology(c)
    assert h.betti == (1, 0, 1)
    assert representatives(c, 0) == [{0: Fraction(1)}]
    assert representatives(c, 1) == []
    assert representatives(c, 2) == [{0: Fraction(1)}]


def dense(m):
    return [[Fraction(m.entry(r, c)) for c in range(m.cols)]
            for r in range(m.rows)]


def dense_vectors(vecs, dim):
    return [[Fraction(v.get(i, 0)) for i in range(dim)] for v in vecs]


@given(seeds, st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_rank_first_betti_and_flags_match_the_dense_oracle(seed, cut):
    c = truncate_complex(random_complex(seed)[0], cut)
    ranks = [dense_oracle.dense_rank(dense(c.d(n)))
             for n in range(c.max_degree + 2)]
    h = homology(c)
    assert h.betti == tuple(c.dims[n] - ranks[n] - ranks[n + 1]
                            for n in range(c.max_degree + 1))
    assert h.flags == tuple(
        "upper_bound" if c.truncated and n == c.max_degree else "exact"
        for n in range(c.max_degree + 1))


@given(seeds, st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_representatives_are_independent_cycles_mod_boundaries(seed, cut):
    c = truncate_complex(random_complex(seed)[0], cut)
    betti = homology(c).betti
    for n in range(c.max_degree + 1):
        reps = representatives(c, n)
        assert len(reps) == betti[n]
        assert all(not c.d(n).apply(z) for z in reps)
        bnd = dense(c.d(n + 1).transpose())
        stacked = dense_vectors(reps, c.dims[n]) + bnd
        assert (dense_oracle.dense_rank(stacked)
                == betti[n] + dense_oracle.dense_rank(bnd))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_quotient_by_the_boundaries_is_a_complex_with_a_chain_projection(
        seed):
    c, _ = random_complex(seed)
    quots = [quotient_structure(Subspace.from_matrix_rows(
        c.d(n + 1).transpose())) for n in range(c.max_degree + 1)]
    q = quotient_complex(c, quots)
    assert q.dims == tuple(x.dim for x in quots)
    assert q.truncated == c.truncated
    assert verify_complex(q)["ok"]
    proj = ChainMap(c, q, {n: x.projection for n, x in enumerate(quots)})
    assert verify_chain_map(proj)["ok"]


def test_quotient_complex_rejects_subspaces_d_does_not_preserve():
    c = ChainComplex((1, 1), {1: SparseMatrix.identity(1)}, truncated=False)
    quots = [quotient_structure(Subspace.zero(1)),
             quotient_structure(Subspace.from_vectors(1, [{0: 1}]))]
    with pytest.raises(AssertionError, match="degree-1 subspace"):
        quotient_complex(c, quots)
    # killing the image too makes d preserve the subspaces
    full = quotient_structure(Subspace.from_vectors(1, [{0: 1}]))
    assert quotient_complex(c, [full, full]).dims == (0, 0)


def test_homology_takes_one_rank_per_differential(monkeypatch):
    c, betti = random_complex(5)
    calls = []

    def counted_rank(m):
        calls.append((m.rows, m.cols))
        return rank(m)

    def forbidden(*args, **kwargs):
        raise AssertionError("homology must not build subspaces")

    monkeypatch.setattr(complexes, "rank", counted_rank)
    monkeypatch.setattr(complexes, "kernel_basis", forbidden)
    monkeypatch.setattr(complexes, "Subspace", forbidden)
    assert list(homology(c).betti) == betti
    # the complex keeps its ranks: later readers take none
    assert betti_numbers(c) == betti
    assert c.ranks[0] == c.ranks[-1] == 0
    assert calls == [(c.dims[n - 1], c.dims[n])
                     for n in range(1, c.max_degree + 1)]


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_induced_maps_of_a_chain_isomorphism_are_inverse(seed):
    c, betti = random_complex(seed)
    rng = random.Random(seed)
    g = [random_unimodular(rng, d) for d in c.dims]
    ginv = [inverse(m) for m in g]
    conj = ChainComplex(c.dims, {n: g[n - 1] @ c.d(n) @ ginv[n]
                                 for n in range(1, c.max_degree + 1)},
                        truncated=False)
    there = ChainMap(c, conj, dict(enumerate(g)))
    back = ChainMap(conj, c, dict(enumerate(ginv)))
    assert verify_chain_map(there)["ok"] and verify_chain_map(back)["ok"]
    forward, backward = induced_on_homology(there), induced_on_homology(back)
    for n in range(c.max_degree + 1):
        assert backward[n] @ forward[n] == SparseMatrix.identity(betti[n])
    assert all(quasi_iso_degrees(there).values())


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_complex_has_predicted_betti(seed):
    c, predicted = random_complex(seed)
    assert verify_complex(c)["ok"]
    assert betti_numbers(c) == predicted


@given(seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_tensor_is_complex_and_kunneth(sa, sb):
    a, _ = random_complex(sa, max_degree=3)
    b, _ = random_complex(sb, max_degree=2)
    t = tensor_complexes(a, b)
    assert verify_complex(t)["ok"]
    assert t.dims[0] == a.dims[0] * b.dims[0]
    rep = kunneth_check(a, b)
    assert rep["verdict"] == "pass", rep


def _dense(m):
    return [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]


@given(seeds, seeds, st.integers(0, 3), st.integers(0, 3), st.booleans())
@settings(max_examples=30, deadline=None)
def test_tensor_product_has_the_koszul_block_layout(sa, sb, ta, tb, cut):
    """Degree n is the blocks (p, q = n - p) with p ascending, index
    i * dim(B_q) + j inside a block, and d = d_A (x) id + (-1)^p id (x) d_B,
    built here from dense Kronecker products."""
    a, _ = random_complex(sa, max_degree=ta)
    b, _ = random_complex(sb, max_degree=tb)
    if cut and a.max_degree:
        a = truncate_complex(a, a.max_degree - 1)
    t = tensor_complexes(a, b)
    assert t.truncated == (a.truncated or b.truncated)
    # a truncated factor cuts the product at its top degree, the last
    # complete one; the layout below is checked in the degrees that remain
    top = a.max_degree if a.truncated else a.max_degree + b.max_degree

    def blocks(n):
        out, off = {}, 0
        for p in range(max(0, n - b.max_degree), min(a.max_degree, n) + 1):
            out[(p, n - p)] = off
            off += a.dims[p] * b.dims[n - p]
        return out, off

    assert t.max_degree == top
    for n in range(t.max_degree + 1):
        assert t.dims[n] == blocks(n)[1]
    for n in range(1, t.max_degree + 1):
        src, cols = blocks(n)
        tgt, rows = blocks(n - 1)
        expected = [[Fraction(0)] * cols for _ in range(rows)]

        def place(block, r0, c0, sign):
            for r, row in enumerate(block):
                for c, v in enumerate(row):
                    expected[r0 + r][c0 + c] += sign * v

        for (p, q), off in src.items():
            if p >= 1:
                place(dense_oracle.dense_kron(
                    _dense(a.d(p)), dense_oracle.dense_identity(b.dims[q]),
                    a.dims[p], b.dims[q]), tgt[(p - 1, q)], off, 1)
            if q >= 1:
                place(dense_oracle.dense_kron(
                    dense_oracle.dense_identity(a.dims[p]), _dense(b.d(q)),
                    a.dims[p], b.dims[q]), tgt[(p, q - 1)], off, (-1) ** p)
        assert _dense(t.d(n)) == expected


@given(seeds, seeds, st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_tensor_with_a_cut_factor_is_exact_where_flagged(sa, sb, ca, cb):
    """Cutting the factors with truncate_complex changes no Betti number of
    the product in a degree flagged exact, and only bounds it from above at
    the top."""
    a, _ = random_complex(sa, max_degree=3)
    b, _ = random_complex(sb, max_degree=2)
    full = homology(tensor_complexes(a, b)).betti
    cut_a, cut_b = truncate_complex(a, ca), truncate_complex(b, cb)
    t = tensor_complexes(cut_a, cut_b)
    tops = [c.max_degree for c in (cut_a, cut_b) if c.truncated]
    assert t.max_degree == min(tops, default=a.max_degree + b.max_degree)
    h = homology(t)
    for n, flag in enumerate(h.flags):
        if flag == "exact":
            assert h.betti[n] == full[n], (n, h.betti, full)
        else:
            assert h.betti[n] >= full[n], (n, h.betti, full)


def test_tensor_with_a_cut_factor_pins_the_upper_bound():
    # cut at 2, the factor's boundaries out of degree 3 are gone
    a, _ = random_complex(5, 3)
    b, _ = random_complex(6, 2)
    assert homology(tensor_complexes(a, b)).betti[:3] == (4, 2, 6)
    h = homology(tensor_complexes(truncate_complex(a, 2), b))
    assert h.betti == (4, 2, 18)
    assert h.flags == ("exact", "exact", "upper_bound")


def test_tensor_with_point_is_identity_on_dims():
    a, _ = random_complex(3)
    t = tensor_complexes(a, point())
    assert t.dims == a.dims
    assert betti_numbers(t) == betti_numbers(a)


def test_kunneth_inconclusive_on_truncated():
    a = ChainComplex((1, 1), {1: SparseMatrix.identity(1)}, truncated=True)
    assert kunneth_check(a, a)["verdict"] == "inconclusive"


def test_chain_map_verification_and_induced():
    c, _ = random_complex(11)
    ident = ChainMap(c, c, {n: SparseMatrix.identity(c.dims[n])
                            for n in range(c.max_degree + 1)})
    assert verify_chain_map(ident)["ok"]
    assert all(quasi_iso_degrees(ident).values())
    induced = induced_on_homology(ident)
    h = homology(c)
    for n in range(c.max_degree + 1):
        assert induced[n] == SparseMatrix.identity(h.betti[n])


def test_broken_chain_map_reports_square():
    a = interval()
    b = ChainComplex((1, 1), {}, truncated=False)  # zero differential
    f = ChainMap(a, b, {0: SparseMatrix.identity(1), 1: SparseMatrix.identity(1)})
    rep = verify_chain_map(f)
    assert not rep["ok"] and rep["failures"][0]["degree"] == 1


def test_zero_map_not_quasi_iso():
    c = ChainComplex((1,), {}, truncated=False)
    z = ChainMap(c, c, {0: SparseMatrix.zeros(1, 1)})
    assert quasi_iso_degrees(z) == {0: False}


def test_quasi_iso_degrees_rejects_a_map_that_is_not_a_chain_map():
    a = interval()
    b = ChainComplex((1, 1), {}, truncated=False)
    f = ChainMap(a, b, {0: SparseMatrix.identity(1), 1: SparseMatrix.identity(1)})
    with pytest.raises(ValueError, match="degree 1 does not commute"):
        quasi_iso_degrees(f)


def reference_quasi_iso_degrees(f: ChainMap,
                                top: Optional[int] = None) -> Dict[int, bool]:
    """quasi_iso_degrees as it was before ranks decided it, restricted to
    n <= top when top is given."""
    return {n: m.rows == m.cols and rank(m) == m.rows
            for n, m in induced_on_homology(f).items()
            if top is None or n <= top}


def _random_map(rng: random.Random, rows: int, cols: int) -> SparseMatrix:
    return SparseMatrix(rows, cols, {
        (r, c): rng.randint(-2, 2) for r in range(rows) for c in range(cols)
        if rng.random() < 0.4})


def homotopic_to_scalar(c: ChainComplex, a: int,
                        rng: random.Random) -> Dict[int, SparseMatrix]:
    """Components of a * id + dh + hd for a random h of degree +1."""
    top = c.max_degree
    h = {n: _random_map(rng, c.dims[n + 1], c.dims[n]) for n in range(top)}
    out = {}
    for n in range(top + 1):
        m = SparseMatrix.identity(c.dims[n]).scale(a)
        if n < top:
            m = m + c.d(n + 1) @ h[n]
        if n > 0:
            m = m + h[n - 1] @ c.d(n)
        out[n] = m
    return out


@given(seeds, st.integers(min_value=-2, max_value=2),
       st.integers(min_value=0, max_value=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_quasi_iso_degrees_match_the_representative_path(seed, a, cut,
                                                         conjugate):
    """a * id + dh + hd on a random complex, into a truncation of it or
    into a conjugate of it; the verdicts are those of H(f)'s matrices."""
    c, _ = random_complex(seed)
    rng = random.Random(seed)
    tgt = truncate_complex(c, cut)
    comps = {n: m for n, m in homotopic_to_scalar(c, a, rng).items()
             if n <= tgt.max_degree}
    if conjugate:
        g = [random_unimodular(rng, d) for d in tgt.dims]
        tgt = ChainComplex(tgt.dims, {
            n: g[n - 1] @ tgt.d(n) @ inverse(g[n])
            for n in range(1, tgt.max_degree + 1)}, truncated=tgt.truncated)
        comps = {n: g[n] @ m for n, m in comps.items()}
    f = ChainMap(c, tgt, comps)
    assert verify_chain_map(f)["ok"]
    assert quasi_iso_degrees(f) == reference_quasi_iso_degrees(f)


def homotopic_chain_map(seed: int, a: int, cut: int,
                        conjugate: bool) -> ChainMap:
    """a * id + dh + hd on random_complex(seed), into its truncation at
    `cut` or into a conjugate of that."""
    c, _ = random_complex(seed)
    rng = random.Random(seed)
    tgt = truncate_complex(c, cut)
    comps = {n: m for n, m in homotopic_to_scalar(c, a, rng).items()
             if n <= tgt.max_degree}
    if conjugate:
        g = [random_unimodular(rng, d) for d in tgt.dims]
        tgt = ChainComplex(tgt.dims, {
            n: g[n - 1] @ tgt.d(n) @ inverse(g[n])
            for n in range(1, tgt.max_degree + 1)}, truncated=tgt.truncated)
        comps = {n: g[n] @ m for n, m in comps.items()}
    return ChainMap(c, tgt, comps)


@given(seeds, st.integers(min_value=-2, max_value=2),
       st.integers(min_value=0, max_value=5), st.booleans(),
       st.integers(min_value=-1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_quasi_iso_degrees_up_to_top_restrict_the_full_answer(seed, a, cut,
                                                              conjugate, top):
    f = homotopic_chain_map(seed, a, cut, conjugate)
    up_to_top = quasi_iso_degrees(f, top)
    assert up_to_top == {n: v for n, v in quasi_iso_degrees(f).items()
                         if n <= top}
    assert up_to_top == reference_quasi_iso_degrees(f, top)


@pytest.mark.parametrize("top", [0, 1, 2])
def test_quasi_iso_degrees_checks_the_square_above_top(top):
    # Q in degrees 0..top+1 with d_(top+1) = 1, mapped to itself by the
    # identity below degree top + 1 and by 0 there: only that square fails
    dims = (1,) * (top + 2)
    c = ChainComplex(dims, {top + 1: SparseMatrix.identity(1)},
                     truncated=False)
    comps = {n: SparseMatrix.identity(1) for n in range(top + 1)}
    comps[top + 1] = SparseMatrix.zeros(1, 1)
    f = ChainMap(c, c, comps)
    assert [w["degree"] for w in verify_chain_map(f)["failures"]] == [top + 1]
    for t in (top, None):
        with pytest.raises(ValueError,
                           match=f"degree {top + 1} does not commute"):
            quasi_iso_degrees(f, t)


def test_cyclic_comparison_builds_no_representatives(monkeypatch):
    from exacthom import assoc_homology
    from exacthom.assoc_homology import cyclic_comparison_report, matrix_algebra

    monkeypatch.setattr(assoc_homology, "quasi_iso_degrees",
                        reference_quasi_iso_degrees)
    expected = cyclic_comparison_report(matrix_algebra(2), 3)
    monkeypatch.undo()

    def forbidden(*args, **kwargs):
        raise AssertionError("representatives were built")

    for name in ("representatives", "kernel_basis", "solve_matrix"):
        monkeypatch.setattr(complexes, name, forbidden)
    assert cyclic_comparison_report(matrix_algebra(2), 3) == expected


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_random_double_complex_is_valid(seed):
    d = random_double_complex(seed)
    assert verify_double_complex(d)["ok"]
    tot = total_complex(d)
    assert verify_complex(tot.complex)["ok"]


def _cut(d: DoubleComplex, max_p: int, max_q: int) -> DoubleComplex:
    """The cells with p <= max_p and q <= max_q, and the maps out of them
    (which stay inside, since d lowers p or q)."""
    def keep(table):
        return {(p, q): v for (p, q), v in table.items()
                if p <= max_p and q <= max_q}
    return DoubleComplex(max_p, max_q, keep(d.cells), keep(d.vert),
                         keep(d.horiz))


@given(seeds, st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_cut_total_complex_is_exact_where_flagged(seed, max_p, max_q):
    """The total complex of a cut double complex ends at its last complete
    degree; there it is an upper bound and below it every degree agrees
    with the uncut total complex."""
    d = random_double_complex(seed)
    full = homology(total_complex(d).complex).betti
    top = min(max_p, max_q)
    cx = total_complex(_cut(d, max_p, max_q), top).complex
    assert cx.truncated and cx.max_degree == top
    h = homology(cx)
    assert h.flags == ("exact",) * top + ("upper_bound",)
    for n, flag in enumerate(h.flags):
        if flag == "exact":
            assert h.betti[n] == full[n], (n, h.betti, full)
        else:
            assert h.betti[n] >= full[n], (n, h.betti, full)


def _staircase(length: int):
    """Hand-built staircase double complex whose last differential is d^length."""
    cells = {}
    horiz = {}
    vert = {}
    p, q = length, 0
    for i in range(length):
        xi, yi = (p - i, q + i), (p - i - 1, q + i)
        cells[xi] = 1
        cells[yi] = 1
        horiz[xi] = SparseMatrix.identity(1)
        if i >= 1:
            vert[xi] = SparseMatrix.identity(1)
    return DoubleComplex(length, length, cells, vert, horiz)


# -- the spectral sequence before its single-memo rewrite, kept verbatim as the
# reference: three caches keyed by (r, p, q) and special cases for r = 0,
# p < 0 and degrees outside the complex. The one edit is the r = 0
# denominator, which reads the prefix of F_{p-1} through `filtration_dim`,
# because the old `filtration_columns` helper is gone.


class ReferenceSpectralSequence:
    """Pages of the column-filtration spectral sequence of a double complex.

    pages[r][(p, q)] is dim E^r_{p,q} (zero entries omitted);
    page_maps[r][(p, q)] is the matrix of d^r: E^r_{p,q} -> E^r_{p-r,q+r-1}
    in the canonical representative bases (omitted when either side is 0).
    """

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.tot = total_complex(dc)
        self.stable_page = dc.max_p + dc.max_q + 1
        self._a_cache: Dict[Tuple[int, int, int], Subspace] = {}
        self._den_cache: Dict[Tuple[int, int, int], Subspace] = {}
        self._rep_cache: Dict[Tuple[int, int, int], List[Vec]] = {}
        self.pages: List[Dict[Tuple[int, int], int]] = []
        self.page_maps: List[Dict[Tuple[int, int], SparseMatrix]] = []
        for r in range(self.stable_page + 1):
            self.pages.append(self._page_dims(r))
            self.page_maps.append(self._page_maps(r))

    # approximant A^r_{p,q} = {x in F_p Tot_{p+q} : dx in F_{p-r}}
    # (only p and the total degree n = p+q matter; q may be negative when a
    # denominator term reaches past the grid)
    def _approximant(self, r: int, p: int, q: int) -> Subspace:
        key = (r, p, q)
        hit = self._a_cache.get(key)
        if hit is not None:
            return hit
        n = p + q
        nmax = self.tot.complex.max_degree
        if n < 0 or n > nmax:
            sub = Subspace.zero(0)
            self._a_cache[key] = sub
            return sub
        if p < 0:
            sub = Subspace.zero(self.tot.complex.dims[n])
            self._a_cache[key] = sub
            return sub
        ambient = self.tot.complex.dims[n]
        cols = range(self.tot.filtration_dim(n, p))
        # kernel of d restricted to F_p columns and to the rows outside
        # F_{p-r}; F_p is a coordinate prefix, so kernel vectors keep their
        # coordinates
        if n == 0:
            restricted = SparseMatrix.zeros(0, len(cols))
        else:
            rows_banned = range(self.tot.filtration_dim(n - 1, p - r),
                                self.tot.complex.dims[n - 1])
            restricted = self.tot.complex.d(n).select(rows_banned, cols)
        kb = kernel_basis(restricted)
        sub = Subspace.from_vectors(ambient,
                                    [kb.row(i) for i in range(kb.rows)])
        self._a_cache[key] = sub
        return sub

    def _boundary_image(self, r: int, p: int, q: int) -> Subspace:
        """d(A^{r}_{p, q}) as a subspace one total degree down."""
        n = p + q
        nmax = self.tot.complex.max_degree
        tgt_dim = self.tot.complex.dims[n - 1] if 0 <= n - 1 <= nmax else 0
        if n < 1 or n > nmax:
            return Subspace.zero(tgt_dim)
        src = self._approximant(r, p, q)
        if src.dim == 0:
            return Subspace.zero(tgt_dim)
        dmat = self.tot.complex.d(n)
        vecs = [dmat.apply(src.basis.row(i)) for i in range(src.dim)]
        return Subspace.from_vectors(tgt_dim, vecs)

    def _denominator(self, r: int, p: int, q: int) -> Subspace:
        key = (r, p, q)
        hit = self._den_cache.get(key)
        if hit is not None:
            return hit
        if r == 0:
            # E^0 is the associated graded: denominator is F_{p-1}
            n = p + q
            ambient = (self.tot.complex.dims[n]
                       if 0 <= n <= self.tot.complex.max_degree else 0)
            cols = range(self.tot.filtration_dim(n, p - 1))
            den = Subspace.from_vectors(
                ambient, [{c: 1} for c in cols])
        else:
            den = self._approximant(r - 1, p - 1, q + 1).sum(
                self._boundary_image(r - 1, p + r - 1, q - r + 2))
        self._den_cache[key] = den
        return den

    def _reps(self, r: int, p: int, q: int) -> List[Vec]:
        key = (r, p, q)
        hit = self._rep_cache.get(key)
        if hit is not None:
            return hit
        reps = _reduced_basis(self._approximant(r, p, q).basis,
                              self._denominator(r, p, q))
        self._rep_cache[key] = reps
        return reps

    def _page_dims(self, r: int) -> Dict[Tuple[int, int], int]:
        out: Dict[Tuple[int, int], int] = {}
        for p in range(self.dc.max_p + 1):
            for q in range(self.dc.max_q + 1):
                if self.dc.dim(p, q) == 0:
                    continue
                dim = len(self._reps(r, p, q))
                if dim:
                    out[(p, q)] = dim
        return out

    def _page_maps(self, r: int) -> Dict[Tuple[int, int], SparseMatrix]:
        out: Dict[Tuple[int, int], SparseMatrix] = {}
        dims = self.pages[r]
        for (p, q), srcdim in dims.items():
            tp, tq = p - r, q + r - 1
            tgtdim = dims.get((tp, tq), 0)
            if tgtdim == 0:
                continue
            dmat = self.tot.complex.d(p + q)
            tgt_a = self._approximant(r, tp, tq)
            images = dmat @ SparseMatrix.from_rows(
                self._reps(r, p, q), dmat.cols).transpose()
            for j in range(srcdim):
                if not tgt_a.contains(images.column(j)):
                    raise AssertionError(
                        f"page {r} differential leaves its target at {(p, q)}")
            m = _coordinates(self._reps(r, tp, tq),
                             self._denominator(r, tp, tq).basis.transpose(),
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


def _assert_same_sequence(dc):
    got, ref = spectral_sequence(dc), ReferenceSpectralSequence(dc)
    assert got.stable_page == ref.stable_page
    assert got.pages == ref.pages
    assert got.page_maps == ref.page_maps
    assert got.convergence_report() == ref.convergence_report()


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_staircase_produces_higher_differential(length):
    d = _staircase(length)
    assert verify_double_complex(d)["ok"]
    _assert_same_sequence(d)
    ss = spectral_sequence(d)
    # the surviving corner classes cancel exactly at page `length`
    maps = ss.page_maps[length]
    assert maps, f"expected a nonzero d^{length}"
    ((src, m),) = maps.items()
    assert src == (length, 0)
    assert rank(m) == 1
    assert not ss.pages[length + 1]
    assert ss.convergence_report()["verdict"] == "pass"


def _page_homology_dims(ss, r):
    """Independent successor-page computation: homology of (E^r, d^r)."""
    dims = ss.pages[r]
    maps = ss.page_maps[r]
    out = {}
    for (p, q), dim in dims.items():
        out_rank = rank(maps[(p, q)]) if (p, q) in maps else 0
        in_rank = rank(maps[(p + r, q - r + 1)]) if (p + r, q - r + 1) in maps else 0
        h = dim - out_rank - in_rank
        if h:
            out[(p, q)] = h
    return out


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_spectral_pages_are_successive_homology(seed):
    d = random_double_complex(seed)
    ss = spectral_sequence(d)
    for r in range(ss.stable_page):
        assert _page_homology_dims(ss, r) == ss.pages[r + 1], f"page {r}"


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_spectral_convergence_random(seed):
    d = random_double_complex(seed)
    assert spectral_sequence(d).convergence_report()["verdict"] == "pass"


def test_total_complex_layout():
    d = _staircase(2)
    tot = total_complex(d)
    # degree 2 holds the two source cells (1,1) and (2,0), ascending p
    lay = tot.layout[2]
    assert [(p, q) for p, q, _ in lay] == [(1, 1), (2, 0)]
    assert tot.complex.dims[2] == 2
    assert tot.filtration_dim(2, 1) == 1
    assert tot.filtration_dim(2, 2) == 2
    # F_p is 0 below the first column and outside the complex
    assert tot.filtration_dim(2, -1) == 0
    assert tot.filtration_dim(5, 2) == 0


@given(seeds, st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_spectral_sequence_matches_the_reference(seed, max_p, max_q):
    _assert_same_sequence(random_double_complex(seed, max_p, max_q))


def _prefix_keys(ss):
    """Every (n, dim F_p Tot_n, dim F_{p-r} Tot_{n-1}) that a page term or
    its denominator can read: n runs one past the top degree and r from -1,
    because the denominator of E^r_{p,q} reads Z at page r - 1 in degrees
    p + q and p + q + 1."""
    f = ss.tot.filtration_dim
    top = ss.tot.complex.max_degree
    return {(n, f(n, p), f(n - 1, p - r))
            for n in range(top + 2)
            for p in range(-1, ss.dc.max_p + ss.stable_page)
            for r in range(-1, ss.stable_page + 1)}


@pytest.mark.parametrize("dc", [random_double_complex(s) for s in range(8)]
                         + [_staircase(n) for n in (1, 2, 3, 4)])
def test_each_page_subspace_is_built_once(dc, monkeypatch):
    calls = []
    real = complexes.kernel_basis

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(complexes, "kernel_basis", counted)
    ss = spectral_sequence(dc)
    # one kernel per memoised Z, and the Z keys are prefix sizes
    assert len(calls) == sum(1 for key in ss._memo if key[0] == "Z")
    assert len(calls) <= len(_prefix_keys(ss))


@pytest.mark.parametrize("dc", [random_double_complex(s) for s in range(8)]
                         + [_staircase(n) for n in (1, 2, 3, 4)])
def test_representatives_are_reduced_only_at_page_map_ends(dc, monkeypatch):
    calls = []
    real = complexes._reduced_basis

    def counted(vectors, modulo):
        calls.append(vectors)
        return real(vectors, modulo)

    monkeypatch.setattr(complexes, "_reduced_basis", counted)
    ss = spectral_sequence(dc)
    ends = set()
    for r, dims in enumerate(ss.pages):
        for p, q in dims:
            if (p - r, q + r - 1) in dims:
                ends.add(("reps", *ss._term(r, p, q)))
                ends.add(("reps", *ss._term(r, p - r, q + r - 1)))
    assert {key for key in ss._memo if key[0] == "reps"} == ends
    assert len(calls) == len(ends)
