"""Chain complexes, tensor products, double complexes, spectral sequences."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from exacthom import complexes
from exacthom.exactlin import SparseMatrix, inverse, random_unimodular, rank
from exacthom.complexes import (
    ChainComplex,
    ChainMap,
    betti_numbers,
    complex_from_json,
    complex_to_json,
    homology,
    induced_on_homology,
    kunneth_check,
    quasi_iso_degrees,
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


def test_json_roundtrip_bit_exact():
    c, _ = random_complex(7)
    blob = complex_to_json(c)
    again = complex_to_json(complex_from_json(blob))
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)
    c2 = complex_from_json(blob)
    assert c2.dims == c.dims
    for n in range(1, c.max_degree + 1):
        assert c2.d(n) == c.d(n)


@pytest.mark.parametrize("value", [2.7, "x", True])
def test_json_dims_must_be_integers(value):
    with pytest.raises(TypeError, match="dims value must be a JSON integer"):
        complex_from_json({"dims": {"0": value}})


def test_json_rejects_gappy_dims():
    with pytest.raises(ValueError):
        complex_from_json({"dims": {"0": 1, "2": 1}, "differentials": {}})


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

    def blocks(n):
        out, off = {}, 0
        for p in range(max(0, n - b.max_degree), min(a.max_degree, n) + 1):
            out[(p, n - p)] = off
            off += a.dims[p] * b.dims[n - p]
        return out, off

    assert t.max_degree == a.max_degree + b.max_degree
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


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_random_double_complex_is_valid(seed):
    d = random_double_complex(seed)
    assert verify_double_complex(d)["ok"]
    tot = total_complex(d)
    assert verify_complex(tot.complex)["ok"]


def _staircase(length: int):
    """Hand-built staircase double complex whose last differential is d^length."""
    from exacthom.complexes import DoubleComplex
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


@pytest.mark.parametrize("length", [1, 2, 3])
def test_staircase_produces_higher_differential(length):
    d = _staircase(length)
    assert verify_double_complex(d)["ok"]
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
    assert tot.filtration_columns(2, 1) == [0]
    assert tot.filtration_columns(2, 2) == [0, 1]
