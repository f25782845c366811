"""Associative algebras: boundary operator identities, pinned homology values,
H-unitality, and the three-model cyclic comparison.

Pinned numbers in this file were produced by the dense brute-force oracle in
dense_oracle.py (run first, values frozen here); the cheap cases re-run the
oracle inline to guard against drift.
"""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from random_algebras import change_of_basis, random_algebra
from exacthom import assoc_homology, complexes
from exacthom.exactlin import (ResourceGuardError, SparseMatrix, Subspace,
                               quotient_structure, random_unimodular)
from exacthom.complexes import (ChainComplex, DoubleComplex, betti_numbers,
                                homology, quasi_iso_degrees, total_complex,
                                verify_chain_map, verify_double_complex)
from exacthom.cli import EXIT_FAIL, main
from exacthom.assoc_homology import (
    AlgebraAxiomError,
    MissingUnitError,
    StructureConstantAlgebra,
    _column_zero_projection,
    _guard_tensor_power,
    algebra_from_json,
    algebra_to_json,
    bB_bicomplex,
    bar_boundary,
    bar_complex,
    connes_b_operator,
    connes_quotient_complex,
    cyclic_bicomplex,
    cyclic_group_algebra,
    cyclic_operator,
    direct_sum,
    dual_numbers,
    field_q,
    h_unitality_report,
    hochschild_boundary,
    hochschild_complex,
    left_unital_two_dim,
    matrix_algebra,
    norm_operator,
    cyclic_comparison_report,
    tensor_rank,
    tensor_unrank,
    truncated_polynomials,
    unit_insertion,
    zero_multiplication,
)

seeds = st.integers(min_value=0, max_value=5_000)

# oracle-frozen values (dense_oracle.py, see module docstring)
HH_Q = [1, 0, 0, 0, 0]
HH_DUAL = [2, 1, 1, 1]
HH_QXQ = [2, 0, 0, 0]
HH_M2 = [1, 0, 0]
CLAM_DIMS_Q = [1, 0, 1, 0, 1]
CLAM_BETTI_Q = [1, 0, 1, 0, 1]
CLAM_DIMS_DUAL = [2, 1, 4, 4, 8]
CLAM_BETTI_DUAL = [2, 0, 2, 0, 2]
CLAM_BETTI_QXQ = [2, 0, 2, 0]
CLAM_BETTI_LEFT = [1, 0, 1, 0]


def _mult_table(a):
    return {k: dict(v) for k, v in a.mult.items()}


def test_associativity_rejected_with_witness():
    # (e0 e0) e0 = e1 e0 = 0 but e0 (e0 e0) = e0 e1 = e0
    with pytest.raises(AlgebraAxiomError, match=r"\(0,0,0\)"):
        StructureConstantAlgebra(2, {(0, 0): {1: Fraction(1)},
                                     (0, 1): {0: Fraction(1)}})


def test_one_sided_unit_rejected():
    mult = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}}
    with pytest.raises(AlgebraAxiomError, match="two-sided"):
        StructureConstantAlgebra(2, mult, unit={0: Fraction(1)})


def test_associativity_walk_is_guarded_before_any_product(monkeypatch):
    # dim^3 associativity triples: 79^3 = 493,039 is walked, 80^3 = 512,000
    # is refused before the first product is formed
    def product(self, u, v):
        raise RuntimeError("associativity walk started")

    monkeypatch.setattr(StructureConstantAlgebra, "product", product)
    with pytest.raises(ResourceGuardError) as e:
        StructureConstantAlgebra(80, {})
    assert e.value.sizing["size"] == 80 ** 3
    assert "associativity triples" in str(e.value)
    with pytest.raises(RuntimeError, match="walk started"):
        StructureConstantAlgebra(79, {})
    # the index checks still come first
    with pytest.raises(AlgebraAxiomError, match="out of range"):
        StructureConstantAlgebra(80, {(0, 80): {0: 1}})


def test_unit_coordinate_past_dim_rejected():
    # a unit coordinate outside the basis never meets the product table
    with pytest.raises(AlgebraAxiomError, match="unit coordinate 1"):
        StructureConstantAlgebra(1, {(0, 0): {0: 1}}, unit={0: 1, 1: 3})
    # a zero coordinate is no coordinate at all
    assert StructureConstantAlgebra(1, {(0, 0): {0: 1}},
                                    unit={0: 1, 1: 0}).is_unital


def test_json_roundtrip_and_families():
    a = dual_numbers()
    blob = algebra_to_json(a)
    b = algebra_from_json(blob)
    assert b.mult == a.mult and b.unit == a.unit and b.names == a.names
    assert json.dumps(algebra_to_json(b), sort_keys=True) == \
        json.dumps(blob, sort_keys=True)


def test_json_stores_int_constants_and_drops_zeros():
    # dual numbers with unreduced constants and an explicit zero entry
    blob = {"dim": 2,
            "mult": [[0, 0, 0, 2, 2], [0, 1, 1, 3, 3], [1, 0, 1, 1, 1],
                     [1, 1, 0, 0, 1]],
            "unit": [[4, 4], [0, 1]]}
    b = algebra_from_json(blob)
    a = dual_numbers()
    assert b.mult == a.mult and b.unit == a.unit
    assert all(type(v) is int for row in b.mult.values() for v in row.values())
    assert all(type(v) is int for v in b.unit.values())


def test_left_unital_has_no_stored_unit():
    a = left_unital_two_dim()
    assert not a.is_unital
    # e really is a left unit but not a right one
    assert a.product({0: Fraction(1)}, {1: Fraction(1)}) == {1: Fraction(1)}
    assert a.product({1: Fraction(1)}, {0: Fraction(1)}) == {}


def test_matrix_algebra_and_direct_sum_units():
    m2 = matrix_algebra(2)
    assert m2.unit == {0: Fraction(1), 3: Fraction(1)}
    s = direct_sum(field_q(), dual_numbers())
    assert s.dim == 3 and s.is_unital
    ns = direct_sum(field_q(), zero_multiplication(1))
    assert ns.unit is None


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=80))
def test_tensor_indexing_roundtrip(d, raw):
    idx = raw % d ** 3
    assert tensor_rank(d, tensor_unrank(d, 3, idx)) == idx


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_boundary_and_rotation_identities(seed):
    a = random_algebra(seed)
    d = a.dim
    for n in range(1, 4):
        b_n = hochschild_boundary(a, n)
        bp_n = bar_boundary(a, n)
        t_n = cyclic_operator(d, n)
        n_n = norm_operator(d, n)
        size = d ** (n + 1)
        ident = SparseMatrix.identity(size)
        one_minus = ident - t_n
        # rotation has order n+1 including its sign
        power = ident
        for _ in range(n + 1):
            power = t_n @ power
        assert power == ident, f"rotation order fails at degree {n}"
        assert (one_minus @ n_n).is_zero()
        assert (n_n @ one_minus).is_zero()
        if n >= 2:
            assert (hochschild_boundary(a, n - 1) @ b_n).is_zero()
            assert (bar_boundary(a, n - 1) @ bp_n).is_zero()
            one_minus_prev = (SparseMatrix.identity(d ** n)
                              - cyclic_operator(d, n - 1))
            assert b_n @ one_minus == one_minus_prev @ bp_n
            assert norm_operator(d, n - 1) @ b_n == bp_n @ n_n


# -- the index-arithmetic builders against the tuple builders they replaced ---


def reference_boundary(a, n, wrap):
    """_boundary as it was before index arithmetic: every tensor unranked
    and every term reranked."""
    d = a.dim
    rows, cols = d ** n, d ** (n + 1)
    acc = {}
    # both b and b' are zero out of degree 0: no face and no wrap term
    for idx in range(cols):
        t = tensor_unrank(d, n + 1, idx)
        for i in range(n):
            sign = -1 if i % 2 else 1
            for k, coef in a.mult.get((t[i], t[i + 1]), {}).items():
                key = (tensor_rank(d, t[:i] + (k,) + t[i + 2:]), idx)
                acc[key] = acc.get(key, 0) + sign * coef
        if wrap and n >= 1:
            sign = -1 if n % 2 else 1
            for k, coef in a.mult.get((t[n], t[0]), {}).items():
                key = (tensor_rank(d, (k,) + t[1:n]), idx)
                acc[key] = acc.get(key, 0) + sign * coef
    return SparseMatrix(rows, cols, acc)


def reference_cyclic_operator(dim, n):
    """Signed rotation t on (n+1)-fold tensors: last factor to the front,
    sign (-1)^n."""
    size = dim ** (n + 1)
    sign = -1 if n % 2 else 1
    entries = {}
    for idx in range(size):
        t = tensor_unrank(dim, n + 1, idx)
        entries[(tensor_rank(dim, (t[n],) + t[:n]), idx)] = sign
    return SparseMatrix(size, size, entries)


def reference_norm_operator(dim, n):
    """N = 1 + t + ... + t^n on (n+1)-fold tensors."""
    size = dim ** (n + 1)
    sign_t = -1 if n % 2 else 1
    acc = {}
    for idx in range(size):
        t = tensor_unrank(dim, n + 1, idx)
        for j in range(n + 1):
            rot = t[n + 1 - j:] + t[:n + 1 - j]
            key = (tensor_rank(dim, rot), idx)
            acc[key] = acc.get(key, 0) + sign_t ** j
    return SparseMatrix(size, size, acc)


def reference_unit_insertion(a, n):
    """s: A^(x)(n+1) -> A^(x)(n+2), x -> 1 (x) x. Needs a two-sided unit."""
    if a.unit is None:
        raise MissingUnitError("unit insertion needs a unital algebra")
    d = a.dim
    rows, cols = d ** (n + 2), d ** (n + 1)
    entries = {}
    for idx in range(cols):
        t = tensor_unrank(d, n + 1, idx)
        for k, coef in a.unit.items():
            entries[(tensor_rank(d, (k,) + t), idx)] = coef
    return SparseMatrix(rows, cols, entries)


# the builders are compared at every degree whose largest space is this small
OPERATOR_REFERENCE_SIZE = 4096
OPERATOR_ZOO = [field_q(), dual_numbers(), truncated_polynomials(3),
                matrix_algebra(2), cyclic_group_algebra(3),
                direct_sum(field_q(), dual_numbers()), zero_multiplication(3),
                left_unital_two_dim()]


@given(st.one_of(seeds.map(random_algebra), st.sampled_from(OPERATOR_ZOO)))
@settings(max_examples=10, deadline=None)
def test_operators_match_the_tuple_builders(zoo_or_seeded):
    # a fresh instance, so that every operator is built here
    a = StructureConstantAlgebra(zoo_or_seeded.dim, zoo_or_seeded.mult,
                                 zoo_or_seeded.unit, zoo_or_seeded.names)
    d = a.dim
    for n in range(20):
        if d ** (n + 1) > OPERATOR_REFERENCE_SIZE:
            break
        for wrap, build in ((True, hochschild_boundary),
                            (False, bar_boundary)):
            assert build(a, n) == reference_boundary(a, n, wrap), (n, wrap)
        assert cyclic_operator(d, n) == reference_cyclic_operator(d, n)
        assert norm_operator(d, n) == reference_norm_operator(d, n)
        if a.is_unital and d ** (n + 2) <= OPERATOR_REFERENCE_SIZE:
            assert unit_insertion(a, n) == reference_unit_insertion(a, n)


def test_boundaries_of_non_integral_constants_match_the_tuple_builder():
    # a change of basis of determinant 2 puts halves into the structure
    # constants
    g = SparseMatrix.from_dense([[2, 1, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 1, 0, 1]])
    a = change_of_basis(matrix_algebra(2), g)
    assert any(type(c) is Fraction for v in a.mult.values()
               for c in v.values())
    kinds = set()
    for n in range(4):
        for wrap, build in ((True, hochschild_boundary),
                            (False, bar_boundary)):
            m = build(a, n)
            assert m == reference_boundary(a, n, wrap), (n, wrap)
            for v in m.entries.values():
                # the storage rule: int when integral, else a reduced Fraction
                assert type(v) is int or (type(v) is Fraction
                                          and v.denominator != 1), v
                kinds.add(type(v))
    assert kinds == {int, Fraction}


def test_cyclic_comparison_builds_each_operator_once(monkeypatch):
    calls = {"_boundary": 0, "cyclic_operator": 0}

    def counted(name):
        real = getattr(assoc_homology, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(assoc_homology, name, counted(name))
    assert cyclic_comparison_report(matrix_algebra(2), 4)["verdict"] == "pass"
    # b and b' in degrees 1..4; t in degrees 0..4, shared by 1 - t, the
    # Connes quotient and B
    assert calls == {"_boundary": 8, "cyclic_operator": 5}


def test_operators_are_not_shared_between_algebras():
    # same dimension, different products, built in turn
    for first, second in [(dual_numbers(), cyclic_group_algebra(2)),
                          (cyclic_group_algebra(2), dual_numbers()),
                          (zero_multiplication(2), left_unital_two_dim())]:
        for a in (first, second):
            for n in range(4):
                assert hochschild_boundary(a, n) == \
                    reference_boundary(a, n, True)
                assert bar_boundary(a, n) == reference_boundary(a, n, False)
        assert all(hochschild_boundary(first, n)
                   is not hochschild_boundary(second, n) for n in range(4))
    # the memo is not part of the algebra's value
    a = dual_numbers()
    hochschild_boundary(a, 2)
    assert a == dual_numbers() and repr(a) == repr(dual_numbers())


@pytest.mark.parametrize("alg", [dual_numbers(), truncated_polynomials(3),
                                 cyclic_group_algebra(3),
                                 direct_sum(field_q(), field_q())])
def test_degree_raising_boundary_identities(alg):
    for n in range(0, 3):
        big_b = connes_b_operator(alg, n)
        assert (connes_b_operator(alg, n + 1) @ big_b).is_zero()
        anti = (hochschild_boundary(alg, n + 1) @ big_b
                + (connes_b_operator(alg, n - 1) @ hochschild_boundary(alg, n)
                   if n >= 1 else SparseMatrix.zeros(alg.dim ** (n + 1),
                                                     alg.dim ** (n + 1))))
        assert anti.is_zero(), f"bB + Bb != 0 at degree {n}"


def test_hochschild_pinned_values():
    # build one degree past the pin so the pinned degrees are all exact
    assert list(homology(hochschild_complex(field_q(), 5)).betti)[:5] == HH_Q
    assert list(homology(hochschild_complex(dual_numbers(), 4)).betti)[:4] == HH_DUAL
    qxq = direct_sum(field_q(), field_q())
    assert list(homology(hochschild_complex(qxq, 4)).betti)[:4] == HH_QXQ
    assert list(homology(hochschild_complex(matrix_algebra(2), 3)).betti)[:3] == HH_M2


def test_oracle_agrees_with_frozen_values():
    one = Fraction(1)
    q = {(0, 0): {0: one}}
    assert dense_oracle.hochschild_betti(q, 1, 4) == HH_Q
    assert dense_oracle.connes_dims(q, 1, 4) == CLAM_DIMS_Q
    assert dense_oracle.connes_betti(q, 1, 4) == CLAM_BETTI_Q
    dual = _mult_table(dual_numbers())
    assert dense_oracle.hochschild_betti(dual, 2, 3) == HH_DUAL
    assert dense_oracle.connes_dims(dual, 2, 4) == CLAM_DIMS_DUAL
    assert dense_oracle.connes_betti(dual, 2, 4) == CLAM_BETTI_DUAL
    left = _mult_table(left_unital_two_dim())
    assert dense_oracle.connes_betti(left, 2, 3) == CLAM_BETTI_LEFT


def test_connes_quotient_pinned_values():
    cq, _ = connes_quotient_complex(field_q(), 5)
    hq = homology(cq)
    assert list(cq.dims)[:5] == CLAM_DIMS_Q
    assert list(hq.betti)[:5] == CLAM_BETTI_Q
    assert hq.flags[-1] == "upper_bound" and set(hq.flags[:-1]) == {"exact"}
    cd, _ = connes_quotient_complex(dual_numbers(), 5)
    hd = homology(cd)
    assert list(cd.dims)[:5] == CLAM_DIMS_DUAL
    assert list(hd.betti)[:5] == CLAM_BETTI_DUAL
    qxq = direct_sum(field_q(), field_q())
    assert betti_numbers(connes_quotient_complex(qxq, 4)[0])[:4] == CLAM_BETTI_QXQ
    assert (betti_numbers(connes_quotient_complex(left_unital_two_dim(), 4)[0])[:4]
            == CLAM_BETTI_LEFT)


def test_h_unitality_verdicts():
    assert h_unitality_report(field_q(), 4)["verdict"] == "pass"
    assert h_unitality_report(dual_numbers(), 4)["verdict"] == "pass"
    left = h_unitality_report(left_unital_two_dim(), 4)
    assert left["verdict"] == "pass" and left["betti"][:4] == [0, 0, 0, 0]
    zero = h_unitality_report(zero_multiplication(2), 3)
    assert zero["verdict"] == "fail"
    assert zero["first_failure"] == 1


def test_unital_bar_complex_is_acyclic_everywhere():
    h = homology(bar_complex(dual_numbers(), 4))
    assert list(h.betti[:4]) == [0, 0, 0, 0]


def test_cyclic_bicomplexes_are_valid():
    assert verify_double_complex(cyclic_bicomplex(dual_numbers(), 3))["ok"]
    assert verify_double_complex(bB_bicomplex(dual_numbers(), 3))["ok"]
    assert verify_double_complex(
        cyclic_bicomplex(left_unital_two_dim(), 3))["ok"]


def test_bB_requires_unit():
    with pytest.raises(MissingUnitError):
        bB_bicomplex(left_unital_two_dim(), 2)
    with pytest.raises(MissingUnitError):
        bB_bicomplex(zero_multiplication(2), 2)


@pytest.mark.parametrize("algebra, betti", [
    (field_q(), (1, 0, 1, 4)), (matrix_algebra(2), (1, 0, 1, 274))],
    ids=["Q", "M2"])
def test_cyclic_bicomplex_cut_at_3_bounds_its_top_degree(algebra, betti):
    # HC_3 = 0 for Q and, by Morita invariance, for M_2(Q); degree 3 is the
    # last complete one, so it can only be read as an upper bound
    h = homology(total_complex(cyclic_bicomplex(algebra, 3), 3).complex)
    assert h.betti == betti
    assert h.flags == ("exact", "exact", "exact", "upper_bound")


def test_cyclic_comparison_field():
    rep = cyclic_comparison_report(field_q(), bound=4)
    assert rep["verdict"] == "pass"
    assert rep["quotient_betti"][:4] == CLAM_BETTI_Q[:4]
    assert rep["bB_betti"][:4] == CLAM_BETTI_Q[:4]
    assert all(rep["projection_quasi_iso"].values())


def test_cyclic_comparison_dual_and_left_unital():
    rep = cyclic_comparison_report(dual_numbers(), bound=3)
    assert rep["verdict"] == "pass"
    assert rep["quotient_betti"][:3] == CLAM_BETTI_DUAL[:3]
    left = cyclic_comparison_report(left_unital_two_dim(), bound=3)
    assert left["verdict"] == "pass"
    assert "bB_betti" not in left
    assert left["quotient_betti"][:3] == CLAM_BETTI_LEFT[:3]


@pytest.mark.parametrize("algebra", [field_q(), dual_numbers(),
                                     left_unital_two_dim()],
                         ids=["Q", "dual", "left_unital"])
def test_cyclic_comparison_that_decides_nothing_is_inconclusive(algebra):
    # bound 0 leaves only degree 0, the truncation's upper bound
    rep = cyclic_comparison_report(algebra, 0)
    assert rep["degrees_decided"] == [] and rep["projection_quasi_iso"] == {}
    assert rep["verdict"] == "inconclusive"
    assert cyclic_comparison_report(algebra, 1)["verdict"] == "pass"


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_random_algebra_is_deterministic_and_valid(seed):
    a = random_algebra(seed)
    b = random_algebra(seed)
    assert json.dumps(algebra_to_json(a), sort_keys=True) == \
        json.dumps(algebra_to_json(b), sort_keys=True)
    assert 1 <= a.dim <= 3


def test_change_of_basis_preserves_homology():
    a = dual_numbers()
    g = SparseMatrix.from_dense([[1, 1], [0, 1]])
    b = change_of_basis(a, g)
    assert list(homology(hochschild_complex(b, 4)).betti)[:4] == HH_DUAL


@pytest.mark.parametrize("build", [hochschild_complex, bar_complex,
                                   connes_quotient_complex, cyclic_bicomplex,
                                   bB_bicomplex])
def test_builders_guard_the_top_tensor_power(build):
    # dim 2, top degree 19: the top chain space has 2^20 > 500,000 basis
    # tensors, so the guard trips before any boundary is built.
    with pytest.raises(ResourceGuardError) as e:
        build(dual_numbers(), 19)
    assert e.value.sizing["size"] == 2 ** 20


# -- C^lambda against the elimination path it replaced ----------------------------


def reference_connes_quotient_complex(a, max_degree):
    """connes_quotient_complex as it was before the signed-orbit quotient:
    im(1 - t) eliminated to its RREF, and b-stability checked on 1 - t."""
    _guard_tensor_power(a, max_degree)
    quots = []
    dims = []
    for n in range(max_degree + 1):
        size = a.dim ** (n + 1)
        one_minus = SparseMatrix.identity(size) - cyclic_operator(a.dim, n)
        sub = Subspace.from_matrix_rows(one_minus.transpose())
        q = quotient_structure(sub)
        quots.append((q, one_minus))
        dims.append(q.dim)
    diffs = {}
    for n in range(1, max_degree + 1):
        qn, one_minus_n = quots[n]
        qm, _ = quots[n - 1]
        b = hochschild_boundary(a, n)
        if not (qm.projection @ b @ one_minus_n).is_zero():
            raise AssertionError(
                f"cyclic rotation image is not b-stable in degree {n}")
        diffs[n] = qm.projection @ b @ qn.section
    return (ChainComplex(tuple(dims), diffs, truncated=True),
            [q for q, _ in quots])


# the reference is compared at every degree whose chain space is this small
CONNES_REFERENCE_SIZE = 1000
QUOTIENT_ALGEBRAS = {
    "Q": field_q(), "dual": dual_numbers(), "x3": truncated_polynomials(3),
    "M2": matrix_algebra(2), "zero1": zero_multiplication(1),
    "zero3": zero_multiplication(3), "left-unital": left_unital_two_dim()}


@pytest.mark.parametrize("name", sorted(QUOTIENT_ALGEBRAS))
def test_connes_complex_matches_the_elimination_path(name):
    a = QUOTIENT_ALGEBRAS[name]
    top = max(n for n in range(10)
              if a.dim ** (n + 1) <= CONNES_REFERENCE_SIZE)
    cx, quots = connes_quotient_complex(a, top)
    ref_cx, ref_quots = reference_connes_quotient_complex(a, top)
    assert cx == ref_cx
    assert quots == ref_quots
    assert [q.subspace.pivots for q in quots] == \
        [q.subspace.pivots for q in ref_quots]


# -- the cyclic comparison against its double-complex validation ----------------


def reference_cyclic_comparison_report(a, bound=4):
    """cyclic_comparison_report as it was before it checked its total
    complexes: both double complexes validated cell by cell with
    verify_double_complex, whatever cells the report reads."""
    cc = cyclic_bicomplex(a, bound)
    vr = verify_double_complex(cc)
    if not vr["ok"]:
        raise AssertionError(f"cyclic double complex invalid: {vr}")
    tot = total_complex(cc, bound)
    conn, quots = connes_quotient_complex(a, bound)
    proj = _column_zero_projection(tot, conn, quots)
    pv = verify_chain_map(proj)
    if not pv["ok"]:
        raise AssertionError(f"column-0 projection is not a chain map: {pv}")
    qiso = quasi_iso_degrees(proj)
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
        bb = bB_bicomplex(a, bound)
        vb = verify_double_complex(bb)
        if not vb["ok"]:
            raise AssertionError(f"(b, B) double complex invalid: {vb}")
        bb_betti = betti_numbers(total_complex(bb, bound).complex)
        report["bB_betti"] = bb_betti
        agree = agree and all(bb_betti[n] == conn_betti[n] for n in reliable)
    report["verdict"] = "pass" if (agree and quasi) else "fail"
    return report


# the algebras of acceptance criterion 3
COMPARISON_ALGEBRAS = {
    "field_q": field_q(), "dual_numbers": dual_numbers(),
    "q_times_q": direct_sum(field_q(), field_q()),
    "left_unital_two_dim": left_unital_two_dim(),
    "matrix_algebra_2": matrix_algebra(2)}


@pytest.mark.parametrize("name", sorted(COMPARISON_ALGEBRAS))
def test_cyclic_comparison_matches_the_reference(name):
    a = COMPARISON_ALGEBRAS[name]
    assert cyclic_comparison_report(a, 4) == \
        reference_cyclic_comparison_report(a, 4)


@pytest.mark.parametrize("name", sorted(set(COMPARISON_ALGEBRAS) - {"field_q"}))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cyclic_comparison_matches_the_reference_on_conjugates(name, seed):
    a = COMPARISON_ALGEBRAS[name]
    b = change_of_basis(a, random_unimodular(random.Random(seed), a.dim))
    # M_2(Q) in a dense basis is ranked at bound 3 to keep the test quick
    bound = 3 if a.dim > 2 else 4
    assert cyclic_comparison_report(b, bound) == \
        reference_cyclic_comparison_report(b, bound)


@given(seeds, st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None)
def test_cyclic_comparison_matches_the_reference_on_random_algebras(seed,
                                                                   bound):
    a = random_algebra(seed)
    assert cyclic_comparison_report(a, bound) == \
        reference_cyclic_comparison_report(a, bound)


def test_cyclic_comparison_ranks_each_matrix_once(monkeypatch):
    ranks, validations = [], []
    real_rank = complexes.rank

    def counted_rank(m):
        ranks.append(m)
        return real_rank(m)

    def counted_validation(d):
        validations.append(d)
        return verify_double_complex(d)

    monkeypatch.setattr(complexes, "rank", counted_rank)
    for module in (complexes, assoc_homology):
        monkeypatch.setattr(module, "verify_double_complex",
                            counted_validation, raising=False)
    a = matrix_algebra(2)
    assert cyclic_comparison_report(a, 4)["verdict"] == "pass"
    # 4 differentials each for Tot(cyclic), C^lambda and Tot(b, B), and one
    # mapping cone per decided degree 0..3
    assert len(ranks) == 16
    assert not validations
    # the cone of the undecided degree 4, on Tot_4 + C^lambda_5, is not
    # ranked: C^lambda_5 is past the truncation, so it has dimension 0
    tot = total_complex(cyclic_bicomplex(a, 4), 4).complex
    conn = connes_quotient_complex(a, 4)[0]
    top_cone = (tot.dims[3] + conn.dims[4], tot.dims[4])
    assert all((m.rows, m.cols) != top_cone for m in ranks)


def _flip_horizontal(build, cell):
    """`build` with the sign of the horizontal block out of `cell` flipped."""
    def flipped(a, bound):
        dc = build(a, bound)
        horiz = dict(dc.horiz)
        horiz[cell] = -horiz[cell]
        return DoubleComplex(dc.max_p, dc.max_q, dc.cells, dc.vert, horiz)
    return flipped


# cells inside the triangle p + q <= 3 whose square with the vertical
# boundary is nonzero on M_2(Q), so a flipped sign breaks anticommutation
@pytest.mark.parametrize("builder, cell, name", [
    ("cyclic_bicomplex", (1, 1), "cyclic"),
    ("bB_bicomplex", (1, 2), "(b, B)")])
def test_a_flipped_horizontal_sign_fails_the_comparison(
        builder, cell, name, monkeypatch, tmp_path, capsys):
    a = matrix_algebra(2)
    flipped = _flip_horizontal(getattr(assoc_homology, builder), cell)
    monkeypatch.setattr(assoc_homology, builder, flipped)
    monkeypatch.setitem(globals(), builder, flipped)
    message = re.escape(f"{name} double complex invalid")
    with pytest.raises(AssertionError, match=message):
        cyclic_comparison_report(a, 3)
    with pytest.raises(AssertionError, match=message):
        reference_cyclic_comparison_report(a, 3)
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(algebra_to_json(a)))
    assert main(["verify", "quasi-iso", "--algebra", str(path),
                 "--max-degree", "2"]) == EXIT_FAIL
    assert f"{name} double complex invalid" in capsys.readouterr().err


def test_cells_past_the_bound_are_not_read(monkeypatch):
    # (3, 1) lies past p + q <= 3: the report neither reads nor checks it,
    # while the cell-by-cell validation rejects it
    a = matrix_algebra(2)
    expected = cyclic_comparison_report(a, 3)
    flipped = _flip_horizontal(cyclic_bicomplex, (3, 1))
    monkeypatch.setattr(assoc_homology, "cyclic_bicomplex", flipped)
    monkeypatch.setitem(globals(), "cyclic_bicomplex", flipped)
    assert cyclic_comparison_report(a, 3) == expected
    with pytest.raises(AssertionError, match="cyclic double complex invalid"):
        reference_cyclic_comparison_report(a, 3)
