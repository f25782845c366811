"""Stable matrix-Lie / cyclic comparison: trace pairing, theta, weights, psi."""

import math
import random
from fractions import Fraction
from itertools import combinations
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from exacthom.assoc_homology import (
    change_of_basis,
    connes_quotient_complex,
    dual_numbers,
    field_q,
    h_unitality_report,
    left_unital_two_dim,
    matrix_algebra,
    tensor_rank,
    tensor_unrank,
    truncated_polynomials,
    zero_multiplication,
)
from exacthom.complexes import ChainComplex, betti_numbers, verify_complex
from exacthom.exactlin import (ResourceGuardError, SparseMatrix, Subspace,
                               inverse, quotient_structure, random_unimodular,
                               rank, rref, solve_matrix, vec_clean)
from exacthom.lie_homology import (ExteriorBasis, ce_complex, ce_complex_on,
                                   coinvariant_reduction, gl_index, gl_n_of,
                                   gln_action_on_chains, guard_exterior_powers,
                                   scalar_matrix_generator_action)
from exacthom.lqt import (
    GroupTensorModel,
    Permutation,
    SpechtModule,
    _check_partition,
    _hook_length_dim,
    _koszul_sort,
    _perm_index,
    _perms,
    _rows_from_filling,
    _tabloid_key,
    _theta_identification,
    _theta_section,
    _trace_relation_span,
    all_permutations,
    cyclic_wedge_complex,
    equivariance_check,
    graded_free_commutative_dims,
    highest_weight_space,
    lqt_stable_check,
    partitions,
    psi_restriction_check,
    signed_group_tensor_coinvariants,
    specht_module,
    theta_check,
    theta_codomain_model,
    theta_map,
    theta_tilde,
    trace_coefficient,
    trace_invariant_check,
    trace_invariant_map,
    trace_invariant_matrix,
    weight_decomposition,
    weight_decomposition_report,
    weight_vector,
    weight_zero_count,
    weight_zero_tuples,
    wedge_weight,
    xi,
    xi_sequence,
    zeta_map,
)

small_perm_degrees = st.integers(min_value=1, max_value=5)


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=7))
@settings(max_examples=100)
def test_koszul_sort_of_degree_one_tags_is_the_exterior_sign(legs):
    res = _koszul_sort([(1, x) for x in legs])
    if len(set(legs)) < len(legs):
        assert res is None
        return
    inversions = sum(1 for i in range(len(legs))
                     for j in range(i + 1, len(legs)) if legs[i] > legs[j])
    assert res == ((-1) ** inversions, tuple((1, x) for x in sorted(legs)))
perm_seeds = st.integers(min_value=0, max_value=10_000)


def perm_from_seed(k: int, seed: int) -> Permutation:
    group = all_permutations(k)
    return group[seed % len(group)]


# -- permutations ----------------------------------------------------------------


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


def test_cycle_decomposition_and_sign():
    p = Permutation.from_cycle(4, (0, 2, 3))
    assert p.images == (2, 1, 3, 0)
    assert p.cycles == ((0, 2, 3), (1,))
    assert p.sign == 1
    assert Permutation.transposition(3, 0, 2).sign == -1
    assert Permutation.identity(3).sign == 1


def test_all_permutations_is_lexicographic():
    group = all_permutations(3)
    assert len(group) == 6
    assert group[0].images == (0, 1, 2)
    assert group[-1].images == (2, 1, 0)
    images = [g.images for g in group]
    assert images == sorted(images)


def test_zero_letters_group_is_trivial():
    group = all_permutations(0)
    assert len(group) == 1
    assert group[0].sign == 1
    assert group[0].cycles == ()


@given(small_perm_degrees, perm_seeds, perm_seeds)
@settings(max_examples=60, deadline=None)
def test_sign_is_multiplicative(k, s1, s2):
    p = perm_from_seed(k, s1)
    q = perm_from_seed(k, s2)
    assert p.compose(q).sign == p.sign * q.sign


@given(small_perm_degrees, perm_seeds)
@settings(max_examples=60, deadline=None)
def test_inverse_composes_to_identity(k, s):
    p = perm_from_seed(k, s)
    assert p.compose(p.inverse()).images == tuple(range(k))
    assert p.inverse().compose(p).images == tuple(range(k))


@given(small_perm_degrees, perm_seeds)
@settings(max_examples=60, deadline=None)
def test_cycles_reconstruct_the_permutation(k, s):
    p = perm_from_seed(k, s)
    rebuilt = list(range(k))
    for cyc in p.cycles:
        for pos, x in enumerate(cyc):
            rebuilt[x] = cyc[(pos + 1) % len(cyc)]
    assert tuple(rebuilt) == p.images


# -- partitions and weights --------------------------------------------------------


def test_partitions_base_cases():
    assert partitions(0) == [()]
    assert partitions(1) == [(1,)]
    assert partitions(2) == [(2,), (1, 1)]


def test_partitions_of_five():
    p5 = partitions(5)
    assert len(p5) == 7
    assert p5 == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                  (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert p5 == sorted(p5, reverse=True)


@given(st.integers(min_value=0, max_value=9))
@settings(max_examples=10, deadline=None)
def test_partitions_are_weakly_decreasing_and_sum(m):
    seen = set()
    for alpha in partitions(m):
        assert sum(alpha) == m
        assert all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))
        assert alpha not in seen
        seen.add(alpha)


def test_weight_vector_layout():
    assert weight_vector((1,), (1,), 3) == (1, 0, -1)
    assert weight_vector((2, 1), (1,), 4) == (2, 1, 0, -1)
    assert weight_vector((), (), 2) == (0, 0)


def test_weight_vector_rejects_overlong():
    with pytest.raises(ValueError):
        weight_vector((1, 1), (1,), 2)


# -- Specht modules ----------------------------------------------------------------


def test_specht_dims_three_ways_small():
    expected = {
        (1,): 1,
        (2,): 1, (1, 1): 1,
        (3,): 1, (2, 1): 2, (1, 1, 1): 1,
        (4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1,
    }
    for alpha, dim in expected.items():
        s = specht_module(alpha)
        assert s.dim == dim
        assert s.hook_length_dim == dim
        assert s.full_polytabloid_rank == dim


def test_specht_dimension_identity_at_four():
    total = sum(specht_module(alpha).dim ** 2 for alpha in partitions(4))
    assert total == math.factorial(4)


def test_specht_row_partition_is_trivial_module():
    s = specht_module((3,))
    for mat in s.action:
        assert mat == SparseMatrix.identity(1)


def test_specht_column_partition_is_sign_module():
    s = specht_module((1, 1, 1))
    group = all_permutations(3)
    for p, mat in zip(group, s.action):
        assert mat.entries == {(0, 0): Fraction(p.sign)}


def test_specht_hook_shape_action_closes():
    # construction itself verifies the composition law on every pair
    s = specht_module((2, 1))
    assert s.dim == 2
    assert len(s.action) == 6


def reference_apply_perm_to_entries(rows, perm: Permutation):
    """Apply a permutation of {1..m} (stored 0-based) to every entry."""
    return tuple(tuple(perm(e - 1) + 1 for e in row) for row in rows)


def reference_column_group(rows) -> List[Tuple[int, Dict[int, int]]]:
    """All column-preserving entry permutations of a tableau, as
    (sign, entry -> entry) pairs."""
    ncols = len(rows[0]) if rows else 0
    cols: List[List[int]] = []
    for j in range(ncols):
        col = [row[j] for row in rows if len(row) > j]
        cols.append(col)
    per_col = []
    for col in cols:
        options = []
        for q in iter_permutations(range(len(col))):
            sign = Permutation(q).sign
            options.append((sign, {col[i]: col[q[i]] for i in range(len(col))}))
        per_col.append(options)
    out = []
    for combo in iter_product(*per_col):
        sign = 1
        mapping: Dict[int, int] = {}
        for s, mp in combo:
            sign *= s
            mapping.update(mp)
        out.append((sign, mapping))
    return out


def reference_polytabloid(rows, tabloid_index):
    """Signed sum over the column group of the tabloid classes of the
    permuted tableau."""
    acc = {}
    for sign, mapping in reference_column_group(rows):
        moved = tuple(tuple(mapping.get(e, e) for e in row) for row in rows)
        idx = tabloid_index[_tabloid_key(moved)]
        acc[idx] = acc.get(idx, 0) + sign
    return vec_clean(acc)


def reference_specht_module(alpha) -> SpechtModule:
    """The Specht module with a column group rebuilt for every tableau and
    the composition law checked on all m!^2 pairs."""
    alpha = tuple(alpha)
    _check_partition(alpha)
    m = sum(alpha)
    if m < 1:
        raise ValueError("need a partition of m >= 1")
    fillings = list(iter_permutations(range(1, m + 1)))
    tabloids = sorted({_tabloid_key(_rows_from_filling(alpha, f))
                       for f in fillings})
    t_index = {t: i for i, t in enumerate(tabloids)}

    def is_standard(rows) -> bool:
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
        for i in range(1, len(rows)):
            for j in range(len(rows[i])):
                if rows[i - 1][j] >= rows[i][j]:
                    return False
        return True

    syt = [_rows_from_filling(alpha, f) for f in fillings
           if is_standard(_rows_from_filling(alpha, f))]
    basis_rows = [reference_polytabloid(rows, t_index) for rows in syt]
    basis = SparseMatrix.from_rows(basis_rows, len(tabloids))
    if rank(basis) != len(syt):
        raise AssertionError("standard polytabloids are not independent")
    all_rows = [reference_polytabloid(_rows_from_filling(alpha, f), t_index)
                for f in fillings]
    full_rank = rank(SparseMatrix.from_rows(all_rows, len(tabloids)))
    perms = all_permutations(m)
    basis_t = basis.transpose()
    action = []
    for p in perms:
        img = SparseMatrix.from_rows(
            [reference_polytabloid(reference_apply_perm_to_entries(rows, p),
                                   t_index)
             for rows in syt], len(tabloids))
        coords = solve_matrix(basis_t, img.transpose())
        if coords is None:
            raise AssertionError(
                "permuted polytabloid left the standard span")
        action.append(coords)
    pidx = _perm_index(m)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            k = pidx[p.compose(q)]
            if action[i] @ action[j] != action[k]:
                raise AssertionError(
                    f"action matrices break composition at pair ({i},{j})")
    return SpechtModule(alpha, tuple(tabloids), tuple(syt), basis,
                        tuple(action), _hook_length_dim(alpha), full_rank)


@pytest.mark.parametrize(
    "alpha", [a for m in range(1, 5) for a in partitions(m)]
    + [(4, 1), (3, 2)])
def test_specht_module_matches_the_all_pairs_reference(alpha):
    assert specht_module(alpha) == reference_specht_module(alpha)


def test_specht_module_forms_m_times_m_factorial_products(monkeypatch):
    products = []
    real = SparseMatrix.__matmul__

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    specht_module((3, 2))
    assert len(products) == 5 * math.factorial(5)


@pytest.mark.parametrize("wrong", [
    Permutation.identity(5),
    Permutation.transposition(5, 0, 1),
    Permutation.from_cycle(5, (0, 1, 2, 3, 4)),
    _perms(5)[-1],
])
def test_specht_module_rejects_a_wrong_action_matrix(wrong, monkeypatch):
    from exacthom import lqt
    calls = []

    def solve_one_wrong(a, b):
        coords = solve_matrix(a, b)
        calls.append(1)
        if len(calls) - 1 == _perm_index(5)[wrong]:
            coords = coords + SparseMatrix(coords.rows, coords.cols,
                                           {(0, 0): 1})
        return coords

    monkeypatch.setattr(lqt, "solve_matrix", solve_one_wrong)
    with pytest.raises(AssertionError, match="composition"):
        specht_module((4, 1))


# -- trace pairing ------------------------------------------------------------------


def test_trace_coefficient_matches_matrix_trace():
    # sigma = full cycle on two legs: tr(e01 e10) = 1, tr(e01 e01) = 0
    c = Permutation.from_cycle(2, (0, 1))
    assert trace_coefficient(c, [(0, 1), (1, 0)]) == 1
    assert trace_coefficient(c, [(0, 1), (0, 1)]) == 0
    # identity: product of two separate traces, both zero off the diagonal
    e = Permutation.identity(2)
    assert trace_coefficient(e, [(0, 0), (1, 1)]) == 1
    assert trace_coefficient(e, [(0, 1), (1, 0)]) == 0


def test_trace_pairing_matrix_shape_and_single_leg():
    phi = trace_invariant_matrix(2, 1)
    assert (phi.rows, phi.cols) == (1, 4)
    # only the diagonal legs e00, e33 have a trace
    assert phi.entries == {(0, 0): Fraction(1), (0, 3): Fraction(1)}


STABLE_PAIRS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]


@pytest.mark.parametrize("k,n", STABLE_PAIRS)
def test_trace_pairing_bijective_in_stable_range(k, n):
    report = trace_invariant_check(n, k)
    assert report["well_defined"]
    assert report["bijective"]
    assert report["lhs_dims"] == [math.factorial(k)]
    assert report["verdict"]


def test_trace_pairing_not_surjective_below_stable_range():
    report = trace_invariant_check(1, 2)
    assert report["well_defined"]
    assert not report["bijective"]
    assert report["phi_rank"] == 1
    assert report["lhs_dims"] == [1]
    assert not report["expected_bijective"]
    assert report["verdict"]


@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_trace_pairing_inverse(k, n):
    phi, inv = trace_invariant_map(n, k)
    assert inv is not None
    kfac = math.factorial(k)
    assert phi @ inv == SparseMatrix.identity(kfac)


def test_trace_pairing_no_inverse_below_stable_range():
    phi, inv = trace_invariant_map(1, 2)
    assert inv is None


@pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_trace_pairing_equivariance(k, n):
    report = equivariance_check(n, k)
    assert report["verdict"]
    assert report["failures"] == []


def test_equivariance_hand_pin():
    # g = e00 tensor e01 in 2x2, sigma the swap: phi(sigma.g) must equal
    # the conjugated image of phi(g); both sides live in the S_2 algebra.
    phi = trace_invariant_matrix(2, 2)
    from exacthom.assoc_homology import tensor_rank
    g = {tensor_rank(4, (0, 1)): Fraction(1)}
    swapped = {tensor_rank(4, (1, 0)): Fraction(1)}
    lhs = phi.apply(swapped)
    # conjugation by the swap fixes both group elements in S_2
    rhs = phi.apply(g)
    assert lhs == rhs


SMALL_TRACE_CASES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]


def reference_equivariance_check(n: int, k: int) -> dict:
    """Exact check of phi(sigma . g) == sigma phi(g) sigma^{-1} for every
    sigma: place permutation on tensor legs against conjugation on the group
    algebra."""
    phi = trace_invariant_matrix(n, k)
    perms = _perms(k)
    pidx = _perm_index(k)
    dim = n * n
    amb = dim ** k
    failures = []
    for s in perms:
        place: Dict[Tuple[int, int], Fraction] = {}
        for cidx in range(amb):
            legs = tensor_unrank(dim, k, cidx)
            moved = [0] * k
            for t in range(k):
                moved[s(t)] = legs[t]
            place[(tensor_rank(dim, tuple(moved)), cidx)] = 1
        conj: Dict[Tuple[int, int], Fraction] = {}
        s_inv = s.inverse()
        for ti, t in enumerate(perms):
            conj[(pidx[s.compose(t).compose(s_inv)], ti)] = 1
        lhs = phi @ SparseMatrix(amb, amb, place)
        rhs = SparseMatrix(len(perms), len(perms), conj) @ phi
        if lhs != rhs:
            failures.append(list(s.images))
    return {"check": "phi_equivariance",
            "params": {"n": n, "k": k},
            "lhs_dims": [len(perms)],
            "rhs_dims": [len(perms)],
            "failures": failures,
            "verdict": not failures,
            "seed": 0}


@pytest.mark.parametrize("n,k", SMALL_TRACE_CASES + [(4, 3), (2, 4)])
def test_equivariance_matches_the_matrix_reference(n, k):
    assert equivariance_check(n, k) == reference_equivariance_check(n, k)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 3)])
def test_equivariance_lists_the_reference_failures_of_a_moved_phi(
        n, k, monkeypatch):
    from exacthom import lqt
    phi = trace_invariant_matrix(n, k)
    entries = dict(phi.entries)
    (r, c), v = sorted(entries.items())[3]
    del entries[(r, c)]
    entries[((r + 1) % phi.rows, c)] = v
    moved = SparseMatrix(phi.rows, phi.cols, entries)
    monkeypatch.setattr(lqt, "trace_invariant_matrix", lambda n, k: moved)
    monkeypatch.setitem(globals(), "trace_invariant_matrix",
                        lambda n, k: moved)
    report = equivariance_check(n, k)
    assert report["failures"]
    assert report == reference_equivariance_check(n, k)


def test_equivariance_builds_no_matrix_besides_phi(monkeypatch):
    from exacthom import lqt
    phi = trace_invariant_matrix(3, 3)
    monkeypatch.setattr(lqt, "trace_invariant_matrix", lambda n, k: phi)

    def forbidden(*args, **kwargs):
        raise AssertionError("equivariance_check built a matrix")

    monkeypatch.setattr(SparseMatrix, "__init__", forbidden)
    monkeypatch.setattr(SparseMatrix, "__matmul__", forbidden)
    assert equivariance_check(3, 3)["verdict"]


def test_verify_phi_builds_the_trace_pairing_once(monkeypatch, capsys):
    from exacthom import cli, lqt
    calls = []
    real = lqt.trace_coefficient

    def counted(perm, legs):
        calls.append(1)
        return real(perm, legs)

    lqt.trace_invariant_matrix.cache_clear()
    monkeypatch.setattr(lqt, "trace_coefficient", counted)
    cli.main(["verify", "phi", "--n", "2", "--k", "2"])
    capsys.readouterr()
    lqt.trace_invariant_matrix.cache_clear()
    assert len(calls) == math.factorial(2) * 2 ** 4


def reference_conjugation_relation_buckets(n, k):
    """Spanning vectors of the conjugation-action relation space inside the
    k-fold tensor power of n x n matrices, bucketed by their Cartan weight
    (buckets have disjoint coordinate supports, so ranks add)."""
    dim = n * n
    amb = dim ** k
    # a leg is a generator of gl_n(Q); e_rs acts on one leg at a time
    ground = field_q()
    actions = [(r, s, [scalar_matrix_generator_action(n, 1, r, s)(leg)
                       for leg in range(dim)])
               for r in range(n) for s in range(n)]
    buckets = {}
    for cidx in range(amb):
        legs = tensor_unrank(dim, k, cidx)
        wt = wedge_weight(ground, n, legs)
        for r, s, on_leg in actions:
            acc = {}
            for t, leg in enumerate(legs):
                for y, coef in on_leg[leg].items():
                    key = tensor_rank(dim, legs[:t] + (y,) + legs[t + 1:])
                    acc[key] = acc.get(key, 0) + coef
            vec = vec_clean(acc)
            if vec:
                w = list(wt)
                w[r] += 1
                w[s] -= 1
                buckets.setdefault(tuple(w), []).append(vec)
    return buckets


def reference_trace_relation_span(n, k):
    """The trace pairing phi, the RREF span of the conjugation relations
    (the weight buckets' bases merged by pivot), and whether phi kills that
    span, which it does iff it kills the span's RREF basis: every generator
    applied to every tensor, one elimination per weight bucket."""
    phi = trace_invariant_matrix(n, k)
    amb = (n * n) ** k
    merged = []
    for vecs in reference_conjugation_relation_buckets(n, k).values():
        reduced, piv = rref(SparseMatrix.from_rows(vecs, amb))
        merged.extend((p, reduced.row(i)) for i, p in enumerate(piv))
    merged.sort(key=lambda t: t[0])
    rows = [r for _, r in merged]
    sub = Subspace(amb, SparseMatrix.from_rows(rows, amb),
                   tuple(p for p, _ in merged))
    return phi, sub, not any(phi.apply(r) for r in rows)


@pytest.mark.parametrize("n,k", SMALL_TRACE_CASES + [(4, 2), (4, 3), (2, 4)])
def test_relation_span_matches_the_weight_buckets(n, k):
    phi, sub, kills = _trace_relation_span(n, k)
    ref_phi, ref_sub, ref_kills = reference_trace_relation_span(n, k)
    assert phi == ref_phi
    assert sub.basis == ref_sub.basis
    assert sub.pivots == ref_sub.pivots
    assert kills == ref_kills


@pytest.mark.parametrize("n,k", SMALL_TRACE_CASES)
def test_trace_map_matches_the_one_built_on_the_reference_span(n, k):
    phi, inv = trace_invariant_map(n, k)
    ref_phi, sub, kills = reference_trace_relation_span(n, k)
    assert kills
    q = quotient_structure(sub)
    on_quotient = ref_phi @ q.section
    kfac = math.factorial(k)
    bijective = q.dim == kfac and rank(on_quotient) == kfac
    assert phi == ref_phi
    assert bijective == (n >= k)
    if bijective:
        assert inv == q.section @ inverse(on_quotient)
    else:
        assert inv is None


# -- the graded wedge domain --------------------------------------------------------


def test_wedge_complex_rationals():
    model = cyclic_wedge_complex(field_q(), 5)
    # generators in odd wedge degrees 1, 3, 5 only
    assert model.generator_counts == (0, 1, 0, 1, 0, 1)
    assert model.complex.dims == (1, 1, 0, 1, 1, 1)
    assert verify_complex(model.complex)["ok"]
    for d in range(1, 6):
        assert model.complex.d(d).is_zero()


def test_wedge_complex_dual_numbers():
    model = cyclic_wedge_complex(dual_numbers(), 3)
    assert model.generator_counts == (0, 2, 1, 4)
    assert model.complex.dims == (1, 2, 2, 6)
    assert verify_complex(model.complex)["ok"]
    # degree-2 basis: the product of the two degree-1 generators and the
    # one degree-2 generator
    assert model.monomials[2] == (((1, 0), (1, 1)), ((2, 0),))


def test_wedge_complex_degree_zero():
    model = cyclic_wedge_complex(field_q(), 0)
    assert model.complex.dims == (1,)
    assert model.monomials[0] == ((),)


def test_odd_generators_square_to_zero():
    model = cyclic_wedge_complex(dual_numbers(), 3)
    for mono in model.monomials[2] + model.monomials[3]:
        odd = [g for g in mono if g[0] % 2]
        assert len(odd) == len(set(odd))


# -- signed coinvariants and theta --------------------------------------------------


def test_signed_coinvariants_rationals():
    # one dimension in degrees 0 and 1; degree 2 dies (odd centralizers)
    assert signed_group_tensor_coinvariants(field_q(), 0).dim == 1
    assert signed_group_tensor_coinvariants(field_q(), 1).dim == 1
    assert signed_group_tensor_coinvariants(field_q(), 2).dim == 0
    assert signed_group_tensor_coinvariants(field_q(), 3).dim == 1


def test_signed_coinvariants_dual_numbers():
    assert signed_group_tensor_coinvariants(dual_numbers(), 2).dim == 2


@pytest.mark.parametrize("alg,name", [(field_q(), "Q"),
                                      (dual_numbers(), "dual")])
def test_theta_is_a_chain_isomorphism(alg, name):
    report = theta_check(alg, 3)
    assert report["chain_map"]
    assert report["bijective_degrees"] == [True, True, True, True]
    assert report["lhs_dims"] == report["rhs_dims"]
    assert report["verdict"]


def test_theta_dimensions_rationals():
    report = theta_check(field_q(), 3)
    assert report["lhs_dims"] == [1, 1, 0, 1]


def test_theta_dimensions_dual_numbers():
    report = theta_check(dual_numbers(), 3)
    assert report["lhs_dims"] == [1, 2, 2, 6]


def test_theta_degree_one_is_class_to_cycle_class():
    # in degree 1 the map sends a cyclic class to (identity permutation,
    # its representative); on the rationals both sides are one-dimensional
    # and the matrix entry is 1
    f = theta_map(field_q(), 1)
    m = f.component(1)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == {(0, 0): Fraction(1)}


def test_theta_map_returns_verified_chain_map():
    f = theta_map(dual_numbers(), 2)
    from exacthom.complexes import verify_chain_map
    assert verify_chain_map(f)["ok"]


@pytest.mark.parametrize("alg,max_degree,dims", [
    (field_q(), 5, [1, 1, 0, 1, 1, 1]),
    (dual_numbers(), 4, [1, 2, 2, 6, 14]),
], ids=["Q", "dual"])
def test_theta_reaches_past_degree_3(alg, max_degree, dims):
    report = theta_check(alg, max_degree)
    assert report["lhs_dims"] == dims
    assert report["verdict"]


def test_theta_builds_nothing_of_gl_n(monkeypatch):
    from exacthom import lie_homology, lqt

    def built(*args):
        raise AssertionError("theta went through gl_n(A)")

    for name in ("gl_n_of", "ce_complex", "gln_action_on_chains",
                 "coinvariant_reduction"):
        for module in (lqt, lie_homology):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, built)
    assert theta_check(dual_numbers(), 3)["verdict"]


def test_cyclic_wedge_recursion_is_bounded_by_the_degree():
    # 1,270 cyclic generators, more than the default recursion limit
    model = cyclic_wedge_complex(zero_multiplication(15), 3)
    assert model.complex.dims == (1, 15, 210, 3165)
    assert list(model.complex.dims) == \
        graded_free_commutative_dims(model.generator_counts, 3)


# -- theta's codomain against the gl_n-coinvariant reference ----------------------


def reference_wedge_identification(a, n, k):
    """The identification J on every wedge basis tuple of gl_n(A)
    generators: the sum, over the permutations whose cycle traces survive on
    the matrix legs, of (permutation, coefficient legs)."""
    perms = all_permutations(k)
    wedge = ExteriorBasis(n * n * a.dim, k)
    tdim = a.dim ** k
    entries = {}
    for ci, tup in enumerate(wedge.tuples):
        mlegs = []
        clegs = []
        for x in tup:
            mpart, cpart = divmod(x, a.dim)
            mlegs.append(divmod(mpart, n))
            clegs.append(cpart)
        tens = tensor_rank(a.dim, tuple(clegs))
        for pi, p in enumerate(perms):
            if trace_coefficient(p, mlegs):
                key = (pi * tdim + tens, ci)
                entries[key] = entries.get(key, 0) + 1
    return SparseMatrix(len(perms) * tdim, len(wedge), entries)


def reference_theta_codomain_model(a, max_degree):
    """theta's codomain as it was built before the transport formula: the
    CE complex of gl_n(A) reduced by the gl_n action, conjugated by J. J is
    checked to kill the action relation span and to be invertible in every
    degree."""
    n = max(1, max_degree)
    guard_exterior_powers(n * n * a.dim, range(max_degree + 1))
    cx = ce_complex(gl_n_of(a, n), max_degree)
    actions = [gln_action_on_chains(a, n, k) for k in range(max_degree + 1)]
    qcx, _, ce_quots = coinvariant_reduction(cx, actions)
    quots = []
    jbars = []
    for k in range(max_degree + 1):
        q = signed_group_tensor_coinvariants(a, k)
        j_full = q.projection @ reference_wedge_identification(a, n, k)
        if not (j_full @ ce_quots[k].subspace.basis.transpose()).is_zero():
            raise AssertionError(
                f"identification is not constant on orbits in degree {k}")
        jbar = j_full @ ce_quots[k].section
        if q.dim != ce_quots[k].dim or rank(jbar) != q.dim:
            raise AssertionError(
                f"identification is not invertible in degree {k} at n={n}")
        quots.append(q)
        jbars.append(jbar)
    diffs = {k: jbars[k - 1] @ qcx.d(k) @ inverse(jbars[k])
             for k in range(1, max_degree + 1)}
    wcx = ChainComplex(tuple(q.dim for q in quots), diffs, truncated=True)
    return GroupTensorModel(a, n, max_degree, wcx, tuple(quots))


@pytest.mark.parametrize("alg,max_degree", [
    (field_q(), 3), (dual_numbers(), 3), (zero_multiplication(1), 3),
    (left_unital_two_dim(), 3), (truncated_polynomials(3), 2),
    (matrix_algebra(2), 2),
], ids=["Q", "dual", "zero1", "left-unital", "x3", "M2"])
def test_theta_codomain_matches_the_coinvariant_quotient(alg, max_degree):
    model = theta_codomain_model(alg, max_degree)
    ref = reference_theta_codomain_model(alg, max_degree)
    assert model.n == ref.n
    assert model.complex.dims == ref.complex.dims
    for k in range(1, max_degree + 1):
        assert model.complex.d(k) == ref.complex.d(k)
    for k in range(max_degree + 1):
        assert model.quots[k].projection == ref.quots[k].projection
    assert verify_complex(model.complex)["ok"]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alg", [field_q(), dual_numbers()],
                         ids=["Q", "dual"])
def test_identification_inverts_the_section(alg, k):
    q = signed_group_tensor_coinvariants(alg, k)
    j_raw = reference_wedge_identification(alg, k, k)
    wedge = ExteriorBasis(k * k * alg.dim, k)
    for f, ci in q.section.entries:
        xs = _theta_section(alg.dim, k, f)
        assert _theta_identification(alg.dim, xs) == f
        # the reference J on the sorted wedge tuple, with its exterior sign
        sign, tup = _koszul_sort([(1, gl_index(k, alg.dim, *x)) for x in xs])
        col = j_raw.column(wedge.index[tuple(g for _, g in tup)])
        assert q.projection.apply(
            {r: sign * v for r, v in col.items()}) == {ci: 1}


# -- weight decomposition ------------------------------------------------------------


def test_weight_components_of_matrix_generators():
    wd = weight_decomposition(field_q(), 2, 1)
    dims = {mu: s.dim for mu, s in wd.items()}
    # gl_2 splits into the scalars (weight 0) and the adjoint-irreducible
    # generated from e_12 (weight (1,-1))
    assert dims == {(0, 0): 1, (1, -1): 3}


def test_weight_decomposition_zero_degree():
    wd = weight_decomposition(field_q(), 2, 0)
    assert {mu: s.dim for mu, s in wd.items()} == {(0, 0): 1}


WEIGHT_CASES = [(2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("n,k", WEIGHT_CASES)
@pytest.mark.parametrize("alg", [field_q(), dual_numbers()],
                         ids=["Q", "dual"])
def test_weight_decomposition_fills_the_wedge(alg, n, k):
    report = weight_decomposition_report(alg, n, k)
    total = math.comb(n * n * alg.dim, k)
    assert report["rhs_dims"] == [total, total]
    assert report["lhs_dims"] == [total, total]
    assert report["verdict"]


def test_highest_weight_space_of_adjoint():
    # weight (1,-1) in gl_2: highest vector is e_12, one-dimensional
    hw = highest_weight_space(field_q(), 2, 1, (1, -1))
    assert hw.dim == 1


# -- row-chain embedding and psi -----------------------------------------------------


def test_zeta_single_leg():
    # one tensor leg lands on e_rs tensor a with no internal sum
    out = zeta_map(field_q(), {0: Fraction(1)}, 1, 1, 2, 2)
    assert out == {1: Fraction(1)}  # gl index of (row 0, col 1, coeff 0)


def test_zeta_two_legs_n2():
    # two legs, r = s = 1, n = 2: e11(x)e11 + e12(x)e21 on the matrix parts
    out = zeta_map(field_q(), {0: Fraction(1)}, 2, 1, 1, 2)
    assert out == {0: Fraction(1), 6: Fraction(1)}


def test_zeta_rejects_bad_indices():
    with pytest.raises(ValueError):
        zeta_map(field_q(), {0: Fraction(1)}, 1, 0, 1, 2)
    with pytest.raises(ValueError):
        zeta_map(field_q(), {0: Fraction(1)}, 1, 1, 3, 2)


def test_theta_tilde_is_diagonal_sum():
    direct = {}
    for kk in (1, 2):
        for key, v in zeta_map(field_q(), {0: Fraction(1)}, 2, kk, kk,
                               2).items():
            direct[key] = direct.get(key, Fraction(0)) + v
    assert theta_tilde(field_q(), {0: Fraction(1)}, 2, 2) == direct


PSI_CASES = [(2, 1), (3, 1)]


@pytest.mark.parametrize("n,m", PSI_CASES)
def test_psi_bijective_on_highest_weight_module(n, m):
    report = psi_restriction_check(field_q(), n, m, (1,), (1,), n // 2)
    assert all(report["image_in_highest_weight"])
    assert all(report["bijective_degrees"])
    assert report["verdict"]


def test_psi_weight_zero_route():
    report = psi_restriction_check(field_q(), 2, 0, (), (), 1)
    assert report["lhs_dims"] == [1, 1]
    assert report["rhs_dims"] == [1, 1]
    assert report["verdict"]


def test_psi_dual_numbers_degree_one():
    report = psi_restriction_check(dual_numbers(), 3, 1, (1,), (1,), 1)
    assert report["lhs_dims"] == [0, 2]
    assert report["rhs_dims"] == [0, 2]
    assert report["verdict"]


def test_psi_image_check_beyond_stable_degrees():
    # degree 2 exceeds n // 2 = 1, so only the image condition applies there
    report = psi_restriction_check(field_q(), 2, 1, (1,), (1,), 2)
    assert len(report["image_in_highest_weight"]) == 3
    assert all(report["image_in_highest_weight"])
    assert len(report["bijective_degrees"]) == 2


def test_psi_rejects_two_marked_blocks():
    with pytest.raises(ValueError):
        psi_restriction_check(field_q(), 4, 2, (2,), (2,), 1)


def test_psi_rejects_mismatched_partitions():
    with pytest.raises(ValueError):
        psi_restriction_check(field_q(), 2, 1, (), (1,), 1)


# -- free graded-commutative closure --------------------------------------------------


def test_gfc_single_odd_generator():
    assert graded_free_commutative_dims([0, 1], 3) == [1, 1, 0, 0]


def test_gfc_single_even_generator_is_polynomial():
    assert graded_free_commutative_dims([0, 0, 1], 4) == [1, 0, 1, 0, 1]


def test_gfc_odd_tower():
    assert graded_free_commutative_dims([0, 1, 0, 1, 0, 1], 5) == \
        [1, 1, 0, 1, 1, 1]


def test_gfc_rejects_degree_zero_generators():
    with pytest.raises(ValueError):
        graded_free_commutative_dims([1, 1], 2)


def test_gfc_matches_wedge_monomial_count():
    # the wedge model enumerates monomials explicitly; the series must agree
    for alg in (field_q(), dual_numbers()):
        model = cyclic_wedge_complex(alg, 4)
        series = graded_free_commutative_dims(list(model.generator_counts), 4)
        assert list(model.complex.dims) == series


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2,
                max_size=5))
@settings(max_examples=40, deadline=None)
def test_gfc_two_odd_generators_square_free(h):
    h = [0] + h[1:]
    series = graded_free_commutative_dims(h, 6)
    assert series[0] == 1
    assert all(x >= 0 for x in series)


# -- the stable comparison -------------------------------------------------------------


UNITAL_CASES = [
    ("Q", field_q(), 2, 1),
    ("Q", field_q(), 3, 2),
    ("dual", dual_numbers(), 3, 1),
    ("dual", dual_numbers(), 3, 2),
]


@pytest.mark.parametrize("name,alg,n,max_r", UNITAL_CASES)
def test_stable_comparison_unital(name, alg, n, max_r):
    report = lqt_stable_check(alg, n, max_r)
    assert report["params"]["route"] == "unital"
    assert report["degrees"] == list(range(max_r + 1))
    assert report["lhs_dims"] == report["rhs_dims"]
    assert report["verdict"]


def test_stable_comparison_gl4():
    report = lqt_stable_check(field_q(), 4, 3)
    assert report["lhs_dims"] == [1, 1, 0, 1]
    assert report["rhs_dims"] == [1, 1, 0, 1]
    assert report["verdict"]


def test_stable_comparison_non_unital_route():
    report = lqt_stable_check(left_unital_two_dim(), 3, 1)
    assert report["params"]["route"] == "h_unital"
    assert report["h_unitality"]["verdict"] == "pass"
    assert report["degrees"] == [0, 1]
    assert report["lhs_dims"] == report["rhs_dims"]
    assert report["verdict"]


def test_stable_comparison_restricts_to_stable_degrees():
    # n = 2 only covers r <= 1 even when more degrees are requested
    report = lqt_stable_check(field_q(), 2, 3)
    assert report["degrees"] == [0, 1]


def test_stable_comparison_reaches_gl5():
    report = lqt_stable_check(field_q(), 5, 4)
    assert report["lhs_dims"] == [1, 1, 0, 1, 1]
    assert report["rhs_dims"] == [1, 1, 0, 1, 1]
    assert report["verdict"]


# -- the weight-0 block ------------------------------------------------------------


def reference_lqt_stable_check(a, n, max_r):
    """The stable check on whole exterior powers, as it was before the
    unital route kept only the weight-0 block; the reference for it."""
    if n < 1 or max_r < 0:
        raise ValueError("need n >= 1 and max_r >= 0")
    guard_exterior_powers(n * n * a.dim, range(max_r + 2))
    unital = a.unit is not None
    if unital:
        degrees = [r for r in range(max_r + 1) if r + 1 <= n]
        route = "unital"
        precondition = True
        hrep = None
    else:
        hrep = h_unitality_report(a, max_r + 2)
        degrees = [r for r in range(max_r + 1) if 2 * r + 1 <= n]
        route = "h_unital"
        precondition = hrep["verdict"] == "pass"
    lie_betti = betti_numbers(ce_complex(gl_n_of(a, n), max_r + 1))
    conn, _ = connes_quotient_complex(a, max_r)
    cyclic_betti = betti_numbers(conn)
    h = [0] + cyclic_betti[:max_r]
    rhs_all = graded_free_commutative_dims(h, max_r)
    lhs = [lie_betti[r] for r in degrees]
    rhs = [rhs_all[r] for r in degrees]
    report = {"check": "stable_matrix_homology",
              "params": {"algebra_dim": a.dim, "n": n, "max_r": max_r,
                         "route": route, "unital": unital},
              "degrees": degrees,
              "lhs_dims": lhs,
              "rhs_dims": rhs,
              "cyclic_betti": cyclic_betti,
              "verdict": bool(precondition and lhs == rhs),
              "seed": 0}
    if hrep is not None:
        report["h_unitality"] = hrep
    return report


def conjugated(a, seed):
    return change_of_basis(a, random_unimodular(random.Random(seed), a.dim))


# the (algebra, n, max_r) of the benchmark's `verify lqt` jobs, with a
# seeded change of basis standing in for its conjugated algebra files
BENCHMARK_LQT_CASES = [
    ("Q", field_q(), 4, 3),
    ("dual", dual_numbers(), 3, 2),
    ("Q", field_q(), 2, 1),
    ("dual", dual_numbers(), 2, 1),
    ("dual-conj", conjugated(dual_numbers(), 1), 2, 1),
    ("Q", field_q(), 3, 2),
    ("x3", truncated_polynomials(3), 2, 1),
    ("x3-conj", conjugated(truncated_polynomials(3), 2), 2, 1),
]


# max_r past the stable range: the reference still builds every degree
PAST_STABLE_CASES = [
    ("Q", field_q(), 1, 3),
    ("Q", field_q(), 3, 5),
    ("dual", dual_numbers(), 2, 3),
    ("dual", dual_numbers(), 3, 4),
    ("x3", truncated_polynomials(3), 2, 3),
    ("left-unital", left_unital_two_dim(), 3, 3),
    ("zero1", zero_multiplication(1), 3, 2),
]


@pytest.mark.parametrize("name,alg,n,max_r",
                         UNITAL_CASES + BENCHMARK_LQT_CASES
                         + [("left-unital", left_unital_two_dim(), 3, 1)]
                         + PAST_STABLE_CASES)
def test_stable_check_report_matches_the_full_complex(name, alg, n, max_r):
    assert lqt_stable_check(alg, n, max_r) == \
        reference_lqt_stable_check(alg, n, max_r)


def test_stable_check_builds_no_degree_past_the_stable_range(monkeypatch):
    from exacthom import lqt
    asked = []

    def recording_tuples(n, a_dim, k):
        asked.append(k)
        return weight_zero_tuples(n, a_dim, k)

    def recording_ce(g, top):
        asked.append(top)
        return ce_complex(g, top)

    monkeypatch.setattr(lqt, "weight_zero_tuples", recording_tuples)
    monkeypatch.setattr(lqt, "ce_complex", recording_ce)
    # gl_3(Q): stable degrees 0..2, so chains through degree 3
    assert lqt_stable_check(field_q(), 3, 5)["degrees"] == [0, 1, 2]
    assert asked == [0, 1, 2, 3]
    asked.clear()
    # the h_unital route on gl_3: stable degrees 0..1, chains through 2
    assert lqt_stable_check(left_unital_two_dim(), 3, 3)["degrees"] == [0, 1]
    assert asked == [2]


def brute_weight_zero(n, a_dim, k):
    a = zero_multiplication(a_dim)
    return [t for t in combinations(range(n * n * a_dim), k)
            if not any(wedge_weight(a, n, t))]


@pytest.mark.parametrize("n,a_dim,max_k", [
    (1, 1, 1), (1, 3, 3), (2, 1, 4), (2, 2, 5), (2, 3, 4), (3, 1, 6),
    (3, 2, 4), (4, 1, 4),
])
def test_weight_zero_enumerator_matches_a_filter(n, a_dim, max_k):
    for k in range(max_k + 1):
        tuples = weight_zero_tuples(n, a_dim, k)
        assert tuples == brute_weight_zero(n, a_dim, k)
        assert weight_zero_count(n, a_dim, k) == len(tuples)


@pytest.mark.parametrize("n,a_dim,k,size", [
    (4, 1, 5, 180), (5, 1, 5, 840), (6, 1, 6, 9660), (5, 2, 5, 30080),
    (4, 3, 4, 8406),
])
def test_weight_zero_count_pins_the_table(n, a_dim, k, size):
    assert weight_zero_count(n, a_dim, k) == size


def weight_zero_complex(a, n, max_degree):
    dim = n * n * a.dim
    return ce_complex_on(gl_n_of(a, n), [
        ExteriorBasis(dim, k, weight_zero_tuples(n, a.dim, k))
        for k in range(max_degree + 1)])


@pytest.mark.parametrize("alg,n,max_r", [
    (field_q(), 3, 8), (dual_numbers(), 3, 3), (field_q(), 4, 4),
], ids=["gl3-Q", "gl3-dual", "gl4-Q"])
def test_weight_zero_betti_equal_the_full_ones(alg, n, max_r):
    full = betti_numbers(ce_complex(gl_n_of(alg, n), max_r + 1))
    block = betti_numbers(weight_zero_complex(alg, n, max_r + 1))
    assert block[:max_r + 1] == full[:max_r + 1]


def weight_blocks(a, n):
    """The complete CE complex of gl_n(A), one subcomplex per weight."""
    g = gl_n_of(a, n)
    by_weight = {}
    for k in range(g.dim + 1):
        for t in combinations(range(g.dim), k):
            by_weight.setdefault(wedge_weight(a, n, t), {}).setdefault(
                k, []).append(t)
    return {mu: ce_complex_on(g, [ExteriorBasis(g.dim, k, parts.get(k, []))
                                  for k in range(g.dim + 1)])
            for mu, parts in by_weight.items()}


@pytest.mark.parametrize("alg,n", [
    (field_q(), 2), (field_q(), 3), (dual_numbers(), 2),
], ids=["gl2-Q", "gl3-Q", "gl2-dual"])
def test_blocks_of_nonzero_weight_are_acyclic_for_unital_a(alg, n):
    blocks = weight_blocks(alg, n)
    assert len(blocks) > 1
    for mu, cx in blocks.items():
        assert not cx.truncated
        if any(mu):
            assert not any(betti_numbers(cx)), mu
    full = betti_numbers(ce_complex(gl_n_of(alg, n), n * n * alg.dim))
    assert betti_numbers(blocks[(0,) * n]) == full


def test_blocks_of_nonzero_weight_carry_h1_without_a_unit():
    # gl_2 of a zero-multiplication algebra is abelian: H_1 is all of it
    blocks = weight_blocks(zero_multiplication(1), 2)
    assert betti_numbers(blocks[(1, -1)])[1] == 1
    assert betti_numbers(blocks[(-1, 1)])[1] == 1


# -- stable-range boundary sequence ----------------------------------------------------


def test_xi_closed_form_table():
    for n in range(1, 6):
        expected = []
        for k in range(13):
            if k <= n:
                expected.append(k)
            else:
                expected.append(n + 1 if (k - n) % 2 else n)
        assert xi_sequence(n, 12) == expected


def test_xi_example_row():
    assert xi_sequence(3, 8) == [0, 1, 2, 3, 4, 3, 4, 3, 4]


def test_xi_rejects_bad_input():
    with pytest.raises(ValueError):
        xi(0, 1)
    with pytest.raises(ValueError):
        xi(2, -1)


@pytest.mark.parametrize("build, size", [
    # theta on a 50-dimensional algebra: 3! * 50^3 permutation-tensors in
    # degree 3, refused before either side of theta is built
    (lambda: theta_check(zero_multiplication(50), 3), 750000),
    # gl_32(Q): C(1024, 2) tuples in degree 2
    (lambda: lqt_stable_check(field_q(), 32, 1), 523776),
    # gl_13(Q): its Jacobi check walks C(169, 3) triples
    (lambda: lqt_stable_check(field_q(), 13, 0), 790244),
], ids=["theta-codomain", "lqt-stable", "lqt-jacobi"])
def test_wedge_powers_are_guarded_before_gl_n_is_built(build, size,
                                                       monkeypatch):
    from exacthom import lqt

    def built(*args):
        raise AssertionError("gl_n(A) or a side of theta was built")

    for name in ("gl_n_of", "cyclic_wedge_complex",
                 "signed_group_tensor_coinvariants"):
        monkeypatch.setattr(lqt, name, built)
    with pytest.raises(ResourceGuardError) as e:
        build()
    assert e.value.sizing["size"] == size


def test_weight_zero_guard_fires_before_anything_is_built(monkeypatch):
    from exacthom import lie_homology, lqt

    def built(*args):
        raise AssertionError("built or enumerated")

    monkeypatch.setattr(lqt, "gl_n_of", built)
    monkeypatch.setattr(lqt, "weight_zero_tuples", built)
    monkeypatch.setattr(lie_homology, "combinations", built)
    # gl_8(Q): degree 7 has 436,856 weight-0 tuples, degree 8 2,076,788
    with pytest.raises(ResourceGuardError) as e:
        lqt_stable_check(field_q(), 8, 7)
    assert e.value.sizing["size"] == 2076788
    assert "weight-0" in str(e.value)
