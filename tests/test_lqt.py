"""Stable matrix-Lie / cyclic comparison: trace pairing, theta, weights, psi."""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from itertools import permutations as iter_permutations
from itertools import product as iter_product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from random_algebras import change_of_basis
from exacthom.assoc_homology import (
    algebra_to_json,
    connes_quotient_complex,
    cyclic_group_algebra,
    direct_sum,
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
from exacthom.exactlin import (AMBIENT_LIMIT, ResourceGuardError,
                               SparseMatrix, Subspace, guard_ambient, inverse,
                               kernel_basis, quotient_structure,
                               random_unimodular, rank, rref, solve_matrix,
                               vec_clean)
from exacthom.lie_homology import (ExteriorBasis, LieAxiomError,
                                   ce_complex, ce_complex_on,
                                   coinvariant_reduction, gl_index, gl_n_of,
                                   gln_action_on_chains,
                                   gln_generator_action,
                                   guard_exterior_powers,
                                   scalar_matrix_generator_action,
                                   wedge_derivation_matrix, wedge_sort)
from exacthom.lqt import (
    GroupTensorModel,
    WeightBlocks,
    SpechtModule,
    _check_partition,
    _hook_length_dim,
    _koszul_sort,
    _perm_index,
    _perms,
    _psi_entries,
    _row_chains,
    _rows_from_filling,
    _tabloid_key,
    _theta_identification,
    _theta_section,
    _trace_relations,
    all_permutations,
    cyclic_wedge_complex,
    equivariance_check,
    generated_layers,
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
    trace_invariant_check,
    trace_invariant_map,
    trace_invariant_matrix,
    weight_decomposition_report,
    weight_vector,
    weight_zero_count,
    weight_tuples,
    weight_zero_tuples,
    xi,
    xi_sequence,
)

small_perm_degrees = st.integers(min_value=1, max_value=5)


def reference_wedge_weight(a, n: int, tup: Sequence[int]) -> Tuple[int, ...]:
    """Cartan weight of a wedge basis tuple of gl_n(A) generators: each leg
    in matrix position (i, j) contributes +1 at i and -1 at j."""
    wt = [0] * n
    for x in tup:
        i, j = divmod(x // a.dim, n)
        wt[i] += 1
        wt[j] -= 1
    return tuple(wt)


def reference_koszul_sort(seq):
    """Sort generators with the graded sign rule (adjacent swap of two odd
    generators flips the sign); None when an odd generator repeats."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if lst[j - 1][0] % 2 and lst[j][0] % 2:
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
        if j > 0 and lst[j - 1] == lst[j] and lst[j][0] % 2:
            return None
    return sign, tuple(lst)


graded_generators = st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                                       st.integers(min_value=0, max_value=3)),
                             max_size=8)


@given(st.one_of(graded_generators,
                 st.lists(st.integers(min_value=0, max_value=6), max_size=7)
                 .map(lambda legs: [(1, x) for x in legs])))
@settings(max_examples=200)
def test_koszul_sort_of_degree_one_tags_is_the_exterior_sign(gens):
    # the sign counts inversions among odd generators only: even ones
    # commute with everything and may repeat
    res = _koszul_sort(gens)
    assert res == reference_koszul_sort(gens)
    odd = [g for g in gens if g[0] % 2]
    if len(set(odd)) < len(odd):
        assert res is None
        return
    inversions = sum(1 for i in range(len(odd))
                     for j in range(i + 1, len(odd)) if odd[i] > odd[j])
    assert res == ((-1) ** inversions, tuple(sorted(gens)))
perm_seeds = st.integers(min_value=0, max_value=10_000)


# -- permutations ----------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """Element of the symmetric group on {0, ..., k-1}, stored by its image
    tuple. Cycle decomposition (fixed points included) and sign are cached."""

    images: Tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images are not a bijection of 0..k-1")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(tuple(range(k)))

    @staticmethod
    def transposition(k: int, i: int, j: int) -> "Permutation":
        im = list(range(k))
        im[i], im[j] = im[j], im[i]
        return Permutation(tuple(im))

    @staticmethod
    def from_cycle(k: int, cycle: Sequence[int]) -> "Permutation":
        im = list(range(k))
        for pos, x in enumerate(cycle):
            im[x] = cycle[(pos + 1) % len(cycle)]
        return Permutation(tuple(im))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        return Permutation(tuple(self.images[other.images[i]]
                                 for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        im = [0] * self.degree
        for i, x in enumerate(self.images):
            im[x] = i
        return Permutation(tuple(im))

    @cached_property
    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Cycles in orbit order, each starting at its smallest element,
        sorted by that element; fixed points appear as 1-cycles."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles)) % 2 else 1


def trace_coefficient(perm: Permutation,
                      legs: Sequence[Tuple[int, int]]) -> int:
    """Product over the cycles of perm of the trace of the cycle-ordered
    product of elementary matrices; on elementary legs this is 0 or 1."""
    for cyc in perm.cycles:
        for pos in range(len(cyc)):
            if legs[cyc[pos]][1] != legs[cyc[(pos + 1) % len(cyc)]][0]:
                return 0
    return 1


def reference_perms(k: int) -> List[Permutation]:
    """`_perms(k)` in its order, each image tuple wrapped in the class."""
    return [Permutation(p) for p in _perms(k)]


def perm_from_seed(k: int, seed: int) -> Permutation:
    group = reference_perms(k)
    return group[seed % len(group)]


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
    assert group[0] == (0, 1, 2)
    assert group[-1] == (2, 1, 0)
    assert group == sorted(group)


def test_zero_letters_group_is_trivial():
    assert all_permutations(0) == [()]
    assert _koszul_sort([]) == (1, ())


@pytest.mark.parametrize("k", range(7))
def test_exterior_sign_is_the_cycle_count_sign(k):
    # the sign the Specht column group reads, against the reference's
    for p in _perms(k):
        assert wedge_sort(p)[0] == Permutation(p).sign
        assert _koszul_sort([(1, x) for x in p])[0] == Permutation(p).sign


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
    group = reference_perms(3)
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
    perms = reference_perms(m)
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
            k = pidx[p.compose(q).images]
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
    Permutation(_perms(5)[-1]),
])
def test_specht_module_rejects_a_wrong_action_matrix(wrong, monkeypatch):
    from exacthom import lqt
    calls = []

    def solve_one_wrong(a, b):
        # one solve holds every action matrix, block i in columns i*dim on
        coords = solve_matrix(a, b)
        calls.append(1)
        return coords + SparseMatrix(coords.rows, coords.cols, {
            (0, _perm_index(5)[wrong.images] * coords.rows): 1})

    monkeypatch.setattr(lqt, "solve_matrix", solve_one_wrong)
    with pytest.raises(AssertionError, match="composition"):
        specht_module((4, 1))
    assert len(calls) == 1


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
    perms = reference_perms(k)
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
            conj[(pidx[s.compose(t).compose(s_inv).images], ti)] = 1
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


def test_verify_phi_builds_the_trace_pairing_once(capsys):
    from exacthom import cli, lqt
    lqt.trace_invariant_matrix.cache_clear()
    cli.main(["verify", "phi", "--n", "2", "--k", "2"])
    capsys.readouterr()
    misses = lqt.trace_invariant_matrix.cache_info().misses
    lqt.trace_invariant_matrix.cache_clear()
    assert misses == 1


def reference_trace_invariant_matrix(n, k):
    """phi with every (permutation, tensor) pair tested by the cycle-trace
    reference: k! * n^(2k) calls to `trace_coefficient`."""
    dim = n * n
    amb = dim ** k
    perms = reference_perms(k)
    entries = {}
    for cidx in range(amb):
        legs = tuple(divmod(x, n) for x in tensor_unrank(dim, k, cidx))
        for pi, p in enumerate(perms):
            if trace_coefficient(p, legs):
                entries[(pi, cidx)] = 1
    return SparseMatrix(len(perms), amb, entries)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in (1, 2, 3, 4)] + [(4, 3)])
def test_trace_matrix_lists_the_entries_the_reference_tests(n, k):
    assert trace_invariant_matrix(n, k) == \
        reference_trace_invariant_matrix(n, k)


def test_a_phi_that_misses_a_relation_fails_every_kill_check(monkeypatch,
                                                            tmp_path):
    from exacthom import cli, lqt
    # an entry at E_01 (x) E_00, of weight e_0 - e_1: that tensor is a
    # relation, which phi must kill
    phi = trace_invariant_matrix(2, 2)
    col = tensor_rank(4, (1, 0))
    assert not phi.column(col)
    bad = phi + SparseMatrix(phi.rows, phi.cols, {(0, col): 1})
    monkeypatch.setattr(lqt, "trace_invariant_matrix", lambda n, k: bad)
    report = trace_invariant_check(2, 2)
    assert report["well_defined"] is False
    assert report["verdict"] is False
    with pytest.raises(AssertionError, match="fails to kill"):
        trace_invariant_map(2, 2)
    out = tmp_path / "phi.json"
    assert cli.main(["verify", "phi", "--n", "2", "--k", "2",
                     "--json", str(out)]) == cli.EXIT_FAIL


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
        wt = reference_wedge_weight(ground, n, legs)
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


@pytest.mark.parametrize("n,k", SMALL_TRACE_CASES + [(4, 2), (4, 3), (2, 4),
                                                    (3, 4)])
def test_relation_span_matches_the_weight_buckets(n, k):
    # the unit rows of the tensors of nonzero weight and the simple
    # lowering rows span every conjugation relation
    amb = (n * n) ** k
    units, weight_zero = _trace_relations(n, k)
    sub = Subspace.from_vectors(amb, [{c: 1} for c in units] + weight_zero)
    _, ref_sub, ref_kills = reference_trace_relation_span(n, k)
    assert sub.basis == ref_sub.basis
    assert sub.pivots == ref_sub.pivots
    assert ref_kills


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


@pytest.mark.parametrize("n,k", [(n, k) for n, k in SMALL_TRACE_CASES
                                 if n >= k] + [(4, 3)])
def test_trace_map_inverts_phi_modulo_the_relation_span(n, k):
    # I @ phi - identity maps every tensor into the relation span
    phi, inv = trace_invariant_map(n, k)
    _, sub, _ = reference_trace_relation_span(n, k)
    off = inv @ phi - SparseMatrix.identity(phi.cols)
    assert all(sub.contains(off.column(c)) for c in range(off.cols))


def reference_trace_invariant_check(n: int, k: int) -> dict:
    """Exact verification that the trace pairing kills the conjugation
    relations, with the coinvariant dimension, the pairing's rank, and
    whether bijectivity on coinvariants matches the stable-range prediction
    n >= k; on the relation span of every generator on every tensor."""
    phi, sub, well_defined = reference_trace_relation_span(n, k)
    coinvariant_dim = sub.ambient_dim - sub.dim
    kfac = math.factorial(k)
    phi_rank = rank(phi)
    bijective = (well_defined and coinvariant_dim == kfac
                 and phi_rank == kfac)
    expected = n >= k
    return {"check": "trace_invariant_map",
            "params": {"n": n, "k": k},
            "lhs_dims": [coinvariant_dim],
            "rhs_dims": [kfac],
            "well_defined": well_defined,
            "phi_rank": phi_rank,
            "bijective": bijective,
            "expected_bijective": expected,
            "verdict": bool(well_defined and bijective == expected),
            "seed": 0}


# every (n, k) with n^(2k) <= 4096 that passes the pairing's guard; n = 1
# stops at k = 8, where the k! rows of phi, not n, set the size
RANKED_TRACE_CASES = [(1, k) for k in range(1, 9)] + [
    (n, k) for n in range(2, 65) for k in range(1, 7)
    if n ** (2 * k) <= 4096
    and math.factorial(k) * n ** (2 * k) <= AMBIENT_LIMIT]


def reference_hook_length_dim(shape: Sequence[int]) -> int:
    """f^shape, the number of standard tableaux: k! over the product of the
    hook lengths of the Young diagram."""
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return math.factorial(sum(shape)) // hooks


def schur_weyl_dim(n: int, k: int) -> int:
    """dim End_gl_n((Q^n)^(x)k) = sum of (f^lambda)^2 over the partitions
    lambda of k with at most n rows: both the coinvariant dimension and
    phi's rank."""
    return sum(reference_hook_length_dim(shape) ** 2
               for shape in partitions(k) if len(shape) <= n)


@pytest.mark.parametrize("n,k", RANKED_TRACE_CASES)
def test_invariant_check_from_ranks_matches_the_span_reference(n, k):
    # the closed form of Schur-Weyl duality, with no relation span built
    sw = schur_weyl_dim(n, k)
    report = trace_invariant_check(n, k)
    assert report["lhs_dims"] == [sw]
    assert report["phi_rank"] == sw
    assert report["well_defined"] and report["verdict"]
    assert report["bijective"] == report["expected_bijective"] == (n >= k)


@pytest.mark.parametrize("n,k", RANKED_TRACE_CASES)
def test_weight_codes_match_the_weight_walk(n, k):
    # units are the tensors of nonzero weight, as `reference_wedge_weight`
    # reads them
    # one by one, and every lowering relation lies in weight 0
    dim = n * n
    ground = field_q()
    units, weight_zero = _trace_relations(n, k)

    def weight(c):
        return reference_wedge_weight(ground, n, tensor_unrank(dim, k, c))

    assert units == [c for c in range(dim ** k) if any(weight(c))]
    for row in weight_zero:
        assert row
        assert not any(any(weight(c)) for c in row)


def mutated_phi(n: int, k: int, kind: str) -> SparseMatrix:
    """phi with its fourth entry moved one row down, dropped or doubled, or
    with an extra entry on E_01 (x) E_00 (x) ..., a tensor of weight
    e_0 - e_1 and so a relation."""
    phi = trace_invariant_matrix(n, k)
    entries = dict(phi.entries)
    key = sorted(entries)[3]
    if kind == "moved":
        entries[((key[0] + 1) % phi.rows, key[1])] = entries.pop(key)
    elif kind == "dropped":
        del entries[key]
    elif kind == "scaled":
        entries[key] = 2
    else:
        entries[(key[0], tensor_rank(n * n, (1,) + (0,) * (k - 1)))] = 1
    return SparseMatrix(phi.rows, phi.cols, entries)


@pytest.mark.parametrize("kind", ["moved", "dropped", "scaled",
                                  "nonzero-weight"])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_phi_checks_match_the_references_on_a_mutated_phi(n, k, kind,
                                                          monkeypatch):
    from exacthom import lqt
    bad = mutated_phi(n, k, kind)
    monkeypatch.setattr(lqt, "trace_invariant_matrix", lambda n, k: bad)
    monkeypatch.setitem(globals(), "trace_invariant_matrix",
                        lambda n, k: bad)
    invariant = trace_invariant_check(n, k)
    equivariance = equivariance_check(n, k)
    assert not (invariant["verdict"] and equivariance["verdict"])
    assert invariant == reference_trace_invariant_check(n, k)
    assert equivariance == reference_equivariance_check(n, k)


def test_phi_checks_reach_n3_k4():
    # 6,561 tensors: 5,922 of nonzero weight and 912 weight-0 relations,
    # of rank 6,561 - 5,922 - 23
    units, weight_zero = _trace_relations(3, 4)
    # 912 rows f_i . x from the simple lowering operators, not 2,736 e_rs . x
    assert (len(units), len(weight_zero)) == (5922, 912)
    assert trace_invariant_check(3, 4) == {
        "check": "trace_invariant_map", "params": {"n": 3, "k": 4},
        "lhs_dims": [23], "rhs_dims": [24], "well_defined": True,
        "phi_rank": 23, "bijective": False, "expected_bijective": False,
        "verdict": True, "seed": 0}
    assert equivariance_check(3, 4) == {
        "check": "phi_equivariance", "params": {"n": 3, "k": 4},
        "lhs_dims": [24], "rhs_dims": [24], "failures": [],
        "verdict": True, "seed": 0}


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


def reference_signed_group_tensor_coinvariants(a, k):
    """signed_group_tensor_coinvariants as it was before the signed-orbit
    quotient: every two-term relation written out and eliminated."""
    perms = reference_perms(k)
    kfac = len(perms)
    tdim = a.dim ** k
    amb = kfac * tdim
    guard_ambient("signed permutation-tensor space", amb)
    pidx = _perm_index(k)
    rels: List[Dict[int, Fraction]] = []
    for i in range(k - 1):
        s = Permutation.transposition(k, i, i + 1)
        conj = [pidx[s.compose(t).compose(s).images] for t in perms]
        for ti in range(kfac):
            ci = conj[ti]
            for tens in range(tdim):
                legs = tensor_unrank(a.dim, k, tens)
                swapped = legs[:i] + (legs[i + 1], legs[i]) + legs[i + 2:]
                v: Dict[int, Fraction] = {}
                tgt = ci * tdim + tensor_rank(a.dim, swapped)
                src = ti * tdim + tens
                v[tgt] = v.get(tgt, 0) - 1
                v[src] = v.get(src, 0) - 1
                vec = vec_clean(v)
                if vec:
                    rels.append(vec)
    return quotient_structure(Subspace.from_vectors(amb, rels))


# the reference is compared at every k with k! * dim(A)^k this small
COINVARIANT_REFERENCE_SIZE = 2000
QUOTIENT_ALGEBRAS = {
    "Q": field_q(), "dual": dual_numbers(), "x3": truncated_polynomials(3),
    "M2": matrix_algebra(2), "zero1": zero_multiplication(1),
    "zero3": zero_multiplication(3), "left-unital": left_unital_two_dim()}


@pytest.mark.parametrize("name", sorted(QUOTIENT_ALGEBRAS))
def test_signed_coinvariants_match_the_elimination_path(name):
    a = QUOTIENT_ALGEBRAS[name]
    for k in range(8):
        if math.factorial(k) * a.dim ** k > COINVARIANT_REFERENCE_SIZE:
            break
        q = signed_group_tensor_coinvariants(a, k)
        ref = reference_signed_group_tensor_coinvariants(a, k)
        assert q == ref
        assert q.subspace.pivots == ref.subspace.pivots


def test_signed_quotients_call_no_elimination(monkeypatch):
    from exacthom import exactlin

    def eliminated(*args, **kwargs):
        raise AssertionError("elimination was called")

    builds = (lambda: connes_quotient_complex(matrix_algebra(2), 4),
              lambda: signed_group_tensor_coinvariants(dual_numbers(), 4))
    expected = [build() for build in builds]
    monkeypatch.setattr(exactlin, "_eliminate", eliminated)
    assert [build() for build in builds] == expected
    with pytest.raises(AssertionError, match="elimination"):
        rank(SparseMatrix.identity(1))


@pytest.mark.parametrize("build,size", [
    (lambda: equivariance_check(1, 7), 5040 * (5040 + 1)),
    (lambda: equivariance_check(1, 6), 720 * (720 + 1)),
    (lambda: trace_invariant_matrix(2, 6), 720 * 4 ** 6),
], ids=["equivariance-n1-k7", "equivariance-n1-k6", "matrix-n2-k6"])
def test_phi_checks_are_guarded_before_any_permutation_is_listed(
        build, size, monkeypatch):
    from exacthom import lqt

    def listed(*args):
        raise AssertionError("permutations were listed")

    monkeypatch.setattr(lqt, "_perms", listed)
    with pytest.raises(ResourceGuardError) as e:
        build()
    assert e.value.sizing["size"] == size


@pytest.mark.parametrize("build", [
    lambda: signed_group_tensor_coinvariants(field_q(), 10),
    lambda: specht_module((5, 5)),
], ids=["signed-coinvariants", "specht"])
def test_permutation_spaces_are_guarded_before_any_is_listed(build,
                                                             monkeypatch):
    from exacthom import lqt

    def listed(*args):
        raise AssertionError("permutations were listed")

    monkeypatch.setattr(lqt, "_perms", listed)
    monkeypatch.setattr(lqt, "iter_permutations", listed)
    with pytest.raises(ResourceGuardError) as e:
        build()
    assert e.value.sizing["size"] == math.factorial(10)


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
    perms = reference_perms(k)
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


def reference_weight_components(a, n: int,
                                k: int) -> Dict[Tuple[int, ...], List[int]]:
    """Wedge basis indices grouped by Cartan weight."""
    basis = ExteriorBasis(n * n * a.dim, k)
    out: Dict[Tuple[int, ...], List[int]] = {}
    for ci, tup in enumerate(basis.tuples):
        out.setdefault(reference_wedge_weight(a, n, tup), []).append(ci)
    return out


def reference_highest_weight_space(a, n: int, k: int, mu: Sequence[int],
                                   action=None) -> Subspace:
    """Vectors of weight mu killed by every raising operator e_ij (i < j),
    inside the k-th wedge power of gl_n(A)."""
    act = action if action is not None else gln_action_on_chains(a, n, k)
    cols = reference_weight_components(a, n, k).get(tuple(mu), [])
    amb = act.module_dim
    if not cols:
        return Subspace.zero(amb)
    blocks = [act.matrices[i * n + j].select(range(amb), cols)
              for i in range(n) for j in range(i + 1, n)]
    if blocks:
        stacked = SparseMatrix.vstack(blocks)
    else:
        stacked = SparseMatrix.zeros(0, len(cols))
    kern = kernel_basis(stacked)
    vecs = [{cols[c]: v for c, v in kern.row(i).items()}
            for i in range(kern.rows)]
    return Subspace.from_vectors(amb, vecs)


def reference_generated_submodule(action, seed: Subspace) -> Subspace:
    """Smallest subspace containing the seed and stable under every action
    matrix (the submodule generated by the seed), closed under all n^2
    matrices of the action."""
    if seed.ambient_dim != action.module_dim:
        raise ValueError("seed lives in the wrong ambient space")
    cur = seed
    while True:
        images = []
        for i in range(cur.dim):
            row = cur.basis.row(i)
            for m in action.matrices:
                img = m.apply(row)
                if img:
                    images.append(img)
        nxt = cur.sum(Subspace.from_vectors(action.module_dim, images))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def reference_generated_components(a, n: int, k: int):
    """Yield (m, alpha, beta, mu, highest-weight space, generated submodule)
    for every weight mu of `weight_decomposition`, in its order."""
    act = gln_action_on_chains(a, n, k)
    for m in range(k + 1):
        for alpha in partitions(m):
            for beta in partitions(m):
                if len(alpha) + len(beta) > n:
                    continue
                mu = weight_vector(alpha, beta, n)
                hw = reference_highest_weight_space(a, n, k, mu, act)
                yield (m, alpha, beta, mu, hw,
                       reference_generated_submodule(act, hw))


def reference_weight_decomposition(
        a, n: int, k: int) -> Dict[Tuple[int, ...], Subspace]:
    """For every padded weight built from a pair of partitions of the same
    m <= k (combined lengths at most n): the submodule generated by its
    highest-weight space inside the k-th wedge power of gl_n(A)."""
    return {mu: gen for *_, mu, _hw, gen in
            reference_generated_components(a, n, k)}


def reference_weight_decomposition_report(a, n: int, k: int) -> dict:
    """Report: the generated components over the canonical weights fill the
    whole wedge power (their dimensions add up to it and their joint span
    has full dimension)."""
    total = math.comb(n * n * a.dim, k)
    components = []
    dim_sum = 0
    span = Subspace.zero(total)
    for m, alpha, beta, mu, hw, gen in reference_generated_components(a, n,
                                                                      k):
        dim_sum += gen.dim
        span = span.sum(gen)
        components.append({"weight": list(mu), "m": m,
                           "alpha": list(alpha), "beta": list(beta),
                           "highest_dim": hw.dim,
                           "generated_dim": gen.dim})
    verdict = dim_sum == total and span.dim == total
    return {"check": "weight_decomposition",
            "params": {"n": n, "k": k, "algebra_dim": a.dim},
            "lhs_dims": [dim_sum, span.dim],
            "rhs_dims": [total, total],
            "components": components,
            "verdict": bool(verdict),
            "seed": 0}


def generated_dims(a, n, k):
    return {tuple(c["weight"]): c["generated_dim"]
            for c in weight_decomposition_report(a, n, k)["components"]}


def test_weight_components_of_matrix_generators():
    # gl_2 splits into the scalars (weight 0) and the adjoint-irreducible
    # generated from e_12 (weight (1,-1))
    assert generated_dims(field_q(), 2, 1) == {(0, 0): 1, (1, -1): 3}
    wd = reference_weight_decomposition(field_q(), 2, 1)
    assert {mu: s.dim for mu, s in wd.items()} == {(0, 0): 1, (1, -1): 3}


def test_weight_decomposition_zero_degree():
    assert generated_dims(field_q(), 2, 0) == {(0, 0): 1}
    wd = reference_weight_decomposition(field_q(), 2, 0)
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


@pytest.mark.parametrize("name,n,k", [
    ("Q", 2, 1), ("Q", 2, 2), ("Q", 2, 3), ("Q", 3, 1), ("Q", 3, 2),
    ("Q", 3, 3), ("dual", 2, 1), ("dual", 2, 2), ("dual", 3, 1),
    ("dual", 3, 2)])
def test_weight_report_matches_the_reference_components(name, n, k):
    alg = QUOTIENT_ALGEBRAS[name]
    assert weight_decomposition_report(alg, n, k) == \
        reference_weight_decomposition_report(alg, n, k)


def full_rows(blocks: WeightBlocks, mu, basis: SparseMatrix) -> Subspace:
    """The span of `basis` (rows in block-mu coordinates) as a subspace of
    the whole wedge power, each block tuple at its lexicographic index."""
    whole = ExteriorBasis(blocks.block(mu).dim, blocks.k)
    cols = [whole.index[t] for t in blocks.block(mu).tuples]
    return Subspace.from_vectors(len(whole), [
        {cols[c]: v for c, v in basis.row(i).items()}
        for i in range(basis.rows)])


# Q and Q[eps], n <= 3, k <= 3
BLOCK_CASES = [(name, n, k) for name in ("Q", "dual") for n in (1, 2, 3)
               for k in (0, 1, 2, 3)]


@pytest.mark.parametrize("name,n,k", BLOCK_CASES)
def test_highest_weight_space_matches_the_reference(name, n, k):
    # the kernel of the n - 1 simple raising operators on one block is the
    # whole-power kernel of every e_ij, i < j, on the same weight
    alg = QUOTIENT_ALGEBRAS[name]
    act = gln_action_on_chains(alg, n, k)
    blocks = WeightBlocks(gln_generator_action(alg, n), n, k)
    weights = {reference_wedge_weight(alg, n, t)
               for t in combinations(range(n * n * alg.dim), k)}
    # and a weight no tuple has
    weights.add((k + 1,) + (0,) * (n - 2) + (-k - 1,) if n > 1 else (1,))
    for mu in weights:
        hw = highest_weight_space(blocks, mu)
        assert hw.cols == len(blocks.block(mu))
        assert full_rows(blocks, mu, hw) == \
            reference_highest_weight_space(alg, n, k, mu, act)


@pytest.mark.parametrize("name,n,k", BLOCK_CASES)
def test_lowering_closure_is_the_generated_submodule(name, n, k):
    # PBW: from a highest-weight space the simple lowering operators reach
    # the same subspace as all n^2 action matrices, component by component;
    # each layer is one weight block of it
    alg = QUOTIENT_ALGEBRAS[name]
    blocks = WeightBlocks(gln_generator_action(alg, n), n, k)
    for *_, mu, ref_hw, ref_gen in reference_generated_components(alg, n, k):
        hw = highest_weight_space(blocks, mu)
        assert full_rows(blocks, mu, hw) == ref_hw
        layers = generated_layers(blocks, mu, hw)
        assert all(b.rows for b in layers.values())
        assert all(rref(b)[0] == b for b in layers.values())
        spans = [full_rows(blocks, nu, b) for nu, b in layers.items()]
        assert sum(sp.dim for sp in spans) == ref_gen.dim
        joint = Subspace.zero(ref_gen.ambient_dim)
        for sp in spans:
            joint = joint.sum(sp)
        assert joint == ref_gen


@pytest.mark.parametrize("name,n,k", [("Q", 2, 2), ("Q", 3, 2),
                                      ("dual", 2, 2), ("Q", 3, 3)])
def test_block_operators_are_the_whole_power_action_restricted(name, n, k):
    # e_rs on block mu is the whole-power matrix on those columns, and it
    # lands in block mu + eps_r - eps_s
    alg = QUOTIENT_ALGEBRAS[name]
    act = gln_action_on_chains(alg, n, k)
    blocks = WeightBlocks(gln_generator_action(alg, n), n, k)
    whole = ExteriorBasis(n * n * alg.dim, k)
    weights = {reference_wedge_weight(alg, n, t) for t in whole.tuples}
    for mu in weights:
        for r in range(n):
            for s_ in range(n):
                target = list(mu)
                target[r] += 1
                target[s_] -= 1
                rows = [whole.index[t] for t in blocks.block(target).tuples]
                cols = [whole.index[t] for t in blocks.block(mu).tuples]
                full = act.matrices[r * n + s_]
                assert blocks.operator(r, s_, mu) == full.select(rows, cols)
                # nothing of the image leaves the target block
                assert full.select(range(full.rows), cols).nnz == \
                    blocks.operator(r, s_, mu).nnz


def test_block_operators_are_built_once_per_report(monkeypatch):
    from exacthom import lqt
    built = []

    def counted(src, act, target=None):
        # act is one generator's image list, kept by the blocks
        assert src.tuples
        built.append((id(act.__self__), tuple(src.tuples),
                      tuple(target.tuples)))
        return wedge_derivation_matrix(src, act, target)

    monkeypatch.setattr(lqt, "wedge_derivation_matrix", counted)
    report = weight_decomposition_report(field_q(), 3, 3)
    assert report["verdict"]
    assert len(built) == len(set(built))


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_weight_tuples_are_the_filtered_combinations(n, a_dim, k, data):
    assume(math.comb(n * n * a_dim, k) <= 5000)
    a = zero_multiplication(a_dim)
    by_weight: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for t in combinations(range(n * n * a_dim), k):
        by_weight.setdefault(reference_wedge_weight(a, n, t), []).append(t)
    for mu, tuples in by_weight.items():
        assert weight_tuples(n, a_dim, k, mu) == tuples
    # weights no tuple has: a random one, and a shift of a real one
    mu = tuple(data.draw(st.lists(st.integers(min_value=-k - 1,
                                              max_value=k + 1),
                                  min_size=n, max_size=n)))
    assert weight_tuples(n, a_dim, k, mu) == by_weight.get(mu, [])
    shifted = (mu[0] + 1,) + mu[1:]
    assert weight_tuples(n, a_dim, k, shifted) == by_weight.get(shifted, [])
    assert weight_zero_tuples(n, a_dim, k) == \
        by_weight.get((0,) * n, [])


def test_weight_tuples_need_one_entry_per_index():
    with pytest.raises(ValueError, match="entries"):
        weight_tuples(3, 1, 2, (1, -1))


def test_highest_weight_space_of_adjoint():
    # weight (1,-1) in gl_2: highest vector is e_12, one-dimensional
    blocks = WeightBlocks(gln_generator_action(field_q(), 2), 2, 1)
    hw = highest_weight_space(blocks, (1, -1))
    assert blocks.block((1, -1)).tuples == [(1,)]
    assert hw == SparseMatrix.identity(1)


def test_weight_report_validates_the_generator_action_once(monkeypatch):
    from exacthom import lie_homology
    validated = []
    original = lie_homology.LieModuleAction.__post_init__

    def counted(self):
        validated.append(self.module_dim)
        original(self)

    monkeypatch.setattr(lie_homology.LieModuleAction, "__post_init__",
                        counted)
    weight_decomposition_report(dual_numbers(), 2, 3)
    assert validated == [8]
    validated.clear()
    psi_restriction_check(dual_numbers(), 2, 1, (1,), (1,), 3)
    assert validated == [8]


@pytest.mark.parametrize("check", [
    lambda: weight_decomposition_report(dual_numbers(), 2, 2),
    lambda: psi_restriction_check(dual_numbers(), 2, 1, (1,), (1,), 2),
], ids=["weights", "psi"])
def test_a_broken_generator_action_fails_the_weight_checks(monkeypatch,
                                                           check):
    from exacthom import lie_homology

    def flipped(n, a_dim, r, s):
        act = scalar_matrix_generator_action(n, a_dim, r, s)
        if (r, s) != (0, 1):
            return act
        return lambda idx: {y: -c for y, c in act(idx).items()}
    monkeypatch.setattr(lie_homology, "scalar_matrix_generator_action",
                        flipped)
    with pytest.raises(LieAxiomError, match="representation identity"):
        check()


def test_weight_report_is_guarded_before_anything_is_enumerated(
        monkeypatch):
    from exacthom import lqt

    def built(*args):
        raise AssertionError("enumerated or built")

    for name in ("weight_tuples", "gln_generator_action", "WeightBlocks"):
        monkeypatch.setattr(lqt, name, built)
    # gl_8(Q), wedge power 5: C(64, 5) tuples
    with pytest.raises(ResourceGuardError) as e:
        weight_decomposition_report(field_q(), 8, 5)
    assert e.value.sizing["size"] == math.comb(64, 5)


# -- row-chain embedding and psi -----------------------------------------------------


def reference_zeta_map(a, c: Mapping[int, Fraction], p: int, r: int, s: int,
                       n: int) -> Dict[int, Fraction]:
    """Row-chain embedding of a p-fold tensor over A into the p-fold tensor
    power of gl_n(A): sum over all internal index chains from row r to
    column s (both 1-based)."""
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError("row and column indices must be in 1..n")
    if p < 1:
        raise ValueError("need p >= 1 tensor legs")
    gdim = n * n * a.dim
    out: Dict[int, Fraction] = {}
    for idx, v in c.items():
        if not v:
            continue
        legs = tensor_unrank(a.dim, p, idx)
        for chain in iter_product(range(n), repeat=p - 1):
            rows = (r - 1,) + chain
            cols = chain + (s - 1,)
            glegs = tuple(gl_index(n, a.dim, rows[t], cols[t], legs[t])
                          for t in range(p))
            key = tensor_rank(gdim, glegs)
            out[key] = out.get(key, 0) + v
    return vec_clean(out)


def reference_theta_tilde(a, c: Mapping[int, Fraction], p: int,
                          n: int) -> Dict[int, Fraction]:
    """Sum of the diagonal row-chain embeddings, one per matrix index."""
    out: Dict[int, Fraction] = {}
    for kk in range(1, n + 1):
        for key, v in reference_zeta_map(a, c, p, kk, kk, n).items():
            out[key] = out.get(key, 0) + v
    return vec_clean(out)


def reference_outer_legs(acc: Dict[Tuple[int, ...], Fraction],
                         block: Mapping[int, Fraction], gdim: int,
                         j: int) -> Dict[Tuple[int, ...], Fraction]:
    out: Dict[Tuple[int, ...], Fraction] = {}
    for legs, v in acc.items():
        for bid, bv in block.items():
            key = legs + tensor_unrank(gdim, j, bid)
            out[key] = out.get(key, 0) + v * bv
    return vec_clean(out)


def reference_psi_term_tensor(a, n: int, dom,
                              mono: Tuple[Tuple[int, int], ...],
                              marked: Optional[Tuple[int, int]]
                              ) -> Dict[Tuple[int, ...], Fraction]:
    """Tensor-leg expansion of one domain basis element: diagonal row chains
    on each monomial block's canonical representative, then (optionally) a
    corner row chain on a marked bar-type block."""
    gdim = n * n * a.dim
    acc: Dict[Tuple[int, ...], Fraction] = {(): 1}
    for (j, t) in mono:
        rep = dom.cyclic_quots[j - 1].section.column(t)
        acc = reference_outer_legs(acc, reference_theta_tilde(a, rep, j, n),
                                   gdim, j)
    if marked is not None:
        p, tens = marked
        acc = reference_outer_legs(
            acc, reference_zeta_map(a, {tens: 1}, p, 1, n, n), gdim, p)
    return acc


def psi_matrix(a, n: int, m: int, dom, deg: int) -> SparseMatrix:
    """`_psi_entries` on the whole wedge basis of gl_n(A)."""
    entries, cols = _psi_entries(a, n, m, dom, deg)
    wedge = ExteriorBasis(n * n * a.dim, deg)
    return SparseMatrix(len(wedge), cols, {
        (wedge.index[t], c): v for (t, c), v in entries.items()})


def reference_psi_matrix(a, n: int, m: int, dom, deg: int) -> SparseMatrix:
    """The per-degree psi matrix of `psi_restriction_check` as it was built
    from `reference_psi_term_tensor`."""
    gdim = n * n * a.dim
    terms: List[Dict[Tuple[int, ...], Fraction]] = []
    if m == 0:
        for mono in dom.monomials[deg]:
            terms.append(reference_psi_term_tensor(a, n, dom, mono, None))
    else:
        for d1 in range(deg):
            p = deg - d1
            for mono in dom.monomials[d1]:
                for tens in range(a.dim ** p):
                    terms.append(reference_psi_term_tensor(a, n, dom, mono,
                                                           (p, tens)))
    wedge = ExteriorBasis(gdim, deg)
    entries: Dict[Tuple[int, int], Fraction] = {}
    for ci, term in enumerate(terms):
        for legs, v in term.items():
            res = wedge_sort(legs)
            if res is None:
                continue
            sg, stup = res
            key = (wedge.index[stup], ci)
            entries[key] = entries.get(key, 0) + sg * v
    return SparseMatrix(len(wedge), len(terms), entries)


def test_zeta_single_leg():
    # one tensor leg lands on e_rs tensor a with no internal sum
    out = reference_zeta_map(field_q(), {0: Fraction(1)}, 1, 1, 2, 2)
    assert out == {1: Fraction(1)}  # gl index of (row 0, col 1, coeff 0)
    assert _row_chains(2, 1, (0,), 0, 1) == [(1,)]


def test_zeta_two_legs_n2():
    # two legs, r = s = 1, n = 2: e11(x)e11 + e12(x)e21 on the matrix parts
    out = reference_zeta_map(field_q(), {0: Fraction(1)}, 2, 1, 1, 2)
    assert out == {0: Fraction(1), 6: Fraction(1)}
    assert _row_chains(2, 1, (0, 0), 0, 0) == [(0, 0), (1, 2)]


def test_zeta_rejects_bad_indices():
    with pytest.raises(ValueError):
        reference_zeta_map(field_q(), {0: Fraction(1)}, 1, 0, 1, 2)
    with pytest.raises(ValueError):
        reference_zeta_map(field_q(), {0: Fraction(1)}, 1, 1, 3, 2)


def test_theta_tilde_is_diagonal_sum():
    direct = {}
    for kk in (1, 2):
        for key, v in reference_zeta_map(field_q(), {0: Fraction(1)}, 2, kk,
                                         kk, 2).items():
            direct[key] = direct.get(key, Fraction(0)) + v
    assert reference_theta_tilde(field_q(), {0: Fraction(1)}, 2, 2) == direct


@given(st.sampled_from(sorted(QUOTIENT_ALGEBRAS)),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=0, max_value=3), min_size=3,
                max_size=3))
@settings(max_examples=60, deadline=None)
def test_row_chains_are_the_reference_zeta_terms(name, n, p, legs):
    # a chain from row r to row s is one term of zeta(e_legs) with
    # coefficient 1, in its order
    a = QUOTIENT_ALGEBRAS[name]
    legs = tuple(x % a.dim for x in legs[:p])
    gdim = n * n * a.dim
    for r in range(n):
        for s_ in range(n):
            zeta = reference_zeta_map(a, {tensor_rank(a.dim, legs): 1}, p,
                                      r + 1, s_ + 1, n)
            chains = _row_chains(n, a.dim, legs, r, s_)
            assert [tensor_rank(gdim, c) for c in chains] == list(zeta)
            assert set(zeta.values()) == {1}


# the reference psi builds the whole wedge basis of gl_n(A), so it is
# compared where C(n^2 dim A, degree) is this small
PSI_REFERENCE_SIZE = 50_000
PSI_ZOO = dict(QUOTIENT_ALGEBRAS, QxQ=direct_sum(field_q(), field_q()),
               C3=cyclic_group_algebra(3))


@given(st.sampled_from(sorted(PSI_ZOO)),
       st.integers(min_value=1, max_value=4), st.sampled_from([0, 1]),
       st.integers(min_value=0, max_value=3))
@example("M2", 4, 1, 3)
@example("x3", 4, 1, 3)
@example("dual", 4, 0, 3)
@example("QxQ", 3, 1, 3)
@settings(max_examples=60, deadline=None)
def test_psi_matrix_matches_the_reference_term_path(name, n, m, max_degree):
    a = PSI_ZOO[name]
    assume(math.comb(n * n * a.dim, max_degree) <= PSI_REFERENCE_SIZE)
    dom = cyclic_wedge_complex(a, max_degree)
    for deg in range(max_degree + 1):
        assert psi_matrix(a, n, m, dom, deg) == \
            reference_psi_matrix(a, n, m, dom, deg)


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


def reference_psi_restriction_check(a, n: int, m: int, max_degree: int):
    """The image, dimension and bijectivity lists of `psi_restriction_check`
    for alpha = beta = (1,) * m, read off the whole wedge power: psi on the
    whole basis, and the highest-weight space as the kernel of every
    raising e_ij, i < j, of `gln_action_on_chains`."""
    part = (1,) * m
    mu = weight_vector(part, part, n)
    dom = cyclic_wedge_complex(a, max_degree)
    out = {"lhs_dims": [], "rhs_dims": [], "image_in_highest_weight": [],
           "bijective_degrees": []}
    for deg in range(max_degree + 1):
        psi = psi_matrix(a, n, m, dom, deg)
        hw = reference_highest_weight_space(a, n, deg, mu)
        out["image_in_highest_weight"].append(
            all(hw.contains(psi.column(c)) for c in range(psi.cols)))
        out["lhs_dims"].append(psi.cols)
        out["rhs_dims"].append(hw.dim)
        if deg <= n // 2:
            out["bijective_degrees"].append(
                psi.cols == hw.dim == rank(psi))
    return out


@pytest.mark.parametrize("name,n,m,max_degree", [
    ("Q", 2, 1, 2), ("Q", 3, 1, 3), ("Q", 3, 0, 3), ("Q", 4, 1, 3),
    ("dual", 2, 1, 2), ("dual", 3, 1, 2), ("dual", 3, 0, 2),
    ("x3", 3, 1, 2), ("M2", 2, 1, 2)])
def test_psi_check_matches_the_whole_power_reference(name, n, m,
                                                     max_degree):
    a = QUOTIENT_ALGEBRAS[name]
    part = (1,) * m
    report = psi_restriction_check(a, n, m, part, part, max_degree)
    assert {key: report[key] for key in (
        "lhs_dims", "rhs_dims", "image_in_highest_weight",
        "bijective_degrees")} == \
        reference_psi_restriction_check(a, n, m, max_degree)


def _psi_with(extra):
    """`_psi_entries` with `extra(n, deg)` ((wedge tuple, column) -> value)
    added to its entries in degree 2."""
    def entries(a, n, m, dom, deg):
        out, cols = _psi_entries(a, n, m, dom, deg)
        if deg == 2:
            for key, v in extra(n, deg).items():
                out[key] = out.get(key, 0) + v
        return out, cols
    return entries


@pytest.mark.parametrize("extra", [
    # e_11 ^ e_12 has weight (1, -1, 0), off the block of (1, 0, -1)
    lambda n, deg: {((0, 1), 0): 1},
    # e_12 ^ e_13 has weight (2, -1, -1)
    lambda n, deg: {((1, 2), 0): 1},
    # column 0 is e_11 ^ e_13 + e_12 ^ e_23 + e_13 ^ e_33, which e_12
    # kills: it sends the first two terms to -e_12 ^ e_13 and e_12 ^ e_13.
    # Doubling the first term stays in the block but leaves the kernel.
    lambda n, deg: {((0, 2), 0): 1},
], ids=["off-block", "off-block-far", "on-block-not-killed"])
def test_psi_columns_off_the_highest_weight_space_fail(monkeypatch, extra):
    from exacthom import lqt
    good = psi_restriction_check(field_q(), 3, 1, (1,), (1,), 2)
    assert good["image_in_highest_weight"] == [True, True, True]
    monkeypatch.setattr(lqt, "_psi_entries", _psi_with(extra))
    report = psi_restriction_check(field_q(), 3, 1, (1,), (1,), 2)
    assert report["image_in_highest_weight"] == [True, True, False]
    assert not report["verdict"]


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
            if not any(reference_wedge_weight(a, n, t))]


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


def gl_poincare_coefficients(n):
    """Coefficients of prod_{i <= n} (1 + t^(2i-1)), the Poincare polynomial
    of H_*(gl_n(Q)) (Hopf; Koszul 1950), in degrees 0..n^2."""
    coeffs = [1] + [0] * (n * n)
    for i in range(1, n + 1):
        for d in range(n * n, 2 * i - 2, -1):
            coeffs[d] += coeffs[d - 2 * i + 1]
    return coeffs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_ce_homology_of_gl_n_is_the_hopf_polynomial(n, tmp_path,
                                                        capsys):
    from exacthom import cli
    path = tmp_path / "q.json"
    path.write_text(json.dumps(algebra_to_json(field_q())))
    out = tmp_path / "ce.json"
    assert cli.main(["homology", "ce", "--algebra", str(path), "--gl", str(n),
                     "--max-degree", str(n * n), "--json", str(out)]) == 0
    capsys.readouterr()
    betti = json.loads(out.read_text())["report"]["betti"]
    assert betti == gl_poincare_coefficients(n)


def test_weight_zero_homology_of_gl_4_is_the_hopf_polynomial():
    # every degree of gl_4(Q), far outside the stable range r + 1 <= 4:
    # the weight-0 block alone carries all of H_*(gl_4(Q))
    betti = betti_numbers(weight_zero_complex(field_q(), 4, 16))
    assert betti == gl_poincare_coefficients(4)
    assert betti == [1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1]


def weight_blocks(a, n):
    """The complete CE complex of gl_n(A), one subcomplex per weight."""
    g = gl_n_of(a, n)
    by_weight = {}
    for k in range(g.dim + 1):
        for t in combinations(range(g.dim), k):
            by_weight.setdefault(reference_wedge_weight(a, n, t),
                                 {}).setdefault(k, []).append(t)
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
