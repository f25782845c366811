"""Exact linear algebra: canonical forms, rank/kernel/image, quotients."""

import copy
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from exacthom.exactlin import (
    SparseMatrix,
    _eliminate,
    _scaled_int_rows,
    Subspace,
    decode_entries,
    image_basis,
    inverse,
    kernel_basis,
    pivot_columns,
    quotient_structure,
    random_unimodular,
    rank,
    rref,
    signed_orbit_quotient,
    solve_matrix,
    solve_vector,
    vec_clean,
)

# small rational matrices, dimensions up to 5, entries with modest num/den
rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=7),
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                entries[(r, c)] = draw(rationals)
    return SparseMatrix(rows, cols, entries)


def test_rank_pinned_examples():
    assert rank(SparseMatrix.from_dense([[1, 2], [2, 4]])) == 1
    assert rank(SparseMatrix.identity(4)) == 4
    assert rank(SparseMatrix.zeros(3, 5)) == 0


def test_kernel_pinned_example():
    k = kernel_basis(SparseMatrix.from_dense([[1, 1]]))
    assert k.rows == 1 and k.cols == 2
    assert k.row(0) == {0: Fraction(1), 1: Fraction(-1)}


def test_rref_shape_properties():
    # third row is the sum of the first two, so rank 2 with pivots in cols 0, 1
    m = SparseMatrix.from_dense([
        [0, 2, 4, 1],
        [1, 1, 1, 1],
        [1, 3, 5, 2],
    ])
    R, piv = rref(m)
    assert piv == (0, 1)
    # pivot entries are 1 and alone in their columns
    for i, p in enumerate(piv):
        col = R.column(p)
        assert col == {i: Fraction(1)}


@given(matrices())
@settings(max_examples=80)
def test_rref_idempotent_and_canonical(m):
    R, piv = rref(m)
    assert list(piv) == sorted(piv)
    R2, piv2 = rref(R)
    assert R2 == R and piv2 == piv
    # row space is preserved: every original row reduces to zero against R
    sub = Subspace(m.cols, R, piv)
    for r in range(m.rows):
        assert sub.contains(m.row(r))


@given(matrices())
@settings(max_examples=80)
def test_rank_nullity_and_kernel_membership(m):
    r = rank(m)
    k = kernel_basis(m)
    assert r + k.rows == m.cols
    assert rank(m.transpose()) == r
    prod = m @ k.transpose()
    assert prod.is_zero()


@given(matrices())
@settings(max_examples=60)
def test_image_basis_spans_columns(m):
    im = image_basis(m)
    assert im.rows == rank(m)
    assert im.cols == m.rows
    # each column of m lies in the span of the image basis rows
    sub = Subspace.from_matrix_rows(im)
    for c in range(m.cols):
        assert sub.contains(m.column(c))


@given(matrices(max_dim=4), matrices(max_dim=4))
@settings(max_examples=60)
def test_solve_consistency(a, b):
    if a.rows != b.rows:
        b = SparseMatrix(a.rows, b.cols,
                         {(r, c): v for (r, c), v in b.entries.items()
                          if r < a.rows})
    x = solve_matrix(a, b)
    if x is None:
        # genuinely unsolvable: augmenting must raise the rank
        assert rank(SparseMatrix.hstack([a, b])) > rank(a)
    else:
        assert a @ x == b


def test_solve_vector_roundtrip():
    a = SparseMatrix.from_dense([[2, 0], [0, 3]])
    x = solve_vector(a, {0: Fraction(1), 1: Fraction(1)})
    assert x == {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert solve_vector(SparseMatrix.zeros(2, 2), {0: Fraction(1)}) is None


def test_decode_entries_applies_the_storage_rule():
    got = decode_entries([[0, 1, 4, 2], [1, 0, 1, 2], [1, 1, 0, 5],
                          [2, 2, 7, 1], [2, 2, 0, 1]], 4)
    assert got == {(0, 1): 2, (1, 0): Fraction(1, 2)}
    assert type(got[(0, 1)]) is int
    m = SparseMatrix.from_entry_list(2, 2, [[0, 1, 4, 2], [1, 1, 0, 3]])
    assert m.entries == {(0, 1): 2} and type(m.entries[(0, 1)]) is int
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        decode_entries([[0, 0, 1, 0]], 4)


@given(matrices())
@settings(max_examples=60)
def test_quotient_structure_identities(m):
    sub = Subspace.from_matrix_rows(m)
    q = quotient_structure(sub)
    n, d = sub.ambient_dim, sub.dim
    assert q.projection.rows == n - d and q.section.cols == n - d
    assert q.projection @ q.section == SparseMatrix.identity(n - d)
    # the projection kills exactly the subspace
    killed = q.projection @ sub.basis.transpose()
    assert killed.is_zero()
    assert rank(q.projection) == n - d


def test_subspace_reduce_and_sum():
    s = Subspace.from_vectors(3, [{0: Fraction(1), 1: Fraction(1)}])
    assert s.dim == 1
    assert s.contains({0: Fraction(2), 1: Fraction(2)})
    assert not s.contains({0: Fraction(2), 1: Fraction(1)})
    t = Subspace.from_vectors(3, [{2: Fraction(1)}])
    assert s.sum(t).dim == 2
    # reduce clears pivot coordinates
    red = s.reduce({0: Fraction(1), 2: Fraction(5)})
    assert 0 not in red and red[2] == Fraction(5)


@given(matrices(max_dim=4), matrices(max_dim=4), matrices(max_dim=4))
@settings(max_examples=40)
def test_matmul_associative(a, b, c):
    b = SparseMatrix(a.cols, b.cols,
                     {(r, col): v for (r, col), v in b.entries.items()
                      if r < a.cols})
    c = SparseMatrix(b.cols, c.cols,
                     {(r, col): v for (r, col), v in c.entries.items()
                      if r < b.cols})
    assert (a @ b) @ c == a @ (b @ c)


def test_entry_list_roundtrip_and_determinism():
    m = SparseMatrix.from_dense([[Fraction(1, 2), 0], [0, Fraction(-3, 4)]])
    lst = m.to_entry_list()
    assert lst == [[0, 0, 1, 2], [1, 1, -3, 4]]
    assert SparseMatrix.from_entry_list(2, 2, lst) == m


def test_apply_matches_matmul():
    m = SparseMatrix.from_dense([[1, 2], [3, 4]])
    v = {0: Fraction(1), 1: Fraction(-1)}
    out = m.apply(v)
    assert out == {0: Fraction(-1), 1: Fraction(-1)}


def test_shape_errors():
    a = SparseMatrix.zeros(2, 3)
    b = SparseMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        _ = a @ b
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): Fraction(1)})


def test_inverse_of_unimodular_is_exact():
    rng = random.Random(5)
    for n in range(1, 7):
        g = random_unimodular(rng, n)
        assert inverse(g) @ g == SparseMatrix.identity(n)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular"):
        inverse(SparseMatrix.from_dense([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="singular"):
        inverse(SparseMatrix.zeros(3, 3))


# -- the storage rule: int when integral, otherwise Fraction, never zero -----------

# ints, integral and proper Fractions, and explicit zeros of both types
entry_values = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(min_value=-9, max_value=9),
    rationals,
)


@st.composite
def entry_dicts(draw, max_dim=4, square=False):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_dim))
    keys = st.tuples(st.integers(min_value=0, max_value=rows - 1),
                     st.integers(min_value=0, max_value=cols - 1))
    return rows, cols, draw(st.dictionaries(keys, entry_values))


def assert_stored(values):
    for v in values:
        assert v != 0
        if Fraction(v).denominator == 1:
            assert type(v) is int
        else:
            assert type(v) is Fraction


def dense(m):
    return [[Fraction(m.entry(r, c)) for c in range(m.cols)]
            for r in range(m.rows)]


def dense_identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


@given(entry_dicts())
@settings(max_examples=150)
def test_constructor_applies_the_storage_rule(data):
    rows, cols, entries = data
    m = SparseMatrix(rows, cols, entries)
    assert_stored(m.entries.values())
    all_fraction = SparseMatrix(
        rows, cols, {k: Fraction(v) for k, v in entries.items()})
    assert m.to_entry_list() == all_fraction.to_entry_list()
    assert m == all_fraction
    assert_stored(vec_clean({c: v for (_r, c), v in entries.items()}).values())


@given(entry_dicts())
@settings(max_examples=80, deadline=None)
def test_rref_and_kernel_match_the_dense_oracle(data):
    m = SparseMatrix(*data)
    R, piv = rref(m)
    red, oracle_piv = dense_oracle.dense_rref(dense(m))
    assert_stored(R.entries.values())
    assert piv == tuple(oracle_piv) and dense(R) == red
    # the canonical kernel basis: one vector per free column, re-echelonized
    raw = []
    for f in range(m.cols):
        if f not in oracle_piv:
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            for i, p in enumerate(oracle_piv):
                v[p] = -red[i][f]
            raw.append(v)
    K = kernel_basis(m)
    assert_stored(K.entries.values())
    assert dense(K) == (dense_oracle.dense_rref(raw)[0] if raw else [])


@given(entry_dicts(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_the_dense_oracle(data, draw):
    rows, cols, entries = data
    a = SparseMatrix(rows, cols, entries)
    _r, bcols, bentries = draw.draw(entry_dicts())
    b = SparseMatrix(rows, bcols, {(r % rows, c): v
                                   for (r, c), v in bentries.items()})
    aug = [ra + rb for ra, rb in zip(dense(a), dense(b))]
    red, piv = dense_oracle.dense_rref(aug)
    x = solve_matrix(a, b)
    if any(p >= cols for p in piv):
        assert x is None
        return
    expected = [[Fraction(0)] * bcols for _ in range(cols)]
    for i, p in enumerate(piv):
        expected[p] = red[i][cols:]
    assert_stored(x.entries.values())
    assert dense(x) == expected
    col = solve_vector(a, b.column(0))
    assert_stored(col.values())
    assert {r: v for (r, c), v in x.entries.items() if c == 0} == col


@given(entry_dicts(square=True))
@settings(max_examples=80, deadline=None)
def test_inverse_matches_the_dense_oracle(data):
    n, _, entries = data
    m = SparseMatrix(n, n, entries)
    red, piv = dense_oracle.dense_rref(
        [row + ident for row, ident in zip(dense(m), dense_identity(n))])
    if piv[:n] != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        return
    inv = inverse(m)
    assert_stored(inv.entries.values())
    assert dense(inv) == [row[n:] for row in red]
    assert_stored(m.apply(inv.column(0)).values())


# -- the column-indexed elimination core against the scan it replaced --------------


def reference_eliminate(rows, full):
    """The elimination core before the column index: every column scans every
    active row for a pivot, the shortest row, then the smallest bit size,
    then the lowest index, and clears it from every row (full=True) or from
    every active row, rebuilding each updated row over both supports."""
    n = len(rows)
    active = set(range(n))
    pivots = []
    sweep = sorted({c for r in rows for c in r})
    for col in sweep:
        best = None  # (length, bits, row)
        for i in active:
            v = rows[i].get(col)
            if v:
                key = (len(rows[i]), (-v if v < 0 else v).bit_length(), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        pi = best[2]
        active.discard(pi)
        prow = rows[pi]
        pval = prow[col]
        pivots.append((col, pi))
        targets = [j for j in range(n) if j != pi] if full else list(active)
        for i in targets:
            row = rows[i]
            coef = row.get(col)
            if not coef:
                continue
            new = {}
            for c in set(row) | set(prow):
                v = pval * row.get(c, 0) - coef * prow.get(c, 0)
                if v:
                    new[c] = v
            if new:
                g = 0
                for v in new.values():
                    g = math.gcd(g, v)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
            rows[i] = new
    return pivots


@st.composite
def sparse_int_rows(draw, max_rows=14, max_cols=18):
    """(cols, rows): sparse integer rows, some of them integer combinations of
    earlier rows (possibly perturbed), so that elimination both fills in and
    cancels entries, and leaves zero rows behind."""
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    entries = st.dictionaries(st.integers(min_value=0, max_value=cols - 1),
                              st.integers(min_value=-9, max_value=9).filter(bool),
                              max_size=5)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        if rows and draw(st.booleans()):
            acc = draw(entries) if draw(st.booleans()) else {}
            for j, a in draw(st.lists(
                    st.tuples(st.integers(min_value=0, max_value=len(rows) - 1),
                              st.integers(min_value=-3, max_value=3)),
                    min_size=1, max_size=3)):
                for c, v in rows[j].items():
                    acc[c] = acc.get(c, 0) + a * v
            rows.append({c: v for c, v in acc.items() if v})
        else:
            rows.append(draw(entries))
    return cols, rows


def dense_rows(rows, cols):
    return [[Fraction(r.get(c, 0)) for c in range(cols)] for r in rows]


@given(sparse_int_rows(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_eliminate_matches_the_reference_scan(data, full):
    _cols, rows = data
    got, expected = copy.deepcopy(rows), copy.deepcopy(rows)
    assert _eliminate(got, full) == reference_eliminate(expected, full)
    assert got == expected


@given(sparse_int_rows())
@settings(max_examples=150, deadline=None)
def test_rank_and_rref_match_the_dense_oracle_on_larger_rows(data):
    cols, rows = data
    m = SparseMatrix.from_rows(rows, cols)
    red, piv = dense_oracle.dense_rref(dense_rows(rows, cols))
    assert rank(m) == dense_oracle.dense_rank(dense_rows(rows, cols))
    R, got_piv = rref(m)
    assert got_piv == tuple(piv) and dense(R) == red


@given(st.one_of(sparse_int_rows().map(
    lambda data: SparseMatrix.from_rows(data[1], data[0])), matrices()))
@settings(max_examples=150, deadline=None)
def test_pivot_columns_are_the_rref_pivots(m):
    # a rank elimination clears pivots from the unchosen rows only, and
    # must still find RREF's pivot columns
    assert pivot_columns(m) == list(rref(m)[1])
    assert rank(m) == len(pivot_columns(m))


@pytest.mark.parametrize("rows, cols, pivots", [
    ([], 3, []),                                            # no rows
    ([{}, {}, {}], 3, []),                                  # all-zero rows
    ([{0: 2, 2: 1}, {}, {1: 3, 2: 1}], 3, [(0, 0), (1, 2)]),  # a zero row between
    # clearing column 0 from row 1 cancels its entry in column 1; row 1 must
    # not be offered as column 1's pivot, and column 2 is pivoted on row 1
    ([{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}], 3, [(0, 0), (2, 1)]),
    # column 0: row 0 has the 1-bit entry but three entries, row 1 the 2-bit
    # entry alone; the shortest row is the pivot, and clearing column 0 from
    # row 0 adds no entry to it
    ([{0: 1, 1: 1, 2: 1}, {0: 3}], 3, [(0, 1), (1, 0)]),
])
def test_eliminate_pinned_edge_cases(rows, cols, pivots):
    for full in (True, False):
        got, expected = copy.deepcopy(rows), copy.deepcopy(rows)
        assert _eliminate(got, full) == pivots == reference_eliminate(expected,
                                                                      full)
        assert got == expected
    m = SparseMatrix.from_rows(rows, cols)
    red, piv = dense_oracle.dense_rref(dense_rows(rows, cols))
    assert rank(m) == len(pivots) == len(piv)
    R, got_piv = rref(m)
    assert got_piv == tuple(piv) and dense(R) == red


# -- block assembly and selection against a dense assembly -----------------------


@st.composite
def shaped(draw, rows, cols, values=entry_values):
    return SparseMatrix(rows, cols, {
        (r, c): draw(values) for r in range(rows) for c in range(cols)
        if draw(st.booleans())})


@st.composite
def block_grids(draw):
    sizes = st.lists(st.integers(min_value=0, max_value=3), max_size=3)
    row_dims, col_dims = draw(sizes), draw(sizes)
    blocks = {(i, j): draw(shaped(rd, cd))
              for i, rd in enumerate(row_dims) for j, cd in enumerate(col_dims)
              if draw(st.booleans())}
    return row_dims, col_dims, blocks


def dense_block(row_dims, col_dims, blocks):
    out = [[Fraction(0)] * sum(col_dims) for _ in range(sum(row_dims))]
    r0 = 0
    for i, rd in enumerate(row_dims):
        c0 = 0
        for j, cd in enumerate(col_dims):
            if (i, j) in blocks:
                for r, row in enumerate(dense(blocks[(i, j)])):
                    out[r0 + r][c0:c0 + cd] = row
            c0 += cd
        r0 += rd
    return out


@given(block_grids())
@settings(max_examples=150)
def test_block_matches_a_dense_assembly(grid):
    row_dims, col_dims, blocks = grid
    m = SparseMatrix.block(row_dims, col_dims, blocks)
    assert (m.rows, m.cols) == (sum(row_dims), sum(col_dims))
    assert dense(m) == dense_block(row_dims, col_dims, blocks)
    assert_stored(m.entries.values())


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=4), st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=100)
def test_hstack_and_vstack_match_a_dense_assembly(sizes, other, draw):
    side = [draw.draw(shaped(other, s)) for s in sizes]
    h = SparseMatrix.hstack(side)
    assert (h.rows, h.cols) == (other, sum(sizes))
    assert dense(h) == [sum((dense(b)[r] for b in side), [])
                        for r in range(other)]
    tall = [b.transpose() for b in side]
    v = SparseMatrix.vstack(tall)
    assert (v.rows, v.cols) == (sum(sizes), other)
    assert dense(v) == sum((dense(b) for b in tall), [])


@given(matrices(), st.data())
@settings(max_examples=150)
def test_select_matches_dense_indexing(m, draw):
    rows = draw.draw(st.permutations(range(m.rows)))
    rows = rows[:draw.draw(st.integers(min_value=0, max_value=m.rows))]
    cols = draw.draw(st.permutations(range(m.cols)))
    cols = cols[:draw.draw(st.integers(min_value=0, max_value=m.cols))]
    s = m.select(rows, cols)
    full = dense(m)
    assert (s.rows, s.cols) == (len(rows), len(cols))
    assert dense(s) == [[full[r][c] for c in cols] for r in rows]
    assert m.select(range(m.rows), range(m.cols)) == m


def test_block_assembly_rejects_bad_shapes_and_indices():
    two = SparseMatrix.identity(2)
    with pytest.raises(ValueError):
        SparseMatrix.block([2, 1], [2], {(1, 0): two})
    with pytest.raises(ValueError):
        SparseMatrix.block([2], [2], {(0, 1): two})
    with pytest.raises(ValueError):
        SparseMatrix.block([2], [2], {(-1, 0): two})
    with pytest.raises(ValueError):
        SparseMatrix.block([0], [0], {(0, 0): SparseMatrix.zeros(0, 1)})
    with pytest.raises(ValueError):
        SparseMatrix.hstack([two, SparseMatrix.zeros(3, 1)])
    with pytest.raises(ValueError):
        SparseMatrix.vstack([two, SparseMatrix.zeros(1, 3)])
    with pytest.raises(ValueError):
        SparseMatrix.hstack([])
    with pytest.raises(ValueError):
        two.select([0, 0], [1])
    with pytest.raises(ValueError):
        two.select([0], [2])
    with pytest.raises(ValueError):
        two.select([-1], [0])
    assert SparseMatrix.block([], [], {}) == SparseMatrix.zeros(0, 0)
    assert SparseMatrix.block([0, 2], [3, 0], {}) == SparseMatrix.zeros(2, 3)
    assert two.select([], [1, 0]) == SparseMatrix.zeros(0, 2)


# -- signed-orbit quotients ----------------------------------------------------


def signed_permutation(images, signs) -> SparseMatrix:
    """The matrix sending e_j to signs[j] * e_images[j]."""
    n = len(images)
    return SparseMatrix(n, n, {(i, j): s for j, (i, s)
                               in enumerate(zip(images, signs))})


def relation_quotient(dim, gens):
    """The elimination path: the quotient by the span of the columns of
    1 - g, g in gens."""
    return quotient_structure(Subspace.from_matrix_rows(SparseMatrix.vstack(
        [(SparseMatrix.identity(dim) - g).transpose() for g in gens])))


def assert_same_quotient(got, expected):
    # == compares the subspace's basis, the projection and the section
    assert got == expected
    assert got.subspace.pivots == expected.subspace.pivots


@st.composite
def signed_permutations(draw):
    dim = draw(st.integers(min_value=0, max_value=12))
    gens = [signed_permutation(draw(st.permutations(range(dim))),
                               draw(st.lists(st.sampled_from([1, -1]),
                                             min_size=dim, max_size=dim)))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return dim, gens


@given(signed_permutations())
@settings(max_examples=150)
def test_signed_orbit_quotient_is_the_quotient_of_its_relation_span(case):
    dim, gens = case
    assert_same_quotient(signed_orbit_quotient(dim, gens),
                         relation_quotient(dim, gens))


@pytest.mark.parametrize("images,signs,dim_q", [
    # e_0 <-> e_1 with one sign: g^2 = -1 on the orbit, which dies
    ((1, 0, 2), (1, -1, 1), 1),
    # a fixed point negated dies; a 3-cycle with sign product 1 survives
    ((0, 2, 3, 1), (-1, -1, -1, 1), 1),
    # a 3-cycle with sign product -1 dies
    ((1, 2, 0), (1, 1, -1), 0),
    ((1, 2, 0), (-1, -1, 1), 1),
], ids=["swap", "fixed-and-cycle", "odd-cycle", "even-cycle"])
def test_signed_orbit_quotient_zeroes_orbits_whose_signs_disagree(
        images, signs, dim_q):
    g = signed_permutation(images, signs)
    q = signed_orbit_quotient(len(images), [g])
    assert q.dim == dim_q
    assert_same_quotient(q, relation_quotient(len(images), [g]))


# -- the kernel's own results follow the storage rule without re-validation --------

# few distinct magnitudes, so sums cancel and Fraction products turn integral
settling_values = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(Fraction, st.integers(min_value=-2, max_value=2),
              st.integers(min_value=1, max_value=2)),
)


def assert_settled(m):
    """m is what the validating constructor makes of its own entries, and
    every stored value is a nonzero int or a Fraction that is not one."""
    assert m == SparseMatrix(m.rows, m.cols, dict(m.entries))
    assert_settled_values(m.entries.values())


def assert_settled_values(values):
    for v in values:
        assert (type(v) is int and v != 0) or \
            (type(v) is Fraction and v.denominator > 1), v


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_results_follow_the_storage_rule(data):
    draw = data.draw
    r, k, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a, b = (draw(shaped(r, k, settling_values)) for _ in range(2))
    m = draw(shaped(k, c, settling_values))
    rows = draw(st.permutations(range(r)))[:draw(
        st.integers(min_value=0, max_value=r))]
    cols = draw(st.permutations(range(k)))[:draw(
        st.integers(min_value=0, max_value=k))]
    results = [
        a.transpose(), -a, a.select(rows, cols),
        SparseMatrix.block([r, k], [k, r], {(0, 0): a, (1, 1): b.transpose()}),
        SparseMatrix.hstack([a, b]), SparseMatrix.vstack([a, b]),
        a + b, a - b, a + (b - a), a @ m, (a - b) @ m,
        a.scale(draw(settling_values)), a.scale(Fraction(2, 3)),
        a.kron(m), rref(a)[0],
    ]
    for res in results:
        assert_settled(res)
    assert a + (b - a) == b
    vec = draw(st.dictionaries(st.sampled_from(range(k)),
                               settling_values)) if k else {}
    assert_settled_values(a.apply(vec).values())


def reference_rref(m: SparseMatrix):
    """`rref` as it was built before: every entry a Fraction(v, pv), settled
    by the validating constructor."""
    rows = _scaled_int_rows(m)
    pivots = sorted(_eliminate(rows, full=True))
    entries = {(out_i, c): Fraction(v, rows[ri][pc])
               for out_i, (pc, ri) in enumerate(pivots)
               for c, v in rows[ri].items()}
    return (SparseMatrix(len(pivots), m.cols, entries),
            tuple(pc for pc, _ in pivots))


@given(st.one_of(matrices(max_dim=6), st.builds(
    lambda rows, cols, vals: SparseMatrix(rows, cols, {
        (i % rows, i // rows % cols): v for i, v in enumerate(vals)}),
    st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=-40, max_value=40), max_size=36))))
@settings(max_examples=200, deadline=None)
def test_rref_stores_its_quotients_by_the_rule(m):
    # integral quotients v // pv come out as ints, the rest as Fractions,
    # and the matrix equals the one the validating constructor settled
    R, piv = rref(m)
    assert_settled(R)
    assert (R, piv) == reference_rref(m)


def test_kernel_results_drop_cancelled_and_integral_entries():
    a = SparseMatrix(2, 2, {(0, 0): 3, (0, 1): Fraction(1, 2),
                            (1, 1): Fraction(-5, 3)})
    assert (a + (-a)).entries == {}
    assert (a - a).entries == {}
    two = SparseMatrix(1, 1, {(0, 0): 2})
    half = SparseMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    for one in (two.scale(Fraction(1, 2)), half + half, two @ half,
                two.kron(half)):
        assert one.entries == {(0, 0): 1}
        assert type(one.entries[(0, 0)]) is int


def test_only_exactlin_builds_matrices_without_validation():
    # `_from_stored` trusts its entries, so no module outside the kernel may
    # hand it any
    package = Path(__file__).resolve().parents[1] / "src" / "exacthom"
    users = sorted(p.name for p in package.glob("*.py")
                   if "_from_stored" in p.read_text(encoding="utf-8"))
    assert users == ["exactlin.py"]
