"""Exterior-power Lie homology: complexes, actions, coinvariants."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exacthom.exactlin import (ResourceGuardError, SparseMatrix, Subspace, Vec,
                               quotient_structure, random_unimodular,
                               vec_clean)
from exacthom.complexes import (
    ChainComplex,
    ChainMap,
    betti_numbers,
    homology,
    verify_chain_map,
    verify_complex,
    quasi_iso_degrees,
)
from exacthom.assoc_homology import (cyclic_group_algebra, direct_sum,
                                     dual_numbers, field_q,
                                     left_unital_two_dim, matrix_algebra,
                                     truncated_polynomials,
                                     zero_multiplication)
from exacthom.lie_homology import (
    ExteriorBasis,
    LieAxiomError,
    LieModuleAction,
    StructureConstantLieAlgebra,
    abelian_lie_algebra,
    ce_complex,
    ce_complex_on,
    change_of_basis_lie,
    coinvariant_reduction,
    gl_index,
    gl_n_of,
    gln_action_on_chains,
    gln_coinvariant_complex,
    guard_exterior_powers,
    homotopy_identity_check,
    lie_algebra_from_json,
    lie_algebra_to_json,
    scalar_matrix_generator_action,
    sl2_q,
    wedge_derivation_matrix,
    wedge_insert,
    wedge_sort,
)
from exacthom import lie_homology
from exacthom.lqt import weight_zero_tuples

import random
from typing import Callable, Dict, Optional, Sequence, Tuple


GL2_BETTI = [1, 1, 0, 1, 1]
SL2_BETTI = [1, 0, 0, 1]

seeds = st.integers(min_value=0, max_value=10_000)


def frac(x) -> Fraction:
    return Fraction(x)


# -- structure constant validation ---------------------------------------------


def test_antisymmetry_violation_is_rejected():
    with pytest.raises(LieAxiomError, match=r"\(0,1\)"):
        StructureConstantLieAlgebra(2, {(0, 1): {0: frac(1)}})


def test_self_bracket_violation_is_rejected():
    with pytest.raises(LieAxiomError, match="basis element 0"):
        StructureConstantLieAlgebra(2, {(0, 0): {1: frac(1)}})


def test_jacobi_violation_is_rejected():
    # [x0,x1] = x1, [x0,x2] = x2, [x1,x2] = x0 fails Jacobi on (0,1,2)
    bracket = {
        (0, 1): {1: frac(1)}, (1, 0): {1: frac(-1)},
        (0, 2): {2: frac(1)}, (2, 0): {2: frac(-1)},
        (1, 2): {0: frac(1)}, (2, 1): {0: frac(-1)},
    }
    with pytest.raises(LieAxiomError, match=r"\(0,1,2\)"):
        StructureConstantLieAlgebra(3, bracket)


def test_sl2_constants():
    g = sl2_q()
    assert g.basis_bracket(0, 1) == {1: frac(2)}
    assert g.basis_bracket(0, 2) == {2: frac(-2)}
    assert g.basis_bracket(1, 2) == {0: frac(1)}
    assert g.bracket_vec({1: frac(1)}, {2: frac(3)}) == {0: frac(3)}


def test_gl_n_of_dims_and_elementary_bracket():
    assert gl_n_of(field_q(), 2).dim == 4
    assert gl_n_of(dual_numbers(), 2).dim == 8
    g = gl_n_of(field_q(), 2)
    # [e11, e12] = e12 with flat indices e11 = 0, e12 = 1
    assert g.basis_bracket(0, 1) == {1: frac(1)}
    # gl_1 of a commutative algebra is abelian
    assert gl_n_of(field_q(), 1).bracket == {}
    assert gl_n_of(dual_numbers(), 1).bracket == {}


def test_gl_index_layout():
    assert gl_index(2, 2, 1, 0, 1) == (1 * 2 + 0) * 2 + 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("algebra", [
    pytest.param(field_q, id="field_q"),
    pytest.param(dual_numbers, id="dual_numbers"),
    pytest.param(lambda: truncated_polynomials(3),
                 id="truncated_polynomials3"),
    pytest.param(left_unital_two_dim, id="left_unital_two_dim"),
    pytest.param(lambda: zero_multiplication(3), id="zero_multiplication3"),
])
def test_the_validating_constructor_accepts_gl_n_of(algebra, n):
    # `gl_n_of` skips the antisymmetry and Jacobi walk; its bracket must
    # pass that walk all the same
    g = gl_n_of(algebra(), n)
    assert StructureConstantLieAlgebra(g.dim, g.bracket, g.names) == g


# -- serialization --------------------------------------------------------------


def test_lie_json_round_trip():
    g = sl2_q()
    obj = lie_algebra_to_json(g)
    back = lie_algebra_from_json(obj)
    assert back.dim == g.dim
    assert back.bracket == g.bracket
    assert obj["basis"] == ["h", "e", "f"]


def test_lie_json_stores_int_constants_and_drops_zeros():
    # an abelian algebra written with an explicit zero entry
    g = lie_algebra_from_json({"dim": 2, "bracket": [[0, 0, 1, 0, 1]]})
    assert g.bracket == {}
    back = lie_algebra_from_json(lie_algebra_to_json(sl2_q()))
    assert back.bracket == sl2_q().bracket
    assert all(type(v) is int
               for row in back.bracket.values() for v in row.values())


def test_lie_json_mirrors_rows_without_their_mirror():
    # [e0, e1] = e1 given once stands for [e1, e0] = -e1 too
    g = lie_algebra_from_json({"dim": 2, "bracket": [[0, 1, 1, 1, 1]]})
    assert g.bracket == {(0, 1): {1: 1}, (1, 0): {1: -1}}
    # both rows given: they are checked, not overwritten
    with pytest.raises(LieAxiomError, match="antisymmetry"):
        lie_algebra_from_json({"dim": 2, "bracket": [[0, 1, 1, 1, 1],
                                                      [1, 0, 1, 1, 1]]})


# -- exterior basis -------------------------------------------------------------


def test_exterior_basis_and_insertion_signs():
    b = ExteriorBasis(4, 2)
    assert len(b) == 6
    assert b.tuples[0] == (0, 1)
    assert b.index[(2, 3)] == 5
    assert wedge_sort((2, 1, 3)) == (-1, (1, 2, 3))
    assert wedge_sort((0, 1, 3)) == (1, (0, 1, 3))
    assert wedge_sort((4, 1, 3)) == (1, (1, 3, 4))
    assert wedge_sort((3, 1, 3)) is None
    assert wedge_sort(()) == (1, ())


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=8))
@settings(max_examples=200)
def test_wedge_sort_is_the_inversion_sign(legs):
    res = wedge_sort(legs)
    if len(set(legs)) < len(legs):
        assert res is None
        return
    inversions = sum(1 for i in range(len(legs))
                     for j in range(i + 1, len(legs)) if legs[i] > legs[j])
    assert res == ((-1) ** inversions, tuple(sorted(legs)))


# -- the parent's sign rule and builders, kept as references -------------------


def reference_insert_with_sign(t: Tuple[int, ...], x: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Sorted insertion of x into the increasing tuple t with the sign of the
    shuffle (None when x already occurs)."""
    pos = 0
    for y in t:
        if y == x:
            return None
        if y < x:
            pos += 1
    sign = -1 if pos % 2 else 1
    return sign, t[:pos] + (x,) + t[pos:]


def reference_ce_complex_on(g: StructureConstantLieAlgebra,
                            bases: Sequence[ExteriorBasis]) -> ChainComplex:
    """The boundary of `ce_complex` on bases[k] in degree k, for bases that
    span a subcomplex (each boundary of a bases[k] tuple lies in the span of
    bases[k - 1]), such as one Cartan weight of gl_n(A). Truncated when the
    top degree is below dim(g)."""
    max_degree = len(bases) - 1
    dims = tuple(len(b) for b in bases)
    diffs: Dict[int, SparseMatrix] = {}
    for k in range(2, max_degree + 1):
        src, tgt = bases[k], bases[k - 1]
        entries: Dict[Tuple[int, int], Fraction] = {}
        for ci, t in enumerate(src.tuples):
            for ii in range(k):
                for jj in range(ii + 1, k):
                    # 1-based sign (-1)^(i+j-1): + for the first pair (1,2)
                    pair_sign = 1 if (ii + jj) % 2 else -1
                    rest = tuple(x for p, x in enumerate(t)
                                 if p != ii and p != jj)
                    for x, coef in g.basis_bracket(t[ii], t[jj]).items():
                        ins = reference_insert_with_sign(rest, x)
                        if ins is None:
                            continue
                        s, newt = ins
                        key = (tgt.index[newt], ci)
                        entries[key] = (entries.get(key, 0)
                                        + pair_sign * s * coef)
        diffs[k] = SparseMatrix(len(tgt), len(src), entries)
    if max_degree >= 1:
        diffs[1] = SparseMatrix.zeros(dims[0], dims[1])
    return ChainComplex(dims, diffs, truncated=max_degree < g.dim)


def reference_ce_complex(g: StructureConstantLieAlgebra,
                         max_degree: int) -> ChainComplex:
    guard_exterior_powers(g.dim, range(max_degree + 1))
    return reference_ce_complex_on(g, [ExteriorBasis(g.dim, k)
                                       for k in range(max_degree + 1)])


def reference_wedge_derivation_matrix(k_basis: ExteriorBasis,
                                      act: Callable[[int], Vec]
                                      ) -> SparseMatrix:
    """Extend a linear action on generators (index -> image Vec) to the
    exterior power as a derivation."""
    size = len(k_basis)
    entries: Dict[Tuple[int, int], Fraction] = {}
    for ci, t in enumerate(k_basis.tuples):
        for pos in range(len(t)):
            rest = t[:pos] + t[pos + 1:]
            for y, coef in act(t[pos]).items():
                ins = reference_insert_with_sign(rest, y)
                if ins is None:
                    continue
                s, newt = ins
                # moving the image from slot pos to the front costs (-1)^pos
                key = (k_basis.index[newt], ci)
                entries[key] = (entries.get(key, 0)
                                + coef * (-1 if pos % 2 else 1) * s)
    return SparseMatrix(size, size, entries)


def reference_adjoint_generator_action(g: StructureConstantLieAlgebra,
                                       x: int) -> Callable[[int], Vec]:
    return lambda i: g.basis_bracket(x, i)


@given(st.lists(st.integers(min_value=0, max_value=9), unique=True,
                max_size=7).map(sorted), st.integers(min_value=0, max_value=9))
@settings(max_examples=200)
def test_wedge_sort_of_a_front_generator_is_the_insertion_sign(t, x):
    assert wedge_sort((x,) + tuple(t)) == \
        reference_insert_with_sign(tuple(t), x)


@given(st.lists(st.integers(min_value=0, max_value=9), unique=True,
                max_size=7).map(sorted), st.data())
@settings(max_examples=200)
def test_wedge_insert_is_the_reference_insertion(t, data):
    # x is drawn from t itself half the time, so repeats are always covered
    t = tuple(t)
    x = data.draw(st.sampled_from(t) if t and data.draw(st.booleans())
                  else st.integers(min_value=0, max_value=9))
    assert wedge_insert(t, x) == reference_insert_with_sign(t, x) == \
        wedge_sort((x,) + t)


# gl_2(A) of every algebra here, dim(gl_2(A)) <= 16, keeps its reference CE
# complexes through LIE_REFERENCE_DEGREE small
LIE_REFERENCE_DEGREE = 3
LIE_ZOO = [
    field_q(), dual_numbers(), truncated_polynomials(3), matrix_algebra(2),
    cyclic_group_algebra(3), direct_sum(field_q(), dual_numbers()),
    zero_multiplication(3), left_unital_two_dim()]
lie_zoo = st.sampled_from(LIE_ZOO).map(lambda a: gl_n_of(a, 2))
lie_algebras = st.one_of(st.just(sl2_q()), lie_zoo)


def conjugated(g: StructureConstantLieAlgebra, seed: int
               ) -> StructureConstantLieAlgebra:
    return change_of_basis_lie(g, random_unimodular(random.Random(seed),
                                                    g.dim))


def assert_builders_match_the_references(g, bases):
    assert ce_complex_on(g, bases) == reference_ce_complex_on(g, bases)
    for b in bases:
        for x in range(g.dim):
            act = reference_adjoint_generator_action(g, x)
            assert wedge_derivation_matrix(b, act) == \
                reference_wedge_derivation_matrix(b, act)


@given(lie_algebras)
@settings(max_examples=12, deadline=None)
def test_builders_match_the_references(g):
    top = min(g.dim, LIE_REFERENCE_DEGREE)
    assert_builders_match_the_references(
        g, [ExteriorBasis(g.dim, k) for k in range(top + 1)])
    assert ce_complex(g, top) == reference_ce_complex(g, top)


@given(lie_algebras, seeds)
@settings(max_examples=12, deadline=None)
def test_builders_match_the_references_after_a_change_of_basis(g, seed):
    g = conjugated(g, seed)
    top = min(g.dim, LIE_REFERENCE_DEGREE)
    assert_builders_match_the_references(
        g, [ExteriorBasis(g.dim, k) for k in range(top + 1)])


@given(st.sampled_from(LIE_ZOO), st.integers(min_value=2, max_value=3))
@settings(max_examples=12, deadline=None)
def test_builders_match_the_references_on_weight_zero_tuples(a, n):
    g = gl_n_of(a, n)
    bases = [ExteriorBasis(g.dim, k, weight_zero_tuples(n, a.dim, k))
             for k in range(min(4 if a.dim == 1 else 3, g.dim) + 1)]
    assert ce_complex_on(g, bases) == reference_ce_complex_on(g, bases)
    # ad of a weight-0 generator keeps the weight-0 block
    for b in bases:
        for (x,) in weight_zero_tuples(n, a.dim, 1):
            act = reference_adjoint_generator_action(g, x)
            assert wedge_derivation_matrix(b, act) == \
                reference_wedge_derivation_matrix(b, act)


# -- the per-triple axiom walk through copied brackets, kept as a reference ------


def reference_lie_axiom_message(dim: int, bracket) -> Optional[str]:
    """The antisymmetry and Jacobi walk of the validating constructor, through
    copied basis brackets and cleaned bracket vectors: the message of the
    first failing pair or triple, or None."""
    def basis_bracket(i, j):
        return dict(bracket.get((i, j), {}))

    def bracket_vec(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                coef = a * b
                if not coef:
                    continue
                for k, c in bracket.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + coef * c
        return vec_clean(out)

    for i in range(dim):
        if basis_bracket(i, i):
            return f"[x,x] != 0 on basis element {i}"
        for j in range(i + 1, dim):
            lhs = basis_bracket(i, j)
            rhs = {k: -c for k, c in basis_bracket(j, i).items()}
            if lhs != rhs:
                return f"antisymmetry fails on basis pair ({i},{j})"
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    term = bracket_vec({a: 1}, basis_bracket(b, c))
                    for t, x in term.items():
                        acc[t] = acc.get(t, 0) + x
                if any(acc.values()):
                    return f"Jacobi fails on basis triple ({i},{j},{k})"
    return None


@st.composite
def corrupted_brackets(draw):
    """The bracket of sl_2 or of a gl_2(A) with one to three constants
    overwritten (zero included): on a diagonal pair one time in eight, and
    otherwise mirrored as -c three times in four, so that antisymmetry holds
    and the Jacobi walk is reached."""
    g = draw(lie_algebras)
    bracket = {key: dict(v) for key, v in g.bracket.items()}
    index = st.integers(min_value=0, max_value=g.dim - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i, t = draw(index), draw(index)
        diagonal = draw(st.integers(min_value=0, max_value=7)) == 0
        j = i if diagonal else draw(index.filter(lambda j: j != i))
        c = Fraction(draw(st.integers(min_value=-2, max_value=2)),
                     draw(st.integers(min_value=1, max_value=3)))
        bracket.setdefault((i, j), {})[t] = c
        if i != j and draw(st.integers(min_value=0, max_value=3)):
            bracket.setdefault((j, i), {})[t] = -c
    return g.dim, bracket


@given(corrupted_brackets())
@settings(max_examples=100, deadline=None)
def test_axiom_walk_raises_the_reference_message(case):
    dim, bracket = case
    expected = reference_lie_axiom_message(dim, bracket)
    if expected is None:
        assert StructureConstantLieAlgebra(dim, bracket).bracket == bracket
        return
    with pytest.raises(LieAxiomError) as err:
        StructureConstantLieAlgebra(dim, bracket)
    assert str(err.value) == expected


# -- the exterior complex --------------------------------------------------------


def test_abelian_complex_is_zero_differential():
    cx = ce_complex(abelian_lie_algebra(2), 2)
    assert cx.dims == (1, 2, 1)
    assert not cx.truncated
    assert all(m.is_zero() for m in cx.differentials.values())
    assert betti_numbers(cx) == [1, 2, 1]


def test_degree_two_boundary_is_the_bracket():
    cx = ce_complex(sl2_q(), 2)
    # d(h ^ e) = [h, e] = 2e
    col = cx.d(2).column(0)
    assert col == {1: frac(2)}


@pytest.mark.parametrize("g,deg", [
    (sl2_q(), 3),
    (gl_n_of(field_q(), 2), 4),
    (gl_n_of(dual_numbers(), 2), 3),
    (abelian_lie_algebra(3), 4),
])
def test_differential_squares_to_zero(g, deg):
    assert verify_complex(ce_complex(g, deg))["ok"]


def test_pinned_gl2_betti():
    cx = ce_complex(gl_n_of(field_q(), 2), 4)
    assert not cx.truncated
    h = homology(cx)
    assert list(h.betti) == GL2_BETTI
    assert all(f == "exact" for f in h.flags)


def test_pinned_sl2_betti():
    cx = ce_complex(sl2_q(), 3)
    assert not cx.truncated
    assert betti_numbers(cx) == SL2_BETTI


@pytest.mark.parametrize("g", [
    abelian_lie_algebra(1), abelian_lie_algebra(4), sl2_q(),
    gl_n_of(field_q(), 2),
])
def test_euler_characteristic_vanishes(g):
    cx = ce_complex(g, g.dim + 1)
    chi_dims = sum((-1) ** k * d for k, d in enumerate(cx.dims))
    chi_betti = sum((-1) ** k * b for k, b in enumerate(betti_numbers(cx)))
    assert chi_dims == 0
    assert chi_betti == 0


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_conjugated_sl2_keeps_homology(seed):
    rng = random.Random(seed)
    p = random_unimodular(rng, 3)
    g = change_of_basis_lie(sl2_q(), p)
    cx = ce_complex(g, 3)
    assert verify_complex(cx)["ok"]
    assert betti_numbers(cx) == SL2_BETTI


def test_singular_change_of_basis_is_rejected():
    p = SparseMatrix.from_dense([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="singular"):
        change_of_basis_lie(sl2_q(), p)


# -- actions ---------------------------------------------------------------------


def test_identity_matrix_acts_trivially():
    act = gln_action_on_chains(field_q(), 2, 1)
    # scalar identity = e11 + e22 at acting indices 0 and 3
    m = act.of_vec({0: frac(1), 3: frac(1)})
    assert m.is_zero()


def test_elementary_action_on_generator():
    act = gln_action_on_chains(field_q(), 2, 1)
    # [e12, e21] = e11 - e22; flat gl_2 indices: e11=0, e12=1, e21=2, e22=3
    col = act.matrices[1].column(2)
    assert col == {0: frac(1), 3: frac(-1)}


def test_action_is_a_derivation_on_wedges():
    act = gln_action_on_chains(field_q(), 2, 2)
    basis = ExteriorBasis(4, 2)
    # X = e12 on e21 ^ e22: (e11 - e22) ^ e22 + e21 ^ e12
    col = act.matrices[1].column(basis.index[(2, 3)])
    assert col == {basis.index[(0, 3)]: frac(1), basis.index[(1, 2)]: frac(-1)}


def test_broken_action_is_rejected():
    good = gln_action_on_chains(field_q(), 2, 1)
    bad = list(good.matrices)
    bad[1] = bad[1].scale(frac(-1))
    with pytest.raises(LieAxiomError, match="representation identity"):
        LieModuleAction(good.algebra, good.module_dim, tuple(bad))


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in (0, 1, 2, 3)])
@pytest.mark.parametrize("alg", [field_q(), dual_numbers(),
                                 left_unital_two_dim()],
                         ids=["Q", "dual", "left_unital"])
def test_validating_constructor_accepts_every_wedge_power_action(alg, n, k):
    # the wedge power is built unchecked; the all-pairs check agrees
    act = gln_action_on_chains(alg, n, k)
    checked = LieModuleAction(act.algebra, act.module_dim, act.matrices)
    assert checked == act
    assert act.module_dim == len(ExteriorBasis(n * n * alg.dim, k))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_broken_generator_action_is_rejected_at_every_degree(
        monkeypatch, k):
    def flipped(n, a_dim, r, s):
        act = scalar_matrix_generator_action(n, a_dim, r, s)
        if (r, s) != (0, 1):
            return act
        return lambda idx: {y: -c for y, c in act(idx).items()}
    monkeypatch.setattr(lie_homology, "scalar_matrix_generator_action",
                        flipped)
    with pytest.raises(LieAxiomError, match="representation identity"):
        gln_action_on_chains(dual_numbers(), 2, k)


def test_only_lie_homology_builds_actions_without_validation():
    # `_unchecked` trusts the fields it is given, so only the module that
    # builds them valid by construction may call it
    package = Path(__file__).resolve().parents[1] / "src" / "exacthom"
    users = sorted(p.name for p in package.glob("*.py")
                   if "_unchecked" in p.read_text(encoding="utf-8"))
    assert users == ["lie_homology.py"]


def test_only_gl_n_of_builds_lie_algebras_without_validation():
    # `_unchecked` has two callers: `gl_n_of`, whose commutator bracket is a
    # Lie bracket, and `gln_action_on_chains`, whose derivation extension of
    # a checked action is a representation
    source = (Path(__file__).resolve().parents[1] / "src" / "exacthom"
              / "lie_homology.py").read_text(encoding="utf-8")
    calls = sorted(
        (fn.name, call.args[0].id)
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", None) == "_unchecked")
    assert calls == [("gl_n_of", "StructureConstantLieAlgebra"),
                     ("gln_action_on_chains", "LieModuleAction")]
    assert source.count("_unchecked(") == 3


# -- coinvariants ----------------------------------------------------------------


def _trivial_action(dim: int) -> LieModuleAction:
    g = abelian_lie_algebra(1)
    return LieModuleAction(g, dim, (SparseMatrix.zeros(dim, dim),))


def test_trivial_action_gives_identity_quotient():
    cx = ce_complex(abelian_lie_algebra(2), 2)
    qcx, proj, _ = coinvariant_reduction(
        cx, [_trivial_action(d) for d in cx.dims])
    assert qcx.dims == cx.dims
    for k in range(3):
        assert proj.component(k) == SparseMatrix.identity(cx.dims[k])


def test_gl2_coinvariants_degree_one_is_abelianization():
    qcx, _ = gln_coinvariant_complex(field_q(), 2, 2)
    # gl_2 / [gl_2, gl_2] = gl_2 / sl_2 is one-dimensional
    assert qcx.dims[1] == 1


def test_gl2_coinvariant_projection_is_quasi_iso():
    qcx, proj = gln_coinvariant_complex(field_q(), 2, 4)
    assert verify_complex(qcx)["ok"]
    assert verify_chain_map(proj)["ok"]
    assert betti_numbers(qcx) == GL2_BETTI
    degs = quasi_iso_degrees(proj)
    assert all(degs[n] for n in range(5))


def test_nonunital_coinvariant_complex_builds():
    qcx, proj = gln_coinvariant_complex(left_unital_two_dim(), 2, 2)
    assert verify_complex(qcx)["ok"]
    assert verify_chain_map(proj)["ok"]
    assert qcx.truncated


def reference_coinvariant_reduction(cx, actions):
    """coinvariant_reduction as it was before `quotient_complex`: the
    action images gathered column by column, and its own boundary loop."""
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
    quots = []
    for k in range(cx.max_degree + 1):
        vectors = []
        for m in actions[k].matrices:
            cols = {}
            for (r, c), v in m.entries.items():
                cols.setdefault(c, {})[r] = v
            vectors.extend(cols.values())
        sub = Subspace.from_vectors(cx.dims[k], vectors)
        quots.append(quotient_structure(sub))
    diffs = {}
    for k in range(1, cx.max_degree + 1):
        diffs[k] = quots[k - 1].projection @ cx.d(k) @ quots[k].section
    qcx = ChainComplex(tuple(q.dim for q in quots), diffs,
                       truncated=cx.truncated)
    proj = ChainMap(cx, qcx, {k: quots[k].projection
                              for k in range(cx.max_degree + 1)})
    return qcx, proj, quots


@pytest.mark.parametrize("alg,max_degree", [
    (field_q(), 4), (dual_numbers(), 3), (left_unital_two_dim(), 2),
], ids=["gl2-Q", "gl2-dual", "gl2-left-unital"])
def test_coinvariant_reduction_matches_the_reference(alg, max_degree):
    cx = ce_complex(gl_n_of(alg, 2), max_degree)
    actions = [gln_action_on_chains(alg, 2, k) for k in range(max_degree + 1)]
    ref = reference_coinvariant_reduction(cx, actions)
    assert coinvariant_reduction(cx, actions) == ref
    # the complex that `homology gl` reads
    assert gln_coinvariant_complex(alg, 2, max_degree)[0] == ref[0]


def test_action_dim_mismatch_is_rejected():
    cx = ce_complex(abelian_lie_algebra(2), 2)
    with pytest.raises(ValueError, match="wrong module dim"):
        coinvariant_reduction(cx, [_trivial_action(d + 1) for d in cx.dims])


# -- the wedge homotopy identity -------------------------------------------------


def test_homotopy_identity_sl2_exhaustive():
    rep = homotopy_identity_check(sl2_q(), 3)
    assert rep["verdict"] == "pass"
    # pairs: dim * (C(3,0)+C(3,1)+C(3,2)) = 3 * 7
    assert rep["pairs_checked"] == 21


def test_homotopy_identity_gl2():
    rep = homotopy_identity_check(gl_n_of(field_q(), 2), 4)
    assert rep["verdict"] == "pass"
    assert rep["pairs_checked"] == 4 * (1 + 4 + 6 + 4)


def reference_homotopy_identity_check(g: StructureConstantLieAlgebra,
                                      max_degree: int, seed: int = 0,
                                      budget: int = 10_000) -> dict:
    """homotopy_identity_check as it was before it compared whole
    matrices: one generator/wedge pair at a time, sampled past a budget."""
    cx = reference_ce_complex(g, max_degree)
    bases = [ExteriorBasis(g.dim, k) for k in range(max_degree + 1)]
    pairs = [(x, k, ti)
             for k in range(0, max_degree)
             for ti in range(len(bases[k]))
             for x in range(g.dim)]
    exhaustive = len(pairs) <= budget
    if not exhaustive:
        rng = random.Random(seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(budget)]
    derivations: Dict[Tuple[int, int], SparseMatrix] = {}
    checked = 0
    for x, k, ti in pairs:
        t = bases[k].tuples[ti]
        # ad_X extended as a derivation
        if (x, k) not in derivations:
            derivations[(x, k)] = reference_wedge_derivation_matrix(
                bases[k], reference_adjoint_generator_action(g, x))
        lhs = derivations[(x, k)].column(ti)
        # d(X ^ c)
        rhs: Vec = {}
        ins = reference_insert_with_sign(t, x)
        if ins is not None:
            s, wedge = ins
            col = cx.d(k + 1).column(bases[k + 1].index[wedge])
            rhs = {i: s * v for i, v in col.items()}
        # + X ^ d(c)
        if k >= 1:
            for i, v in cx.d(k).column(ti).items():
                ins2 = reference_insert_with_sign(bases[k - 1].tuples[i], x)
                if ins2 is None:
                    continue
                s2, wedge2 = ins2
                key = bases[k].index[wedge2]
                rhs[key] = rhs.get(key, 0) + s2 * v
        if lhs != vec_clean(rhs):
            return {"check": "wedge_homotopy_identity", "verdict": "fail",
                    "witness": {"generator": x, "degree": k, "tuple": list(t)},
                    "exhaustive": exhaustive, "seed": seed}
        checked += 1
    return {"check": "wedge_homotopy_identity", "verdict": "pass",
            "pairs_checked": checked, "exhaustive": exhaustive, "seed": seed}


def _without_sampling_keys(report: dict) -> dict:
    assert report["exhaustive"]
    return {k: v for k, v in report.items() if k not in ("exhaustive", "seed")}


@pytest.mark.parametrize("build,max_degree", [
    (sl2_q, 3), (lambda: gl_n_of(field_q(), 2), 4),
    (lambda: gl_n_of(dual_numbers(), 2), 3),
    (lambda: gl_n_of(left_unital_two_dim(), 2), 3),
    (lambda: abelian_lie_algebra(3), 3), (sl2_q, 0),
], ids=["sl2", "gl2", "gl2-dual", "gl2-left-unital", "abelian3",
        "sl2-degree0"])
def test_homotopy_identity_matches_the_pairwise_reference(build, max_degree):
    assert homotopy_identity_check(build(), max_degree) == \
        _without_sampling_keys(
            reference_homotopy_identity_check(build(), max_degree))


@pytest.mark.parametrize("degree,entry", [(2, (0, 0)), (2, (3, 5)),
                                          (3, (1, 2)), (4, (0, 0))])
def test_homotopy_identity_names_the_reference_witness(degree, entry,
                                                       monkeypatch):
    """One entry of d_degree is moved, so the formula fails in degree
    degree - 1 or degree, and both checks name the same first pair."""
    from exacthom import lie_homology

    def moved(build):
        def build_moved(g, bases):
            cx = build(g, bases)
            d = cx.d(degree) + SparseMatrix(cx.d(degree).rows,
                                            cx.d(degree).cols, {entry: 1})
            return ChainComplex(cx.dims, {**cx.differentials, degree: d},
                                truncated=cx.truncated)
        return build_moved

    monkeypatch.setattr(lie_homology, "ce_complex_on",
                        moved(lie_homology.ce_complex_on))
    monkeypatch.setitem(globals(), "reference_ce_complex_on",
                        moved(reference_ce_complex_on))
    g = gl_n_of(field_q(), 2)
    rep = homotopy_identity_check(g, 4)
    assert rep["verdict"] == "fail"
    assert rep["witness"]["degree"] in (degree - 1, degree)
    assert rep == _without_sampling_keys(
        reference_homotopy_identity_check(g, 4))


def test_homotopy_identity_guards_every_degree_before_enumerating(
        monkeypatch):
    from exacthom import lie_homology

    def enumerated(*args):
        raise AssertionError("an exterior power was enumerated")

    monkeypatch.setattr(lie_homology, "combinations", enumerated)
    with pytest.raises(ResourceGuardError) as e:
        homotopy_identity_check(abelian_lie_algebra(40), 6)
    assert e.value.sizing["size"] == 658008


def test_homotopy_identity_abelian_trivial():
    rep = homotopy_identity_check(abelian_lie_algebra(3), 3)
    assert rep["verdict"] == "pass"


def test_exterior_basis_guards_its_dimension():
    assert len(ExteriorBasis(40, 3)) == 9880
    with pytest.raises(ResourceGuardError) as e:
        ExteriorBasis(40, 6)
    assert e.value.sizing["size"] == 3838380


def test_ce_complex_guards_every_degree_before_enumerating(monkeypatch):
    from exacthom import lie_homology

    def enumerated(*args):
        raise AssertionError("an exterior power was enumerated")

    monkeypatch.setattr(lie_homology, "combinations", enumerated)
    with pytest.raises(ResourceGuardError) as e:
        ce_complex(abelian_lie_algebra(40), 6)
    # the first degree over the limit is named: C(40, 5)
    assert e.value.sizing["size"] == 658008
    assert "exterior power 5 of a 40-dimensional space" in str(e.value)
