"""Finite cosheaf models: axiom checks, Cech homology, coresolutions."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle

from exacthom.cech_cosheaf import (
    CosheafDataError,
    CosheafMorphism,
    CoverModel,
    FinitePrecosheaf,
    cech_complex,
    cech_report,
    circle_difference_model,
    cokernel_precosheaf,
    collapsing_model,
    coresolution_homology,
    cosheaf_axiom_check,
    cover_model_from_cover,
    cover_model_from_json,
    cover_model_to_json,
    edge_function_model,
    extension_by_zero_model,
    flabby_check,
    identity_morphism,
    precosheaf_from_json,
    precosheaf_to_json,
    random_cover_model,
)
from exacthom.complexes import betti_numbers, verify_complex
from exacthom.exactlin import (
    SparseMatrix,
    Subspace,
    image_basis,
    quotient_structure,
    rank,
)

seeds = st.integers(min_value=0, max_value=10_000)


@given(seeds, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_iterated_cover_intersections_are_all_member_meets(seed, points,
                                                           n_cover):
    u = random_cover_model(random.Random(seed), points, n_cover)
    members = [set(u.opens[i]) for i in u.cover]
    brute = {tuple(sorted(set.intersection(*chosen)))
             for r in range(1, len(members) + 1)
             for chosen in combinations(members, r)}
    assert u.iterated_cover_intersections() == sorted(
        brute, key=lambda t: (len(t), t))
    assert set(u.opens) == brute | {tuple(range(points))}


def three_open_six_point():
    return cover_model_from_cover(6, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])


# -- cover model validation ------------------------------------------------------


def test_ground_set_must_be_stored():
    with pytest.raises(ValueError, match="ground set"):
        CoverModel(3, ((0, 1), (1, 2)), (0, 1))


def test_cover_must_union_to_ground():
    with pytest.raises(ValueError, match="union"):
        CoverModel(3, ((0, 1), (0, 1, 2)), (0,))


def test_missing_intersection_is_rejected():
    # {0,1} and {1,2} meet in {1}, which is not stored
    with pytest.raises(CosheafDataError, match="intersection"):
        CoverModel(3, ((0, 1), (1, 2), (0, 1, 2)), (0, 1))


def test_duplicate_open_is_rejected():
    with pytest.raises(ValueError, match="twice"):
        CoverModel(2, ((0, 1), (0, 1)), (0,))


def test_from_cover_builds_the_intersection_closure():
    u = three_open_six_point()
    assert (2,) in u.opens and (4,) in u.opens and (0,) in u.opens
    assert () in u.opens
    assert tuple(range(6)) in u.opens
    assert u.opens == tuple(sorted(u.opens, key=lambda t: (len(t), t)))


def test_open_index_lookup_and_missing():
    u = three_open_six_point()
    assert u.opens[u.open_index([2])] == (2,)
    with pytest.raises(CosheafDataError):
        u.open_index([1, 3])


# -- precosheaf validation --------------------------------------------------------


def test_missing_extension_is_rejected():
    u = cover_model_from_cover(2, [[0], [1]])
    with pytest.raises(CosheafDataError, match="missing"):
        FinitePrecosheaf(u, (1,) * len(u.opens), {})


def test_functoriality_violation_is_rejected():
    # chain {0} c {0,1} c {0,1,2}: zeroing the long map breaks the composite
    u = cover_model_from_cover(3, [[0], [0, 1], [0, 1, 2]])
    p = extension_by_zero_model(u)
    bad = dict(p.extensions)
    small = u.open_index([0])
    big = u.open_index([0, 1, 2])
    bad[(small, big)] = SparseMatrix.zeros(3, 1)
    with pytest.raises(ValueError, match="functoriality"):
        FinitePrecosheaf(u, p.dims, bad)


def test_naturality_violation_is_rejected():
    u = cover_model_from_cover(2, [[0], [1]])
    p = extension_by_zero_model(u)
    comps = [SparseMatrix.identity(d) for d in p.dims]
    comps[u.open_index([0])] = SparseMatrix.zeros(1, 1)
    with pytest.raises(ValueError, match="naturality"):
        CosheafMorphism(p, p, tuple(comps))


# -- cosheaf axiom -----------------------------------------------------------------


def test_single_open_cover_passes_trivially():
    u = cover_model_from_cover(3, [[0, 1, 2]])
    p = extension_by_zero_model(u)
    report = cosheaf_axiom_check(p, u)
    assert report["verdict"]
    assert len(report["instances"]) == 1
    assert report["instances"][0]["surjective"]


def test_extension_by_zero_passes_the_axiom():
    u = three_open_six_point()
    report = cosheaf_axiom_check(extension_by_zero_model(u), u)
    assert report["verdict"]
    assert report["skipped"] == []
    for inst in report["instances"]:
        assert inst["composite_zero"]
        assert inst["surjective"]
        assert inst["exact_middle"]


def test_collapsing_model_fails_with_witness():
    u = three_open_six_point()
    report = cosheaf_axiom_check(collapsing_model(u), u)
    assert not report["verdict"]
    witnesses = [i for i in report["instances"] if not i["surjective"]]
    assert witnesses
    assert witnesses[0]["ranks"]["sum"] < witnesses[0]["ranks"]["target_dim"]


def test_axiom_check_requires_matching_model():
    u = three_open_six_point()
    other = cover_model_from_cover(3, [[0, 1, 2]])
    with pytest.raises(ValueError, match="match"):
        cosheaf_axiom_check(extension_by_zero_model(u), other)


# -- flabbiness ---------------------------------------------------------------------


def test_extension_by_zero_is_flabby():
    u = three_open_six_point()
    assert flabby_check(extension_by_zero_model(u))


def test_collapsing_model_is_not_flabby():
    u = three_open_six_point()
    assert not flabby_check(collapsing_model(u))


def test_quotient_model_flabbiness_is_computed():
    # the circle cokernel has a collapsing extension (2 -> 1), so not flabby
    u, p0, p1, d = circle_difference_model(6, [[0, 1, 2, 3], [3, 4, 5, 0]])
    z = cokernel_precosheaf(d)
    assert not flabby_check(z)


# -- Cech complexes -------------------------------------------------------------------


def test_one_element_cover_concentrates_in_degree_zero():
    u = cover_model_from_cover(4, [[0, 1, 2, 3]])
    cx = cech_complex(extension_by_zero_model(u), u)
    assert cx.dims == (4,)
    assert betti_numbers(cx) == [4]


def test_flabby_three_open_cover_has_trivial_higher_homology():
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    cx = cech_complex(p, u)
    assert verify_complex(cx)["ok"]
    assert betti_numbers(cx) == [6, 0, 0]


def test_non_cosheaf_breaks_degree_zero():
    u = three_open_six_point()
    c = collapsing_model(u)
    betti = betti_numbers(cech_complex(c, u))
    assert betti[0] != c.global_dim()


def test_cech_report_flags():
    u = three_open_six_point()
    rep = cech_report(extension_by_zero_model(u), u)
    assert rep["flabby"]
    assert rep["degree0_matches_global_sections"]
    assert rep["verdict"]
    bad = cech_report(collapsing_model(u), u)
    assert not bad["verdict"]


# -- cokernels -------------------------------------------------------------------------


def test_cokernel_of_identity_is_zero():
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    z = cokernel_precosheaf(identity_morphism(p))
    assert all(d == 0 for d in z.dims)


def zero_morphism(source: FinitePrecosheaf,
                  target: FinitePrecosheaf) -> CosheafMorphism:
    comps = tuple(SparseMatrix.zeros(target.dims[i], source.dims[i])
                  for i in range(len(source.cover_model.opens)))
    return CosheafMorphism(source, target, comps)


def test_cokernel_of_zero_is_the_target():
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    z = cokernel_precosheaf(zero_morphism(p, p))
    assert z.dims == p.dims


def test_difference_operator_cokernel_passes_the_axiom():
    # cokernel_precosheaf asserts the axiom internally
    u, p0, p1, d = circle_difference_model(6, [[0, 1, 2, 3], [3, 4, 5, 0]])
    z = cokernel_precosheaf(d)
    assert z.global_dim() == 1
    assert z.dims[u.open_index([0, 3])] == 2


# -- coresolutions -----------------------------------------------------------------------


def test_identity_coresolution_gives_global_sections():
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    res = coresolution_homology(p, [p], [], identity_morphism(p))
    assert res.betti == (6,)


def test_circle_coresolution_has_a_degree_one_class():
    u, p0, p1, d = circle_difference_model(6, [[0, 1, 2, 3], [3, 4, 5, 0]])
    z = cokernel_precosheaf(d)
    quots = [quotient_structure(Subspace.from_matrix_rows(
        image_basis(d.components[i]))) for i in range(len(u.opens))]
    aug = CosheafMorphism(p1, z, tuple(q.projection for q in quots))
    res = coresolution_homology(z, [p1, p0], [d], aug)
    assert res.betti == (1, 1)


def test_circle_cech_homology_matches_directly():
    u, p0, p1, d = circle_difference_model(6, [[0, 1, 2, 3], [3, 4, 5, 0]])
    z = cokernel_precosheaf(d)
    assert betti_numbers(cech_complex(z, u)) == [1, 1]


def test_three_arc_circle_agrees():
    u, p0, p1, d = circle_difference_model(
        6, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])
    z = cokernel_precosheaf(d)
    quots = [quotient_structure(Subspace.from_matrix_rows(
        image_basis(d.components[i]))) for i in range(len(u.opens))]
    aug = CosheafMorphism(p1, z, tuple(q.projection for q in quots))
    res = coresolution_homology(z, [p1, p0], [d], aug)
    assert res.betti[:2] == (1, 1)
    assert all(b == 0 for b in res.betti[2:])


def test_non_flabby_term_is_rejected():
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    c = collapsing_model(u)
    with pytest.raises(ValueError, match="not flabby"):
        coresolution_homology(p, [c], [], zero_morphism(c, p))


def test_local_exactness_failure_is_rejected():
    # P -> P -> P with identity maps is not exact in the middle
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    with pytest.raises(ValueError):
        coresolution_homology(p, [p, p], [identity_morphism(p)],
                              identity_morphism(p))


def reference_local_exactness(p, terms, maps, augmentation):
    """The local-exactness loop of coresolution_homology before it read
    exactness off one complex per open, kept verbatim as a reference."""
    u = p.cover_model
    ground = u.ground_open
    checked = []
    for op in u.iterated_cover_intersections():
        oid = u.open_index(op)
        if oid == ground:
            continue
        checked.append(list(op))
        aug = augmentation.components[oid]
        if rank(aug) != p.dims[oid]:
            raise ValueError(
                f"augmentation is not surjective on open {op}")
        prev = aug
        for i, mor in enumerate(maps):
            cur = mor.components[oid]
            if not (prev @ cur).is_zero():
                raise ValueError(
                    f"composite at position {i} is nonzero on open {op}")
            kernel_dim = cur.rows - rank(prev)
            if rank(cur) != kernel_dim:
                raise ValueError(
                    f"local exactness fails at position {i} on open {op}")
            prev = cur
        if rank(prev) != prev.cols:
            raise ValueError(
                f"local exactness fails at the top term on open {op}")
    return checked


def broken_coresolution(kind):
    """(p, terms, maps, augmentation, the reference's error, the degree
    that fails) for one way a coresolution can fail to be locally exact."""
    p = extension_by_zero_model(three_open_six_point())
    zero = cokernel_precosheaf(identity_morphism(p))
    ident, killed = identity_morphism(p), zero_morphism(p, p)
    return {
        "surjective": (p, [p], [], killed, "not surjective", 0),
        "composite": (p, [p, p], [ident], ident, "composite at position 0", 1),
        "middle": (zero, [p, p], [killed], zero_morphism(p, zero),
                   "fails at position 0", 1),
        "top": (p, [p, p], [killed], ident, "fails at the top term", 2),
    }[kind]


@pytest.mark.parametrize("kind", ["surjective", "composite", "middle", "top"])
def test_local_exactness_fails_where_the_reference_does(kind):
    p, terms, maps, aug, reason, degree = broken_coresolution(kind)
    with pytest.raises(ValueError, match=reason) as ref:
        reference_local_exactness(p, terms, maps, aug)
    op = str(ref.value).split("on open ")[1]
    with pytest.raises(ValueError) as new:
        coresolution_homology(p, terms, maps, aug)
    assert str(new.value).startswith(
        f"the augmented coresolution is not exact on open {op} "
        f"in degree {degree}")


@pytest.mark.parametrize("covers", [[[0, 1, 2, 3], [3, 4, 5, 0]],
                                    [[0, 1, 2], [2, 3, 4], [4, 5, 0]]])
def test_exact_coresolutions_pass_the_reference_too(covers):
    u, p0, p1, d = circle_difference_model(6, covers)
    z = cokernel_precosheaf(d)
    quots = [quotient_structure(Subspace.from_matrix_rows(
        image_basis(d.components[i]))) for i in range(len(u.opens))]
    aug = CosheafMorphism(p1, z, tuple(q.projection for q in quots))
    assert reference_local_exactness(z, [p1, p0], [d], aug)
    assert coresolution_homology(z, [p1, p0], [d], aug).betti[:2] == (1, 1)


# -- random flabby models ------------------------------------------------------------------


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_random_extension_by_zero_models_are_flabby_cosheaves(seed):
    rng = random.Random(seed)
    u = random_cover_model(rng, rng.randint(3, 7), rng.randint(2, 4))
    p = extension_by_zero_model(u)
    assert flabby_check(p)
    betti = betti_numbers(cech_complex(p, u))
    assert betti[0] == u.points
    assert all(b == 0 for b in betti[1:])
    assert cosheaf_axiom_check(p, u)["verdict"]


def dense(m):
    return [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_cech_complex_matches_the_alternating_sum_oracle(seed):
    rng = random.Random(seed)
    u = random_cover_model(rng, rng.randint(1, 6), rng.randint(1, 4))
    edges = [(rng.randrange(u.points), rng.randrange(u.points))
             for _ in range(rng.randint(0, 6))]
    for p in (extension_by_zero_model(u), edge_function_model(u, edges)):
        cx = cech_complex(p, u)
        assert cx.max_degree == len(u.cover) - 1
        for r in range(1, len(u.cover)):
            want, rows, cols = dense_oracle.cech_matrix(
                list(u.opens), list(u.cover), list(p.dims),
                lambda a, b: dense(p.extension(a, b)), r)
            d = cx.d(r)
            assert (d.rows, d.cols) == (rows, cols) == (cx.dims[r - 1],
                                                        cx.dims[r])
            assert dense(d) == want


# -- JSON -------------------------------------------------------------------------------------


def test_cover_model_json_round_trip():
    u = three_open_six_point()
    assert cover_model_from_json(
        json.loads(json.dumps(cover_model_to_json(u)))) == u


def test_precosheaf_json_round_trip():
    u = three_open_six_point()
    p = extension_by_zero_model(u)
    obj = json.loads(json.dumps(precosheaf_to_json(p)))
    assert precosheaf_from_json(obj) == p


def test_edge_model_json_round_trip():
    u, p0, p1, d = circle_difference_model(5, [[0, 1, 2], [2, 3, 4, 0]])
    obj = json.loads(json.dumps(precosheaf_to_json(p1)))
    assert precosheaf_from_json(obj) == p1
