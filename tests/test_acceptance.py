"""Acceptance suite: sixteen criteria, one test and one printed verdict line
per criterion.

A module fixture builds the full report bundle three times, at 1, 4, and 8
worker threads (fan-out over independent instances; results merged in input
order). Criteria 1-15 assert exact content on the single-thread bundle;
criterion 16 asserts the three bundles serialize to byte-identical canonical
JSON. Wall-clock ceilings are measured on the single-thread pass. One more
test pins the SHA-256 of the single-thread bundle's canonical JSON.

The rank oracle used for the pinned Betti values is a self-contained dense
Gaussian elimination over Fraction, independent of the package's sparse RREF.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from exacthom.assoc_homology import (bB_bicomplex, bar_boundary, bar_complex,
                                     connes_b_operator,
                                     connes_quotient_complex, cyclic_bicomplex,
                                     cyclic_comparison_report,
                                     cyclic_group_algebra, cyclic_operator,
                                     direct_sum, dual_numbers, field_q,
                                     h_unitality_report, hochschild_boundary,
                                     hochschild_complex, left_unital_two_dim,
                                     matrix_algebra, norm_operator,
                                     random_algebra, truncated_polynomials,
                                     zero_multiplication)
from exacthom.cech_cosheaf import (CosheafMorphism, cech_complex, cech_report,
                                   circle_difference_model,
                                   cokernel_precosheaf, coresolution_homology,
                                   cosheaf_axiom_check,
                                   extension_by_zero_model, identity_morphism,
                                   random_cover_model)
from exacthom.cli import canonical_json, parallel_map
from exacthom.complexes import (betti_numbers, kunneth_check, random_complex,
                                random_double_complex, spectral_sequence,
                                verify_complex, verify_double_complex)
from exacthom.exactlin import (SparseMatrix, Subspace, image_basis,
                               quotient_structure)
from exacthom.lqt import (all_permutations, equivariance_check,
                          lqt_stable_check, partitions, psi_restriction_check,
                          specht_module, theta_check, trace_invariant_check,
                          weight_decomposition_report, xi)

# -- independent dense rank oracle ---------------------------------------------


def dense_rank(m: SparseMatrix) -> int:
    """Brute-force Gaussian elimination rank over Fraction (dense rows)."""
    rows = [[m.entries.get((r, c), Fraction(0)) for c in range(m.cols)]
            for r in range(m.rows)]
    rk = 0
    for col in range(m.cols):
        piv = next((r for r in range(rk, m.rows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pivot = rows[rk][col]
        for r in range(m.rows):
            if r != rk and rows[r][col]:
                f = rows[r][col] / pivot
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def oracle_betti(cx) -> list:
    """Betti numbers by the dense rank oracle; a missing differential above
    the top degree counts as zero (matching the truncation convention)."""
    out = []
    for n in range(cx.max_degree + 1):
        r_in = dense_rank(cx.differentials[n]) if n in cx.differentials else 0
        r_out = (dense_rank(cx.differentials[n + 1])
                 if n + 1 in cx.differentials else 0)
        out.append(cx.dims[n] - r_in - r_out)
    return out


# -- criterion report builders ---------------------------------------------------


def family_algebras():
    return [("field_q", field_q()),
            ("dual_numbers", dual_numbers()),
            ("truncated_polynomials_3", truncated_polynomials(3)),
            ("matrix_algebra_2", matrix_algebra(2)),
            ("cyclic_group_algebra_3", cyclic_group_algebra(3)),
            ("zero_multiplication_2", zero_multiplication(2)),
            ("left_unital_two_dim", left_unital_two_dim()),
            ("direct_sum_q_q", direct_sum(field_q(), field_q()))]


def rotation_norm_identities(a, max_degree: int) -> bool:
    """b(1 - tau) = (1 - tau)b' and Nb = b'N in every degree, exactly."""
    d = a.dim
    for n in range(1, max_degree + 1):
        b_n = hochschild_boundary(a, n)
        bp_n = bar_boundary(a, n)
        one_minus = SparseMatrix.identity(d ** (n + 1)) - cyclic_operator(d, n)
        one_minus_prev = (SparseMatrix.identity(d ** n)
                          - cyclic_operator(d, n - 1))
        if b_n @ one_minus != one_minus_prev @ bp_n:
            return False
        if norm_operator(d, n - 1) @ b_n != bp_n @ norm_operator(d, n):
            return False
    return True


def degree_raising_identities(a, max_degree: int) -> bool:
    """B^2 = 0 and bB + Bb = 0 (unital algebras only)."""
    for n in range(0, max_degree):
        big_b = connes_b_operator(a, n)
        if not (connes_b_operator(a, n + 1) @ big_b).is_zero():
            return False
        anti = hochschild_boundary(a, n + 1) @ big_b
        if n >= 1:
            anti = anti + connes_b_operator(a, n - 1) @ hochschild_boundary(a, n)
        if not anti.is_zero():
            return False
    return True


def crit01(threads: int) -> dict:
    instances = family_algebras() + [(f"seed_{s}", random_algebra(s))
                                     for s in range(20)]

    def one(item):
        label, a = item
        builders = (verify_complex(hochschild_complex(a, 3))["ok"]
                    and verify_complex(bar_complex(a, 3))["ok"]
                    and verify_complex(connes_quotient_complex(a, 3)[0])["ok"]
                    and verify_double_complex(cyclic_bicomplex(a, 3))["ok"]
                    and (not a.is_unital
                         or verify_double_complex(bB_bicomplex(a, 3))["ok"]))
        identities = rotation_norm_identities(a, 3)
        if a.is_unital:
            identities = identities and degree_raising_identities(a, 3)
        ok = builders and identities
        return {"algebra": label, "dim": a.dim, "unital": a.is_unital,
                "builders_ok": bool(builders),
                "identities_ok": bool(identities),
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, instances, threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 1, "instances": rows, "count": len(rows),
            "verdict": "pass" if ok else "fail"}


def crit02(threads: int) -> dict:
    # build one degree past the pinned range so every reported degree is
    # decided exactly, then slice
    hh = hochschild_complex(field_q(), 4)
    conn, _ = connes_quotient_complex(field_q(), 5)
    hh_betti = betti_numbers(hh)[:4]
    conn_betti = betti_numbers(conn)[:5]
    oracle = oracle_betti(conn)[:5]
    ok = (hh_betti == [1, 0, 0, 0] and conn_betti == [1, 0, 1, 0, 1]
          and oracle == conn_betti)
    return {"criterion": 2,
            "hochschild_betti": hh_betti,
            "connes_betti": conn_betti,
            "oracle_connes_betti": oracle,
            "verdict": "pass" if ok else "fail"}


def comparison_algebras():
    return [("field_q", field_q()),
            ("dual_numbers", dual_numbers()),
            ("q_times_q", direct_sum(field_q(), field_q())),
            ("left_unital_two_dim", left_unital_two_dim()),
            ("matrix_algebra_2", matrix_algebra(2))]


def crit03(threads: int) -> dict:
    def one(item):
        label, a = item
        rep = cyclic_comparison_report(a, 4)
        return {"algebra": label, "report": rep, "verdict": rep["verdict"]}

    rows = parallel_map(one, comparison_algebras(), threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    # unital algebras must also have the (b, B) betti folded into the report
    for r in rows:
        if r["report"]["unital"] and "bB_betti" not in r["report"]:
            ok = False
    return {"criterion": 3, "instances": rows,
            "verdict": "pass" if ok else "fail"}


def crit04(threads: int) -> dict:
    def one(item):
        label, a, want_pass = item
        rep = h_unitality_report(a, 4)
        ok = (rep["verdict"] == "pass") == want_pass
        if not want_pass:
            ok = ok and rep["first_failure"] == 1
        return {"algebra": label, "report": rep,
                "expected": "pass" if want_pass else "fail",
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, [("field_q", field_q(), True),
                              ("left_unital_two_dim", left_unital_two_dim(),
                               True),
                              ("zero_multiplication", zero_multiplication(1),
                               False)], threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 4, "instances": rows,
            "verdict": "pass" if ok else "fail"}


STABLE_PAIRS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]


def crit05(threads: int) -> dict:
    def stable(pair):
        k, n = pair
        inv = trace_invariant_check(n, k)
        equi = equivariance_check(n, k)
        ok = (inv["verdict"] and inv["well_defined"] and inv["bijective"]
              and inv["lhs_dims"] == [math.factorial(k)] and equi["verdict"])
        return {"k": k, "n": n, "invariant": inv, "equivariance": equi,
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(stable, STABLE_PAIRS, threads)
    inv21 = trace_invariant_check(1, 2)
    equi21 = equivariance_check(1, 2)
    ok21 = (inv21["verdict"] and inv21["well_defined"]
            and not inv21["bijective"] and not inv21["expected_bijective"]
            and equi21["verdict"])
    unstable = {"k": 2, "n": 1, "invariant": inv21, "equivariance": equi21,
                "verdict": "pass" if ok21 else "fail"}
    ok = all(r["verdict"] == "pass" for r in rows) and ok21
    return {"criterion": 5, "stable_pairs": rows, "unstable_pair": unstable,
            "verdict": "pass" if ok else "fail"}


def crit06(threads: int) -> dict:
    def one(item):
        label, a = item
        rep = theta_check(a, 3)
        ok = rep["verdict"] and rep["chain_map"] and all(
            rep["bijective_degrees"])
        return {"algebra": label, "report": rep,
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, [("field_q", field_q()),
                              ("dual_numbers", dual_numbers())], threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 6, "instances": rows,
            "verdict": "pass" if ok else "fail"}


LQT_CASES = [("field_q", 2, 1), ("field_q", 3, 2), ("field_q", 4, 3),
             ("dual_numbers", 3, 1), ("dual_numbers", 3, 2)]


def _algebra_by_name(name):
    return {"field_q": field_q, "dual_numbers": dual_numbers,
            "left_unital_two_dim": left_unital_two_dim}[name]()


def crit07(threads: int) -> dict:
    def one(case):
        name, n, max_r = case
        a = _algebra_by_name(name)
        rep = lqt_stable_check(a, n, max_r)
        conn, _ = connes_quotient_complex(a, max(max_r, 1))
        oracle = oracle_betti(conn)[:max_r]
        ok = (rep["verdict"] and rep["lhs_dims"] == rep["rhs_dims"]
              and rep["cyclic_betti"][:max_r] == oracle)
        return {"algebra": name, "n": n, "max_r": max_r, "report": rep,
                "oracle_cyclic_betti": oracle,
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, LQT_CASES, threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 7, "instances": rows,
            "verdict": "pass" if ok else "fail"}


def crit08(threads: int) -> dict:
    rep = lqt_stable_check(left_unital_two_dim(), 3, 1)
    ok = (rep["verdict"] and rep["params"]["route"] == "h_unital"
          and rep["lhs_dims"] == rep["rhs_dims"])
    return {"criterion": 8, "report": rep, "verdict": "pass" if ok else "fail"}


WEIGHT_CASES = [("field_q", 2, 1), ("field_q", 2, 2), ("field_q", 3, 1),
                ("dual_numbers", 2, 1), ("dual_numbers", 2, 2),
                ("dual_numbers", 3, 1)]


def crit09(threads: int) -> dict:
    def one(case):
        name, n, k = case
        a = _algebra_by_name(name)
        rep = weight_decomposition_report(a, n, k)
        total = math.comb(n * n * a.dim, k)
        ok = rep["verdict"] and rep["rhs_dims"] == [total, total]
        return {"algebra": name, "n": n, "k": k, "wedge_dim": total,
                "report": rep, "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, WEIGHT_CASES, threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 9, "instances": rows,
            "verdict": "pass" if ok else "fail"}


def crit10(threads: int) -> dict:
    def one(n):
        rep = psi_restriction_check(field_q(), n, 1, (1,), (1,), n // 2)
        ok = (rep["verdict"] and all(rep["image_in_highest_weight"])
              and all(rep["bijective_degrees"]))
        return {"n": n, "m": 1, "report": rep,
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, [2, 3], threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 10, "instances": rows,
            "verdict": "pass" if ok else "fail"}


def crit11(threads: int) -> dict:
    shapes = [alpha for m in range(1, 5) for alpha in partitions(m)]

    def one(alpha):
        sm = specht_module(alpha)
        m = sum(alpha)
        dims_ok = (sm.dim == len(sm.standard_tableaux) == sm.hook_length_dim
                   == sm.full_polytabloid_rank)
        perms = all_permutations(m)
        index = {p: i for i, p in enumerate(perms)}

        def gen(i):
            images = list(range(m))
            images[i], images[i + 1] = images[i + 1], images[i]
            return sm.action[index[tuple(images)]]

        ident = SparseMatrix.identity(sm.dim)
        relations = True
        for i in range(m - 1):
            if gen(i) @ gen(i) != ident:
                relations = False
        for i in range(m - 2):
            if (gen(i) @ gen(i + 1) @ gen(i)
                    != gen(i + 1) @ gen(i) @ gen(i + 1)):
                relations = False
        for i in range(m - 1):
            for j in range(i + 2, m - 1):
                if gen(i) @ gen(j) != gen(j) @ gen(i):
                    relations = False
        ok = dims_ok and relations
        return {"partition": list(alpha), "dim": sm.dim,
                "standard_tableaux": len(sm.standard_tableaux),
                "hook_length_dim": sm.hook_length_dim,
                "polytabloid_rank": sm.full_polytabloid_rank,
                "group_relations_ok": relations,
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(one, shapes, threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 11, "instances": rows, "count": len(rows),
            "verdict": "pass" if ok else "fail"}


def crit12(threads: int) -> dict:
    def seeded(seed):
        rng = random.Random(seed)
        points = 4 + seed % 3
        u = random_cover_model(rng, points, 2 + seed % 2)
        p = extension_by_zero_model(u)
        cech = cech_report(p, u)
        flabby_ok = (cech["verdict"] and cech["flabby"]
                     and cech["lhs_dims"][0] == points
                     and all(b == 0 for b in cech["lhs_dims"][1:]))
        axiom = cosheaf_axiom_check(p, u)
        res = coresolution_homology(p, [p], [], identity_morphism(p))
        cores_ok = list(res.betti) == [points]
        ok = flabby_ok and axiom["verdict"] and cores_ok
        return {"seed": seed, "points": points,
                "cech_betti": cech["lhs_dims"],
                "axiom_verdict": axiom["verdict"],
                "identity_coresolution_betti": list(res.betti),
                "verdict": "pass" if ok else "fail"}

    rows = parallel_map(seeded, list(range(10)), threads)

    def circle(arcs):
        u, p0, p1, d = circle_difference_model(6, arcs)
        z = cokernel_precosheaf(d)  # asserts the cosheaf axiom internally
        axiom = cosheaf_axiom_check(z, u)
        direct = betti_numbers(cech_complex(z, u))
        quots = [quotient_structure(Subspace.from_matrix_rows(
            image_basis(d.components[i]))) for i in range(len(u.opens))]
        aug = CosheafMorphism(p1, z, tuple(q.projection for q in quots))
        res = coresolution_homology(z, [p1, p0], [d], aug)
        padded = list(res.betti) + [0] * (len(direct) - len(res.betti))
        ok = (axiom["verdict"] and direct[:2] == [1, 1]
              and padded == direct)
        return {"arcs": [list(a) for a in arcs],
                "cokernel_axiom_verdict": axiom["verdict"],
                "direct_cech_betti": direct,
                "coresolution_betti": list(res.betti),
                "verdict": "pass" if ok else "fail"}

    circles = parallel_map(circle, [[[0, 1, 2, 3], [3, 4, 5, 0]],
                                    [[0, 1, 2], [2, 3, 4], [4, 5, 0]]],
                           threads)
    ok = (all(r["verdict"] == "pass" for r in rows)
          and all(c["verdict"] == "pass" for c in circles))
    return {"criterion": 12, "seeded_models": rows,
            "circle_cokernels": circles, "verdict": "pass" if ok else "fail"}


def crit13(threads: int) -> dict:
    def one(seed):
        rep = spectral_sequence(random_double_complex(seed)).convergence_report()
        return {"seed": seed, "report": rep, "verdict": rep["verdict"]}

    rows = parallel_map(one, list(range(10)), threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 13, "instances": rows,
            "verdict": "pass" if ok else "fail"}


def crit14(threads: int) -> dict:
    table = {}
    ok = True
    for n in range(1, 6):
        ramp = list(range(n + 1))
        tail = [n + 1 if (k - n) % 2 else n for k in range(n + 1, 13)]
        expected = ramp + tail
        got = [xi(n, k) for k in range(13)]
        table[str(n)] = got
        ok = ok and got == expected
    return {"criterion": 14, "sequences": table,
            "verdict": "pass" if ok else "fail"}


def crit15(threads: int) -> dict:
    def one(i):
        ca, _ = random_complex(2 * i)
        cb, _ = random_complex(2 * i + 1)
        rep = kunneth_check(ca, cb)
        return {"seeds": [2 * i, 2 * i + 1], "report": rep,
                "verdict": rep["verdict"]}

    rows = parallel_map(one, list(range(20)), threads)
    ok = all(r["verdict"] == "pass" for r in rows)
    return {"criterion": 15, "instances": rows,
            "verdict": "pass" if ok else "fail"}


BUILDERS = [crit01, crit02, crit03, crit04, crit05, crit06, crit07, crit08,
            crit09, crit10, crit11, crit12, crit13, crit14, crit15]


def build_reports(threads: int):
    bundle = {}
    seconds = {}
    for i, builder in enumerate(BUILDERS, start=1):
        t0 = time.monotonic()
        bundle[f"{i:02d}"] = builder(threads)
        seconds[i] = time.monotonic() - t0
    return bundle, seconds


@pytest.fixture(scope="module")
def bundles():
    out = {}
    times = None
    for t in (1, 4, 8):
        bundle, seconds = build_reports(t)
        out[t] = bundle
        if t == 1:
            times = seconds
    return out, times


def conclude(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- the sixteen criteria ---------------------------------------------------------


def test_criterion_01_complex_validity(bundles):
    bundle, times = bundles
    rep = bundle[1]["01"]
    ok = (rep["verdict"] == "pass" and rep["count"] == 28
          and times[1] <= 60.0)
    conclude(1, "d^2 = 0 and operator identities for 28 algebras", ok,
             f"{rep['count']} instances, {times[1]:.1f}s")


def test_criterion_02_ground_field_pins(bundles):
    bundle, _ = bundles
    rep = bundle[1]["02"]
    ok = (rep["verdict"] == "pass"
          and rep["hochschild_betti"] == [1, 0, 0, 0]
          and rep["connes_betti"] == [1, 0, 1, 0, 1]
          and rep["oracle_connes_betti"] == rep["connes_betti"])
    conclude(2, "ground-field Hochschild and cyclic-quotient betti", ok,
             f"HH {rep['hochschild_betti']}, cyclic {rep['connes_betti']}")


def test_criterion_03_comparison_quasi_isomorphisms(bundles):
    bundle, times = bundles
    rep = bundle[1]["03"]
    ok = rep["verdict"] == "pass" and times[3] <= 600.0
    names = [r["algebra"] for r in rep["instances"]]
    conclude(3, "three cyclic models agree + column-0 quasi-iso", ok,
             f"{len(names)} algebras, {times[3]:.1f}s")


def test_criterion_04_h_unitality(bundles):
    bundle, _ = bundles
    rep = bundle[1]["04"]
    zero_row = next(r for r in rep["instances"]
                    if r["algebra"] == "zero_multiplication")
    ok = (rep["verdict"] == "pass"
          and zero_row["report"]["first_failure"] == 1)
    conclude(4, "bar acyclicity passes/fails on the right algebras", ok,
             "zero-multiplication fails at degree 1")


def test_criterion_05_trace_invariant_map(bundles):
    bundle, _ = bundles
    rep = bundle[1]["05"]
    dims = [r["invariant"]["lhs_dims"][0] for r in rep["stable_pairs"]]
    ok = (rep["verdict"] == "pass"
          and dims == [math.factorial(k) for k, _ in STABLE_PAIRS]
          and rep["unstable_pair"]["verdict"] == "pass")
    conclude(5, "phi well-defined, equivariant, bijective iff stable", ok,
             f"coinvariant dims {dims}")


def test_criterion_06_theta_chain_isomorphism(bundles):
    bundle, _ = bundles
    rep = bundle[1]["06"]
    ok = rep["verdict"] == "pass"
    conclude(6, "theta is a bijective verified chain map (deg <= 3)", ok,
             "field_q and dual_numbers")


def test_criterion_07_stable_range_dimensions(bundles):
    bundle, times = bundles
    rep = bundle[1]["07"]
    ok = rep["verdict"] == "pass" and times[7] <= 900.0
    detail = "; ".join(f"({r['algebra']},n={r['n']},r={r['max_r']})"
                       for r in rep["instances"])
    conclude(7, "stable matrix homology equals monomial oracle", ok,
             f"{detail}, {times[7]:.1f}s")


def test_criterion_08_nonunital_stable_range(bundles):
    bundle, _ = bundles
    rep = bundle[1]["08"]
    ok = rep["verdict"] == "pass"
    conclude(8, "non-unital stable check via bar-acyclic route", ok,
             f"lhs {rep['report']['lhs_dims']}")


def test_criterion_09_weight_decomposition(bundles):
    bundle, _ = bundles
    rep = bundle[1]["09"]
    ok = rep["verdict"] == "pass"
    totals = [r["wedge_dim"] for r in rep["instances"]]
    conclude(9, "weight components fill the exterior power", ok,
             f"wedge dims {totals}")


def test_criterion_10_psi_restriction(bundles):
    bundle, _ = bundles
    rep = bundle[1]["10"]
    ok = rep["verdict"] == "pass"
    conclude(10, "psi bijective onto highest-weight space (deg <= n/2)", ok,
             "n in {2, 3}, alpha = beta = (1)")


def test_criterion_11_specht_dimensions(bundles):
    bundle, _ = bundles
    rep = bundle[1]["11"]
    ok = rep["verdict"] == "pass" and rep["count"] == 11
    conclude(11, "Specht dims three ways + generator relations", ok,
             f"{rep['count']} partitions with size <= 4")


def test_criterion_12_cech_cosheaf_suite(bundles):
    bundle, _ = bundles
    rep = bundle[1]["12"]
    ok = (rep["verdict"] == "pass" and len(rep["seeded_models"]) >= 10)
    conclude(12, "flabby models acyclic; cokernels are cosheaves; "
                 "coresolutions match Cech", ok,
             f"{len(rep['seeded_models'])} seeded + "
             f"{len(rep['circle_cokernels'])} circle models")


def test_criterion_13_spectral_convergence(bundles):
    bundle, _ = bundles
    rep = bundle[1]["13"]
    ok = rep["verdict"] == "pass" and len(rep["instances"]) >= 10
    conclude(13, "E-infinity antidiagonals sum to total betti", ok,
             f"{len(rep['instances'])} seeded double complexes")


def test_criterion_14_boundary_sequence(bundles):
    bundle, _ = bundles
    rep = bundle[1]["14"]
    ok = rep["verdict"] == "pass"
    conclude(14, "xi_n(k) matches the ramp-then-alternate shape", ok,
             "n <= 5, k <= 12")


def test_criterion_15_kunneth(bundles):
    bundle, _ = bundles
    rep = bundle[1]["15"]
    ok = rep["verdict"] == "pass" and len(rep["instances"]) >= 20
    conclude(15, "betti convolution identity on random pairs", ok,
             f"{len(rep['instances'])} pairs")


def test_criterion_16_determinism(bundles):
    bundle, _ = bundles
    blobs = {t: canonical_json(bundle[t]) for t in (1, 4, 8)}
    ok = blobs[1] == blobs[4] == blobs[8]
    conclude(16, "criteria 1-15 reports byte-identical at 1/4/8 threads", ok,
             f"{len(blobs[1])} bytes each")


# SHA-256 of the single-thread bundle's canonical JSON (65716 bytes; the same
# under every hash seed). A refactor that must not change any report keeps it.
BUNDLE_SHA256 = \
    "f79d70c593189a838c045466b504d1556eb4576a1758594115b758215d70ccb7"


def test_single_thread_bundle_digest_is_pinned(bundles):
    bundle, _ = bundles
    blob = canonical_json(bundle[1]).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == BUNDLE_SHA256
