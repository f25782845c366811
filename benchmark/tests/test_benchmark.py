"""Tests of the benchmark itself: inputs, oracles, tracer, reports.

    python3 -m pytest benchmark/tests
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import inputs
import tracer
import worker
import workloads
from exacthom import cech_cosheaf, cli, complexes, exactlin


def _bindings():
    """Every exacthom namespace attribute and class attribute a tracer
    target names, as (owner, attribute) -> object."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "exacthom" or mod_name.startswith("exacthom."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(mod_name, attr)] = value
    for _name, module, path, _shape in tracer.TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[f"exacthom.{module}"], cls_name)
            out[(cls, attr)] = cls.__dict__.get(attr)
    return out


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    rank = exactlin.rank
    with tracer.Tracer() as t:
        # A function imported by name is wrapped in the importing module too.
        assert exactlin.rank is not rank
        assert complexes.rank is exactlin.rank
        assert cech_cosheaf.rank is exactlin.rank
        assert exactlin.SparseMatrix.__init__ is not \
            before[(exactlin.SparseMatrix, "__init__")]
        t.job = "probe"
        m = exactlin.SparseMatrix.from_dense([[1, 2], [2, 4]])
        assert exactlin.rank(m) == 1
    assert _bindings() == before
    assert exactlin.rank is rank
    names = [s[0] for s in t.spans]
    assert "exactlin.construct" in names and "exactlin.rank" in names
    rank_span = next(s for s in t.spans if s[0] == "exactlin.rank")
    assert rank_span[4] == "probe"
    assert rank_span[5] == {"rows": 2, "cols": 2, "in_nnz": 4,
                            "in_cells": 4, "pivots": 1}


def test_a_failing_call_still_restores_and_closes_its_span():
    before = _bindings()
    with pytest.raises(exactlin.ResourceGuardError):
        with tracer.Tracer() as t:
            exactlin.guard_ambient("probe", 10, limit=1)
    assert _bindings() == before
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["exactlin.guard.trips"] == 1


def test_self_time_subtracts_children():
    parent = ["a", 0.0, 10.0, None, "j", None]
    spans = [parent, ["b", 1.0, 3.0, parent, "j", None],
             ["b", 2.0, 5.0, parent, "j", None]]
    groups = tracer.group_stats(spans)
    assert groups["a"].self_s == pytest.approx(6.0)  # 10 - union [1, 5]
    assert groups["b"].calls == 2
    assert groups["b"].total_s == pytest.approx(5.0)


def _few_jobs(tmp_path, seed=3):
    files, jobs = workloads.build("many-small", seed, tmp_path)
    workloads.write_inputs(files, tmp_path)
    kinds, picked = set(), []
    for job in jobs:  # one job of every kind: CLI, threads, library
        kind = job.id.split("-")[0]
        if kind not in kinds:
            kinds.add(kind)
            picked.append(job)
    return picked


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    jobs = _few_jobs(tmp_path)
    before = _bindings()
    plain = worker.run_pass(jobs)
    t = tracer.Tracer()
    traced = worker.run_pass(jobs, t)
    assert _bindings() == before  # installed for each traced call only
    assert not plain["failures"] and not traced["failures"]
    assert worker.canonical_report(plain["outputs"]) == \
        worker.canonical_report(traced["outputs"])
    assert len(traced["job_s"]) == len(traced["traced_s"]) == len(jobs)
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["cli.main.calls"] == sum(j.argv is not None for j in jobs)
    assert metrics["cli.parallel_map.items"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    texts = []
    for run in ("a", "b", "other"):
        d = tmp_path / run
        files, jobs = workloads.build(workload, 11 if run != "other" else 12,
                                      d)
        workloads.write_inputs(files, d)
        texts.append(({p.name: p.read_bytes() for p in d.iterdir()},
                      [j.id for j in jobs]))
    assert texts[0] == texts[1]
    assert texts[0][1] == texts[2][1]  # the job list does not depend on it
    if workload != "lqt-verify":  # the only workload with no seeded input
        assert texts[0][0] != texts[2][0]


def test_the_check_catches_a_wrong_expectation(tmp_path):
    jobs = _few_jobs(tmp_path)
    connes = next(j for j in jobs if j.id.startswith("connes-q-"))
    _t, _text, reason = worker.run_job(connes)
    assert reason is None
    wrong = replace(connes, check=workloads.betti_is([1, 1], [1, 1]))
    _t, _text, reason = worker.run_job(wrong)
    assert reason and "exact degrees" in reason
    # A failed job is counted and does not stop the pass.
    result = worker.run_pass([wrong, connes])
    assert list(result["failures"]) == [wrong.id]
    assert len(result["job_s"]) == 2


def test_a_nonzero_exit_code_is_a_failure(tmp_path):
    job = workloads.Job("missing-input", workloads.verdict_pass,
                        argv=("verify", "lqt", "--algebra",
                              str(tmp_path / "absent.json")))
    _t, _text, reason = worker.run_job(job)
    assert reason.startswith(f"exit code {cli.EXIT_PARSE}")


def test_oracles_against_known_values():
    assert workloads.exterior_odd(2, 4) == [1, 1, 0, 1, 1]
    assert workloads.exterior_odd(4, 3) == [1, 1, 0, 1]
    assert [workloads.hook_length_dim(a)
            for a in ((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1))] == \
        [1, 4, 5, 6, 5]


def _det(m):
    m = [row[:] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next(r for r in range(c, len(m)) if m[r][c])
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_conjugation_is_a_determinant_one_change_of_basis():
    for seed in range(10):
        g, g_inv = inputs.unimodular(random.Random(seed), 4, (0, 1))
        prod = inputs._matmul(g, g_inv)
        assert prod == [[Fraction(int(r == c)) for c in range(4)]
                        for r in range(4)]
        assert _det(g) == 1
    alg = inputs.matrix_algebra(2)
    conj = inputs.conjugate(alg, g, g_inv)
    from exacthom.assoc_homology import algebra_from_json
    algebra_from_json(inputs.algebra_json(conj))  # associative, unital
