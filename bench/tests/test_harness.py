"""Self-tests of the benchmark harness: output checks and trace arithmetic.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from dpskit.operators import identity, pure_state  # noqa: E402


def span(i, parent, layer, name, start, end, query=0):
    return tracing.Span(i, parent, query, layer, name, start, end)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            span(0, None, "cli", "main", 0.0, 10.0),
            span(1, 0, "applications", "fidelity_bounds", 1.0, 4.0),
            span(2, 1, "solver", "solve", 2.0, 3.0),
            span(3, 0, "bounds", "g_N", 5.0, 6.0),
        ]
        selfs = tracing.self_times(spans)
        assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_layer_metrics_from_spans_and_sizes(self):
        t = tracing.Tracer()
        t.spans = [
            span(0, None, "cli", "main", 0.0, 10.0),
            span(1, 0, "certify", "certify", 1.0, 9.0),
            span(2, 1, "extensions", "check_membership", 1.0, 4.0),
            span(3, 2, "solver", "solve", 2.0, 3.5),
            span(4, 1, "solver", "solve", 5.0, 7.0),
        ]
        t.solves = [tracing.SolveRecord(10, (4, 2), 5, "optimal", 3),
                    tracing.SolveRecord(20, (6,), 7, "max_iter", 4)]
        t.compiles = [(0, 10, (4, 2)), (0, 20, (6,))]
        t.events.update({"certify.verdicts": 1, "certify.decided": 1})
        m = tracing.layer_metrics(t)
        assert m["cli.self_s"] == pytest.approx(2.0)
        assert m["certify.self_s"] == pytest.approx(3.0)
        assert m["extensions.self_s"] == pytest.approx(1.5)
        assert m["solver.self_s"] == pytest.approx(3.5)
        assert m["solver.calls"] == 2 and m["solver.iterations"] == 12
        assert m["solver.s_per_iter"] == pytest.approx(3.5 / 12)
        assert m["solver.max_iter"] == 1
        assert m["certify.solves_per_verdict"] == 2
        assert m["certify.decided_frac"] == 1.0
        assert (m["extensions.m_max"], m["extensions.m_sum"]) == (20, 30)
        assert m["extensions.block_side_max"] == 6
        first = 5 * (4 * 10 * 64 + 2 * 100 * 16 + 4 * 10 * 8 + 2 * 100 * 4 + 1000 / 3)
        second = 7 * (4 * 20 * 216 + 2 * 400 * 36 + 8000 / 3)
        assert m["solver.schur_gflop"] == pytest.approx((first + second) / 1e9)
        assert m["solver.stack_mb"] == pytest.approx(8 * 20 * 36 / 2**20)
        benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        assert set(m) | {"trace.overhead_frac"} == {x["name"] for x in benchmark["per_layer"]}


class TestTracer:
    def test_spans_nest_and_patches_come_off(self, tmp_path):
        import dpskit.cli

        certify_module = sys.modules["dpskit.certify"]
        originals = (dpskit.cli.main, dpskit.cli.bound_report, certify_module.solve)
        t = tracing.Tracer()
        t.install()
        try:
            assert certify_module.solve is not originals[2]
            code = sys.modules["dpskit.cli"].main(
                ["bounds", "--N", "2..3", "--out", str(tmp_path / "b.csv")])
        finally:
            t.remove()
        assert code == 0
        assert (dpskit.cli.main, dpskit.cli.bound_report, certify_module.solve) == originals
        root = t.spans[0]
        assert (root.layer, root.name, root.parent) == ("cli", "main", None)
        reports = [s for s in t.spans if s.name == "bound_report"]
        assert len(reports) == 2 and all(s.parent == root.id for s in reports)
        assert tracing.layer_metrics(t)["bounds.g_N.calls"] == 2


def point(n, upper, lower, series=None, known=None, reference="same", ppt=False,
          non_ppt_upper=None):
    return workloads.check_sweep_point(
        n, upper, lower, series or {}, known,
        upper if reference == "same" else reference, ppt, non_ppt_upper)


class TestSweepChecks:
    def test_consistent_point_passes(self):
        assert point(3, 0.8, 0.7, {2: (0.85, 0.65)}, known=0.75) is None

    def test_lower_above_upper_fails(self):
        assert point(2, 0.7, 0.8) is not None

    def test_upper_rising_in_n_fails(self):
        assert point(3, 0.9, 0.7, {2: (0.85, 0.65)}) is not None

    def test_bounds_crossing_between_n_fails(self):
        assert point(3, 0.8, 0.7, {2: (0.85, 0.81)}) is not None

    def test_reference_mismatch_fails(self):
        assert point(2, 0.8, 0.7, reference=0.79) is not None
        assert point(2, 0.8, 0.7, reference=None) is not None

    def test_ppt_above_non_ppt_fails(self):
        assert point(2, 0.8, 0.7, ppt=True, non_ppt_upper=0.79) is not None
        assert point(2, 0.8, 0.7, ppt=True, non_ppt_upper=None) is not None
        assert point(2, 0.8, 0.7, ppt=True, non_ppt_upper=0.81) is None

    def test_known_value_outside_bounds_fails(self):
        assert point(2, 0.8, 0.7, known=0.82) is not None


BELL = pure_state([1, 0, 0, 1], (2, 2))


def certify_query(rho, npt):
    return workloads.Query(("certify",), "certify", rho=rho.entries, npt=npt)


def witness(w):
    return {"dims": [2, 2], "re": np.real(w).tolist(), "im": np.imag(w).tolist()}


class TestCertifyChecks:
    def test_npt_state_must_be_entangled(self):
        q = certify_query(BELL, npt=True)
        assert workloads.check_certify(q, {"verdict": "separable"}) is not None
        assert workloads.check_certify(q, {"verdict": "undecided"}) is not None

    def test_ppt_state_must_not_be_entangled(self):
        q = certify_query(identity((2, 2)) * 0.25, npt=False)
        assert workloads.check_certify(q, {"verdict": "entangled"}) is not None
        assert workloads.check_certify(q, {"verdict": "undecided"}) is None

    def test_witness_must_separate(self):
        q = certify_query(BELL, npt=True)
        good = np.eye(4) / 2 - BELL.entries  # tr(W Bell) = -1/2
        assert workloads.check_certify(q, {"verdict": "entangled", "witness": witness(good)}) is None
        bad = np.eye(4)
        assert workloads.check_certify(q, {"verdict": "entangled", "witness": witness(bad)}) is not None
        assert workloads.check_certify(q, {"verdict": "entangled"}) is not None

    def test_ground_truth_of_generated_states(self, tmp_path):
        queries, _ = workloads.build("certify", 5, tmp_path)
        truth = {q.family: q.npt for q in queries if q.family in ("bell", "product",
                                                                  "maximally-mixed")}
        assert truth == {"bell": True, "product": False, "maximally-mixed": False}


class TestBoundsChecks:
    def rows(self, gs):
        return [{"N": str(n), "gN": str(g), "pc_sym": "0.5"} for n, g in enumerate(gs, 1)]

    def test_decreasing_g_passes(self):
        assert workloads.check_bounds_table(self.rows([0.5, 0.3, 0.2])) is None

    def test_g_not_decreasing_fails(self):
        assert workloads.check_bounds_table(self.rows([0.5, 0.3, 0.3])) is not None

    def test_non_finite_fails(self):
        assert workloads.check_bounds_table(self.rows([0.5, float("nan")])) is not None


def test_same_seed_same_queries(tmp_path):
    for name in workloads.WORKLOADS:
        a, pa = workloads.build(name, 7, tmp_path)
        b, pb = workloads.build(name, 7, tmp_path)
        assert [q.key for q in a] == [q.key for q in b] and pa == pb


def test_reference_covers_every_grid_query():
    keys = {q.key for q in workloads.reference_queries()}
    assert keys == set(workloads.load_reference())
