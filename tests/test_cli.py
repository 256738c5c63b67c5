import json
from pathlib import Path

import numpy as np
import pytest

from dpskit.cli import main
from dpskit.extensions import sdp_size
from dpskit.operators import HermitianOperator, identity, operator_to_json, pure_state

BELL = pure_state([1, 0, 0, 1], (2, 2))
DATA = Path(__file__).with_name("data")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(operator_to_json(BELL))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(operator_to_json(identity((2, 2)) * 0.25))
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.json"
    path.write_text(operator_to_json(pure_state([1, 0, 0, 0], (2, 2))))
    return str(path)


class TestMembership:
    def test_bell_infeasible(self, bell_file, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(["membership", "--input", bell_file, "--N", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == {"2": "infeasible"}

    def test_mixed_sweep_ppt(self, mixed_file, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(
            ["membership", "--input", mixed_file, "--N", "2..4", "--ppt", "--out", str(out)]
        )
        assert code == 0
        verdicts = json.loads(out.read_text())
        assert verdicts == {"2": "feasible", "3": "feasible", "4": "feasible"}

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["membership", "--input", str(bad), "--N", "2"]) == 2

    def test_budget_exit_3(self, mixed_file, tmp_path, monkeypatch):
        # one byte below the query's own predicted peak
        peak = sdp_size((2, 2), 2, False, "trace_match", True)[2]
        monkeypatch.setattr("dpskit.extensions.PEAK_BYTES", peak - 1)
        out = tmp_path / "verdict.json"
        code = main(["membership", "--input", mixed_file, "--N", "2", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text()) == {"2": "budget_exceeded"}


class TestBounds:
    def test_twenty_rows_decreasing_g(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--dB", "2", "--N", "1..20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "dA,dB,N,gN,pc_sym,pc_ppt,R_sym,R_ppt,dtr_sym,dtr_ppt"
        assert len(lines) == 21
        gs = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a > b for a, b in zip(gs, gs[1:]))

    def test_bessel_zero_found_once_per_table(self, tmp_path, monkeypatch):
        import dpskit.bounds
        import dpskit.cli

        calls = []
        original = dpskit.bounds.bessel_zero_first

        def counted(nu):
            calls.append(nu)
            return original(nu)

        monkeypatch.setattr(dpskit.cli, "bessel_zero_first", counted)
        monkeypatch.setattr(dpskit.bounds, "bessel_zero_first", counted)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--dB", "3", "--N", "1..30", "--out", str(out)]) == 0
        assert calls == [1]

    def test_delta_adds_columns(self, tmp_path):
        out = tmp_path / "bounds.csv"
        main(["bounds", "--dB", "2", "--N", "1..3", "--delta", "0.1", "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header.endswith(
            "reqN_sym,reqN_ppt,log10_ops_sym,log10_ops_ppt,log10_simpl_sym,log10_simpl_ppt"
        )
        row = out.read_text().splitlines()[1].split(",")
        assert row[10] == "19"


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["bounds", "--dA", "2", "--dB", "3", "--N", "1..40", "--delta", "0.05"],
         "bounds_dA2_dB3_N1-40_delta0.05.csv"),
        (["complexity", "--dA", "3", "--dB", "3", "--delta", "0.02"],
         "complexity_dA3_dB3_delta0.02.json"),
    ],
    ids=["bounds", "complexity"],
)
def test_closed_form_output_pinned(argv, pinned, tmp_path):
    """The printed bound tables and estimates, byte for byte."""
    out = tmp_path / pinned
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


class TestSweeps:
    def test_fidelity_bb84_row_count_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fidelity", "--bb84", "1.0", "--N", "1..2", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        rows1 = out1.read_text().strip().splitlines()
        assert rows1[0] == "N,ppt,upper,lower,status,wall_time_s"
        assert len(rows1) == 5  # 2 N values x both ppt settings
        strip = lambda text: [",".join(r.split(",")[:-1]) for r in text.strip().splitlines()]
        assert strip(out1.read_text()) == strip(out2.read_text())
        # eps = 1 leaves nothing to estimate: upper bound is exactly 1/2
        for row in rows1[1:]:
            assert float(row.split(",")[2]) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [["fidelity", "--bb84", "0.2", "--N", "1..3"],
         ["geometric", "--state", "ghz", "--N", "2..3"]],
        ids=["fidelity", "geometric"],
    )
    def test_threads_sharing_cold_cache_write_same_rows(self, argv, tmp_path):
        # the --jobs threads compile the same structures at once, from a
        # cold cache; every column but the wall time matches --jobs 1
        from dpskit.extensions import _structure

        outs = []
        for jobs in ("1", "2"):
            _structure.cache_clear()
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(argv + ["--ppt", "both", "--jobs", jobs, "--out", str(out)]) == 0
            outs.append([r.rsplit(",", 1)[0] for r in out.read_text().splitlines()])
        assert outs[0] == outs[1]

    def test_fidelity_requires_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "--N", "2"])
        assert exc.value.code == 2

    def test_fidelity_jobs_flag(self, tmp_path):
        out = tmp_path / "par.csv"
        code = main(
            ["fidelity", "--bb84", "1.0", "--N", "1..2", "--jobs", "2", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_purity_identity_qubit(self, tmp_path):
        out = tmp_path / "purity.csv"
        code = main(
            ["purity", "--channel", "identity-qubit", "--N", "2", "--ppt", "true",
             "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(1.0, abs=1e-6)

    def test_geometric_ghz(self, tmp_path):
        out = tmp_path / "geo.csv"
        code = main(
            ["geometric", "--state", "ghz", "--N", "2", "--ppt", "true", "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--bb84", "0.1"],
            ["purity", "--channel", "depolarizing-qubit", "--p", "0.2"],
            ["geometric", "--state", "w"],
        ],
        ids=["fidelity", "purity", "geometric"],
    )
    def test_max_iter_reaches_bound_sweeps(self, argv, tmp_path):
        out = tmp_path / "capped.csv"
        code = main(argv + ["--N", "2", "--ppt", "true", "--max-iter", "2",
                            "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[4] == "max_iter"

    @pytest.mark.xfail(strict=True, reason="both bounds come from the objective at the "
                       "extension decoded from the last iterate, which a max_iter solve "
                       "need not bound (ROADMAP item 1); remove this marker once it passes")
    @pytest.mark.parametrize(
        "argv, max_iter",
        [
            (["fidelity", "--bb84", "0.1"], 2),  # upper 0.5628, optimum 0.8182
            # upper 0.5, below the optimum 0.9
            (["purity", "--channel", "depolarizing-qubit", "--p", "0.2"], 1),
        ],
        ids=["fidelity", "purity"],
    )
    def test_bounds_valid_when_stopped_early(self, argv, max_iter, tmp_path):
        def row(*extra):
            out = tmp_path / "row.csv"
            argv_n = argv + ["--N", "2", "--ppt", "true", *extra, "--out", str(out)]
            assert main(argv_n) == 0
            return out.read_text().strip().splitlines()[1].split(",")

        optimum = float(row()[2])
        capped = row("--max-iter", str(max_iter))
        assert capped[4] == "max_iter"
        assert float(capped[2]) >= optimum - 1e-6  # upper
        assert float(capped[3]) <= optimum + 1e-6  # lower

    @pytest.mark.parametrize(
        "argv",
        [
            ["purity", "--channel", "depolarizing-qubit", "--p", "0.2", "--N", "2"],
            ["geometric", "--state", "ghz", "--N", "3"],
        ],
        ids=["purity", "geometric"],
    )
    def test_non_ppt_unit_trace_bound_exact_when_capped(self, argv, tmp_path):
        # the optimum is a top eigenvalue, so no iteration cap applies
        def row(*extra):
            out = tmp_path / "row.csv"
            assert main(argv + ["--ppt", "false", *extra, "--out", str(out)]) == 0
            return out.read_text().strip().splitlines()[1].split(",")

        full, capped = row(), row("--max-iter", "1")
        assert capped[4] == full[4] == "optimal"
        assert capped[2] == full[2]

    def test_budget_partial_csv(self, tmp_path, monkeypatch):
        # room for every N = 2 query, not for N = 3 with a PPT block
        peak = sdp_size((4, 2), 2, True, "identity_marginal", True)[2]
        monkeypatch.setattr("dpskit.extensions.PEAK_BYTES", peak)
        out = tmp_path / "partial.csv"
        code = main(["fidelity", "--bb84", "1.0", "--N", "2..3", "--out", str(out)])
        assert code == 3
        rows = out.read_text().strip().splitlines()[1:]
        statuses = [r.split(",")[4] for r in rows]
        assert "budget_exceeded" in statuses
        assert any(s != "budget_exceeded" for s in statuses)


class TestCertifyCommand:
    def test_product_fixture(self, product_file, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--input", product_file, "--maxN", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "separable"
        assert payload["N"] == 2
        assert payload["ranks"] == [1, 1, 1]

    def test_bell_fixture(self, bell_file, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--input", bell_file, "--maxN", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "entangled"
        w = payload["witness"]
        mat = np.array(w["re"]) + 1j * np.array(w["im"])
        assert float(np.real(np.vdot(mat, BELL.entries))) < -1e-6


class TestFileInputs:
    def test_fidelity_ensemble_file(self, tmp_path):
        # two orthogonal sources with identity encoding: perfect discrimination
        ensemble = {"ensemble": [
            {"p": 0.5,
             "encoded": {"dims": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
             "source": {"dims": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}},
            {"p": 0.5,
             "encoded": {"dims": [2], "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
             "source": {"dims": [2], "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}},
        ]}
        src = tmp_path / "ensemble.json"
        src.write_text(json.dumps(ensemble))
        out = tmp_path / "fid.csv"
        code = main(["fidelity", "--input", str(src), "--N", "2", "--ppt", "true",
                     "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(1.0, abs=1e-6)

    def test_geometric_state_file(self, tmp_path):
        vec = {"dims": [2, 2, 2], "re": [1, 0, 0, 0, 0, 0, 0, 1], "im": [0] * 8}
        src = tmp_path / "ghz.json"
        src.write_text(json.dumps(vec))
        out = tmp_path / "geo.csv"
        code = main(["geometric", "--input", str(src), "--N", "2", "--ppt", "true",
                     "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.5, abs=1e-3)

    def test_purity_choi_file(self, tmp_path):
        from dpskit.applications import depolarizing_choi

        src = tmp_path / "choi.json"
        src.write_text(operator_to_json(depolarizing_choi(2, 0.2)))
        out = tmp_path / "purity.csv"
        code = main(["purity", "--choi", str(src), "--N", "2", "--ppt", "true",
                     "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.9, abs=1e-4)

    def test_empty_n_range_rejected(self, tmp_path):
        src = tmp_path / "state.json"
        src.write_text(operator_to_json(identity((2, 2)) * 0.25))
        assert main(["membership", "--input", str(src), "--N", "4..2"]) == 2


class TestInputHardening:
    def test_nan_operator_exit_2(self, tmp_path, capsys):
        src = tmp_path / "nan.json"
        src.write_text('{"dims": [2, 2], "re": [[NaN, 0, 0, 0], [0, 0.25, 0, 0],'
                       ' [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}')
        assert main(["membership", "--input", str(src), "--N", "2"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_state_vector_exit_2(self, tmp_path, capsys):
        src = tmp_path / "nan_vec.json"
        src.write_text('{"dims": [2, 2, 2], "re": [1, 0, 0, 0, 0, 0, 0, NaN]}')
        assert main(["geometric", "--input", str(src), "--N", "2"]) == 2
        assert "malformed state vector" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["membership", "--input", "STATE", "--N", "0"],
            ["membership", "--input", "STATE", "--max-iter", "-3"],
            ["fidelity", "--bb84", "0.1", "--N", "0"],
            ["fidelity", "--bb84", "2"],
            ["fidelity", "--qutrit-grid", "-1"],
            ["fidelity", "--bb84", "0.1", "--tol", "-1"],
            ["geometric", "--state", "ghz", "--N", "0"],
            ["purity", "--channel", "depolarizing-qubit", "--p", "1.5"],
            ["bounds", "--dB", "1", "--N", "2"],
            ["bounds", "--dA", "0"],
            ["bounds", "--dB", "60", "--N", "1..3"],
            ["complexity", "--dB", "1", "--delta", "0.1"],
            ["certify", "--input", "STATE", "--maxN", "1"],
            ["certify", "--input", "STATE", "--maxN", "2", "--seed", "-1"],
            ["bounds", "--N", "500001"],
            ["bounds", "--N", "1..1000000000"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a not in ("--input", "STATE")),
    )
    def test_out_of_range_exit_2(self, argv, mixed_file, capsys):
        argv = [mixed_file if a == "STATE" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["membership", "--input", "STATE"],
            ["bounds"],
            ["fidelity", "--bb84", "0.1", "--N", "2", "--ppt", "false"],
            ["purity", "--channel", "depolarizing-qubit", "--p", "0.2"],
            ["geometric", "--state", "ghz"],
            ["certify", "--input", "STATE"],
            ["complexity", "--delta", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_jobs_below_one_exit_2(self, argv, jobs, mixed_file, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr("dpskit.cli.ThreadPoolExecutor", no_pool)
        argv = [mixed_file if a == "STATE" else a for a in argv]
        assert main(argv + ["--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--input", "STATE", "--max-iter", "5"],
            # the rank rule's tolerance is fixed (certify.RANK_TOL)
            ["certify", "--input", "STATE", "--delta", "0.9"],
            ["bounds", "--tol", "1e-3"],
            ["complexity", "--delta", "0.1", "--seed", "1"],
        ],
        ids=["certify --max-iter", "certify --delta", "bounds --tol", "complexity --seed"],
    )
    def test_flag_the_command_would_ignore_exit_2(self, argv, mixed_file, capsys):
        argv = [mixed_file if a == "STATE" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--bb84", "0.1", "--qutrit-grid", "0.2"],
            ["purity", "--channel", "identity-qubit", "--p", "0.7"],
            ["purity", "--choi", "STATE", "--channel", "identity-qubit"],
            ["geometric", "--state", "ghz", "--input", "STATE"],
        ],
        ids=["fidelity two sources", "purity --p without its channel",
             "purity two sources", "geometric two sources"],
    )
    def test_conflicting_input_flags_exit_2(self, argv, mixed_file, capsys):
        argv = [mixed_file if a == "STATE" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv", [["membership", "--ppt"], ["certify"]], ids=["membership", "certify"]
    )
    def test_non_psd_state_exit_2(self, argv, tmp_path, capsys):
        src = tmp_path / "non_psd.json"
        rho = HermitianOperator((2, 2), np.diag([0.5, 0.5, 0.5, -0.5]))
        src.write_text(operator_to_json(rho))
        assert main(argv[:1] + ["--input", str(src)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive semidefinite" in captured.err

    @pytest.mark.parametrize("p", [1.5, -0.5])
    def test_ensemble_probability_out_of_range_exit_2(self, p, tmp_path, capsys):
        zero = {"dims": [2], "re": [[1, 0], [0, 0]]}
        one = {"dims": [2], "re": [[0, 0], [0, 1]]}
        ensemble = {"ensemble": [
            {"p": p, "encoded": zero, "source": zero},
            {"p": 1.0 - p, "encoded": one, "source": one},
        ]}
        src = tmp_path / "ensemble.json"
        src.write_text(json.dumps(ensemble))
        assert main(["fidelity", "--input", str(src), "--N", "2", "--ppt", "true"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[0, 1]" in captured.err

    @pytest.mark.parametrize(
        "argv, payload, message",
        [
            (["geometric", "--input"],
             {"dims": [2, 2], "re": [1, 0, 0, 1]}, "tripartite state, got 2 factors"),
            (["purity", "--choi"],
             {"dims": [4], "re": np.eye(4).tolist()}, "two factors (A, B), got 1"),
            (["purity", "--choi"],
             {"dims": [2, 2], "re": (np.eye(4) / 4).tolist()}, "identity A-marginal"),
            (["purity", "--choi"],  # SWAP: the transpose map, eigenvalues +-1
             {"dims": [2, 2], "re": np.eye(4)[[0, 2, 1, 3]].tolist()}, "must be PSD"),
            (["fidelity", "--input"],
             {"ensemble": [
                 {"p": 0.5, "encoded": {"dims": [2], "re": [[1, 0], [0, 0]]},
                  "source": {"dims": [2], "re": [[1, 0], [0, 0]]}},
                 {"p": 0.5, "encoded": {"dims": [3], "re": np.diag([0, 1, 0]).tolist()},
                  "source": {"dims": [2], "re": [[0, 0], [0, 1]]}},
             ]}, "same encoded and source dimensions"),
        ],
        ids=["geometric-bipartite", "purity-one-factor", "purity-marginal",
             "purity-not-cp", "fidelity-mixed-dims"],
    )
    def test_application_input_rejected_before_sweep(
        self, argv, payload, message, tmp_path, monkeypatch, capsys
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("dpskit.applications.optimize_over_cone", no_solve)
        src = tmp_path / "input.json"
        src.write_text(json.dumps(payload))
        assert main(argv + [str(src), "--N", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize(
        "command, dims",
        [("membership", (4,)), ("certify", (4,)), ("certify", (2, 2, 2))],
        ids=["membership-1", "certify-1", "certify-3"],
    )
    def test_state_factor_count_exit_2(self, command, dims, tmp_path, capsys):
        side = int(np.prod(dims))
        src = tmp_path / "state.json"
        src.write_text(operator_to_json(HermitianOperator(dims, np.eye(side) / side)))
        assert main([command, "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "factors" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["membership", "--input", "STATE", "--N", "2"],
     ["fidelity", "--bb84", "0.1", "--N", "2", "--ppt", "true"]],
    ids=["membership", "fidelity"],
)
def test_linalg_error_exit_4(argv, mixed_file, monkeypatch, capsys):
    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr("dpskit.extensions.solve", failing_solve)
    assert main([mixed_file if a == "STATE" else a for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "positive definite" in captured.err


@pytest.mark.parametrize(
    "argv, expect",
    [(["membership", "--input", "STATE", "--N", "2", "--ppt"], "m = 11 "),
     (["fidelity", "--bb84", "0.1", "--N", "2", "--ppt", "true"], "m = 68 "),
     (["certify", "--input", "STATE", "--maxN", "2"], "m = 11 ")],
    ids=["membership", "fidelity", "certify"],
)
def test_memory_error_exit_3(argv, expect, mixed_file, monkeypatch, capsys, tmp_path):
    def exhausted(q):
        raise MemoryError("Unable to allocate 1.6 GiB")

    monkeypatch.setattr("dpskit.extensions._compile", exhausted)
    out = tmp_path / "out"
    argv = [mixed_file if a == "STATE" else a for a in argv] + ["--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory on the N=2 PPT ")
    assert expect in err
    assert "Traceback" not in err
    if argv[0] == "membership":
        assert json.loads(out.read_text()) == {"2": "budget_exceeded"}
    elif argv[0] == "fidelity":
        assert out.read_text().splitlines()[1].split(",")[4] == "budget_exceeded"


def _reference_ppt_keys():
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    upper = json.loads(path.read_text())["upper"]
    return {key: value for key, value in upper.items() if key.endswith("--ppt true")}


@pytest.mark.parametrize("key, value", sorted(_reference_ppt_keys().items()))
def test_reference_ppt_upper_bounds_replayed(key, value, tmp_path):
    """Every PPT sweep query of the committed benchmark reference (computed
    by the link-row compiler) gives the same upper bound on the free form."""
    out = tmp_path / "row.csv"
    assert main(key.split() + ["--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "optimal"
    assert abs(float(row[2]) - value) <= 1e-6


def test_complexity_command(tmp_path):
    out = tmp_path / "cx.json"
    code = main(
        ["complexity", "--dA", "2", "--dB", "2", "--delta", "0.1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["required_N_sym"] == 19
    assert payload["log10_ops_sym"] == pytest.approx(np.log10(64.0 * 20.0**6))


def test_complexity_small_delta(tmp_path):
    out = tmp_path / "cx.json"
    code = main(
        ["complexity", "--dA", "2", "--dB", "2", "--delta", "1e-8", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert (payload["required_N_sym"], payload["required_N_ppt"]) == (199999999, 34007)


@pytest.mark.parametrize("command", ["complexity", "bounds"])
def test_delta_beyond_evaluable_N_exit_2(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--delta", "1e-300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta 1e-300 is too small: its PPT estimate N = ")
    assert "Traceback" not in err
    assert not out.exists()


def test_parser_built_once(tmp_path, monkeypatch):
    import dpskit.cli as cli

    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    table, cx = tmp_path / "table.csv", tmp_path / "cx.json"
    assert main(["bounds", "--dA", "3", "--N", "4", "--out", str(table)]) == 0
    assert main(["complexity", "--dB", "2", "--delta", "0.1", "--out", str(cx)]) == 0
    assert len(built) == 1
    # the second parse sees none of the first call's options
    assert table.read_text().splitlines()[1].startswith("3,2,4,")
    payload = json.loads(cx.read_text())
    assert (payload["dA"], payload["required_N_sym"]) == (2, 19)


@pytest.mark.parametrize(
    "argv",
    [["bounds", "--N", "1..3", "--delta", "0.1"], ["complexity", "--delta", "0.1"]],
    ids=["bounds", "complexity"],
)
def test_required_N_once_per_query(argv, tmp_path, monkeypatch):
    import dpskit.bounds as bounds
    import dpskit.cli as cli

    calls = []
    original = bounds.required_N

    def counting(delta, d_B, ppt):
        calls.append(ppt)
        return original(delta, d_B, ppt)

    # wherever the name is bound: a direct call from cli counts too
    for module in (bounds, cli):
        if hasattr(module, "required_N"):
            monkeypatch.setattr(module, "required_N", counting)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [False, True]
