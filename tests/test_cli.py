import json

import numpy as np
import pytest

from dpskit.cli import main
from dpskit.operators import HermitianOperator, identity, operator_to_json, pure_state

BELL = pure_state([1, 0, 0, 1], (2, 2))


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
        monkeypatch.setenv("DPSKIT_BUDGET_DIM", "3")
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

    def test_delta_adds_columns(self, tmp_path):
        out = tmp_path / "bounds.csv"
        main(["bounds", "--dB", "2", "--N", "1..3", "--delta", "0.1", "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header.endswith(
            "reqN_sym,reqN_ppt,log10_ops_sym,log10_ops_ppt,log10_simpl_sym,log10_simpl_ppt"
        )
        row = out.read_text().splitlines()[1].split(",")
        assert row[10] == "19"


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

    def test_fidelity_requires_source(self):
        assert main(["fidelity", "--N", "2"]) == 2

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

    def test_budget_partial_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSKIT_BUDGET_DIM", "14")
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

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_invalid_budget_env_exit_2(self, raw, mixed_file, monkeypatch, capsys):
        monkeypatch.setenv("DPSKIT_BUDGET_DIM", raw)
        assert main(["membership", "--input", mixed_file, "--N", "2"]) == 2
        assert "DPSKIT_BUDGET_DIM" in capsys.readouterr().err

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
            ["complexity", "--dB", "1", "--delta", "0.1"],
            ["certify", "--input", "STATE", "--maxN", "1"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a not in ("--input", "STATE")),
    )
    def test_out_of_range_exit_2(self, argv, mixed_file, capsys):
        argv = [mixed_file if a == "STATE" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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


def test_complexity_command(tmp_path):
    out = tmp_path / "cx.json"
    code = main(
        ["complexity", "--dA", "2", "--dB", "2", "--delta", "0.1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["required_N_sym"] == 19
    assert payload["log10_ops_sym"] == pytest.approx(np.log10(64.0 * 20.0**6))
