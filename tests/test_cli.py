"""Tests for the command-line front end."""

import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import projmi as pm
from projmi import io
from projmi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtime(text: str) -> str:
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": X', text)


def assert_record(got: dict, expected: dict):
    """Same keys in the same order and the same values; floats to 1e-12
    relative (BLAS rounding), runtime_ms only typed."""
    assert list(got) == list(expected)
    for key, want in expected.items():
        if key == "runtime_ms":
            assert isinstance(got[key], int)
        elif isinstance(want, dict):
            assert_record(got[key], want)
        elif isinstance(want, float):
            assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0), key
        else:
            assert got[key] == want, key


class TestEntropyCommand:
    def test_von_neumann_pure_joint_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--state", "maxent:d=3", "--method", "von-neumann"
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "entropy"
        assert record["method"] == "von-neumann"
        assert record["estimate"] == pytest.approx(0.0, abs=1e-9)
        assert record["std_error"] == 0.0
        assert record["n_samples"] == 0
        assert set(record) == {
            "command", "state_spec", "method", "estimate", "std_error",
            "n_samples", "seed", "runtime_ms", "version",
        }

    def test_canonical_mu_matches_beta_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--state", "pure_random:n=3,seed=1",
            "--method", "canonical-mu", "--samples", "1e5",
        )
        assert code == 0
        record = json.loads(out)
        from projmi.oracles import beta_pure_entropy
        assert abs(record["estimate"] - beta_pure_entropy(3)) <= 4 * record["std_error"]

    def test_gaussian_overlap_matches_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--state", "pure_random:n=3,seed=1",
            "--method", "gaussian-overlap", "--samples", "1e5",
        )
        assert code == 0
        record = json.loads(out)
        target = pm.pure_state_entropy_gaussian_constant()
        assert abs(record["estimate"] - target) <= 4 * record["std_error"]

    def test_gaussian_overlap_rejects_mixed_state(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--state", "mixed_random:n=3,rank=2,seed=1",
            "--method", "gaussian-overlap", "--samples", "1000",
        )
        assert code == 2
        assert "pure state" in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--state", "maxent:d=3", "--method", "von-neumann",
            "--out", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("command,state_spec,method,estimate")
        assert row.startswith("entropy,maxent:d=3,von-neumann,")


class TestMiCommand:
    def test_von_neumann_maxent(self, capsys):
        code, out, _ = run_cli(
            capsys, "mi", "--state", "maxent:d=3", "--method", "von-neumann"
        )
        assert code == 0
        record = json.loads(out)
        assert record["estimate"] == pytest.approx(2 * np.log2(3), abs=1e-9)

    def test_projective_product_state_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "mi", "--state", "product:a.n=3,b.n=3", "--method", "projective",
            "--samples", "2e4", "--seed", "3",
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["estimate"]) <= 4 * record["std_error"] + 1e-12

    def test_method_all_emits_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "mi", "--state", "maxent:d=3", "--method", "all",
            "--samples", "2e4", "--seed", "42",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dims"] == [3, 3]
        assert report["projective"]["estimate"] > 0
        assert report["gaussian"]["estimate"] > 0
        assert report["von_neumann"] == pytest.approx(2 * np.log2(3), abs=1e-9)
        assert np.isfinite(report["ratio_gaussian_over_projective"])

    def test_dims_required_when_not_inferable(self, capsys):
        code, _, err = run_cli(
            capsys, "mi", "--state", "mixed_random:n=9,seed=1", "--method", "von-neumann"
        )
        assert code == 2
        assert "--dims" in err

    def test_explicit_dims_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "mi", "--state", "mixed_random:n=9,seed=1",
            "--method", "von-neumann", "--dims", "3,3",
        )
        assert code == 0
        assert json.loads(out)["estimate"] >= -1e-9

    def test_dims_product_must_match_state(self, capsys):
        code, _, err = run_cli(
            capsys, "mi", "--state", "mixed_random:n=9,seed=1",
            "--method", "von-neumann", "--dims", "3,4",
        )
        assert code == 2

    def test_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        io.save_state(path, pm.maximally_entangled(3), pm.BipartiteDims(3, 3))
        code, out, _ = run_cli(
            capsys, "mi", "--state", f"file:{path}", "--method", "von-neumann"
        )
        assert code == 0
        assert json.loads(out)["estimate"] == pytest.approx(2 * np.log2(3), abs=1e-9)

    def test_state_from_mixture_file(self, capsys, tmp_path):
        path = tmp_path / "mixture.json"
        io.save_mixture(path, pm.random_mixture(3, 3, 2, seed=2))
        code, out, _ = run_cli(
            capsys, "mi", "--state", f"mixture:{path}", "--method", "von-neumann"
        )
        assert code == 0
        assert json.loads(out)["estimate"] >= -1e-9

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "mi", "--state", "file:/nonexistent.json", "--method", "von-neumann"
        )
        assert code == 2


class TestSweepCommand:
    def test_von_neumann_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "maxent", "--d-range", "3:5",
            "--method", "von-neumann",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,d,method,estimate,std_error,n_samples,seed,runtime_ms"
        for line, d in zip(lines[1:], (3, 4, 5)):
            cells = line.split(",")
            assert cells[0] == "maxent"
            assert int(cells[1]) == d
            assert abs(float(cells[3]) - 2 * np.log2(d)) <= 1e-9

    def test_closed_form_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "maxent", "--d-range", "3,4",
            "--method", "closed-form",
        )
        assert code == 0
        for line, d in zip(out.strip().splitlines()[1:], (3, 4)):
            value = float(line.split(",")[3])
            assert value == pytest.approx(pm.maxent_mi_closed_form(d), abs=1e-12)

    def test_product_family_mc_near_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "product", "--d-range", "3:3",
            "--method", "projective", "--samples", "2e4", "--seed", "5",
        )
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert abs(float(cells[3])) <= 4 * float(cells[4]) + 1e-12

    def test_closed_form_requires_maxent(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "product", "--d-range", "3:4",
            "--method", "closed-form",
        )
        assert code == 2

    def test_bad_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "maxent", "--d-range", "2:4",
            "--method", "von-neumann",
        )
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "maxent", "--d-range", "3:3",
            "--method", "von-neumann,closed-form", "--out", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["method"] for r in rows] == ["von-neumann", "closed-form"]


class TestRecords:
    """Record shapes and values recorded before the record builders were
    merged into one emitter."""

    RECORD = (
        "command", "state_spec", "method", "estimate", "std_error",
        "n_samples", "seed", "runtime_ms", "version",
    )
    SWEEP_ROW = (
        "family", "d", "method", "estimate", "std_error", "n_samples", "seed", "runtime_ms",
    )

    def test_record_shapes(self, capsys):
        _, out, _ = run_cli(
            capsys, "entropy", "--state", "pure_random:n=4,seed=1",
            "--method", "canonical-mu", "--samples", "1e4", "--seed", "3",
        )
        assert_record(json.loads(out), dict(zip(self.RECORD, (
            "entropy", "pure_random:n=4,seed=1", "canonical-mu", 1.565227911188651,
            0.009536854743968294, 10000, 3, 0, pm.__version__,
        ))))

        argv = ("mi", "--state", "maxent:d=3", "--method", "all", "--samples", "1e4", "--seed", "42")
        _, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert_record(payload, {
            "command": "mi", "state_spec": "maxent:d=3", "method": "all", "dims": [3, 3],
            "projective": {
                "estimate": 0.37951153064807286, "std_error": 0.013412972441769349,
                "n_samples": 10000, "seed": 7982153555191239694, "method": "mi_projective",
            },
            "gaussian": {
                "estimate": 1.5134367454022766, "std_error": 0.02265125341699842,
                "n_samples": 10000, "seed": 9818578461784308409, "method": "mi_gaussian",
            },
            "von_neumann": 3.16992500144231,
            "ratio_gaussian_over_projective": 3.9878544475785924,
            "n_samples": 10000, "seed": 42, "runtime_ms": 0, "version": pm.__version__,
        })
        _, out, _ = run_cli(capsys, *argv, "--out", "csv")
        header, *rows = csv.reader(out.splitlines())
        assert tuple(header) == self.RECORD
        rows = [dict(zip(header, row)) for row in rows]
        assert [r["method"] for r in rows] == ["projective", "gaussian", "von-neumann"]
        for row, key in zip(rows, ("projective", "gaussian")):
            assert float(row["estimate"]) == payload[key]["estimate"]
            assert float(row["std_error"]) == payload[key]["std_error"]
            assert (row["n_samples"], row["seed"]) == ("10000", "42")
        assert float(rows[2]["estimate"]) == payload["von_neumann"]
        assert (rows[2]["std_error"], rows[2]["n_samples"]) == ("0.0", "0")

        argv = (
            "sweep", "--family", "maxent", "--d-range", "3:3",
            "--method", "projective,closed-form", "--samples", "1e4", "--seed", "2",
        )
        _, out, _ = run_cli(capsys, *argv, "--out", "json")
        first, second = json.loads(out)
        assert_record(first, dict(zip(self.SWEEP_ROW, (
            "maxent", 3, "projective", 0.4001238443236322, 0.009134371679241214, 10000, 2, 0,
        ))))
        assert_record(second, dict(zip(self.SWEEP_ROW, (
            "maxent", 3, "closed-form", 4.8048602279453485, 0.0, 0, 2, 0,
        ))))
        _, out, _ = run_cli(capsys, *argv)
        assert out.splitlines()[0] == ",".join(self.SWEEP_ROW)

    @pytest.mark.parametrize("argv", [
        ("entropy", "--state", "pure_random:n=4,seed=1", "--method", "gaussian-overlap"),
        ("mi", "--state", "product:a.n=3,b.n=3", "--method", "projective"),
        ("mi", "--state", "product:a.n=3,b.n=3", "--method", "all"),
    ])
    def test_csv_quotes_comma_bearing_spec(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--samples", "2000", "--out", "csv")
        assert code == 0
        header, *rows = csv.reader(out.splitlines())
        assert rows
        for row in rows:
            assert len(row) == len(header)
            assert dict(zip(header, row))["state_spec"] == argv[2]


class TestReproducibility:
    def test_identical_flags_identical_output(self, capsys):
        argv = (
            "mi", "--state", "maxent:d=3", "--method", "all",
            "--samples", "2e4", "--seed", "11",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert strip_runtime(first) == strip_runtime(second)

    def test_sweep_rows_deterministic(self, capsys):
        argv = (
            "sweep", "--family", "maxent", "--d-range", "3:4",
            "--method", "projective", "--samples", "1e4", "--seed", "2",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        stripped = [re.sub(r",\d+$", ",X", line) for line in first.splitlines()]
        stripped2 = [re.sub(r",\d+$", ",X", line) for line in second.splitlines()]
        assert stripped == stripped2


class TestUsageErrors:
    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--state", "bogus:x=1", "--method", "von-neumann"
        )
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("samples", ["few", "nan", "inf", "1e400"])
    def test_bad_samples_exit_2(self, capsys, samples):
        code, _, err = run_cli(
            capsys, "entropy", "--state", "maxent:d=3", "--method", "von-neumann",
            "--samples", samples,
        )
        assert code == 2
        assert err.startswith("projmi: --samples")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exit_2(self, capsys, tol):
        code, _, err = run_cli(
            capsys, "entropy", "--state", "maxent:d=3", "--method", "von-neumann",
            "--tol", tol,
        )
        assert code == 2
        assert err.startswith("projmi: --tol")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exit_2(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "mi", "--state", "maxent:d=3", "--method", "projective",
            "--samples", "100", "--seed", str(seed),
        )
        assert (code, out) == (2, "")
        assert err.startswith("projmi: --seed")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, capsys, seed):
        code, out, _ = run_cli(
            capsys, "mi", "--state", "maxent:d=3", "--method", "projective",
            "--samples", "100", "--seed", str(seed),
        )
        assert code == 0
        assert json.loads(out)["seed"] == seed

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_state_file_exit_2(self, capsys, tmp_path, value):
        data = io.state_to_dict(pm.maximally_entangled(3), pm.BipartiteDims(3, 3))
        data["re"][0][4] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        for method in ("von-neumann", "projective"):
            code, out, err = run_cli(
                capsys, "mi", "--state", f"file:{path}", "--method", method,
                "--samples", "1000",
            )
            assert (code, out) == (2, "")
            assert "non-finite" in err

    def test_subcommand_required(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_numeric_errors_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise pm.NonFiniteSample("sample 3 is NaN")

        monkeypatch.setattr("projmi.cli.differential_entropy_mu", boom)
        code, _, err = run_cli(
            capsys, "entropy", "--state", "maxent:d=3", "--method", "canonical-mu",
            "--samples", "100",
        )
        assert code == 3
        assert "numeric failure" in err


class TestEntryPoints:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "projmi", "entropy", "--state", "maxent:d=3",
             "--method", "von-neumann"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "von-neumann"
