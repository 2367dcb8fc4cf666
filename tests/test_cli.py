"""Tests for the command-line front end."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projmi as pm
from projmi import cli, errors, io, montecarlo
from projmi.cli import build_parser, main
from projmi.infomeasures import MI_COLUMNS

import oracles


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
        assert abs(record["estimate"] - oracles.beta_pure_entropy(3)) <= 4 * record["std_error"]

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

    @pytest.mark.parametrize("samples", ["2", "7", "8"])
    def test_method_all_at_few_samples(self, capsys, samples):
        # 7 and 8 samples are too few for ten controls, and runs this short use none.
        code, out, _ = run_cli(
            capsys, "mi", "--state", "maxent:d=3", "--method", "all", "--samples", samples,
        )
        assert code == 0
        report = json.loads(out)
        for key in ("projective", "gaussian"):
            assert np.isfinite(report[key]["std_error"]), key

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

    def test_one_engine_run_per_d(self, capsys, monkeypatch):
        # 10_000 samples are two blocks, each drawn from one substream; the
        # three Monte Carlo methods share them, and von-neumann draws nothing.
        calls = []
        original = montecarlo.substream

        def counted(seed, index):
            calls.append(index)
            return original(seed, index)

        monkeypatch.setattr(montecarlo, "substream", counted)
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "maxent", "--d-range", "3",
            "--method", "projective,gaussian-overlap,decomposition,von-neumann",
            "--samples", "10000", "--out", "json",
        )
        assert code == 0
        assert calls == [0, 1]
        rows = json.loads(out)
        assert [r["method"] for r in rows] == [
            "projective", "gaussian-overlap", "decomposition", "von-neumann"]
        assert len({r["runtime_ms"] for r in rows[:3]}) == 1

    @pytest.mark.parametrize("family, spec", [
        ("maxent", "maxent:d=3"), ("product", "product:a.n=3,b.n=3"),
    ])
    def test_shared_run_matches_standalone_mi(self, capsys, family, spec):
        methods = ("projective", "gaussian-overlap", "decomposition")
        _, out, _ = run_cli(
            capsys, "sweep", "--family", family, "--d-range", "3", "--method",
            ",".join(methods), "--samples", "1e4", "--seed", "9", "--out", "json",
        )
        for row, method in zip(json.loads(out), methods):
            _, single, _ = run_cli(
                capsys, "mi", "--state", spec, "--method", method,
                "--samples", "1e4", "--seed", "9",
            )
            record = json.loads(single)
            assert (row["estimate"], row["std_error"]) == (
                record["estimate"], record["std_error"]), method


class TestRecords:
    """Record shapes and values of `entropy`, `mi --method all` and `sweep`,
    floats pinned at rel 1e-12 (``assert_record``). Only a change of the
    draw, its seeding, the blocks and groups, the standard error, the
    controls or an integrand moves the Monte Carlo values; record them again
    with such a change and log it in CHANGES.md."""

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
            "entropy", "pure_random:n=4,seed=1", "canonical-mu", 1.5573159880228673,
            0.0056263796342362485, 10000, 3, 0, pm.__version__,
        ))))

        argv = ("mi", "--state", "maxent:d=3", "--method", "all", "--samples", "1e4", "--seed", "42")
        _, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert_record(payload, {
            "command": "mi", "state_spec": "maxent:d=3", "method": "all", "dims": [3, 3],
            "projective": {
                "estimate": 0.3826572684751222, "std_error": 8.704992162708182e-05,
                "n_samples": 10000, "seed": 42, "method": "mi_projective",
            },
            "gaussian": {
                "estimate": 1.4932536500876865, "std_error": 0.044923149746418665,
                "n_samples": 10000, "seed": 42, "method": "mi_gaussian",
            },
            "von_neumann": 3.16992500144231,
            "ratio_gaussian_over_projective": 3.9023266330161652,
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
            "maxent", 3, "projective", 0.38285440492908496, 8.416168773057766e-05, 10000, 2, 0,
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


VN = ("--method", "von-neumann")
SWEEP = ("sweep", "--family", "maxent", "--d-range", "3")
STATE = {"re": [[1.0]], "im": [[0.0]]}


class TestUsageErrors:
    # (argv, the JSON that {path} holds, text of the message): each reaches
    # one usage-error check through a flag or a file.
    BRANCHES = {
        "--dims count": (("mi", "--state", "mixed_random:n=9", "--dims", "3", *VN), None,
                         "--dims expects NA,NB"),
        "--dims integers": (("mi", "--state", "mixed_random:n=9", "--dims", "3,a", *VN), None,
                            "--dims expects integers"),
        "--d-range integers": (("sweep", "--family", "maxent", "--d-range", "3:x", *VN), None,
                               "--d-range expects LO:HI or a comma list"),
        "--d-range empty": (("sweep", "--family", "maxent", "--d-range", "5:3", *VN), None,
                            "--d-range '5:3' is empty"),
        "unknown sweep method": ((*SWEEP, "--method", "bogus"), None, "unknown sweep method(s)"),
        "no sweep method": ((*SWEEP, "--method", ","), None, "sweep needs at least one method"),
        "non-numeric state": (("entropy", "--state", "file:{path}", *VN),
                              {"re": [["a"]], "im": [[0]]}, "'re'/'im' must be numeric arrays"),
        "state not an object": (("entropy", "--state", "file:{path}", *VN), [STATE],
                                "expected a JSON object"),
        "mixture not an object": (("entropy", "--state", "mixture:{path}", *VN), [],
                                  "mixture: expected a JSON object"),
        "mixture keys": (("entropy", "--state", "mixture:{path}", *VN), {"weights": [1.0]},
                         "mixture: missing keys ['components']"),
        "mixture lists": (("entropy", "--state", "mixture:{path}", *VN),
                          {"weights": 1.0, "components": []}, "must be lists"),
        "component not an object": (("entropy", "--state", "mixture:{path}", *VN),
                                    {"weights": [1.0], "components": [[STATE, STATE]]},
                                    "mixture component 0: expected a JSON object"),
        "component keys": (("entropy", "--state", "mixture:{path}", *VN),
                           {"weights": [1.0], "components": [{"a": STATE}]},
                           "mixture component 0: missing keys ['b']"),
    }

    @pytest.mark.parametrize("case", BRANCHES)
    def test_usage_branch_exits_2(self, capsys, tmp_path, case):
        argv, content, text = self.BRANCHES[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("projmi: ") and err.count("\n") == 1
        assert text in err

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


class TestStateSpecs:
    # (argv, exit code, text the stderr line must hold); a usage error prints
    # one "projmi:" line and nothing on stdout.
    CASES = [
        (["entropy", "--state", "separable_mixture:na=3,nb=3,rank=abc"], 2, "'rank'"),
        (["entropy", "--state", "mixed_random:n=9,seed=-1"], 2, "'seed'"),
        (["entropy", "--state", "mixed_random:n=3,rnak=1"], 2, "'rnak'"),
        (["entropy", "--state", "product:a.n=3,b.n=3,a.rnak=1"], 2, "'a.rnak'"),
        (["entropy", "--state", "maxent:d=3,d=4"], 2, "repeated parameter 'd'"),
        (["entropy", "--state", "pure_random:n=0", "--method", "canonical-mu"], 2, ">= 1"),
        (["entropy", "--state", "mixed_random:n=-2"], 2, ">= 1"),
        (["entropy", "--state", "product:a.n=2,b.n=3"], 0, ""),
        (["entropy", "--state", "mixture:{mixture_2x3}"], 0, ""),
        (["mi", "--state", "mixture:{mixture_2x3}"], 2, "(2, 3)"),
        (["entropy", "--state", "mixed_random:n=3,rank=5"], 2, "rank must be in [1, 3]"),
        (["entropy", "--state", "separable_mixture:na=3,nb=3,components=0"], 2,
         "at least one component"),
        (["entropy", "--state", " "], 2, "empty state spec"),
        (["entropy", "--state", "maxent:d"], 2, "malformed spec parameter 'd'"),
    ]

    @pytest.mark.parametrize(
        "argv, code, text", CASES, ids=[f"{argv[0]}-{argv[2]}" for argv, _, _ in CASES]
    )
    def test_spec_inputs(self, capsys, tmp_path, argv, code, text):
        path = tmp_path / "mixture_2x3.json"
        io.save_mixture(path, pm.random_mixture(2, 3, 2, seed=1))
        argv = [arg.format(mixture_2x3=path) for arg in argv]
        if "--method" not in argv:
            argv += ["--method", "von-neumann"]
        got, out, err = run_cli(capsys, *argv)
        assert got == code, err
        if code == 2:
            assert out == ""
            assert err.startswith("projmi: ") and err.count("\n") == 1
            assert text in err

    def test_product_split_from_built_factors(self, capsys):
        code, out, _ = run_cli(
            capsys, "mi", "--state", "product:a.family=maxent,a.d=3,b.n=3",
            "--method", "all", "--samples", "100",
        )
        assert code == 0
        assert json.loads(out)["dims"] == [9, 3]


class TestFileInputs:
    # A file's split is checked only by the command that needs one, and a
    # malformed mixture weight is a usage error. (argv, exit code, stderr text)
    CASES = {
        "entropy-2x3-file": (["entropy", "--state", "file:{state_2x3}"], 0, ""),
        "mi-2x3-file": (["mi", "--state", "file:{state_2x3}"], 2, "(2, 3)"),
        "text-weight": (["entropy", "--state", "mixture:{text_weight}"], 2, "finite numbers"),
        "nan-weight": (["entropy", "--state", "mixture:{nan_weight}"], 2, "finite numbers"),
        "bool-weight": (["entropy", "--state", "mixture:{bool_weight}"], 2, "finite numbers"),
        "weight-count": (["entropy", "--state", "mixture:{one_weight}"], 2, "got 1 and 2"),
        "mi-dims-mismatch": (
            ["mi", "--state", "mixed_random:n=9", "--dims", "3,4"], 2, "dim_a*dim_b = 12"
        ),
    }

    @staticmethod
    def _write_files(tmp_path) -> dict:
        weights = {"text_weight": ["x", 0.5], "nan_weight": [float("nan"), 1.0],
                   "bool_weight": [True, 0.0], "one_weight": [1.0]}
        paths = {name: tmp_path / f"{name}.json" for name in ("state_2x3", *weights)}
        io.save_state(paths["state_2x3"], pm.validate_density(pm.mixed_random(6).matrix), (2, 3))
        for name, values in weights.items():
            data = io.mixture_to_dict(pm.random_mixture(3, 3, 2, seed=1))
            paths[name].write_text(json.dumps({**data, "weights": values}))
        return paths

    @pytest.mark.parametrize("case", CASES)
    def test_file_inputs(self, capsys, tmp_path, case):
        argv, code, text = self.CASES[case]
        paths = self._write_files(tmp_path)
        argv = [arg.format(**paths) for arg in argv]
        got, out, err = run_cli(capsys, *argv, "--method", "von-neumann")
        assert got == code, err
        if code == 2:
            assert out == ""
            assert err.startswith("projmi: ") and err.count("\n") == 1
            assert text in err

    def test_solver_failure_exits_3(self, capsys, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run_cli(
            capsys, "mi", "--state", "maxent:d=3", "--method", "projective", "--samples", "100"
        )
        assert (code, out, err) == (3, "", "projmi: numeric failure: did not converge\n")


class TestExitClass:
    @pytest.mark.parametrize(
        "error",
        [
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, errors.ProjmiError)
        ],
        ids=lambda error: error.__name__,
    )
    def test_exit_code_follows_error_type(self, capsys, monkeypatch, error):
        def boom(sigma):
            raise error("raised by a patched estimator")

        monkeypatch.setattr(cli, "von_neumann_entropy", boom)
        code, out, err = run_cli(
            capsys, "entropy", "--state", "maxent:d=3", "--method", "von-neumann"
        )
        assert out == ""
        assert "raised by a patched estimator" in err
        assert code == (2 if issubclass(error, errors.UsageError) else 3)


class TestReadme:
    def test_flag_sentence_names_every_option(self):
        # The README lists the flags in one sentence; a flag added to or
        # removed from the parser must change it too.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"Flags: (.*?)\.\s", readme, re.S).group(1)
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            option
            for parser in sub.choices.values()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert set(re.findall(r"`(--[a-z-]+)`", sentence)) == options

    def test_state_spec_sentence_builds(self, capsys, monkeypatch, tmp_path):
        # Every spec the README documents must build and run; the files its
        # file: and mixture: examples name are written first.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"State specs: (.*?)\.\s", readme, re.S).group(1)
        specs = re.findall(r"`([^`]+)`", sentence)
        assert specs
        monkeypatch.chdir(tmp_path)
        io.save_state("state.json", pm.maximally_entangled(3), pm.BipartiteDims(3, 3))
        io.save_mixture("mixture.json", pm.random_mixture(3, 3, 2, seed=1))
        for spec in specs:
            if not spec.startswith(("file:", "mixture:")):
                pm.make_state(spec)
            code, _, err = run_cli(capsys, "entropy", "--state", spec, "--method", "von-neumann")
            assert code == 0, (spec, err)


class TestMethodTables:
    def test_every_monte_carlo_method_is_a_shared_column(self):
        # A Monte Carlo MI method must be a column of mi_estimates, so that
        # the methods of one call share one engine run; an entry called on
        # its own must be exact.
        sigma, dims = pm.maximally_entangled(3), pm.BipartiteDims(3, 3)
        cfg = pm.SamplerConfig(0, 100)
        for table in (cli._MI_METHODS, cli._SWEEP_METHODS):
            for method, entry in table.items():
                if isinstance(entry, str):
                    assert entry in MI_COLUMNS, method
                else:
                    assert not isinstance(entry(sigma, dims, cfg), pm.MCEstimate), method
        served = {entry for entry in cli._MI_METHODS.values() if isinstance(entry, str)}
        assert served == set(MI_COLUMNS)

    def test_entropy_entries_take_the_table_signature(self):
        # entropy and single-method mi share one path through _evaluate.
        sigma, cfg = pm.maximally_entangled(3), pm.SamplerConfig(0, 100)
        methods = list(cli._ENTROPY_METHODS)
        values = cli._evaluate(cli._ENTROPY_METHODS, methods, sigma, None, cfg)
        assert [type(value) for value, _ in values] == [pm.MCEstimate, pm.MCEstimate, float]


class TestEntryPoints:
    def test_python_dash_m_invocation(self):
        # The child imports the projmi under test, installed or not.
        src = str(Path(pm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "projmi", "entropy", "--state", "maxent:d=3",
             "--method", "von-neumann"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "von-neumann"
