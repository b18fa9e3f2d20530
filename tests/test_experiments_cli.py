"""Tests for the experiment harness and command-line interface."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padepencil
from padepencil import (
    Conformation,
    DegenerateError,
    PowerSeries,
    RationalApproximant,
    Solution,
    error_sweep,
    eval_rational,
    gen_geometric_noisy,
    gen_log_series,
    pm2,
    poles_and_zeros,
)
from padepencil.cli import build_parser, load_coefficients, main
from padepencil.numerics import complex_pairs
from padepencil.experiments import (
    INNER_GRID,
    METHODS,
    OUTER_GRID,
    RING_GRID,
    ExperimentConfig,
    _geometric_row,
    approximate_series,
    json_text,
    on_ray,
    pruned_square_refit,
    run_geometric_noise,
    run_log_branch,
    sample_rng,
    write_output,
)


class TestSampleRng:
    def test_deterministic(self):
        a = sample_rng(101, 0, 3).uniform(size=4)
        b = sample_rng(101, 0, 3).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent_of_position(self):
        # the (eps, sample) pair alone decides the stream, so appending
        # eps values never reshuffles existing samples
        assert sample_rng(101, 0, 0).uniform() != sample_rng(101, 1, 0).uniform()
        assert sample_rng(101, 0, 0).uniform() != sample_rng(101, 0, 1).uniform()


class TestApproximateSeries:
    def test_dispatch_and_final_l(self):
        from padepencil import gen_geometric_noisy

        s = gen_geometric_noisy(20, 1e-6, rng=sample_rng(101, 0, 0))
        conf = Conformation(m=10, k=-1)
        dm = approximate_series(s, conf, "dm")
        p2 = approximate_series(s, conf, "pm2")
        assert dm.final_l == 10 and dm.report is None and dm.prf is None
        assert p2.final_l == p2.report.final_l < 10
        assert poles_and_zeros(dm.rational)[0].size == 10

    def test_unknown_method_rejected(self):
        from padepencil import gen_geometric_noisy

        s = gen_geometric_noisy(20, 0.0)
        with pytest.raises(ValueError):
            approximate_series(s, Conformation(m=10, k=-1), "aaa")

    @pytest.mark.parametrize(
        "method, coeffs, m, k, expected_poles",
        [
            ("svd", [0, 1], 1, -1, [0.0]),
            ("pm1", [0, 1], 1, -1, [0.0]),
            ("pm2", [0, 0, 1, 1, 1, 1], 2, 0, [2.0 / 3.0]),
        ],
    )
    def test_zero_numerator_gives_no_zeros(self, method, coeffs, m, k, expected_poles):
        from padepencil import pm1, svd_denominator
        from padepencil.numerics import polynomial_roots

        s = PowerSeries(coeffs)
        conf = Conformation(m=m, k=k)
        res = approximate_series(s, conf, method)
        poles, zeros = poles_and_zeros(res.rational)
        assert not np.any(res.rational.numer)
        assert zeros.size == 0
        # the poles are the denominator's roots and final_l is the solver's own
        np.testing.assert_array_equal(poles, polynomial_roots(res.rational.denom))
        np.testing.assert_allclose(poles, expected_poles, atol=1e-12)
        if method == "svd":
            np.testing.assert_array_equal(res.rational.denom, svd_denominator(s, conf))
            assert res.final_l == m
        elif method == "pm1":
            np.testing.assert_array_equal(res.rational.denom, pm1(s, conf).rational.denom)
            assert res.final_l == m
        else:
            direct = pm2(s, conf)
            np.testing.assert_array_equal(res.rational.denom, direct.rational.denom)
            assert res.final_l == direct.report.final_l == 1


class TestGeometricNoise:
    CFG = dict(n=20, m=10, k=-1,
               eps_list=(1e-6,), samples=2, seed=101, method="pm2")

    def test_rows_and_summary(self):
        out = run_geometric_noise(ExperimentConfig(**self.CFG))
        assert len(out["rows"]) == 2
        row = out["rows"][0]
        assert row["method"] == "pm2"
        assert row["failed"] is False
        assert row["n_poles"] == 1
        assert row["system_pole_error"] < 1e-4
        (agg,) = out["summary"]
        assert agg["eps"] == 1e-6
        assert agg["failures"] == 0
        assert agg["mean_n_poles"] == 1.0
        assert agg["mean_doublets"] == 0.0

    def test_repeat_run_is_identical(self):
        a = run_geometric_noise(ExperimentConfig(**self.CFG))
        b = run_geometric_noise(ExperimentConfig(**self.CFG))
        assert json.dumps(a, default=str) == json.dumps(b, default=str)

    def test_written_files_are_byte_stable(self, tmp_path):
        cfg = dict(self.CFG, output_path=str(tmp_path / "geo"))
        run_geometric_noise(ExperimentConfig(**cfg))
        csv1 = (tmp_path / "geo.samples.csv").read_bytes()
        json1 = (tmp_path / "geo.summary.json").read_bytes()
        run_geometric_noise(ExperimentConfig(**cfg))
        assert (tmp_path / "geo.samples.csv").read_bytes() == csv1
        assert (tmp_path / "geo.summary.json").read_bytes() == json1
        header = csv1.decode().splitlines()[0]
        assert header.startswith("eps,sample,method,failed")
        assert len(csv1.decode().splitlines()) == 3  # header + 2 samples
        summary = json.loads(json1)
        assert summary["config"]["seed"] == 101

    def test_summary_keys_and_order(self):
        (agg,) = run_geometric_noise(ExperimentConfig(**self.CFG))["summary"]
        assert list(agg) == [
            "eps", "samples", "failures", "mean_system_pole_error", "mean_n_poles",
            "mean_doublets", "mean_far_poles", "mean_far_zeros", "mean_unclassified",
            "mean_final_l", "mean_max_err_inner", "worst_max_err_inner", "mean_max_err_ring",
            "worst_max_err_ring", "mean_max_err_outer", "worst_max_err_outer",
        ]

    def test_failures_are_recorded_not_raised(self):
        # dm on an m far beyond the true rank fails on noiseless data
        cfg = ExperimentConfig(n=20, m=10, k=-1,
                               eps_list=(0.0,), samples=1, seed=101, method="dm")
        out = run_geometric_noise(cfg)
        row = out["rows"][0]
        assert row["failed"] is True
        assert row["error_type"] == "DegenerateError"
        assert out["summary"][0]["failures"] == 1

    def test_series_shorter_than_the_conformation_rejected(self):
        with pytest.raises(ValueError, match=r"\[9/10\] needs 20 coefficients but cfg.n=5"):
            run_geometric_noise(ExperimentConfig(n=5))


class TestFusedSweep:
    """_geometric_row sweeps the three grids at once; each grid's columns
    must equal those of its own error_sweep."""

    RING_ROOT = 137  # the RING_GRID point that is a root of the denominator

    @staticmethod
    def _result(numer, denom) -> Solution:
        return Solution(None, RationalApproximant(numer, denom))

    def _cases(self):
        s = gen_geometric_noisy(20, 1e-3, sample_rng(7, 0, 0))
        yield "pm2", approximate_series(s.truncate(20), Conformation(m=10, k=-1), "pm2")
        yield "near", self._result([1.0, 1e-3], [1.0, -1.001])
        yield "ring_root", self._result([1.0], [-RING_GRID[self.RING_ROOT], 1.0])
        yield "outer_overflow", self._result([1.0, 0.0, 0.0, 1e305], [1.0, -1.0])

    def test_row_matches_three_sweeps(self):
        cfg = ExperimentConfig()
        for label, res in self._cases():
            row = _geometric_row(1e-3, 0, cfg, res, poles_and_zeros(res.rational), None)
            for name, grid in (("inner", INNER_GRID), ("ring", RING_GRID), ("outer", OUTER_GRID)):
                sweep = error_sweep(lambda z: eval_rational(res.rational, z), lambda z: 1.0 / (1.0 - z),
                                    grid.astype(complex))
                good = sweep.errors[~sweep.flagged]
                want = float(good.max()) if good.size else float("inf")
                assert row[f"max_err_{name}"] == want, (label, name)
                assert row[f"n_flagged_{name}"] == int(np.count_nonzero(sweep.flagged)), (label, name)

    def test_flags_land_in_their_own_grid(self):
        cases = {label: (res, poles_and_zeros(res.rational)) for label, res in self._cases()}
        row = _geometric_row(1e-3, 0, ExperimentConfig(), *cases["ring_root"], None)
        assert (row["n_flagged_inner"], row["n_flagged_ring"], row["n_flagged_outer"]) == (0, 1, 0)
        assert np.isfinite(row["max_err_ring"])
        row = _geometric_row(1e-3, 0, ExperimentConfig(), *cases["outer_overflow"], None)
        assert row["n_flagged_inner"] == row["n_flagged_ring"] == 0
        assert 0 < row["n_flagged_outer"] < OUTER_GRID.size


class TestLogBranch:
    def test_small_study_structure(self, tmp_path):
        cfg = ExperimentConfig(n=21, t=14.0,
                               output_path=str(tmp_path / "log"))
        out = run_log_branch(cfg)
        assert out["conformation"] == {"m": 10, "k": 0}
        assert out["mesh"]["points"] == 7845
        assert out["dm"]["failed"] is False
        assert out["pm2"]["failed"] is False
        assert out["pm2"]["final_l"] <= 10
        assert all(on_ray(complex(re, im)) for re, im in out["pm2"]["poles"])
        assim = out["assimilation"]
        assert assim["conformation"] == {"m": 10, "k": -1}
        assert assim["pm2_max_error_01"] < assim["naive_max_error_01"]
        data = json.loads((tmp_path / "log.json").read_text())
        assert data["mesh"]["points"] == 7845

    def test_repeat_run_is_identical(self):
        cfg = ExperimentConfig(n=21)
        assert json.dumps(run_log_branch(cfg)) == json.dumps(run_log_branch(cfg))

    @pytest.mark.parametrize("n", [3, 4])
    def test_collapsed_assimilation_keeps_the_other_results(self, n):
        # At m = 1 the one unfiltered pole lies off the ray, so the
        # pole-deletion baseline has nothing to refit.
        out = run_log_branch(ExperimentConfig(n=n))
        assert out["dm"]["failed"] is False and out["pm2"]["failed"] is False
        assert out["pm2"]["final_l"] == 1
        assert out["assimilation"]["failed"] is True
        assert out["assimilation"]["error_type"] == "Collapse"

    @pytest.mark.parametrize("method", ["dm", "pm2"])
    def test_failed_solve_is_recorded(self, method, monkeypatch):
        solve = approximate_series

        def fail_on_the_diagonal(s, conf, name):
            if name == method and conf.k == 0:
                raise DegenerateError("forced failure")
            return solve(s, conf, name)

        monkeypatch.setattr(padepencil.experiments, "approximate_series", fail_on_the_diagonal)
        out = run_log_branch(ExperimentConfig(n=11))
        assert out[method] == {"failed": True, "error_type": "DegenerateError", "error": "forced failure"}
        assert out["pm2" if method == "dm" else "dm"]["failed"] is False
        assert out["assimilation"]["failed"] is False

    def test_pruned_baseline_keeps_only_ray_poles(self):
        conf = Conformation(m=10, k=-1)
        s = gen_log_series(conf.n)
        prf = pruned_square_refit(s, conf)
        assert prf.poles.size >= 1
        assert all(on_ray(p) for p in prf.poles)


#: Non-finite coefficients in each spelling: file name, text, and where
#: the error points (the file, and for text the line).
NON_FINITE = [
    ("c.json", "[[1, 0], [1e400, 0], [1, 0]]", "c.json"),
    ("c.json", "[1, 1e400]", "c.json"),
    ("c.json", "[1, NaN]", "c.json"),
    ("c.json", "[[1, 0], [0, Infinity]]", "c.json"),
    ("c.json", "[1, -Infinity]", "c.json"),
    ("c.txt", "1\ninf\n", "c.txt:2"),
    ("c.txt", "1 nan\n", "c.txt:1"),
    ("c.txt", "# head\n1 0\n1e400 0\n", "c.txt:3"),
    ("c.txt", "1\n0 -inf\n", "c.txt:2"),
]

#: Fields that are not numbers: file name, text, where the error points
#: and the entry it shows.  A JSON string is rejected whatever it spells.
NOT_NUMBERS = [
    ("c.txt", "1 0\nabc 0\n", "c.txt:2", "['abc', '0']"),
    ("c.txt", "# head\n1\n2 1e1x\n", "c.txt:3", "['2', '1e1x']"),
    ("c.json", '[["1.5", 0]]', "c.json", "['1.5', 0]"),
    ("c.json", '[[" 2 ", "1e1"]]', "c.json", "[' 2 ', '1e1']"),
    ("c.json", '[1, [0, "0"]]', "c.json", "[0, '0']"),
    ("c.json", "[true, 1, 2]", "c.json", "True"),
    ("c.json", "[[1, true], [2, 0]]", "c.json", "[1, True]"),
]


class TestCoefficientFiles:
    def test_json_real_numbers(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 0.5, 0.25]")
        np.testing.assert_allclose(load_coefficients(str(path)), [1.0, 0.5, 0.25])

    def test_json_re_im_pairs(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[[1, 2], [3, -4]]")
        np.testing.assert_allclose(load_coefficients(str(path)), [1 + 2j, 3 - 4j])

    def test_text_lines_with_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# leading comment\n1.0\n0.5 -0.5\n\n0.25\n")
        np.testing.assert_allclose(load_coefficients(str(path)),
                                   [1.0, 0.5 - 0.5j, 0.25])

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            load_coefficients(str(path))

    @pytest.mark.parametrize(
        "name, text",
        [
            ("c.json", "[]"),
            ("c.json", "{}"),
            ("c.json", '"x"'),
            ("c.json", "[[1, 2, 3]]"),
            ("c.json", "[[1]]"),
            ("c.txt", "# only comments\n\n   # and blank lines\n\n"),
            ("c.txt", "1.0 2.0\n1.0 2.0 3.0\n"),
        ],
    )
    def test_rejected_inputs(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_coefficients(str(path))

    @pytest.mark.parametrize(
        "text",
        ["[[null, 1], [1, 0]]", "[[1, 0], [1%s, 0]]" % ("0" * 400), "[1, 1%s]" % ("0" * 400)],
        ids=["null_in_pair", "huge_integer_in_pair", "huge_bare_integer"],
    )
    def test_non_numeric_json_entry_rejected_with_location(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"c\.json: expected a number, 're im' or \[re, im\]"):
            load_coefficients(str(path))

    @pytest.mark.parametrize("name, text, where", NON_FINITE, ids=[text for _, text, _ in NON_FINITE])
    def test_non_finite_rejected_with_location(self, tmp_path, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / where))}: expected finite values, got "):
            load_coefficients(str(path))

    @pytest.mark.parametrize("name, text, where, shown", NOT_NUMBERS, ids=[text for _, text, _, _ in NOT_NUMBERS])
    def test_non_number_rejected_with_location(self, tmp_path, name, text, where, shown):
        path = tmp_path / name
        path.write_text(text)
        want = f"{tmp_path / where}: expected a number, 're im' or [re, im], got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_coefficients(str(path))

    def test_json_true_is_no_number(self, tmp_path):
        # bool is an int, so [true, 2] used to read as [1, 2].
        path = tmp_path / "c.json"
        path.write_text("[true, 2]")
        with pytest.raises(ValueError, match=r"expected a number, 're im' or \[re, im\], got True$"):
            load_coefficients(str(path))

    def test_one_field_text_line_is_real(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2.5\n-1 0.5\n")
        np.testing.assert_array_equal(load_coefficients(str(path)), [2.5, -1 + 0.5j])


class TestCli:
    def _coeff_file(self, tmp_path, values):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(values))
        return str(path)

    def test_approximate_json_payload(self, tmp_path, capsys):
        coeffs = self._coeff_file(tmp_path, [1.0] * 20)
        rc = main(["approximate", "--coeffs", coeffs, "--method", "pm2",
                   "--m", "10", "--k", "-1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "pm2"
        assert payload["conformation"]["m"] == 10
        assert payload["conformation"]["k"] == -1
        assert payload["conformation"]["final_l"] == 1
        np.testing.assert_allclose(payload["poles"], [[1.0, 0.0]], atol=1e-12)
        assert isinstance(payload["report"], dict)
        np.testing.assert_allclose(payload["denom"], [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)

    def test_poles_csv_format(self, tmp_path, capsys):
        coeffs = self._coeff_file(tmp_path, [1.0] * 4)
        rc = main(["poles", "--coeffs", coeffs, "--method", "pm1",
                   "--m", "1", "--k", "1", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kind,index,re,im"
        kind, index, re, im = lines[1].split(",")
        assert (kind, index) == ("poles", "0")
        assert abs(float(re) - 1.0) < 1e-12 and abs(float(im)) < 1e-12

    def test_output_file(self, tmp_path):
        coeffs = self._coeff_file(tmp_path, [1.0] * 4)
        out = tmp_path / "result.json"
        rc = main(["approximate", "--coeffs", coeffs, "--m", "1", "--k", "1",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["method"] == "pm2"

    def test_truncation_flag(self, tmp_path, capsys):
        coeffs = self._coeff_file(tmp_path, [1.0] * 30)
        rc = main(["approximate", "--coeffs", coeffs, "--method", "dm",
                   "--m", "1", "--k", "-1", "--n", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["poles"] == [[1.0, 0.0]]

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        coeffs = self._coeff_file(tmp_path, [1.0, 0.0, 1.0])
        rc = main(["approximate", "--coeffs", coeffs, "--method", "dm",
                   "--m", "1", "--k", "0"])
        assert rc == 2
        assert "DegenerateError" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        rc = main(["approximate", "--coeffs", str(tmp_path / "nope.json"),
                   "--m", "1", "--k", "0"])
        assert rc == 3

    def test_malformed_number_exits_3(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text("[[null, 1], [1, 0]]")
        rc = main(["approximate", "--coeffs", str(coeffs), "--m", "1", "--k", "-1"])
        assert rc == 3
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["approximate", "poles"])
    @pytest.mark.parametrize("name, text, where, shown", NOT_NUMBERS, ids=[text for _, text, _, _ in NOT_NUMBERS])
    def test_non_number_coefficients_exit_3(self, tmp_path, capsys, command, name, text, where, shown):
        path = tmp_path / name
        path.write_text(text)
        assert main([command, "--coeffs", str(path), "--m", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / where}: expected a number, 're im' or [re, im], got {shown}\n"

    @pytest.mark.parametrize("command", ["approximate", "poles"])
    @pytest.mark.parametrize("name, text, where", NON_FINITE, ids=[text for _, text, _ in NON_FINITE])
    def test_non_finite_coefficients_exit_3(self, tmp_path, capsys, command, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        assert main([command, "--coeffs", str(path), "--m", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / where}: expected finite values, got ")

    def test_usage_error_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["approximate", "--m", "1"])  # --coeffs missing
        assert exc.value.code == 3

    def test_no_subcommand_exits_3(self, capsys):
        assert main([]) == 3

    @pytest.mark.parametrize(
        "command",
        [["approximate", "--coeffs", "c.json", "--m", "1"], ["poles", "--coeffs", "c.json", "--m", "1"],
         ["experiment", "geometric-noise"], ["experiment", "log-branch"]],
        ids=["approximate", "poles", "geometric-noise", "log-branch"],
    )
    def test_origin_radius_is_not_a_flag(self, capsys, command):
        # The origin radius is the fixed filtering.ORIGIN_RADIUS.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--origin-radius", "1e-3"])
        assert exc.value.code == 3
        assert "--origin-radius" in capsys.readouterr().err

    def test_t_flag_sets_the_series_accuracy(self, tmp_path, capsys):
        coeffs = [1.0 + 1e-6 * np.sin(7.0 * j) for j in range(20)]
        conf = Conformation(m=10, k=-1)
        rc = main(["approximate", "--coeffs", self._coeff_file(tmp_path, coeffs), "--method", "pm2",
                   "--m", "10", "--k", "-1", "--t", "6"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)["poles"]
        want = pm2(PowerSeries(coeffs, t=6), conf)
        assert printed == complex_pairs(poles_and_zeros(want.rational)[0])
        assert len(printed) == want.report.final_l < len(pm2(PowerSeries(coeffs), conf).prf.poles)

    @pytest.mark.parametrize("method", METHODS)
    def test_nonpositive_t_exits_3_for_every_method(self, tmp_path, capsys, method):
        coeffs = self._coeff_file(tmp_path, [1.0] * 4)
        rc = main(["approximate", "--coeffs", coeffs, "--method", method, "--m", "1", "--k", "1", "--t", "0"])
        assert rc == 3
        assert "accuracy estimate t must be positive" in capsys.readouterr().err

    def test_geometric_experiment_writes_files(self, tmp_path, capsys):
        out = tmp_path / "geo"
        rc = main(["experiment", "geometric-noise", "--samples", "1",
                   "--eps", "1e-6", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "geo.samples.csv").exists()
        assert (tmp_path / "geo.summary.json").exists()

    def test_geometric_flags_reach_the_config(self, tmp_path, capsys):
        out = str(tmp_path / "geo")
        rc = main(["experiment", "geometric-noise", "--samples", "1",
                   "--eps", "1e-4", "--eps", "1e-9", "--out", out])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert list(printed) == ["config", "summary"]
        assert printed["config"]["eps_list"] == [1e-4, 1e-9]
        assert printed["config"]["output_path"] == out
        assert [agg["eps"] for agg in printed["summary"]] == [1e-4, 1e-9]
        assert (tmp_path / "geo.samples.csv").exists()
        assert (tmp_path / "geo.summary.json").exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_poles_is_a_projection_of_approximate(self, tmp_path, capsys, method):
        coeffs = self._coeff_file(tmp_path, [1.0, 0.5, 0.75, 0.25, 0.5, 0.125, 0.25, 0.0625])
        args = ["--coeffs", coeffs, "--method", method, "--m", "3", "--k", "-1"]

        def run(*argv):
            assert main(list(argv)) == 0
            return capsys.readouterr().out

        full = json.loads(run("approximate", *args))
        poles = json.loads(run("poles", *args))
        assert list(poles) == ["method", "conformation", "poles"]
        assert {key: full[key] for key in poles} == poles
        full_csv = run("approximate", *args, "--format", "csv").splitlines()
        poles_csv = run("poles", *args, "--format", "csv").splitlines()
        assert poles_csv == full_csv[:1] + [line for line in full_csv if line.startswith("poles,")]
        assert len(poles_csv) == 1 + len(poles["poles"])

    def test_geometric_flag_defaults_are_the_config_defaults(self, capsys):
        assert main(["experiment", "geometric-noise"]) == 0
        printed = json.loads(capsys.readouterr().out)["config"]
        assert printed == json.loads(json.dumps(asdict(ExperimentConfig())))

    def test_log_branch_experiment(self, tmp_path, capsys):
        out = tmp_path / "log"
        rc = main(["experiment", "log-branch", "--n", "21", "--out", str(out)])
        assert rc == 0
        data = json.loads((tmp_path / "log.json").read_text())
        assert data["pm2"]["failed"] is False

    def test_log_branch_has_no_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "log-branch", "--seed", "1"])
        assert exc.value.code == 3

    def test_collapsed_assimilation_exits_0(self, capsys):
        assert main(["experiment", "log-branch", "--n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["assimilation"]["error_type"] == "Collapse"

    def test_closed_stdout_exits_0_quietly(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["experiment", "log-branch", "--n", "11"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_pipe_at_the_command_line(self, unbuffered):
        # The reader is gone before any output: the write fails in main
        # when stdout is unbuffered, and at the final flush when buffered.
        src = str(Path(padepencil.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        argv = [sys.executable, "-m", "padepencil.cli", "experiment", "log-branch", "--n", "11"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")

    def test_method_choices_are_the_registry(self):
        def method_choices(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from method_choices(sub)
                elif "--method" in action.option_strings:
                    yield parser.prog, action.choices

        found = dict(method_choices(build_parser()))
        assert set(found) == {"padepencil approximate", "padepencil poles",
                              "padepencil experiment geometric-noise"}
        assert all(tuple(choices) == METHODS for choices in found.values())


#: Output-writing commands: argv before the --out value, and the suffixes
#: the value gets for each file written ("" for the CLI's --out itself).
#: {coeffs} stands for the coefficient file.
WRITES = {
    "approximate-json": (["approximate", "--coeffs", "{coeffs}", "--m", "3", "--k", "-1"], ("",)),
    "approximate-csv": (["approximate", "--coeffs", "{coeffs}", "--m", "3", "--k", "-1", "--format", "csv"], ("",)),
    "poles-json": (["poles", "--coeffs", "{coeffs}", "--m", "3", "--k", "-1"], ("",)),
    "poles-csv": (["poles", "--coeffs", "{coeffs}", "--m", "3", "--k", "-1", "--format", "csv"], ("",)),
    "geometric-noise": (["experiment", "geometric-noise", "--samples", "1", "--eps", "1e-6"],
                        (".samples.csv", ".summary.json")),
    "log-branch": (["experiment", "log-branch", "--n", "11"], (".json",)),
}


class TestOutputFiles:
    """Every output file, the CLI's --out and the experiments' files, is
    written in place and cut to the written length (experiments.write_output)."""

    @pytest.fixture(autouse=True)
    def _coeffs(self, tmp_path):
        self.coeffs = tmp_path / "coeffs.json"
        self.coeffs.write_text(json.dumps([1.0, 0.5, 0.75, 0.25, 0.5, 0.125, 0.25, 0.0625]))

    def _write(self, case, base, capsys):
        """Run the case with --out base; return main's code, stderr and the paths written."""
        argv, suffixes = WRITES[case]
        rc = main([arg.format(coeffs=self.coeffs) for arg in argv] + ["--out", str(base)])
        return rc, capsys.readouterr().err, [Path(f"{base}{suffix}") for suffix in suffixes]

    def _fresh(self, case, base, capsys):
        """The bytes that a write to paths that do not exist gives."""
        rc, _, paths = self._write(case, base, capsys)
        assert rc == 0
        return paths, [path.read_bytes() for path in paths]

    @pytest.mark.parametrize("case", WRITES)
    def test_longer_and_shorter_files_end_with_the_new_bytes(self, tmp_path, capsys, case):
        paths, fresh = self._fresh(case, tmp_path / "out", capsys)
        for old in (lambda new: b"#" * (len(new) + 4096), lambda new: new[: len(new) // 2]):
            for path, new in zip(paths, fresh):
                path.write_bytes(old(new))
            assert self._write(case, tmp_path / "out", capsys)[0] == 0
            assert [path.read_bytes() for path in paths] == fresh

    @pytest.mark.parametrize("case", WRITES)
    def test_symlink_is_written_through(self, tmp_path, capsys, case):
        paths, fresh = self._fresh(case, tmp_path / "link", capsys)
        targets = [tmp_path / f"target-{i}" for i in range(len(paths))]
        for path, target, new in zip(paths, targets, fresh):
            target.write_bytes(b"#" * (len(new) + 4096))
            path.unlink()
            path.symlink_to(target)
        assert self._write(case, tmp_path / "link", capsys)[0] == 0
        assert all(path.is_symlink() for path in paths)
        assert [target.read_bytes() for target in targets] == fresh

    @pytest.mark.parametrize("case", WRITES)
    def test_existing_file_keeps_its_mode(self, tmp_path, capsys, case):
        paths, fresh = self._fresh(case, tmp_path / "out", capsys)
        for path in paths:
            path.chmod(0o604)
        assert self._write(case, tmp_path / "out", capsys)[0] == 0
        assert [path.stat().st_mode & 0o7777 for path in paths] == [0o604] * len(paths)
        assert [path.read_bytes() for path in paths] == fresh

    @pytest.mark.parametrize("case", [case for case, (_, suffixes) in WRITES.items() if suffixes == ("",)])
    def test_dev_null_is_written_not_truncated(self, capsys, case):
        # /dev/null cannot be truncated; a writer that tried would exit 3.
        rc, err, _ = self._write(case, os.devnull, capsys)
        assert (rc, err) == (0, "")

    @pytest.mark.parametrize("case", WRITES)
    def test_directory_exits_3(self, tmp_path, capsys, case):
        _, suffixes = WRITES[case]
        (tmp_path / f"out{suffixes[0]}").mkdir()
        rc, err, _ = self._write(case, tmp_path / "out", capsys)
        assert (rc, err) == (3, f"error: [Errno 21] Is a directory: '{tmp_path / f'out{suffixes[0]}'}'\n")


class ReprFloat(float):
    """A float subclass with its own repr, which JSON does not use."""

    def __repr__(self):
        return "ReprFloat()"


_floats = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7])
    | st.floats().map(ReprFloat)
)
_scalars = st.none() | st.booleans() | st.integers() | _floats | st.text()
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


class TestJsonText:
    """json_text writes what json.dumps(obj, indent=2) writes."""

    @settings(max_examples=500, deadline=None)
    @given(_json_values)
    def test_same_text_as_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [object(), np.int64(1), np.float32(1.0), {1, 2}, [{"a": b"b"}], {1: 0}, {None: 0}])
    def test_other_values_and_keys_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)


class TestWriteOutput:
    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("#" * 100)
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        write_output(str(path), "0123456789" * 5)
        monkeypatch.undo()
        assert path.read_text() == "0123456789" * 5


class TestRepeatedRequests:
    """main may be called many times in one process; the parser is built
    once and shared, and no request sees state left by an earlier one."""

    def _round(self, coeffs, capsys):
        argvs = [
            [command, "--coeffs", coeffs, "--method", method, "--m", "3", "--k", "-1", "--format", fmt]
            for command, method in (("approximate", "pm2"), ("poles", "dm"))
            for fmt in ("json", "csv")
        ]
        argvs += [
            ["approximate", "--coeffs", coeffs, "--m", "x"],
            ["poles", "--coeffs", coeffs + ".missing", "--m", "3"],
            ["--help"],
            ["experiment", "geometric-noise", "--eps", "1e-4", "--samples", "1"],
            ["experiment", "geometric-noise", "--samples", "1"],
        ]
        seen = []
        for argv in argvs:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = ("SystemExit", exc.code)
            out, err = capsys.readouterr()
            seen.append((rc, out, err))
        return seen

    def test_two_rounds_give_the_same_outputs(self, tmp_path, capsys):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps([1.0, 0.5, 0.75, 0.25, 0.5, 0.125, 0.25, 0.0625]))
        first = self._round(str(path), capsys)
        assert self._round(str(path), capsys) == first
        assert [rc for rc, _, _ in first] == [0, 0, 0, 0, ("SystemExit", 3), 3, ("SystemExit", 0), 0, 0]
        assert "invalid int value: 'x'" in first[4][2]
        assert "No such file" in first[5][2]
        assert first[6][1].startswith("usage: padepencil")
        # the append action starts from its default on every request
        assert json.loads(first[7][1])["config"]["eps_list"] == [1e-4]
        assert json.loads(first[8][1])["config"]["eps_list"] == list(ExperimentConfig().eps_list)

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_runner_is_looked_up_per_request(self, monkeypatch, capsys):
        assert main([]) == 3  # the shared parser exists before the patch
        calls = []
        monkeypatch.setattr("padepencil.cli.run_log_branch", lambda cfg: calls.append(cfg.n) or {"n": cfg.n})
        assert main(["experiment", "log-branch", "--n", "7"]) == 0
        assert calls == [7]
        assert json.loads(capsys.readouterr().out) == {"n": 7}


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _cli_requests_calls():
    """The 32 argv shapes of the benchmark's cli_requests workload, on a
    noisy 3-pole series read as JSON pairs (req.json) and as text lines
    (req.txt), with each call's --out."""
    for method in METHODS:
        m, t = (8, "15") if method == "pm1" else (10, "8")
        for command in ("approximate", "poles"):
            for in_fmt, out_fmt in (("json", "json"), ("txt", "csv"), ("json", "csv"), ("txt", "json")):
                out = f"req-{method}-{command}-{in_fmt}.{out_fmt}"
                yield ([command, "--coeffs", f"req.{in_fmt}", "--method", method, "--m", str(m), "--k", "-1",
                        "--t", t, "--format", out_fmt, "--out", out], (out,))


#: Argument orders that the stock calls do not reach.
ODD_ARGV = [
    ["-h"], [""], ["--", "approximate"], ["approximate"], ["approximate", "--h"], ["experiment", "--help"],
    ["approximate", "--", "--m", "3"], ["poles", "--coeffs=req.json", "--m=3", "--k", "-1"],
    ["poles", "--coeffs", "req.json", "--m", "3", "stray"], ["poles", "--co", "req.json", "--m", "3", "--k", "-1"],
    ["experiment", "geometric-noise", "--samples", "1", "--eps", "1e-6", "stray", "--bogus"],
    ["experiment", "log-brunch"], ["approximate", "poles", "--coeffs", "req.json", "--m", "3"],
]


class TestSubcommandDispatch:
    """main hands argv[1:] to the parser of the subcommand that argv[0]
    names; what it returns, prints and writes, and the namespace it acts
    on, are those of a top-level ``build_parser().parse_args``."""

    def _outcome(self, monkeypatch, capsys, argv, outputs, parse):
        namespaces = []
        monkeypatch.setattr("padepencil.cli.parse_arguments", lambda a: namespaces.append(parse(a)) or namespaces[-1])
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        written = {}
        for path in map(Path, outputs):
            if path.exists():
                written[path.name] = path.read_bytes()
                path.unlink()
        return rc, out, err, namespaces, written

    def test_every_stock_and_benchmark_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(TOOLS))
        import stock_outputs

        monkeypatch.chdir(tmp_path)
        Path("cli").mkdir()
        stock_outputs.write_inputs()
        exact = padepencil.gen_from_poles([1.5, -2.0 + 0.5j, 0.8 + 1.1j], [1.0, 0.5 - 0.25j, 2.0], 20).coeffs
        noisy = (exact * (1 + 1e-9 * np.sin(np.arange(20)))).tolist()
        Path("req.json").write_text(json.dumps([[c.real, c.imag] for c in noisy]))
        Path("req.txt").write_text("# noisy sum of known poles\n" + "".join(f"{c.real!r} {c.imag!r}\n" for c in noisy))
        calls = [(argv, held) for argv, _, held in stock_outputs.cli_calls()]
        calls += list(_cli_requests_calls()) + [(argv, ()) for argv in ODD_ARGV]
        dispatched = padepencil.cli.parse_arguments
        exits = set()
        for argv, outputs in calls:
            got = self._outcome(monkeypatch, capsys, argv, outputs, dispatched)
            want = self._outcome(monkeypatch, capsys, argv, outputs, lambda a: build_parser().parse_args(a))
            assert got == want, argv
            exits.add(got[0])
        assert exits == {0, 2, 3, ("SystemExit", 0), ("SystemExit", 3)}
