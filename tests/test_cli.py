"""Contract tests for the command-line front end.

The CLI reads a single JSON run config (``--config``), with only three other
flags: ``--seed`` (override / supply the master seed), ``--threads``, and
``--verbose``.  Exit codes: 0 ok, 2 config error, 3 numerical failure.

Randomness contract (documented in possfit.cli and pinned here): with master
seed ``s``,

    simulated data        derive_rng(s, CLI_TAG, 0)
    contour / fit child   derive_rng(s, CLI_TAG, 1).integers(2**63)
    hypothesis k search   derive_rng(s, CLI_TAG, 2, k).integers(2**63)
    marginal search       derive_rng(s, CLI_TAG, 3).integers(2**63)
    choquet integration   derive_rng(s, CLI_TAG, 4).integers(2**63)

Output files are written atomically (temp + rename), carry a header block
with the config hash and seed, and are byte-identical across reruns except
for the single timestamp header line.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from possfit import (
    AxisSpec,
    Scenario,
    ConfigError,
    exact_binomial_contour,
    grid_eval,
    make_exact_binomial,
    make_mc_contour,
    models,
)
from possfit import cli
from possfit._rng import CLI_TAG, derive_rng
from possfit.cli import main


BINOM_RESPONSES = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]  # s=6, n=15


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(config_path, *extra):
    return main(["--config", config_path, *extra])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def csv_sections(path):
    """(comment lines, header row, data rows) of an output CSV."""
    lines = read_lines(path)
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    return comments, rest[0], rest[1:]


def contour_config(tmp_path, **overrides):
    doc = {
        "command": "contour",
        "model": "binomial",
        "seed": 11,
        "data": {"inline": {"responses": BINOM_RESPONSES}},
        "method": "exact",
        "grid": [{"lo": 0.0, "hi": 1.0, "count": 200, "name": "theta"}],
        "output": {
            "csv": str(tmp_path / "contour.csv"),
            "json": str(tmp_path / "contour.json"),
        },
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# cmd_contour
# ---------------------------------------------------------------------------


class TestContour:
    def test_binomial_exact_grid(self, tmp_path):
        cfg = contour_config(tmp_path)
        assert run(write_config(tmp_path, cfg)) == 0

        comments, header, rows = csv_sections(tmp_path / "contour.csv")
        assert header == "theta,value"
        assert len(rows) == 200
        assert any("seed: 11" in c for c in comments)
        assert any("sha256" in c for c in comments)
        assert sum("generated" in c for c in comments) == 1

        # values equal the library's exact contour on the same grid
        data = models.Dataset(responses=np.array(BINOM_RESPONSES))
        grid = grid_eval(
            make_exact_binomial(data), (AxisSpec(0.0, 1.0, 200),)
        )
        got = np.array([float(r.split(",")[1]) for r in rows])
        assert np.array_equal(got, grid.values)

        doc = json.loads((tmp_path / "contour.json").read_text())
        assert doc["header"]["seed"] == 11
        assert len(doc["header"]["config_sha256"]) == 64
        assert doc["axes"][0]["count"] == 200
        assert doc["values"] == [float(v) for v in grid.values]

    def test_grid_json_records_kind_seed_and_meta(self, tmp_path):
        """A contour's JSON says what was computed: the contour's kind, its
        seed and its metadata come between the header and the axes."""
        cfg = contour_config(
            tmp_path, model="gamma", method="naive", m=20,
            data={"simulate": {"theta": [7.0, 3.0], "n": 25}},
            grid=[{"lo": 4.0, "hi": 10.0, "count": 3}, {"lo": 2.0, "hi": 4.0, "count": 2}],
        )
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "contour.json").read_text())
        assert list(doc) == ["header", "kind", "seed", "meta", "axes", "shape", "values"]
        assert doc["kind"] == "monte-carlo"
        assert doc["seed"] == int(derive_rng(11, CLI_TAG, 1).integers(2 ** 63))
        assert doc["meta"] == {"model": "gamma", "m": 20}
        assert doc["shape"] == [3, 2]

    def test_both_files_of_a_run_carry_one_generated_stamp(self, tmp_path, monkeypatch):
        """The header is built once per run: with a clock that moves at
        every call, the CSV and the JSON still carry the same stamp."""
        stamps = (f"2026-01-01T00:00:{s:02d}Z" for s in range(60))
        monkeypatch.setattr(cli, "_now_iso", lambda: next(stamps))
        assert run(write_config(tmp_path, contour_config(tmp_path))) == 0
        comments, _, _ = csv_sections(tmp_path / "contour.csv")
        doc = json.loads((tmp_path / "contour.json").read_text())
        assert doc["header"]["generated"] == "2026-01-01T00:00:00Z"
        assert comments[-1] == "# generated: 2026-01-01T00:00:00Z"

    @pytest.mark.parametrize("method", ["exact", "naive"])
    def test_binomial_log_params_grid_is_exact_contour_at_exp_eta(
            self, tmp_path, method):
        cfg = contour_config(
            tmp_path, method=method, log_params=True,
            grid=[{"lo": -3.0, "hi": 0.5, "count": 40, "name": "eta"}],
        )
        assert run(write_config(tmp_path, cfg)) == 0
        _, header, rows = csv_sections(tmp_path / "contour.csv")
        assert header == "eta,value"
        eta, got = np.array([r.split(",") for r in rows], dtype=float).T
        assert got.max() > 0.9
        expected = exact_binomial_contour(15, 6, np.exp(eta))
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_bvn_mc_matches_library_byte_for_byte(self, tmp_path):
        cfg = {
            "command": "contour",
            "model": "bvn-correlation",
            "seed": 23,
            "data": {"simulate": {"theta": [0.5], "n": 40}},
            "method": "naive",
            "m": 500,
            "grid": [{"lo": -0.9, "hi": 0.9, "count": 21, "name": "rho"}],
            "output": {"csv": str(tmp_path / "bvn.csv")},
        }
        assert run(write_config(tmp_path, cfg)) == 0

        model = models.bvn_correlation()
        data = model.sample(
            np.array([0.5]), 40, derive_rng(23, CLI_TAG, 0)
        )
        child = int(derive_rng(23, CLI_TAG, 1).integers(2 ** 63))
        grid = grid_eval(
            make_mc_contour(model, data, 500, seed=child),
            (AxisSpec(-0.9, 0.9, 21),),
        )
        coords = np.linspace(-0.9, 0.9, 21)
        expected = [
            f"{float(c)!r},{float(v)!r}"
            for c, v in zip(coords, grid.values)
        ]
        _, header, rows = csv_sections(tmp_path / "bvn.csv")
        assert header == "rho,value"
        assert rows == expected

    def test_missing_data_file_exit2_no_partial_outputs(
        self, tmp_path, capsys
    ):
        cfg = contour_config(
            tmp_path,
            data={"csv": str(tmp_path / "nope.csv"), "response": "y"},
        )
        assert run(write_config(tmp_path, cfg)) == 2
        assert not (tmp_path / "contour.csv").exists()
        assert not (tmp_path / "contour.json").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["covariate-rows", "censor-flag", "responses-3d",
                                      "responses-strings", "csv-missing-column",
                                      "csv-non-numeric"])
    def test_data_the_dataset_rejects_exit2_no_outputs(self, tmp_path, capsys, case):
        """Inline data or a CSV file that cannot form a dataset is a config
        error, not a traceback."""
        data_path = tmp_path / "obs.csv"
        data_path.write_text("y\n1\n0\nyes\n" if case == "csv-non-numeric" else "y\n1\n0\n",
                             encoding="utf-8")
        data = {
            "covariate-rows": {"inline": {"responses": [1, 0, 1], "covariates": [[1.0]]}},
            "censor-flag": {"inline": {"responses": [1, 0, 1], "censor": [2, 0, 1]}},
            "responses-3d": {"inline": {"responses": [[[1], [0]], [[1], [0]]]}},
            "responses-strings": {"inline": {"responses": ["a", "b", "c"]}},
            "csv-missing-column": {"csv": str(data_path), "response": "x"},
            "csv-non-numeric": {"csv": str(data_path), "response": "y"},
        }[case]
        assert run(write_config(tmp_path, contour_config(tmp_path, data=data))) == 2
        assert "config error: invalid data" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv", "run.json"]

    def test_failed_bootstrap_evaluation_exit3_no_outputs(self, tmp_path,
                                                          capsys):
        """Resamples of all-NaN values have no minimizer, so the contour's
        resample set cannot be drawn: a numerical failure, not a traceback."""
        data_path = tmp_path / "obs.csv"
        data_path.write_text("y\nnan\nnan\nnan\n1.0\n", encoding="utf-8")
        cfg = contour_config(
            tmp_path,
            model="gamma",
            data={"csv": str(data_path), "response": "y"},
            method="bootstrap",
            bootstrap={"tau": 0.25, "B": 50},
            grid=[{"lo": 0.5, "hi": 2.0, "count": 5}],
        )
        assert run(write_config(tmp_path, cfg)) == 3
        assert not (tmp_path / "contour.csv").exists()
        assert not (tmp_path / "contour.json").exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_csv_data_source(self, tmp_path):
        rng = np.random.default_rng(4)
        ys = rng.gamma(7.0, 3.0, size=25)
        data_path = tmp_path / "obs.csv"
        data_path.write_text(
            "y\n" + "\n".join(repr(float(y)) for y in ys), encoding="utf-8"
        )
        cfg = {
            "command": "contour",
            "model": "gamma",
            "seed": 5,
            "data": {"csv": str(data_path), "response": "y"},
            "method": "naive",
            "m": 200,
            "grid": [
                {"lo": 2.0, "hi": 15.0, "count": 6, "name": "shape"},
                {"lo": 0.5, "hi": 8.0, "count": 5, "name": "scale"},
            ],
            "output": {"csv": str(tmp_path / "g.csv")},
        }
        assert run(write_config(tmp_path, cfg)) == 0
        _, header, rows = csv_sections(tmp_path / "g.csv")
        assert header == "shape,scale,value"
        assert len(rows) == 30
        vals = np.array([float(r.split(",")[2]) for r in rows])
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_no_output_paths_is_config_error(self, tmp_path):
        cfg = contour_config(tmp_path, output={})
        assert run(write_config(tmp_path, cfg)) == 2

    def test_grid_required(self, tmp_path):
        cfg = contour_config(tmp_path)
        del cfg["grid"]
        assert run(write_config(tmp_path, cfg)) == 2


# ---------------------------------------------------------------------------
# global config handling
# ---------------------------------------------------------------------------


class TestConfigHandling:
    def test_seed_mandatory_and_overridable(self, tmp_path):
        cfg = contour_config(tmp_path)
        del cfg["seed"]
        path = write_config(tmp_path, cfg)
        assert run(path) == 2
        assert run(path, "--seed", "7") == 0
        doc = json.loads((tmp_path / "contour.json").read_text())
        assert doc["header"]["seed"] == 7

    def test_unknown_command_exit2(self, tmp_path, capsys):
        cfg = contour_config(tmp_path, command="paint")
        assert run(write_config(tmp_path, cfg)) == 2
        assert "command" in capsys.readouterr().err

    def test_malformed_json_exit2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(str(path)) == 2

    def test_unknown_model_exit2(self, tmp_path):
        cfg = contour_config(tmp_path, model="bogus")
        assert run(write_config(tmp_path, cfg)) == 2

    def test_non_string_model_id_exit2(self, tmp_path, capsys):
        cfg = contour_config(tmp_path, model={"id": "binomial"})
        assert run(write_config(tmp_path, cfg)) == 2
        assert "unknown model id" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["contour", "fit", "calibrate"])
    @pytest.mark.parametrize("sa", [{"alpha": 1.5}, []])
    def test_bad_sa_block_exit2_without_outputs(self, tmp_path, capsys,
                                                command, sa):
        cfg = {
            "contour": contour_config(tmp_path, method="variational-scalar"),
            "fit": fit_config(tmp_path),
            "calibrate": calibrate_config(tmp_path,
                                          method="variational-scalar"),
        }[command]
        cfg["sa"] = sa
        assert run(write_config(tmp_path, cfg)) == 2
        assert "invalid sa block" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("model_kwargs", [{"lam": float("nan")},
                                              {"sigma": -1.0}])
    def test_invalid_lasso_settings_exit2_without_outputs(self, tmp_path,
                                                          capsys, model_kwargs):
        """A NaN penalty or a negative sigma is a config error, not a flat
        grid of zeros or a traceback."""
        cfg = contour_config(
            tmp_path, model="normal-means-lasso", method="naive",
            model_kwargs=model_kwargs,
            data={"inline": {"responses": [0.1, 2.0, -0.3]}}, m=50,
            grid=[{"lo": -1.0, "hi": 1.0, "count": 2}] * 3,
        )
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "normal-means-lasso" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("method,model,theta", [
        ("exact", "bvn-correlation", [0.5]),
        ("censored", "lognormal", [0.3, 0.5]),
    ])
    def test_method_the_model_cannot_serve_exit2(self, tmp_path, capsys,
                                                 method, model, theta):
        cfg = contour_config(
            tmp_path, model=model, method=method,
            data={"simulate": {"theta": theta, "n": 20}},
            grid=[{"lo": 0.1, "hi": 0.5, "count": 3}] * len(theta),
        )
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{model} model" in err
        assert not (tmp_path / "contour.csv").exists()

    @pytest.mark.parametrize("case", ["contour-m", "contour-m-0", "simulate-n", "calibrate-n",
                                      "calibrate-axis", "marginal-component",
                                      "choquet-resolution", "choquet-resolution-1"])
    def test_bad_scalar_field_exit2_without_outputs(self, tmp_path, capsys, case):
        """A scalar field that is not a number or out of range (a Monte Carlo
        size m of 0, a Choquet resolution of 1), or a grid axis missing a
        key, is a config error, not a traceback or a numerical failure."""
        cfg = {
            "contour-m": lambda: contour_config(tmp_path, method="naive", m="many"),
            "contour-m-0": lambda: contour_config(
                tmp_path, model="bvn-correlation", method="naive", m=0,
                data={"simulate": {"theta": [0.3], "n": 20}},
                grid=[{"lo": -0.5, "hi": 0.5, "count": 3}]),
            "simulate-n": lambda: contour_config(
                tmp_path, method="naive",
                data={"simulate": {"theta": [0.4], "n": "lots"}}),
            "calibrate-n": lambda: calibrate_config(tmp_path, n="fifteen"),
            "calibrate-axis": lambda: calibrate_config(
                tmp_path, method="variational-scalar", sa={"seed": 1},
                grid=[{"lo": 0.1}]),
            "marginal-component": lambda: contour_config(
                tmp_path, command="marginal", marginal={"component": "first"}),
            "choquet-resolution": lambda: contour_config(
                tmp_path, command="choquet",
                choquet={"loss": {"kind": "constant", "value": 1.0},
                         "resolution": "fine"}),
            "choquet-resolution-1": lambda: contour_config(
                tmp_path, command="choquet",
                choquet={"loss": {"kind": "constant", "value": 1.0}, "resolution": 1}),
        }[case]()
        assert run(write_config(tmp_path, cfg)) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("doc", [{"m": 50.5}, {"m": True}, {"seed": "11"},
                                     {"data": {"simulate": {"theta": [0.4], "n": 20.7}}}],
                             ids=["m-float", "m-bool", "seed-string", "simulate-n-float"])
    def test_integer_field_that_is_not_an_int_exit2(self, tmp_path, capsys, doc):
        """A float, bool or string where an integer belongs is a config
        error; it is not truncated."""
        cfg = contour_config(tmp_path, method="naive", **doc)
        assert run(write_config(tmp_path, cfg)) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("case", ["sa-alpha-string", "sa-epsilon-bool",
                                      "grid-hi-bool", "grid-lo-string"])
    def test_float_field_that_is_not_a_number_exit2(self, tmp_path, capsys, case):
        """A bool or string where a real number belongs is a config error;
        true is not read as 1.0, nor "0.2" as 0.2."""
        cfg = {
            "sa-alpha-string": lambda: fit_config(
                tmp_path, sa={"alpha": "0.2", "k_outer": 60, "m_inner": 100}),
            "sa-epsilon-bool": lambda: fit_config(
                tmp_path, sa={"epsilon": True, "k_outer": 60, "m_inner": 100}),
            "grid-hi-bool": lambda: contour_config(
                tmp_path, grid=[{"lo": 0.0, "hi": True, "count": 5}]),
            "grid-lo-string": lambda: contour_config(
                tmp_path, grid=[{"lo": "0.1", "hi": 0.9, "count": 5}]),
        }[case]()
        assert run(write_config(tmp_path, cfg)) == 2
        assert "must be a number" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("case", [
        "box-bounds", "half-space-a", "half-space-b", "finite-set-points",
        "lasso-sigma", "lasso-lam", "normal-means-sigma",
        "loss-value", "loss-linear-a", "loss-linear-b", "loss-indicator-outside",
        "logistic-design", "poisson-design", "censored-limits", "bootstrap-tau", "design-seed-string", "design-seed-float"])
    def test_number_in_a_hypothesis_loss_or_model_block_exit2(self, tmp_path, capsys,
                                                              case):
        """A bool or numeric string in a hypothesis, a choquet loss, a
        model's sigma, lam, design or detection limits or a bootstrap tau, and a Poisson design_seed that is not an integer,
        is a config error; false is not read as 0.0, "0.9" as 0.9, nor 7.9
        as 7."""
        def calibrate(hypothesis):
            return calibrate_config(tmp_path, hypotheses=[hypothesis])

        def lasso(**kwargs):
            return calibrate_config(tmp_path, model="normal-means-lasso",
                                    truth=[0.0, 0.0], n=2, model_kwargs=kwargs)

        def choquet(loss):
            return contour_config(tmp_path, command="choquet", choquet={"loss": loss})

        def regression(model, responses):
            design = [[1.0, x] for x in (0.0, 2.0, 0.5, 1.5, 1.0)] + [[1.0, True], [1.0, "1.0"]]
            return contour_config(tmp_path, model=model, method="naive", m=20,
                                  model_kwargs={"design": design},
                                  data={"inline": {"responses": responses}},
                                  grid=[{"lo": -1.0, "hi": 1.0, "count": 2}] * 2)

        cfg = {
            "box-bounds": lambda: calibrate({"kind": "box", "bounds": [[False, "0.9"]]}),
            "half-space-a": lambda: calibrate({"kind": "half-space", "a": [True], "b": 0.9}),
            "half-space-b": lambda: calibrate({"kind": "half-space", "a": [-1.0], "b": "-0.9"}),
            "finite-set-points": lambda: calibrate({"kind": "finite-set", "points": [["0.4"]]}),
            "lasso-sigma": lambda: lasso(sigma=True, lam=0.5),
            "lasso-lam": lambda: lasso(sigma=1.0, lam="0.5"),
            "normal-means-sigma": lambda: calibrate_config(
                tmp_path, model="normal-means", truth=[0.0], n=2,
                model_kwargs={"sigma": "1.0"}),
            "loss-value": lambda: choquet({"kind": "constant", "value": "1.0"}),
            "loss-linear-a": lambda: choquet({"kind": "linear", "a": [False]}),
            "loss-linear-b": lambda: choquet({"kind": "linear", "a": [1.0], "b": "0"}),
            "loss-indicator-outside": lambda: choquet(
                {"kind": "indicator", "outside": True,
                 "hypothesis": {"kind": "box", "bounds": [[0.2, 0.6]]}}),
            "logistic-design": lambda: regression("logistic", [0, 1, 0, 1, 1, 0, 1]),
            "poisson-design": lambda: regression("poisson-loglinear", [1, 3, 0, 2, 4, 1, 2]),
            "censored-limits": lambda: calibrate_config(
                tmp_path, model="lognormal-censored", method="censored",
                truth=[0.3, 0.49], model_kwargs={"limits": [True]}),
            "bootstrap-tau": lambda: contour_config(
                tmp_path, model="gamma", method="bootstrap", bootstrap={"tau": "0.25", "B": 50},
                data={"inline": {"responses": [1.0, 2.0, 3.0, 4.0]}},
                grid=[{"lo": 0.5, "hi": 2.0, "count": 5}]),
            "design-seed-string": lambda: calibrate_config(
                tmp_path, model="poisson-loglinear", truth=[0.5, 0.3, -0.2], n=20,
                model_kwargs={"design_seed": "7"}),
            "design-seed-float": lambda: calibrate_config(
                tmp_path, model="poisson-loglinear", truth=[0.5, 0.3, -0.2], n=20,
                model_kwargs={"design_seed": 7.9}),
        }[case]()
        assert run(write_config(tmp_path, cfg)) == 2
        expected = "must be an integer" if case.startswith("design-seed") else "must be a number"
        assert expected in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("case", ["box-bound", "half-space-b", "sa-epsilon"])
    def test_nan_where_a_number_belongs_exit2_without_outputs(self, tmp_path, capsys,
                                                              case):
        """Python's json reads NaN.  A NaN box bound or half-space offset once
        wrote "upper": NaN, invalid JSON, and a NaN epsilon ran every
        iteration; each exited 0."""
        nan = float("nan")

        def hypothesis(h):
            return contour_config(tmp_path, command="hypothesis", hypotheses=[h],
                                  output={"json": str(tmp_path / "probs.json")})

        cfg = {
            "box-bound": lambda: hypothesis({"kind": "box", "bounds": [[nan, 0.5]]}),
            "half-space-b": lambda: hypothesis({"kind": "half-space", "a": [1.0], "b": nan}),
            "sa-epsilon": lambda: fit_config(
                tmp_path, sa={"epsilon": nan, "k_outer": 60, "m_inner": 100}),
        }[case]()
        assert run(write_config(tmp_path, cfg)) == 2
        assert "must be a number, got nan" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("case, block, key", [
        ("sa", "invalid sa block", "k_outr"),
        ("grid", "invalid grid axis", "cout"),
        ("half-space", "invalid half-space hypothesis", "bounds"),
        ("choquet", "invalid choquet block", "resolutoin"),
        ("choquet-loss", "invalid choquet block", "value"),
    ])
    def test_key_a_block_does_not_read_exit2_without_outputs(self, tmp_path, capsys,
                                                             case, block, key):
        """A misspelt or misplaced key once ran on the block's default:
        k_outer 200, count 3, resolution 200; each exited 0."""
        def choquet(**block):
            return contour_config(tmp_path, command="choquet", choquet=block,
                                  output={"json": str(tmp_path / "choquet.json")})

        cfg = {
            "sa": lambda: fit_config(tmp_path, sa={"k_outr": 50, "k_outer": 60, "m_inner": 100}),
            "grid": lambda: contour_config(
                tmp_path, grid=[{"lo": 0.0, "hi": 1.0, "count": 3, "cout": 9}]),
            "half-space": lambda: contour_config(
                tmp_path, command="hypothesis", output={"json": str(tmp_path / "probs.json")},
                hypotheses=[{"kind": "half-space", "a": [1.0], "b": 0.2, "bounds": [[0.0, 1.0]]}]),
            "choquet": lambda: choquet(loss={"kind": "constant", "value": 1.0}, resolutoin=10),
            "choquet-loss": lambda: choquet(loss={"kind": "linear", "a": [1.0], "value": 2.0}),
        }[case]()
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert block in err and f"not ['{key}']" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("case", [
        "alphas-string", "alphas-bool", "truth-string", "truth-bool",
        "data_params-string", "data_params-bool",
        "simulate-theta-string", "simulate-theta-bool", "linear-string", "linear-bool"])
    def test_number_in_a_study_data_or_marginal_block_exit2(self, tmp_path, capsys,
                                                            case):
        """A bool or numeric string among a calibrate run's alphas, truth or
        data_params, a simulated dataset's theta or a marginal's linear
        feature is a config error; true is not read as 1.0, nor "0.4" as
        0.4."""
        field, kind = case.rsplit("-", 1)
        bad = {"string": "0.4", "bool": True}[kind]
        cfg = {
            "alphas": lambda: calibrate_config(tmp_path, alphas=[0.5, bad]),
            "truth": lambda: calibrate_config(tmp_path, truth=[bad]),
            "data_params": lambda: calibrate_config(
                tmp_path, model="gamma", truth=[2.53], data_params=[4.0, bad],
                method="bootstrap", model_kwargs={"tau": 0.5, "B": 50}),
            "simulate-theta": lambda: contour_config(
                tmp_path, method="naive", m=50,
                data={"simulate": {"theta": [bad], "n": 10}}),
            "linear": lambda: contour_config(
                tmp_path, command="marginal", marginal={"linear": [bad]},
                grid=[{"lo": 0.0, "hi": 1.0, "count": 5}]),
        }[field]()
        assert run(write_config(tmp_path, cfg)) == 2
        assert "must be a number" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_null_box_bound_is_unbounded(self, tmp_path):
        cfg = calibrate_config(tmp_path, n=40, hypotheses=[
            {"kind": "box", "bounds": [[None, 0.9]]}])
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["hypotheses"] == ["box bounds=[[-inf, 0.9]]"]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit2(self, tmp_path, capsys, threads):
        """--threads 0 once ran on every core and exited 0."""
        assert run(write_config(tmp_path, contour_config(tmp_path)), "--threads", threads) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("model,theta,message", [
        ("binomial", [1.5], "success probability in [0, 1]"),
        ("gamma", [-1.0, 2.0], "two strictly positive parameters"),
        ("bvn-correlation", [1.5], "correlation strictly inside (-1, 1)"),
        ("bvn-correlation", [1.0], "correlation strictly inside (-1, 1)"),
        ("lognormal", [0.0, -1.0], "strictly positive variance"),
        ("binomial", [0.3, 0.4], "a point of dimension 1, got 2"),
    ], ids=["binomial-1.5", "gamma-negative-shape", "bvn-1.5", "bvn-1",
            "lognormal-negative-variance", "binomial-two-coordinates"])
    def test_simulate_theta_off_the_domain_exit2(self, tmp_path, capsys, model,
                                                 theta, message):
        """A simulate theta of the wrong size or off the model's domain is a
        config error, raised before anything is sampled or written."""
        cfg = contour_config(
            tmp_path, model=model, method="naive", m=20,
            data={"simulate": {"theta": theta, "n": 10}},
            grid=[{"lo": 0.1, "hi": 0.5, "count": 3}] * {"gamma": 2, "lognormal": 2}.get(model, 1),
        )
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"outside the {model} domain" in err and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("model,method,responses,message", [
        ("gamma", "naive", [-1.0, 2.0, 3.0], "finite positive responses"),
        ("binomial", "exact", [0.5, 1, 0], "responses 0 or 1"),
    ], ids=["gamma-negative", "binomial-half"])
    def test_responses_off_the_sample_space_exit2(self, tmp_path, capsys, model,
                                                  method, responses, message):
        """Inline responses off the model's sample space once gave a gamma
        grid of all zeros and a binomial contour peaked at 0.5; now they are
        a config error and nothing is written."""
        cfg = contour_config(
            tmp_path, model=model, method=method, m=20,
            data={"inline": {"responses": responses}},
            grid=[{"lo": 0.1, "hi": 0.5, "count": 3}] * (2 if model == "gamma" else 1),
        )
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert f"outside the {model} sample space" in err and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_bootstrap_block_with_another_method_exit2(self, tmp_path, capsys):
        """A bootstrap block is read only by the bootstrap method: next to
        the exact method it was once ignored and both files written."""
        cfg = contour_config(tmp_path, bootstrap={"tau": 0.5, "B": 7})
        assert run(write_config(tmp_path, cfg)) == 2
        assert "'bootstrap' block is read only" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("case", [{"tau": 1.5}, {"tau": 0.25, "B": 0},
                                      {"tau": 0.25, "B": 2.5}, {"tau": "x"},
                                      "calibrate-B"],
                             ids=["tau-1.5", "B-0", "B-2.5", "tau-x", "calibrate-B"])
    def test_bad_bootstrap_settings_exit2_without_outputs(self, tmp_path,
                                                          capsys, case):
        """A quantile level outside (0, 1), a non-number, or a resample
        count that is not a positive integer is a config error, before any
        replication runs."""
        if case == "calibrate-B":
            cfg = calibrate_config(
                tmp_path, model="gamma", truth=[2.53], data_params=[4.0, 1.0],
                n=30, method="bootstrap", model_kwargs={"tau": 0.25, "B": 0})
        else:
            cfg = contour_config(
                tmp_path, model="gamma", method="bootstrap", bootstrap=case,
                data={"inline": {"responses": [1.0, 2.0, 3.0, 4.0]}},
                grid=[{"lo": 0.5, "hi": 2.0, "count": 5}])
        assert run(write_config(tmp_path, cfg)) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command", ["contour", "calibrate"])
    def test_bootstrap_on_paired_responses_exit2(self, tmp_path, capsys, command):
        """The bootstrap contour resamples a vector of responses; bvn pairs
        were once read as one vector of 2n values mixing both columns.  A
        config error, with nothing written."""
        if command == "contour":
            cfg = contour_config(
                tmp_path, model="bvn-correlation", method="bootstrap",
                bootstrap={"tau": 0.5, "B": 200},
                data={"simulate": {"theta": [0.3], "n": 30}},
                grid=[{"lo": -0.9, "hi": 0.9, "count": 5}])
        else:
            cfg = calibrate_config(
                tmp_path, model="bvn-correlation", truth=[0.0], data_params=[0.3],
                n=30, method="bootstrap", model_kwargs={"tau": 0.5, "B": 50})
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "needs a vector of responses" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("reader", ["cli", "scenario"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None],
                             ids=["false-string", "true-string", "0", "1", "null"])
    def test_log_params_must_be_a_json_boolean(self, tmp_path, capsys, reader, value):
        """"log_params": "false" once meant true: a gamma contour then drew
        its data and read its grid on the log scale.  Only JSON true or
        false is a flag; a missing key means false."""
        if reader == "scenario":
            config = {"model": "gamma", "truth": [2.0, 1.5], "n": 20, "reps": 3,
                      "method": "naive", "seed": 1}
            assert Scenario.from_config(config).log_params is False
            assert Scenario.from_config(dict(config, log_params=True)).log_params
            with pytest.raises(ConfigError, match="log_params must be true or false"):
                Scenario.from_config(dict(config, log_params=value))
            return
        cfg = contour_config(
            tmp_path, model="gamma", method="naive", m=20, log_params=value,
            data={"simulate": {"theta": [2.0, 1.5], "n": 10}},
            grid=[{"lo": 0.5, "hi": 3.0, "count": 3}] * 2)
        assert run(write_config(tmp_path, cfg)) == 2
        assert "log_params must be true or false" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        cfg["log_params"] = False
        assert run(write_config(tmp_path, cfg)) == 0

    def test_simulate_draws_off_the_sample_space_exit2(self, tmp_path, capsys):
        """A gamma shape of 1e-300 draws zeros; the error names the simulate
        theta, where it once blamed responses the config never gave."""
        cfg = contour_config(
            tmp_path, model="gamma", method="naive", m=20,
            data={"simulate": {"theta": [1e-300, 1.0], "n": 10}},
            grid=[{"lo": 0.5, "hi": 3.0, "count": 3}] * 2)
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error: simulate theta" in err
        assert "outside the gamma sample space" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_logistic_without_design_exit2(self, tmp_path, capsys):
        cfg = contour_config(
            tmp_path, model="logistic", method="naive", m=50,
            data={"inline": {"responses": [0, 1, 1, 0]}},
            grid=[{"lo": -1.0, "hi": 1.0, "count": 3}])
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model_kwargs['design']" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_readme_example_config_runs(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("Example config")[1].split("```json\n")[1]
        cfg = json.loads(block.split("```")[0])
        cfg["output"] = {k: str(tmp_path / v) for k, v in cfg["output"].items()}
        assert run(write_config(tmp_path, cfg)) == 0
        assert (tmp_path / "contour.csv").exists()
        assert (tmp_path / "contour.json").exists()

    def test_byte_identity_modulo_timestamp_and_threads(self, tmp_path):
        cfg = {
            "command": "contour",
            "model": "bvn-correlation",
            "seed": 31,
            "data": {"simulate": {"theta": [0.3], "n": 30}},
            "method": "naive",
            "m": 300,
            "grid": [{"lo": -0.9, "hi": 0.9, "count": 15, "name": "rho"}],
            "output": {
                "csv": str(tmp_path / "o.csv"),
                "json": str(tmp_path / "o.json"),
            },
        }
        path = write_config(tmp_path, cfg)
        assert run(path, "--threads", "1") == 0
        first = {
            name: read_lines(tmp_path / name) for name in ("o.csv", "o.json")
        }
        assert run(path, "--threads", "4") == 0
        second = {
            name: read_lines(tmp_path / name) for name in ("o.csv", "o.json")
        }
        for name in ("o.csv", "o.json"):
            a, b = first[name], second[name]
            assert len(a) == len(b)
            diff = [
                (x, y) for x, y in zip(a, b) if x != y
            ]
            assert len(diff) <= 1
            for x, y in diff:
                assert "generated" in x and "generated" in y


# ---------------------------------------------------------------------------
# cmd_fit
# ---------------------------------------------------------------------------


def fit_config(tmp_path, **overrides):
    doc = {
        "command": "fit",
        "model": "binomial",
        "seed": 13,
        "data": {"inline": {"responses": BINOM_RESPONSES}},
        "method": "variational-scalar",
        "sa": {"alpha": 0.1, "k_outer": 60, "m_inner": 100, "max_iter": 10},
        "output": {
            "json": str(tmp_path / "family.json"),
            "csv": str(tmp_path / "trace.csv"),
        },
    }
    doc.update(overrides)
    return doc


class TestFit:
    def test_binomial_scalar_outputs_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, fit_config(tmp_path))
        assert run(path) == 0
        out = capsys.readouterr().out
        assert "xi_hat" in out
        assert "termination" in out

        doc = json.loads((tmp_path / "family.json").read_text())
        assert doc["family"] == "gaussian-scalar"
        assert doc["header"]["seed"] == 13
        xi_first = doc["xi"]

        comments, header, rows = csv_sections(tmp_path / "trace.csv")
        assert header == "t,xi_0,objective_0"
        assert len(rows) >= 1
        assert int(rows[0].split(",")[0]) == 1

        assert run(path) == 0
        doc2 = json.loads((tmp_path / "family.json").read_text())
        assert doc2["xi"] == xi_first

    def test_fit_reports_what_it_did_and_reruns_byte_identically(self, tmp_path,
                                                                 capsys):
        """A fit prints its termination, failures and evaluations and
        records them, with its iteration count, in the family JSON; a rerun
        prints the same lines and writes the same bytes apart from the
        ``generated`` line."""
        path = write_config(tmp_path, fit_config(tmp_path))
        names = ("family.json", "trace.csv")
        assert run(path) == 0
        out = capsys.readouterr().out.splitlines()
        first = {name: read_lines(tmp_path / name) for name in names}
        doc = json.loads((tmp_path / "family.json").read_text())
        assert doc["iterations"] == len(csv_sections(tmp_path / "trace.csv")[2])
        assert doc["termination"] in ("converged", "max-iterations")
        assert doc["failures"] == 0
        assert out[1:] == [f"termination: {doc['termination']}", "failures: 0",
                           f"evaluations: {doc['evaluations']}"]

        assert run(path) == 0
        assert capsys.readouterr().out.splitlines() == out
        for name in names:
            again = read_lines(tmp_path / name)
            assert len(again) == len(first[name])
            diff = [(x, y) for x, y in zip(first[name], again) if x != y]
            assert len(diff) <= 1
            assert all("generated" in x and "generated" in y for x, y in diff)

    @pytest.mark.parametrize("method", ["variational-scalar", "variational-vector"])
    def test_fit_json_records_its_evaluations(self, tmp_path, method):
        """The family JSON records, next to ``failures``, the contour
        evaluations and decisions the fit made: 2d per iteration for
        boundary matching, and for the pooled scalar fit the whole pool at
        the first iteration and at most the pool at each later one."""
        cfg = fit_config(tmp_path, method=method)
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "family.json").read_text())
        keys = list(doc)
        assert keys.index("evaluations") == keys.index("failures") + 1
        k, iterations = cfg["sa"]["k_outer"], doc["iterations"]
        if method == "variational-vector":
            assert doc["evaluations"] == 2 * iterations
        else:
            assert k <= doc["evaluations"] <= k * iterations

    def test_gamma_vector_family_schema(self, tmp_path):
        cfg = fit_config(
            tmp_path,
            model="gamma",
            data={"simulate": {"theta": [7.0, 3.0], "n": 25}},
            method="variational-vector",
            sa={"alpha": 0.1, "k_outer": 60, "m_inner": 150, "max_iter": 10},
        )
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "family.json").read_text())
        assert doc["family"] == "gaussian-vector"
        assert len(doc["theta_hat"]) == 2
        assert np.asarray(doc["info"]).shape == (2, 2)
        assert len(doc["xi"]) == 2
        _, header, rows = csv_sections(tmp_path / "trace.csv")
        assert header == "t,xi_0,xi_1,objective_0,objective_1"

    def test_alpha_out_of_range_exit2(self, tmp_path):
        cfg = fit_config(tmp_path)
        cfg["sa"]["alpha"] = 1.5
        assert run(write_config(tmp_path, cfg)) == 2

    def test_degenerate_mle_exit3(self, tmp_path, capsys):
        cfg = fit_config(
            tmp_path, data={"inline": {"responses": [1] * 15}}
        )
        assert run(write_config(tmp_path, cfg)) == 3
        err = capsys.readouterr().err
        assert "boundary" in err
        assert not (tmp_path / "family.json").exists()

    def test_separated_logistic_exit3_without_outputs(self, tmp_path, capsys):
        design = [[1.0, float(x)] for x in range(8)]
        cfg = fit_config(
            tmp_path, model="logistic", model_kwargs={"design": design},
            method="variational-vector",
            data={"inline": {"responses": [0, 0, 0, 0, 1, 1, 1, 1]}})
        assert run(write_config(tmp_path, cfg)) == 3
        assert "boundary" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("source", ["inline", "csv"])
    def test_poisson_covariates_in_the_data_exit2(self, tmp_path, capsys, source):
        """A design given as data covariates was once ignored: the fit ran on
        the Poisson study design and wrote a 3-coordinate estimate.  It is a
        config error that points to model_kwargs.design."""
        responses = [0, 1, 2, 5, 9, 14]
        covariates = [[1.0, float(x)] for x in range(6)]
        data_path = tmp_path / "obs.csv"
        data_path.write_text("y,x\n" + "".join(f"{y},{x}\n" for x, y in enumerate(responses)),
                             encoding="utf-8")
        data = {
            "inline": {"inline": {"responses": responses, "covariates": covariates}},
            "csv": {"csv": str(data_path), "response": "y", "covariates": ["x"]},
        }[source]
        cfg = fit_config(tmp_path, model="poisson-loglinear", method="variational-vector",
                         data=data)
        assert run(write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert "config error: invalid data" in err and "model_kwargs.design" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv", "run.json"]

    def test_fit_requires_sa_block(self, tmp_path):
        """Only a variational method with an sa block can fit."""
        for method in ("variational-scalar", "naive"):
            cfg = fit_config(tmp_path, method=method)
            del cfg["sa"]
            assert run(write_config(tmp_path, cfg)) == 2
            assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# ---------------------------------------------------------------------------
# cmd_calibrate
# ---------------------------------------------------------------------------


def calibrate_config(tmp_path, **overrides):
    doc = {
        "command": "calibrate",
        "model": "binomial",
        "seed": 5,
        "truth": [0.4],
        "n": 15,
        "reps": 10,
        "method": "naive",
        "output": {
            "csv": str(tmp_path / "report.csv"),
            "json": str(tmp_path / "report.json"),
        },
    }
    doc.update(overrides)
    return doc


class TestCalibrate:
    def test_binomial_validity_report(self, tmp_path):
        cfg = {
            "command": "calibrate",
            "model": "binomial",
            "truth": [0.4],
            "n": 15,
            "reps": 100,
            "method": "naive",
            "seed": 19,
            "output": {
                "json": str(tmp_path / "report.json"),
                "csv": str(tmp_path / "report.csv"),
            },
        }
        path = write_config(tmp_path, cfg)
        assert run(path, "--threads", "2") == 0

        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["header"]["seed"] == 19
        assert len(doc["values"]) == 100
        assert len(doc["cdf"]) == 99
        assert "timings" not in doc  # wall-clock noise would break reruns

        comments, header, rows = csv_sections(tmp_path / "report.csv")
        assert header == "alpha,cdf"
        assert len(rows) == 99

        first = read_lines(tmp_path / "report.json")
        assert run(path, "--threads", "4") == 0
        second = read_lines(tmp_path / "report.json")
        diff = [(x, y) for x, y in zip(first, second) if x != y]
        assert len(diff) <= 1
        for x, _ in diff:
            assert "generated" in x

    def test_calibrate_with_hypotheses_curves(self, tmp_path):
        cfg = {
            "command": "calibrate",
            "model": "binomial",
            "truth": [0.4],
            "n": 15,
            "reps": 30,
            "method": "naive",
            "seed": 3,
            "alphas": [0.25, 0.5, 0.9],
            "hypotheses": [
                {"kind": "half-space", "a": [-1.0], "b": -0.9},
            ],
            "output": {"json": str(tmp_path / "hyp.json")},
        }
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "hyp.json").read_text())
        assert len(doc["hypotheses"]) == 1
        assert len(doc["curves"]) == 1
        assert len(doc["curves"][0]) == 3
        assert all(0.0 <= c <= 1.0 for c in doc["curves"][0])

    def test_false_hypothesis_exit2(self, tmp_path):
        cfg = {
            "command": "calibrate",
            "model": "binomial",
            "truth": [0.4],
            "n": 15,
            "reps": 10,
            "method": "naive",
            "seed": 3,
            "hypotheses": [{"kind": "half-space", "a": [1.0], "b": 0.9}],
            "output": {"json": str(tmp_path / "hyp.json")},
        }
        assert run(write_config(tmp_path, cfg)) == 2


# ---------------------------------------------------------------------------
# cmd_hypothesis
# ---------------------------------------------------------------------------


class TestHypothesis:
    def test_half_space_on_fitted_gaussian(self, tmp_path, capsys):
        cfg = {
            "command": "hypothesis",
            "model": "binomial",
            "seed": 29,
            "data": {"inline": {"responses": BINOM_RESPONSES}},
            "method": "variational-scalar",
            "sa": {
                "alpha": 0.1,
                "k_outer": 60,
                "m_inner": 100,
                "max_iter": 10,
            },
            "hypotheses": [
                {"kind": "half-space", "a": [1.0], "b": 0.2},
                {"kind": "box", "bounds": [[0.35, 0.45]]},
            ],
            "output": {"json": str(tmp_path / "probs.json")},
        }
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "probs.json").read_text())
        assert [entry["hypothesis"] for entry in doc["hypotheses"]] == [
            "half-space a.theta > b with a=[1.0], b=0.2", "box bounds=[[0.35, 0.45]]"]
        for entry in doc["hypotheses"]:
            assert 0.0 <= entry["lower"] <= entry["upper"] <= 1.0
        out = capsys.readouterr().out
        assert "upper" in out and "lower" in out

    @pytest.mark.parametrize("bounds, message", [
        ([[1.0, 2.0]], "bootstrap method has no proposal family"),
        ([[1.0, 2.0], [0.5, 3.0]], "dimension 2, expected 1"),
    ])
    def test_bootstrap_without_proposal_family_exit2(self, tmp_path, capsys,
                                                     bounds, message):
        """The bootstrap contour is 1-D while the gamma model is 2-D: a box
        of either dimension is a config error, checked against the
        contour, before any search."""
        ys = np.random.default_rng(4).gamma(4.0, 1.0, size=30)
        cfg = {
            "command": "hypothesis",
            "model": "gamma",
            "seed": 29,
            "data": {"inline": {"responses": ys.tolist()}},
            "method": "bootstrap",
            "bootstrap": {"tau": 0.25, "B": 50},
            "hypotheses": [{"kind": "box", "bounds": bounds}],
            "output": {"csv": str(tmp_path / "probs.csv"),
                       "json": str(tmp_path / "probs.json")},
        }
        assert run(write_config(tmp_path, cfg)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "probs.csv").exists()
        assert not (tmp_path / "probs.json").exists()

    def test_requires_hypotheses(self, tmp_path):
        cfg = {
            "command": "hypothesis",
            "model": "binomial",
            "seed": 29,
            "data": {"inline": {"responses": BINOM_RESPONSES}},
            "method": "naive",
            "output": {"json": str(tmp_path / "probs.json")},
        }
        assert run(write_config(tmp_path, cfg)) == 2


@pytest.mark.parametrize("command, block", [
    ("marginal", {"grid": [{"lo": 0.5, "hi": 3.0, "count": 4}],
                  "marginal": {"component": 0}}),
    ("choquet", {"choquet": {"loss": {"kind": "linear", "a": [1.0]}}}),
])
def test_search_commands_without_proposal_family_exit2(tmp_path, capsys,
                                                        command, block):
    """Marginal and Choquet searches on the 1-D bootstrap contour of the 2-D
    gamma model have no proposal family either: exit 2, not a traceback."""
    cfg = {
        "command": command,
        "model": "gamma",
        "seed": 3,
        "data": {"inline": {"responses": [1.2, 3.4, 2.2, 5.1, 0.7, 2.9, 3.3, 1.9]}},
        "method": "bootstrap",
        "bootstrap": {"tau": 0.25, "B": 50},
        "output": {"json": str(tmp_path / "out.json")},
        **block,
    }
    assert run(write_config(tmp_path, cfg)) == 2
    assert "bootstrap method has no proposal family" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# cmd_marginal
# ---------------------------------------------------------------------------


class TestMarginal:
    @pytest.mark.parametrize("feature", [{"component": 5}, {"component": -1},
                                         {"linear": [1.0, 0.0, 0.0]}],
                             ids=["component-5", "component-minus-1", "linear-3"])
    def test_feature_that_does_not_fit_the_contour_exit2(self, tmp_path, capsys, feature):
        """On the 2-D gamma contour, component 5 and a 3-vector once crashed
        with a traceback, and component -1 silently profiled the last
        coordinate: each is a config error before any search."""
        cfg = contour_config(
            tmp_path, command="marginal", model="gamma", method="naive", m=20,
            data={"simulate": {"theta": [7.0, 3.0], "n": 25}}, marginal=feature,
            grid=[{"lo": 2.0, "hi": 15.0, "count": 4}])
        assert run(write_config(tmp_path, cfg)) == 2
        assert "does not fit dimension 2" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_marginal_json_records_the_search_and_its_infeasible_nodes(self, tmp_path):
        """A searched marginal's JSON names its method and lists the nodes
        whose fiber the search could not reach (their value 0 is not a
        computed 0): none on the binomial's exact contour."""
        cfg = contour_config(
            tmp_path, command="marginal", marginal={"component": 0},
            grid=[{"lo": 0.2, "hi": 0.6, "count": 3, "name": "p"}],
        )
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "contour.json").read_text())
        assert list(doc) == ["header", "kind", "seed", "meta", "axes", "shape", "values"]
        assert doc["kind"] == "marginal" and doc["seed"] is None
        assert doc["meta"]["method"] == "penalty-search"
        assert doc["meta"]["infeasible"] == []
        assert doc["meta"]["budget"] == {"candidates": 2000, "refine": 100}
        assert len(doc["values"]) == 3

    def test_component_marginal_grid(self, tmp_path):
        cfg = {
            "command": "marginal",
            "model": "gamma",
            "seed": 37,
            "data": {"simulate": {"theta": [7.0, 3.0], "n": 25}},
            "method": "variational-vector",
            "sa": {
                "alpha": 0.1,
                "k_outer": 60,
                "m_inner": 150,
                "max_iter": 10,
            },
            "marginal": {"component": 0},
            "grid": [{"lo": 2.0, "hi": 15.0, "count": 12, "name": "shape"}],
            "output": {"csv": str(tmp_path / "marg.csv")},
        }
        assert run(write_config(tmp_path, cfg)) == 0
        _, header, rows = csv_sections(tmp_path / "marg.csv")
        assert header == "shape,value"
        assert len(rows) == 12
        vals = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert vals.max() > 0.5  # the MLE's component lies inside the axis


# ---------------------------------------------------------------------------
# cmd_choquet
# ---------------------------------------------------------------------------


class TestChoquet:
    def test_constant_loss_identity(self, tmp_path, capsys):
        cfg = {
            "command": "choquet",
            "model": "binomial",
            "seed": 41,
            "data": {"inline": {"responses": BINOM_RESPONSES}},
            "method": "variational-scalar",
            "sa": {
                "alpha": 0.1,
                "k_outer": 60,
                "m_inner": 100,
                "max_iter": 10,
            },
            "choquet": {"loss": {"kind": "constant", "value": 3.25}},
            "output": {"json": str(tmp_path / "choquet.json")},
        }
        assert run(write_config(tmp_path, cfg)) == 0
        doc = json.loads((tmp_path / "choquet.json").read_text())
        assert doc["value"] == pytest.approx(3.25, abs=1e-6)
        assert "3.25" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# module execution
# ---------------------------------------------------------------------------


class TestEntryPoint:
    def test_python_dash_m_possfit(self, tmp_path):
        cfg = contour_config(tmp_path)
        cfg["grid"][0]["count"] = 20
        path = write_config(tmp_path, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "possfit", "--config", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "contour.csv").exists()

    def test_missing_config_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "possfit"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# import graph
# ---------------------------------------------------------------------------


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # scipy.stats is never imported; scipy.optimize loads on first use, which
    # a one-dimensional box hypothesis on a Gaussian contour never makes
    script = textwrap.dedent(
        """
        import json
        import sys

        import numpy as np

        import possfit.cli
        from possfit.families import GaussianScalarFamily, gaussian_contour_object
        from possfit.inference import Hypothesis, upper_probability

        heavy = ("scipy.stats", "scipy.optimize")
        after_import = [m for m in heavy if m in sys.modules]
        fam = GaussianScalarFamily(
            theta_hat=np.array([0.4]), info=np.array([[120.0]]), xi=1.0
        )
        res = upper_probability(
            gaussian_contour_object(fam), Hypothesis.box([[0.5, 0.9]])
        )
        print(json.dumps({
            "after_import": after_import,
            "method": res.method,
            "after_box": [m for m in heavy if m in sys.modules],
        }))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["after_import"] == []
    assert doc["method"] == "exact-box"
    assert doc["after_box"] == []
