import json
import math
import os

import numpy as np
import pytest

from oracles import mc_se_mean, quad_posterior_1d
from poisbayes import (
    ColumnSpec,
    ConfigError,
    DataError,
    Dataset,
    RunConfig,
    load_dataset,
    run_cli,
)
from poisbayes.io_cli import load_draws, write_dataset


def write_csv(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def factor_csv(tmp_path):
    return write_csv(
        tmp_path / "d.csv",
        "y,x,grp\n"
        "3,0.5,a\n"
        "1,-0.25,b\n"
        "0,1.5,c\n"
        "2,0.75,b\n",
    )


SPECS = (
    ColumnSpec("y", "response"),
    ColumnSpec("x", "numeric"),
    ColumnSpec("grp", "categorical"),
)


class TestLoadDataset:
    def test_dummy_encoding(self, factor_csv):
        ds = load_dataset(factor_csv, SPECS)
        assert ds.column_names == ("(Intercept)", "x", "grp=b", "grp=c")
        np.testing.assert_array_equal(ds.X[:, 2], [0, 1, 0, 1])
        np.testing.assert_array_equal(ds.X[:, 3], [0, 0, 1, 0])
        np.testing.assert_array_equal(ds.y, [3, 1, 0, 2])

    def test_reference_level_override(self, factor_csv):
        specs = (
            ColumnSpec("y", "response"),
            ColumnSpec("x", "numeric"),
            ColumnSpec("grp", "categorical", reference_level="b"),
        )
        ds = load_dataset(factor_csv, specs)
        assert ds.column_names == ("(Intercept)", "x", "grp=a", "grp=c")

    def test_missing_reference_level(self, factor_csv):
        specs = (
            ColumnSpec("y", "response"),
            ColumnSpec("grp", "categorical", reference_level="zz"),
        )
        with pytest.raises(DataError, match="reference level"):
            load_dataset(factor_csv, specs)

    def test_standardization(self, factor_csv):
        specs = (
            ColumnSpec("y", "response"),
            ColumnSpec("x", "numeric", standardize=True),
        )
        ds = load_dataset(factor_csv, specs)
        col = ds.X[:, 1]
        assert abs(col.mean()) < 1e-12
        assert abs(col.std() - 1.0) < 1e-12

    def test_fractional_response_names_cell(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,x\n1,0.5\n2.5,0.1\n")
        with pytest.raises(DataError, match=r"row 3, column 'y'"):
            load_dataset(path, (ColumnSpec("y", "response"), ColumnSpec("x", "numeric")))

    def test_negative_response_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y\n-1\n")
        with pytest.raises(DataError, match="non-negative"):
            load_dataset(path, (ColumnSpec("y", "response"),))

    def test_non_numeric_cell_names_coordinates(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,x\n1,0.5\n2,oops\n")
        with pytest.raises(DataError, match=r"row 3, column 'x'"):
            load_dataset(path, (ColumnSpec("y", "response"), ColumnSpec("x", "numeric")))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_numeric_cell_names_coordinates(self, tmp_path, cell):
        path = write_csv(tmp_path / "bad.csv", f"y,x\n1,0.5\n2,{cell}\n")
        with pytest.raises(DataError, match=r"row 3, column 'x'.*not a finite number"):
            load_dataset(path, (ColumnSpec("y", "response"), ColumnSpec("x", "numeric")))

    @pytest.mark.parametrize("cell", ["1e19", "9223372036854775808"])
    def test_count_beyond_int64_names_cell(self, tmp_path, cell):
        path = write_csv(tmp_path / "bad.csv", f"y\n1\n{cell}\n")
        with pytest.raises(DataError, match=r"row 3, column 'y'.*below 2\*\*63"):
            load_dataset(path, (ColumnSpec("y", "response"),))

    def test_overflowing_standardization_is_data_error(self, tmp_path):
        # the first values overflow the mean, the second only the sd
        for xs in (("1.7e308", "1.7e308", "-1.7e308"), ("1e308", "-1e308", "1e308")):
            rows = "".join(f"{y},{x}\n" for y, x in zip((1, 2, 3), xs))
            path = write_csv(tmp_path / "big.csv", "y,x\n" + rows)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DataError, match="non-finite"):
                load_dataset(path, (ColumnSpec("y", "response"),
                                    ColumnSpec("x", "numeric", standardize=True)))

    def test_unknown_column(self, factor_csv):
        with pytest.raises(DataError, match="unknown column"):
            load_dataset(factor_csv, (ColumnSpec("y", "response"), ColumnSpec("zz", "numeric")))

    def test_no_intercept_option(self, factor_csv):
        ds = load_dataset(factor_csv, SPECS, add_intercept=False)
        assert ds.column_names[0] == "x"

    def test_requires_single_response(self, factor_csv):
        with pytest.raises(ConfigError, match="exactly one response"):
            load_dataset(factor_csv, (ColumnSpec("x", "numeric"),))

    def test_deterministic_encoding(self, factor_csv):
        a = load_dataset(factor_csv, SPECS)
        b = load_dataset(factor_csv, SPECS)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.column_names == b.column_names

    def test_constant_column_cannot_standardize(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", "y,x\n1,2\n2,2\n")
        with pytest.raises(DataError, match="constant column"):
            load_dataset(path, (ColumnSpec("y", "response"),
                                ColumnSpec("x", "numeric", standardize=True)))


class TestDatasetRoundTrip:
    def test_write_load_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 3))
        ds = Dataset(y=rng.poisson(2.0, 12), X=X, column_names=("a", "b", "c"))
        path = tmp_path / "round.csv"
        write_dataset(ds, str(path))
        specs = (ColumnSpec("y", "response"),) + tuple(
            ColumnSpec(c, "numeric") for c in ("a", "b", "c")
        )
        back = load_dataset(str(path), specs, add_intercept=False)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.column_names == ds.column_names


def run_config(tmp_path, data_path, **overrides):
    raw = {
        "data": data_path,
        "columns": [{"name": "y", "kind": "response"}],
        "prior": {"kind": "gaussian", "mean": 0.0, "var": 1.0},
        "sampler": "mh",
        "iterations": 2000,
        "burnin": 500,
        "d": 0.1,
        "seed": 42,
        "level": 0.95,
        "out": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return str(path), raw


@pytest.fixture
def toy_files(tmp_path):
    rng = np.random.default_rng(7)
    y = rng.poisson(math.exp(0.7), 10)
    data_path = write_csv(tmp_path / "toy.csv", "y\n" + "\n".join(str(v) for v in y) + "\n")
    return tmp_path, data_path, y


class TestWriteOutputs:
    def test_round_trip_and_provenance(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path)
        assert run_cli(["fit", "--config", config_path]) == 0
        outdir = tmp_path / "out"

        first_line = open(outdir / "draws.csv").readline()
        assert first_line.startswith("# config:")
        assert '"seed": 42'.replace(" ", "") in first_line.replace(" ", "")

        names, draws, log_w = load_draws(str(outdir / "draws.csv"))
        assert log_w is None
        summary = json.load(open(outdir / "summary.json"))
        assert names == [c["name"] for c in summary["coefficients"]]
        for j, coef in enumerate(summary["coefficients"]):
            assert float(draws[:, j].mean()) == pytest.approx(coef["mean"], abs=1e-12)
        assert summary["config"]["seed"] == 42
        assert summary["config"]["d"] == 0.1

    def test_is_run_emits_log_weight_column(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, sampler="is")
        assert run_cli(["fit", "--config", config_path]) == 0
        names, draws, log_w = load_draws(str(tmp_path / "out" / "draws.csv"))
        assert log_w is not None and log_w.shape[0] == draws.shape[0]
        summary = json.load(open(tmp_path / "out" / "summary.json"))
        assert summary["weight_ess"] is not None
        assert summary["acceptance_rate"] is None


class TestCLI:
    def test_fit_matches_quadrature_oracle(self, toy_files):
        tmp_path, data_path, y = toy_files
        config_path, _ = run_config(tmp_path, data_path, iterations=4000, burnin=1000)
        assert run_cli(["fit", "--config", config_path]) == 0
        summary = json.load(open(tmp_path / "out" / "summary.json"))
        coef = summary["coefficients"][0]
        mean_q, _ = quad_posterior_1d(np.asarray(y, float), np.ones(len(y)))
        _, draws, _ = load_draws(str(tmp_path / "out" / "draws.csv"))
        se = mc_se_mean(draws[:, 0], coef["ess"])
        assert abs(coef["mean"] - mean_q) < 3 * se

    def test_burnin_geq_iterations_exits_2(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, burnin=2000)
        assert run_cli(["fit", "--config", config_path]) == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--d", "inf"],
        ["fit", "--seed", "-1"],
        ["benchmark", "--reps", "0"],
        ["benchmark", "--d", "inf"],
        ["benchmark", "--iterations", "5", "--burnin", "5"],
        ["benchmark", "--methods", "hmc"],
        ["simulate", "--n", "0", "--p", "2"],
        ["simulate", "--n", "10", "--p", "2", "--seed", "-1"],
    ], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
    def test_out_of_range_argument_exits_2(self, toy_files, argv, capsys):
        tmp_path, data_path, _ = toy_files
        if argv[0] == "fit":
            config_path, _ = run_config(tmp_path, data_path)
            argv = argv + ["--config", config_path]
        elif argv[0] == "benchmark":
            argv = argv + ["--grid", "n=20;p=2", "--out", str(tmp_path / "b.csv")]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("overrides", [
        {"prior": {"kind": "horseshoe", "p_n": 10}},
        {"prior": {"kind": "horseshoe", "p_n": 0}},
        {"prior": {"kind": "horseshoe", "p_n": 2.5}},
        {"prior": {"kind": "horseshoe", "p_n": "two"}},
        {"prior": {"kind": "horseshoe", "p_n": [1]}},
        {"prior": {"kind": "horseshoe", "p_n": float("inf")}},
        {"prior": {"kind": "horseshoe", "tau": -1.0}},
        {"prior": {"kind": "gaussian", "var": 0}},
        {"prior": {"kind": "gaussian", "var": float("nan")}},
        {"prior": {"kind": "gaussian", "mean": float("inf")}},
        # counts in the config are never truncated to integers
        {"seed": 1.5}, {"iterations": 300.9}, {"burnin": 50.5}, {"seed": True},
        # switches take JSON true/false only, never a truthy stand-in
        {"add_intercept": "no"}, {"keep_burnin": "yes"}, {"cpo": 1},
        {"columns": [{"name": "y", "kind": "response"},
                     {"name": "y", "kind": "numeric", "standardize": "false"}]},
    ], ids=["pn_ge_n", "pn_zero", "pn_fractional", "pn_text", "pn_list", "pn_inf",
            "tau_negative", "var_zero", "var_nan", "mean_inf",
            "seed_fractional", "iterations_fractional", "burnin_fractional", "seed_bool",
            "add_intercept_text", "keep_burnin_text", "cpo_int", "standardize_text"])
    def test_out_of_range_prior_exits_2(self, toy_files, overrides, capsys):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, **overrides)
        assert run_cli(["fit", "--config", config_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_data_file_exits_3(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, data=str(tmp_path / "nope.csv"))
        assert run_cli(["fit", "--config", config_path]) == 3

    def test_bad_config_json_exits_2(self, tmp_path):
        bad = write_csv(tmp_path / "cfg.json", "{not json")
        assert run_cli(["fit", "--config", bad]) == 2

    def test_unknown_flag_exits_2(self):
        assert run_cli(["fit", "--nonsense"]) == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "poisbayes" in capsys.readouterr().out

    def test_reproducible_draws_file(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, iterations=800, burnin=200)
        assert run_cli(["fit", "--config", config_path]) == 0
        first = open(tmp_path / "out" / "draws.csv", "rb").read()
        assert run_cli(["fit", "--config", config_path]) == 0
        second = open(tmp_path / "out" / "draws.csv", "rb").read()
        assert first == second

    def test_flag_overrides(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, iterations=800, burnin=200)
        out2 = tmp_path / "other"
        assert run_cli([
            "fit", "--config", config_path, "--seed", "7", "--out", str(out2),
        ]) == 0
        summary = json.load(open(out2 / "summary.json"))
        assert summary["config"]["seed"] == 7

    def test_diagnose_round_trip(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, iterations=1500, burnin=500)
        assert run_cli(["fit", "--config", config_path, "--cpo"]) == 0
        outdir = tmp_path / "out"
        fit_summary = json.load(open(outdir / "summary.json"))
        fit_cpo = open(outdir / "cpo.csv").read()

        rerun = tmp_path / "rerun"
        assert run_cli([
            "diagnose", "--config", config_path,
            "--draws", str(outdir / "draws.csv"),
            "--summary", str(outdir / "summary.json"),
            "--out", str(rerun), "--cpo",
        ]) == 0
        diag_summary = json.load(open(rerun / "summary.json"))
        assert diag_summary == fit_summary
        assert open(rerun / "cpo.csv").read() == fit_cpo

    def test_diagnose_round_trip_with_asymmetric_flags(self, toy_files):
        # fit requested cpo at the CLI; diagnose without the flag must still
        # reproduce the fit summary (echo comes from the producing fit)
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, iterations=800, burnin=200)
        assert run_cli(["fit", "--config", config_path, "--cpo"]) == 0
        fit_summary = json.load(open(tmp_path / "out" / "summary.json"))
        rerun = tmp_path / "rerun2"
        assert run_cli([
            "diagnose", "--config", config_path,
            "--draws", str(tmp_path / "out" / "draws.csv"),
            "--summary", str(tmp_path / "out" / "summary.json"),
            "--out", str(rerun),
        ]) == 0
        assert json.load(open(rerun / "summary.json")) == fit_summary

    def test_simulate_then_fit(self, tmp_path):
        simdir = tmp_path / "sim"
        assert run_cli(["simulate", "--n", "40", "--p", "3", "--seed", "5",
                        "--out", str(simdir)]) == 0
        truth = json.load(open(simdir / "truth.json"))
        config = {
            "data": str(simdir / "data.csv"),
            "columns": truth["columns"],
            "prior": {"kind": "gaussian", "mean": 0.0, "var": 2.0},
            "sampler": "mh",
            "iterations": 1500,
            "burnin": 500,
            "d": 0.1,
            "seed": 11,
            "level": 0.95,
            "out": str(tmp_path / "simfit"),
        }
        config_path = tmp_path / "simconfig.json"
        json.dump(config, open(config_path, "w"))
        assert run_cli(["fit", "--config", str(config_path)]) == 0
        summary = json.load(open(tmp_path / "simfit" / "summary.json"))
        names = [c["name"] for c in summary["coefficients"]]
        assert names[0] == "(Intercept)"
        assert len(names) == truth["p"]

    def test_benchmark_subcommand(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli([
            "benchmark", "--grid", "n=25;p=2", "--reps", "1",
            "--methods", "pg_mh,rw_mh", "--seed", "3",
            "--iterations", "300", "--burnin", "100", "--out", str(out),
        ])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 1 + 2
        assert os.path.exists(tmp_path / "bench_medians.csv")

    def test_keep_burnin_writes_full_trace(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, raw = run_config(tmp_path, data_path, iterations=400, burnin=100)
        assert run_cli(["fit", "--config", config_path, "--keep-burnin"]) == 0
        names, trace, _ = load_draws(str(tmp_path / "out" / "trace.csv"))
        assert trace.shape[0] == raw["iterations"]
        _, draws, _ = load_draws(str(tmp_path / "out" / "draws.csv"))
        assert draws.shape[0] == raw["iterations"] - raw["burnin"]
        np.testing.assert_array_equal(trace[raw["burnin"]:], draws)

    def test_numeric_failure_exits_4(self, toy_files, monkeypatch):
        import poisbayes.io_cli as io_cli
        from poisbayes.errors import NumericError

        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path)

        def boom(*args, **kwargs):
            raise NumericError("forced")

        monkeypatch.setattr(io_cli, "mh_run", boom)
        assert run_cli(["fit", "--config", config_path]) == 4

    def test_horseshoe_config(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(
            tmp_path, data_path, iterations=600, burnin=200,
            prior={"kind": "horseshoe", "p_n": 1},
        )
        assert run_cli(["fit", "--config", config_path]) == 0

    def test_horseshoe_requires_scale(self, toy_files):
        tmp_path, data_path, _ = toy_files
        config_path, _ = run_config(tmp_path, data_path, prior={"kind": "horseshoe"})
        assert run_cli(["fit", "--config", config_path]) == 2


class TestRunConfig:
    def test_validation(self):
        cols = (ColumnSpec("y", "response"),)
        with pytest.raises(ConfigError):
            RunConfig(data="d.csv", columns=cols, sampler="nuts")
        with pytest.raises(ConfigError):
            RunConfig(data="d.csv", columns=cols, level=1.5)
        with pytest.raises(ConfigError):
            RunConfig(data="d.csv", columns=(), prior_kind="gaussian")
        with pytest.raises(ConfigError):
            ColumnSpec("x", "numerical")

    def test_round_trip_dict(self):
        cols = (ColumnSpec("y", "response"), ColumnSpec("x", "numeric", standardize=True))
        config = RunConfig(data="d.csv", columns=cols, prior_kind="horseshoe", tau=0.2)
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
