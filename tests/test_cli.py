import json
import csv
import warnings

import numpy as np
import pytest

from lindrec import models
from lindrec.cli import (
    COMMON_FLAGS,
    EXPERIMENTS,
    RunConfig,
    _fit_rows,
    _parse_float_grid,
    _parse_int_grid,
    build_config,
    build_parser,
    main,
    run_experiment,
    write_json,
)
from lindrec.engine import LindbladAnsatz, LindbladianParams, rapidity
from lindrec.errors import ConfigInvalidError
from lindrec.quantum_ops import boson_ops, coherent_state, mix_with_identity


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestParsing:
    def test_int_grid_forms(self):
        assert _parse_int_grid("10,20,40") == (10, 20, 40)
        assert _parse_int_grid("10..60:10") == (10, 20, 30, 40, 50, 60)
        assert _parse_int_grid("3..5") == (3, 4, 5)

    def test_float_grid_forms(self):
        assert _parse_float_grid("1e-4,1e-3") == (1e-4, 1e-3)
        grid = _parse_float_grid("1e-4..1e-2:9")
        assert len(grid) == 9
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e-2)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": [2.0, 0.0], "tol_null": 1e-9}))
        parser = build_parser()
        args = parser.parse_args(
            ["coherent", "--config", str(cfg), "--alpha", "1+1j", "--out", "x"]
        )
        config = build_config(args)
        assert config.alpha == 1 + 1j  # flag wins
        assert config.tol_null == 1e-9
        assert config.out_dir == "x"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        parser = build_parser()
        args = parser.parse_args(["coherent", "--config", str(cfg)])
        with pytest.raises(ConfigInvalidError):
            build_config(args)

    def test_removed_seed_and_sample_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7}))
        assert main(["coherent", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err
        for flag in (["--seed", "3"], ["--n-samples", "500"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["squeezed", *flag])
            assert exc.value.code == 2

    def test_every_flag_sets_its_field(self):
        parser = build_parser()
        cases = [
            (["coherent", "--alpha", "1-2j", "--out", "o", "--tol-null", "1e-9",
              "--n-max", "12"],
             {"alpha": 1 - 2j, "out_dir": "o", "tol_null": 1e-9, "n_max": 12}),
            (["squeezed", "--r", "0.7", "--theta", "0.2", "--jumps", "two"],
             {"r": 0.7, "theta": 0.2, "jumps": "two"}),
            (["collective", "--N", "4..8:2", "--omega-over-kappa", "1.5"],
             {"n_list": (4, 6, 8), "omega_over_kappa": 1.5}),
            (["robustness", "--regime", "weak", "--N", "6", "--eps", "1e-3,1e-2",
              "--omega-over-kappa", "1.5"],
             {"regime": "weak", "n_list": (6,), "eps_list": (1e-3, 1e-2),
              "omega_over_kappa": 1.5}),
            (["feasibility", "--alpha", "2", "--require-feasible"],
             {"alpha": 2 + 0j, "require_feasible": True}),
        ]
        for argv, expected in cases:
            config = build_config(parser.parse_args(argv))
            assert {key: getattr(config, key) for key in expected} == expected, argv
        assert build_config(parser.parse_args(["feasibility"])).require_feasible is False

    @pytest.mark.parametrize("argv", [
        ["coherent", "--alpha", "1+"],
        # a range whose stop lies below its start holds no N
        ["collective", "--N", "60..10"],
    ])
    def test_unparsable_alpha_or_empty_n_range_is_a_config_error(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        None,  # no file
        "{",
        '{"experiment": "coherent", "n_list": [4]}',
    ])
    def test_unreadable_or_mismatched_config_file_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["collective", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_malformed_n_grid_is_a_config_error(self, tmp_path):
        assert main(["collective", "--N", "abc", "--out", str(tmp_path / "o")]) == 2
        with pytest.raises(ConfigInvalidError):
            _parse_int_grid("10..x")

    @pytest.mark.parametrize("grid", ["60..10:-10", "10..60:0"])
    def test_range_step_below_one_is_a_config_error(self, tmp_path, grid):
        # a descending range would drop its endpoint, as range() does
        with pytest.raises(ConfigInvalidError, match="step"):
            _parse_int_grid(grid)
        assert main(["collective", "--N", grid, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["collective", "--N", "1"],
        ["robustness", "--N", "1,10"],
        ["squeezed", "--r", "-1"],
        ["collective", "--omega-over-kappa", "0"],
    ])
    def test_degenerate_model_parameter_is_a_config_error(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["collective", "robustness"])
    def test_repeated_n_is_a_config_error(self, tmp_path, experiment):
        # a repeated size has no place in the ascending order the rows are read in
        argv = [experiment, "--N", "10,10,20", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert not (tmp_path / "o").exists()

    def test_repeated_eps_is_a_config_error(self, tmp_path, capsys):
        # a repeated eps would count twice in each per-N fit
        out = tmp_path / "o"
        argv = ["robustness", "--N", "4,5,6", "--eps", "1e-3,1e-3,2e-3,3e-3"]
        assert main(argv + ["--out", str(out)]) == 2
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_list": [4, 5, 6], "eps_list": [1e-3, 2e-3, 3e-3, 2e-3]}))
        assert main(["robustness", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("eps values must not repeat") == 2
        assert not out.exists()

    def test_validate_rejects_zero_drive_in_robustness(self):
        # the drive omega0 = omega_over_kappa * kappa of every spec is zero
        with pytest.raises(ConfigInvalidError):
            RunConfig(experiment="robustness", omega_over_kappa=0.0).validate()

    def test_unknown_jumps_in_config_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"jumps": "three"}))
        assert main(["squeezed", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("experiment", ["coherent", "squeezed", "feasibility"])
    def test_zero_cutoff_is_a_config_error(self, tmp_path, experiment):
        # an explicit 0 is rejected, not read as "no cutoff given"
        assert main([experiment, "--n-max", "0", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("experiment", ["collective", "robustness"])
    def test_cutoff_flag_is_rejected_without_a_fock_space(self, tmp_path, capsys, experiment):
        # the spin runs have no Fock cutoff, so --n-max is not theirs to ignore
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--N", "4", "--n-max", "5", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--n-max" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["collective", "robustness"])
    def test_kappa_is_set_neither_by_flag_nor_by_config_file(
        self, tmp_path, capsys, experiment
    ):
        # the models read omega0/kappa alone, so the ratio is the one input
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--N", "4", "--kappa", "2", "--out", str(out)])
        assert exc.value.code == 2
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kappa": 2.0, "n_list": [4]}))
        assert main([experiment, "--config", str(path), "--out", str(out)]) == 2
        assert "unknown config keys: ['kappa']" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_eps_grid_is_a_config_error(self, tmp_path):
        assert main(["robustness", "--eps", "1e-4..x", "--out", str(tmp_path / "o")]) == 2
        with pytest.raises(ConfigInvalidError):
            _parse_float_grid("1e-4,abc")

    # a valid config-file value of every RunConfig field but experiment
    FILE_VALUES = {
        "out_dir": "o", "tol_null": 1e-9, "alpha": [1.0, 2], "r": 0.3, "theta": 0.1,
        "jumps": "two", "n_list": [4, 6], "omega_over_kappa": 1.5, "kappa": 2,
        "regime": "weak", "eps_list": [1e-3, 1e-2, 0.1], "n_max": 12,
        "require_feasible": True,
    }

    @pytest.mark.parametrize("key", sorted(FILE_VALUES))
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_config_file_sets_only_the_fields_of_the_subcommand_flags(
        self, tmp_path, capsys, experiment, key
    ):
        assert set(self.FILE_VALUES) == set(RunConfig.__dataclass_fields__) - {"experiment"}
        own = {flag.dest for flag in COMMON_FLAGS + EXPERIMENTS[experiment].flags}
        values = {name: value for name, value in self.FILE_VALUES.items() if name in own}
        path = tmp_path / "config.json"
        if key in own:
            path.write_text(json.dumps(values))
            config = build_config(build_parser().parse_args([experiment, "--config", str(path)]))
            config.validate()
            parsed = {**values, "alpha": 1 + 2j, "n_list": (4, 6), "eps_list": (1e-3, 1e-2, 0.1)}
            assert getattr(config, key) == parsed[key]
        else:
            # the subcommand never reads the field, so the file may not set it
            path.write_text(json.dumps({**values, key: self.FILE_VALUES[key]}))
            out = tmp_path / "o"
            assert main([experiment, "--config", str(path), "--out", str(out)]) == 2
            assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("experiment, values", [
        ("collective", {"omega_over_kappa": "1"}),
        ("collective", {"n_list": 10}),
        ("coherent", {"alpha": [1]}),
        ("robustness", {"eps_list": "1e-3"}),
        ("collective", [4]),  # the file must hold an object
    ])
    def test_config_file_value_of_the_wrong_type_is_a_config_error(
        self, tmp_path, experiment, values
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        assert main([experiment, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "eps", ["1e-3,1e-2", "0,1e-3,1e-2", "1e-3,1e-3,1e-3", "1e-3,1e-2,1"]
    )
    def test_eps_grid_without_a_slope_fit_is_a_config_error(self, tmp_path, eps):
        # the eps fits need three distinct points in (0, 1): at eps = 1 the
        # target is I/d, so lambda1 is exactly 0 and has no logarithm
        argv = ["robustness", "--N", "4,5,6", "--eps", eps, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config", [
        (["collective", "--N", "4", "--omega-over-kappa", "inf"], None),
        (["collective", "--N", "4", "--omega-over-kappa", "nan"], None),
        (["coherent", "--alpha", "nan"], None),
        (["coherent", "--alpha", "1+infj"], None),
        (["squeezed", "--theta", "inf"], None),
        (["squeezed", "--r", "nan"], None),
        (["robustness", "--eps", "1e-3,1e-2,inf"], None),
        (["collective"], '{"omega_over_kappa": Infinity, "n_list": [4]}'),
        (["collective"], '{"omega_over_kappa": NaN, "n_list": [4]}'),
        (["coherent"], '{"alpha": [1.0, -Infinity]}'),
    ])
    def test_non_finite_number_is_a_config_error(self, tmp_path, argv, config):
        if config is not None:
            # json.loads reads the JavaScript names of the non-finite floats
            (tmp_path / "config.json").write_text(config)
            argv = argv + ["--config", str(tmp_path / "config.json")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["squeezed", "--r", "3"],
        ["squeezed", "--r", "20"],
        ["coherent", "--alpha", "30"],
        ["collective", "--N", "100000"],
        ["robustness", "--N", "10,20,4000"],
        ["feasibility", "--n-max", str(models.MAX_HILBERT_DIM)],
        ["feasibility", "--alpha", "30"],
        # d^2 = 10201 to 10609, above the superoperator bound of the certified rows
        ["robustness", "--N", "100,101,102", "--eps", "1e-3,3e-3,1e-2"],
    ])
    def test_dimension_above_the_bound_is_a_config_error(self, tmp_path, monkeypatch, argv):
        def no_model(spec):
            raise AssertionError("a job ran")

        monkeypatch.setattr(models, "build_model", no_model)
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [
        RunConfig(experiment="collective", n_list=(100, 400)),
        RunConfig(experiment="squeezed", r=1.0, n_max=164),
        RunConfig(experiment="squeezed", r=2.0),
        RunConfig(experiment="coherent", n_max=models.MAX_HILBERT_DIM - 1),
    ])
    def test_dimension_within_the_bound_is_valid(self, config):
        config.validate()

    @pytest.mark.parametrize("config", [
        RunConfig(experiment="coherent", alpha=2.0),
        RunConfig(experiment="coherent", n_max=50),
        RunConfig(experiment="feasibility", alpha=2.0),
        RunConfig(experiment="feasibility", n_max=50),
        RunConfig(experiment="squeezed", r=1.0),
        RunConfig(experiment="squeezed", r=0.5, jumps=models.TWO_JUMPS, n_max=60),
        RunConfig(experiment="collective", n_list=(4, 9)),
        RunConfig(experiment="robustness", n_list=(10, 3, 6)),
    ])
    def test_dimension_bound_agrees_with_the_built_models(self, config):
        config.validate()
        specs = config.specs()
        dims = [models.build_model(spec).ansatz.dim for spec in specs]
        assert [models.hilbert_dim(spec) for spec in specs] == dims

    @pytest.mark.parametrize("eps", ["-1e-4..1e-2", "0..1e-2", "1e-4..-1e-2:5"])
    def test_eps_range_with_a_non_positive_bound_is_a_config_error(self, tmp_path, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalidError):
                _parse_float_grid(eps)
            assert main(["robustness", f"--eps={eps}", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("config", [
        RunConfig(experiment="nope"),
        RunConfig(experiment="robustness", regime="medium"),
        RunConfig(experiment="collective", n_list=()),
    ])
    def test_validate_rejects_unknown_names_and_an_empty_grid(self, config):
        with pytest.raises(ConfigInvalidError):
            config.validate()

    def test_validate_rejects_bad_tolerance(self):
        config = RunConfig(experiment="coherent", tol_null=1.0)
        with pytest.raises(ConfigInvalidError):
            config.validate()

    def test_validate_rejects_eps_outside_unit_interval(self):
        config = RunConfig(experiment="robustness", eps_list=(1e-3, 1.5))
        with pytest.raises(ConfigInvalidError):
            config.validate()
        assert main(["robustness", "--eps", "0.1,-0.1,0.5", "--out", "unused"]) == 2

    def test_regime_sets_default_ratio(self):
        strong = RunConfig(experiment="robustness", regime="strong")
        weak = RunConfig(experiment="robustness", regime="weak")
        assert strong.resolved_ratio() == 0.5
        assert weak.resolved_ratio() == 2.0
        explicit = RunConfig(
            experiment="robustness", regime="strong", omega_over_kappa=3.0
        )
        assert explicit.resolved_ratio() == 3.0


def power_law_rows(n_values, eps_values):
    """Robustness rows with lambda1 = eps^2/N, state_diff = eps/N^1.5 and a
    repaired error that follows eps below 1.5e-3 and then jumps to a plateau."""
    return [
        {
            "n_spins": n,
            "eps": float(eps),
            "lambda1": eps**2 / n,
            "state_diff": eps / n**1.5,
            "state_diff_repaired": eps if eps < 1.5e-3 else 1e-2,
        }
        for n in n_values
        for eps in eps_values
    ]


class TestScalingFits:
    EPS = np.logspace(-4, -2, 9)

    def test_exact_power_laws(self):
        fits = _fit_rows(power_law_rows((10, 20, 40), self.EPS), weak=False)
        expected = {"lambda1": (2.0, -1.0), "state_diff": (1.0, -1.5)}
        for key, (slope_eps, slope_n) in expected.items():
            assert fits[key]["slope_eps"] == pytest.approx(slope_eps, abs=1e-10)
            assert fits[key]["r2_eps"] == pytest.approx(1.0, abs=1e-12)
            assert fits[key]["slope_N"] == pytest.approx(slope_n, abs=1e-10)
            for entry in fits["per_N"].values():
                assert entry[f"{key}_slope"] == pytest.approx(slope_eps, abs=1e-10)
                assert entry[f"{key}_r2"] == pytest.approx(1.0, abs=1e-12)
            for entry in fits["per_eps"].values():
                assert entry[f"{key}_slope"] == pytest.approx(slope_n, abs=1e-10)
        assert set(fits["per_N"]) == {"10", "20", "40"}
        assert set(fits["per_eps"]) == {repr(float(eps)) for eps in self.EPS}
        assert "state_diff_two_segment" not in fits["per_N"]["10"]

    def test_two_sizes_give_no_fit_against_n(self):
        fits = _fit_rows(power_law_rows((10, 20), self.EPS), weak=False)
        assert fits["per_eps"] == {}
        assert fits["lambda1"]["slope_N"] is None
        assert fits["state_diff"]["slope_N"] is None
        assert fits["lambda1"]["slope_eps"] == pytest.approx(2.0, abs=1e-10)

    def test_two_segment_fit_finds_the_knee(self):
        fits = _fit_rows(power_law_rows((10, 20, 40), self.EPS), weak=True)
        for entry in fits["per_N"].values():
            knee = entry["state_diff_repaired_two_segment"]
            # the only split with both branches exact lies between 1e-3 and
            # the next grid point 10^-2.75
            assert knee["n_points_below_knee"] == 5
            assert knee["knee_eps"] == pytest.approx(10**-2.875, rel=1e-12)
            assert knee["slope_small_eps"] == pytest.approx(1.0, abs=1e-10)
            assert knee["r2_small_eps"] == pytest.approx(1.0, abs=1e-12)
            assert knee["slope_large_eps"] == pytest.approx(0.0, abs=1e-10)
            straight = entry["state_diff_two_segment"]
            assert straight["slope_small_eps"] == pytest.approx(1.0, abs=1e-10)
            assert straight["slope_full"] == pytest.approx(1.0, abs=1e-10)

    def test_short_curve_has_no_knee(self):
        # each branch of a split needs at least three of the five points
        fits = _fit_rows(power_law_rows((10, 20), self.EPS[::2]), weak=True)
        knee = fits["per_N"]["10"]["state_diff_repaired_two_segment"]
        assert knee["knee_eps"] is None
        assert "n_points_below_knee" not in knee
        assert knee["slope_small_eps"] == knee["slope_full"]


class TestRuns:
    def test_coherent_run_emits_report_and_solutions(self, tmp_path):
        out = tmp_path / "coh"
        assert main(["coherent", "--alpha", "1", "--out", str(out)]) == 0
        report = load_report(out)
        results = report["results"]
        assert results["kernel_dim"] == 1
        assert results["verdict"] == "feasible"
        assert results["steady_state_error"] < 1e-7
        assert results["analytic_overlap"] > 1 - 1e-8
        sol = json.loads((out / "solutions.json").read_text())["solutions"][0]
        # complex entries serialize as [re, im] pairs; the unit-norm kernel
        # vector for alpha=1 is (0, sqrt2/2, 1, 0, 0, 0)/sqrt(3/2)
        assert sol["gamma"][0][0][0] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert sol["gamma"][0][0][1] == 0.0
        assert sol["rapidity_residual"] < 1e-16

    def test_coherent_run_reports_how_it_was_verified(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["coherent", "--alpha", "1.5", "--out", str(out)]) == 0
            report = load_report(out)
            report.pop("meta")
            report["config"].pop("out_dir")
            reports.append(json.dumps(report, sort_keys=True).encode())
        results = json.loads(reports[0])["results"]
        assert results["steady_state_method"] == "lu"
        assert results["steady_state_fallback"] is None
        assert 0 <= results["steady_state_residual"] <= 1e-8
        assert reports[0] == reports[1]

    def test_squeezed_run_reports_search(self, tmp_path):
        out = tmp_path / "sq"
        rc = main(
            ["squeezed", "--r", "0.5", "--theta", "0.0", "--out", str(out)]
        )
        assert rc == 0
        results = load_report(out)["results"]
        assert results["kernel_dim"] == 3
        assert results["markovian_search"]["direction_supported"] == [False, False, True]
        assert len(results["postselected"]) <= 1

    def test_collective_run_rows(self, tmp_path):
        out = tmp_path / "col"
        rc = main(
            ["collective", "--N", "6,10", "--omega-over-kappa", "2", "--out", str(out)]
        )
        assert rc == 0
        rows = load_report(out)["results"]["rows"]
        assert [r["n_spins"] for r in rows] == [6, 10]
        for row in rows:
            assert row["kernel_dim"] == 1
            assert row["solution"]["rapidity_residual"] <= 1e-10
        assert load_report(out)["results"]["second_eigenvalue_decreasing"]

    def test_second_eigenvalue_flag_reads_the_rows_in_ascending_n(self, tmp_path):
        # lambda_2 falls from N = 10 to N = 20, whatever order --N lists them in
        reports = []
        for grid in ("10,20", "20,10"):
            out = tmp_path / grid.replace(",", "-")
            assert main(["collective", "--N", grid, "--out", str(out)]) == 0
            reports.append(load_report(out)["results"])
        ascending, descending = reports
        assert [r["n_spins"] for r in descending["rows"]] == [20, 10]
        assert descending["rows"] == ascending["rows"][::-1]
        lam2 = {r["n_spins"]: r["two_lowest_eigenvalues"][1] for r in ascending["rows"]}
        assert lam2[20] < lam2[10]
        assert ascending["second_eigenvalue_decreasing"] is True
        assert descending["second_eigenvalue_decreasing"] is True

    def test_weak_drive_collective_rows_report_the_closed_form_generator(self, tmp_path):
        # below omega/kappa = 1 the kernel holds more than the true null at
        # large N; the row's solution must still be the exact generator
        config = RunConfig(
            experiment="collective", n_list=(300, 400), omega_over_kappa=0.5,
            out_dir=str(tmp_path / "col"),
        )
        rows = run_experiment(config)["results"]["rows"]
        for row in rows:
            assert "solution" in row, row["n_spins"]
            sol = row["solution"]
            assert sol["markovian"]
            phi = np.concatenate([np.asarray(sol["c"], dtype=complex), np.ravel(sol["gamma"])])
            spec = models.CollectiveSpec(n_spins=row["n_spins"], omega0=0.5, kappa=1.0)
            exact = models.collective_generator_params(spec).to_vector()
            # signed overlap, so the reported sign must match the closed form too
            overlap = np.vdot(exact, phi).real / (np.linalg.norm(exact) * np.linalg.norm(phi))
            assert 1.0 - overlap <= 1e-12, row["n_spins"]

    def test_weak_drive_at_n_400_runs(self, tmp_path):
        # the ladder products of the state reach 2^1157, beyond the float range
        out = tmp_path / "weak"
        argv = ["collective", "--N", "400", "--omega-over-kappa", "0.1", "--out", str(out)]
        assert main(argv) == 0
        (row,) = load_report(out)["results"]["rows"]
        assert row["solution"]["markovian"]
        assert row["solution"]["rapidity_residual"] <= 1e-10

    def test_feasibility_exit_codes(self, tmp_path):
        out = tmp_path / "feas"
        assert main(["feasibility", "--alpha", "1", "--out", str(out)]) == 0
        results = load_report(out)["results"]
        assert results["verdict"] == "infeasible"
        assert results["min_eigenvalue"] > 1e-3
        assert results["brute_force"]["min_normalized_rapidity"] > 0
        rc = main(
            ["feasibility", "--alpha", "1", "--out", str(out), "--require-feasible"]
        )
        assert rc == 4

    def test_invalid_config_exit_code(self, tmp_path):
        rc = main(
            ["collective", "--N", "6", "--tol-null", "0.5", "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # cutoff far too small for the requested squeezing
        rc = main(
            ["squeezed", "--r", "2.5", "--n-max", "40", "--out", str(tmp_path / "n")]
        )
        assert rc == 3
        report = load_report(tmp_path / "n")
        assert "error" in report

    @pytest.mark.parametrize("argv", [
        ["coherent", "--alpha", "1e200", "--n-max", "50"],
        ["feasibility", "--alpha", "1e200", "--n-max", "50"],
        ["squeezed", "--r", "400", "--n-max", "50"],
    ])
    def test_cutoff_floor_beyond_double_range_is_a_numerical_failure(self, tmp_path, argv):
        # the floors saturate at inf: no OverflowError and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(tmp_path)]) == 3
        assert load_report(tmp_path)["error"].startswith("CutoffTooSmallError")

    def test_failed_run_leaves_no_earlier_solutions_or_table(self, tmp_path):
        out = str(tmp_path / "rob")
        eps = ["--eps", "1e-3,3e-3,1e-2"]
        assert main(["robustness", "--N", "4,5,6", *eps, "--out", out]) == 0
        assert (tmp_path / "rob" / "solutions.json").exists()
        assert (tmp_path / "rob" / "scaling.csv").exists()
        # d = 161 passes the Hilbert-space bound but not the superoperator one
        assert main(["coherent", "--alpha", "4", "--out", out]) == 3
        assert sorted(path.name for path in (tmp_path / "rob").iterdir()) == ["report.json"]
        report = load_report(tmp_path / "rob")
        assert report["results"] == {}
        assert report["error"].startswith("DimTooLargeError")

    def test_robustness_small_grid_csv(self, tmp_path):
        out = tmp_path / "rob"
        rc = main(
            ["robustness", "--regime", "strong", "--N", "6,8,10",
             "--eps", "1e-4,1e-3,1e-2", "--out", str(out)]
        )
        assert rc == 0
        with (out / "scaling.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert set(rows[0]) == {"N", "eps", "lambda1", "state_diff", "gamma_min", "unique"}
        for row in rows:
            assert float(row["lambda1"]) > 0
            assert row["unique"] == "True"
        fits = load_report(out)["results"]["fits"]
        assert 1.8 < fits["lambda1"]["slope_eps"] < 2.2

    def test_weak_regime_emits_repaired_column(self, tmp_path):
        out = tmp_path / "robw"
        rc = main(
            ["robustness", "--regime", "weak", "--N", "6,8,10",
             "--eps", "1e-4,3e-4,1e-3", "--out", str(out)]
        )
        assert rc == 0
        with (out / "scaling.csv").open() as fh:
            header = fh.readline().strip().split(",")
        assert "state_diff_repaired" in header
        assert "n_negative_gamma" in header
        for row in load_report(out)["results"]["rows"]:
            assert row["steady_state_method"] == "inverse"
            assert row["steady_state_fallback"] is None
            assert row["steady_state_method_repaired"] == "lu"
            assert 0 <= row["steady_state_residual_repaired"] <= 1e-8


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self, tmp_path):
        args = ["collective", "--N", "6,8", "--omega-over-kappa", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        rep_a.pop("meta")
        rep_b.pop("meta")
        # out_dir differs by construction; everything else must match bytewise
        rep_a["config"].pop("out_dir")
        rep_b["config"].pop("out_dir")
        canon_a = json.dumps(rep_a, sort_keys=True)
        canon_b = json.dumps(rep_b, sort_keys=True)
        assert canon_a.encode() == canon_b.encode()


class TestWriteJson:
    @pytest.mark.parametrize("value, text", [(np.int64(3), "3"), (np.bool_(True), "true")])
    def test_numpy_scalars_are_written_as_python_values(self, tmp_path, value, text):
        write_json(tmp_path / "v.json", {"v": value})
        assert (tmp_path / "v.json").read_text() == f'{{\n  "v": {text}\n}}\n'

    def test_other_objects_are_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            write_json(tmp_path / "v.json", {"v": object()})
        assert not (tmp_path / "v.json").exists()


class TestReportedRapidity:
    """Every reported residual equals ``engine.rapidity`` recomputed from the
    reported parameters on the reconstructed (ansatz, state) pair."""

    @staticmethod
    def assert_residual(payload, ansatz, rho):
        params = LindbladianParams(c=payload["c"], gamma=payload["gamma"])
        assert payload["rapidity_residual"] == rapidity(params, ansatz, rho)

    def test_coherent_and_squeezed(self, tmp_path):
        config = RunConfig(experiment="coherent", alpha=1 + 0.5j, out_dir=str(tmp_path / "c"))
        results = run_experiment(config)["results"]
        model = models.build_model(models.CoherentSpec(alpha=config.alpha))
        assert results["solutions"]
        for payload in results["solutions"]:
            self.assert_residual(payload, model.ansatz, model.rho_ss)
        config = RunConfig(
            experiment="squeezed", r=0.5, theta=0.3, out_dir=str(tmp_path / "s")
        )
        results = run_experiment(config)["results"]
        model = models.build_model(models.SqueezedSpec(r=0.5, theta=0.3))
        payloads = results["markovian_search"]["solutions"] + results["postselected"]
        assert payloads
        for payload in results["solutions"] + payloads:
            self.assert_residual(payload, model.ansatz, model.rho_ss)

    def test_collective_rows(self, tmp_path):
        config = RunConfig(
            experiment="collective", n_list=(6, 10), omega_over_kappa=0.7,
            out_dir=str(tmp_path),
        )
        rows = run_experiment(config)["results"]["rows"]
        for row in rows:
            spec = models.CollectiveSpec(n_spins=row["n_spins"], omega0=0.7, kappa=1.0)
            model = models.build_model(spec)
            self.assert_residual(row["solution"], model.ansatz, model.rho_ss)

    def test_robustness_rows(self, tmp_path):
        config = RunConfig(
            experiment="robustness", regime="weak", n_list=(6, 8),
            eps_list=(1e-4, 1e-3, 1e-2), out_dir=str(tmp_path),
        )
        rows = run_experiment(config)["results"]["rows"]
        assert len(rows) == 6
        for row in rows:
            spec = models.CollectiveSpec(
                n_spins=row["n_spins"], omega0=2.0, kappa=1.0, basis=models.XY_BASIS
            )
            model = models.build_model(spec)
            rho_eps = mix_with_identity(model.rho_ss, row["eps"])
            self.assert_residual(row["solution"], model.ansatz, rho_eps)
            assert row["rapidity_residual"] == row["solution"]["rapidity_residual"]

    def test_feasibility_scan(self, tmp_path):
        alpha = 1.0 + 1.0j
        config = RunConfig(experiment="feasibility", alpha=alpha, out_dir=str(tmp_path))
        results = run_experiment(config)["results"]
        n_max = models.default_cutoff(models.CoherentSpec(alpha=alpha))
        ansatz = LindbladAnsatz(h_ops=(), jump_ops=(boson_ops(n_max).a,))
        rho = coherent_state(n_max, alpha)
        for payload in results["solutions"]:
            self.assert_residual(payload, ansatz, rho)
        scan = [
            rapidity(LindbladianParams(c=np.zeros(0), gamma=np.array([[g]])), ansatz, rho)
            / g**2
            for g in np.linspace(-2.0, 2.0, 401)
            if abs(g) >= 1e-9
        ]
        brute = results["brute_force"]
        assert brute["grid_points"] == len(scan) == 400
        assert brute["min_normalized_rapidity"] == float(np.min(scan))
        unit = LindbladianParams(c=np.zeros(0), gamma=np.array([[1.0]]))
        assert brute["unit_family_rapidity"] == rapidity(unit, ansatz, rho)
