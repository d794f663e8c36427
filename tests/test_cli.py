"""Config validation and the allocate / detect / trace commands."""
import csv
import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect import cli
from distdetect.cli import write_results_csv
from distdetect.montecarlo import Scheme, powers_for_scheme, roc_curve, run_trials

from conftest import bundled_config, run_cli, scheme_weights, write_config


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfigValidation:
    def test_validation_is_idempotent(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        once = cli.validate_config(raw)
        assert cli.validate_config(once) == once

    def test_canonical_form_ignores_key_order(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        shuffled = dict(reversed(list(raw.items())))
        assert cli.canonical_dumps(cli.validate_config(raw)) == \
            cli.canonical_dumps(cli.validate_config(shuffled))
        assert cli.config_digest(cli.validate_config(raw)) == \
            cli.config_digest(cli.validate_config(shuffled))

    def test_digest_tracks_content(self, tmp_path):
        a = cli.validate_config(json.loads(write_config(tmp_path).read_text()))
        b = dict(a)
        b["Pt"] = 2.0
        assert cli.config_digest(a) != cli.config_digest(b)

    def test_missing_required_field_names_it(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        del raw["Pt"]
        with pytest.raises(cli.ConfigError, match="Pt"):
            cli.validate_config(raw)

    def test_unknown_key_rejected(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        raw["power_budget"] = 1.0
        with pytest.raises(cli.ConfigError, match="power_budget"):
            cli.validate_config(raw)

    def test_unknown_schema_version_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, schema_version=99)
        assert run_cli("allocate", path, "--out", tmp_path) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_malformed_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("{not json")
        assert run_cli("allocate", path, "--out", tmp_path) == 2

    @pytest.mark.parametrize("overrides", [
        {"M": float("inf")},
        {"detect": {"trials": float("inf")}},
        {"solver": {"consensus_max_iter": float("inf")}},
        {"solver": {"outer_max_iter": float("inf")}},
        {"solver": {"consensus_tol": float("nan")}},
        {"sigma2_range": ["a", 1]},
        {"sigma2_range": [0.5, float("inf")]},
        {"solver": {"consensus_mode": "foo"}},
        {"solver": {"consensus_mode": "local", "consensus_window": 0}},
    ], ids=["M_inf", "trials_inf", "consensus_max_iter_inf", "outer_max_iter_inf",
            "consensus_tol_nan", "sigma2_range_str", "sigma2_range_inf", "consensus_mode",
            "consensus_window"])
    def test_invalid_values_exit_2(self, tmp_path, capsys, overrides):
        # json writes the non-finite floats as NaN / Infinity, which its reader accepts
        path = write_config(tmp_path, overrides=overrides)
        assert run_cli("allocate", path, "--method", "both", "--out", tmp_path / "out") == 2
        assert "error:" in capsys.readouterr().err

    def test_bundled_configs_all_validate(self):
        for name in ("fig1.cfg", "fig2.cfg", "fig3.cfg", "fig4.cfg", "fig5.cfg"):
            cfg = cli.load_config(bundled_config(name))
            assert cfg["schema_version"] == 1


class TestAllocateCommand:
    def test_single_sensor_absorbs_the_budget(self, tmp_path):
        path = write_config(tmp_path, M=1, Pt=0.7,
                            overrides={"deterministic_channel": True})
        out = tmp_path / "out"
        assert run_cli("allocate", path, "--method", "central", "--out", out) == 0
        rows = read_csv(out / "allocation.csv")
        assert rows[0] == ["i", "h_i", "sigma2_i", "xi_i", "p_central",
                           "p_distributed", "bits_real", "bits_int", "censored"]
        assert len(rows) == 2
        assert_allclose(float(rows[1][4]), 0.7, rtol=1e-9)
        assert rows[1][5] == ""  # distributed column blank for central-only runs

    def test_both_methods_agree_on_a_complete_graph(self, tmp_path):
        path = write_config(tmp_path, M=4, Pt=2.0,
                            overrides={"sigma2_range": [1.0, 1.0],
                                       "deterministic_channel": True,
                                       "radius": 1.5})
        out = tmp_path / "out"
        assert run_cli("allocate", path, "--method", "both", "--out", out) == 0
        rows = read_csv(out / "allocation.csv")
        pc = np.array([float(r[4]) for r in rows[1:]])
        pdist = np.array([float(r[5]) for r in rows[1:]])
        assert np.linalg.norm(pdist - pc) / np.linalg.norm(pc) < 1e-3

    @pytest.mark.parametrize("config, overrides", [
        ("fig1.cfg", {"Pt": 1e-300}),
        ("fig1.cfg", {"Pt": 1e-12}),
        ("fig1.cfg", {"Pt": 1e-9}),
        ("fig1.cfg", {"Pt": 1e12}),
        ("fig1.cfg", {"U": 1e6}),
        ("fig1.cfg", {"zeta": 1e300}),
        ("fig5.cfg", {"Pt": 1e-9}),
    ], ids=["fig1_pt_1e-300", "fig1_pt_1e-12", "fig1_pt_1e-9", "fig1_pt_1e12", "fig1_u_1e6",
            "fig1_zeta_1e300", "fig5_pt_1e-9"])
    def test_extreme_scales_meet_the_budget(self, tmp_path, config, overrides):
        cfg = {**json.loads(bundled_config(config).read_text()), **overrides}
        out = tmp_path / "out"
        assert run_cli("allocate", write_config(tmp_path, overrides=cfg),
                       "--method", "central", "--out", out) == 0
        rows = read_csv(out / "allocation.csv")
        p = [float(r[4]) for r in rows[1:]]
        assert abs(math.fsum(p) - cfg["Pt"]) <= 1e-9 * cfg["Pt"]

    @pytest.mark.parametrize("overrides", [
        {"Pt": 1e300},
        {"sigma2_range": [1e-300, 1e-300]},
        {"sigma2_range": [1e300, 1e300]},
    ], ids=["pt_1e300", "sigma2_1e-300", "sigma2_1e300"])
    def test_unrepresentable_scales_exit_2(self, tmp_path, capsys, overrides):
        cfg = {**json.loads(bundled_config("fig1.cfg").read_text()), **overrides}
        assert run_cli("allocate", write_config(tmp_path, overrides=cfg),
                       "--method", "central", "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [{"xa_db": 4000}, {"amplitude": 1e300}],
                             ids=["xa_db_4000", "amplitude_1e300"])
    def test_snr_calibration_outside_float_range_exits_2(self, tmp_path, capsys, overrides):
        cfg = {**json.loads(bundled_config("fig1.cfg").read_text()), **overrides}
        assert run_cli("allocate", write_config(tmp_path, overrides=cfg),
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot calibrate" in err and "Traceback" not in err

    def test_manifest_lists_only_real_outputs(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("allocate", path, "--method", "central", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "allocate"
        assert manifest["config_digest"] == cli.config_digest(
            cli.load_config(path))
        for name in manifest["outputs"]:
            f = out / name
            assert f.is_file() and f.stat().st_size > 0

    def test_manifest_names_the_package_version(self, tmp_path, monkeypatch):
        # run from a source tree, where no installed metadata exists
        import importlib.metadata as md

        def not_installed(name):
            raise md.PackageNotFoundError(name)

        monkeypatch.setattr(md, "version", not_installed)
        out = tmp_path / "out"
        assert run_cli("allocate", write_config(tmp_path), "--method", "central",
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["package_version"] == dd.__version__

    def test_outdir_env_var_honored(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        out = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(out))
        assert run_cli("allocate", path, "--method", "central") == 0
        assert (out / "allocation.csv").is_file()

    @pytest.mark.parametrize("overrides, sha256", [
        (None, "efed3ee78dfdc725a787a9f28f2d892dfa3520165c2f51fcd6dacd6239dd028b"),
        # the large_network benchmark shape at seed 1: 94,859 edges
        ({"seed": 1, "M": 5000, "Pt": 500.0, "radius": 0.05},
         "3aca0fc81bb77a092c78d28241b43c9b89c514763ea8e7c92a05340e275d5b48"),
    ], ids=["fig1", "large_network"])
    def test_topology_bytes_are_pinned(self, tmp_path, overrides, sha256):
        # PCG64 draws and elementwise float operations only, no BLAS, so
        # the bytes are the same on every platform
        path = bundled_config("fig1.cfg") if overrides is None else write_config(
            tmp_path, overrides)
        out = tmp_path / "out"
        assert run_cli("allocate", path, "--method", "central", "--out", out) == 0
        assert hashlib.sha256((out / "topology.txt").read_bytes()).hexdigest() == sha256

    def test_allocation_bytes_are_pinned(self, tmp_path):
        # the large_network benchmark shape at seed 1. The sensor noise
        # levels come from libm's exp, so one digest holds whatever numpy
        # kernels the CPU selects
        path = write_config(tmp_path, {"seed": 1, "M": 5000, "Pt": 500.0, "radius": 0.05})
        out = tmp_path / "out"
        assert run_cli("allocate", path, "--method", "central", "--out", out) == 0
        assert hashlib.sha256((out / "allocation.csv").read_bytes()).hexdigest() == \
            "e8f059b8be14e9856a454194774cbf47887d761c95309645c38997be7c4c4183"

    @pytest.mark.parametrize("radius", [1e-300, 1e-4])
    def test_unreachable_radius_exits_2(self, tmp_path, capsys, radius):
        path = write_config(tmp_path, M=50, radius=radius)
        assert run_cli("allocate", path, "--method", "central", "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "no connected geometric graph after 200 tries" in err
        assert "Traceback" not in err


class TestDetectCommand:
    def test_tiny_run_completes(self, tmp_path):
        path = write_config(
            tmp_path, M=4, N=5,
            overrides={"radius": 1.5,
                       "detect": {"trials": 50, "pt_grid": [1.0],
                                  "schemes": ["ED_opt_weights_opt_power"]}})
        out = tmp_path / "out"
        assert run_cli("detect", path, "--sweep", "pt", "--out", out) == 0
        rows = read_csv(out / "results_pt.csv")
        assert rows[0][0] == "scheme" and len(rows) == 2
        assert rows[1][0] == "ED_opt_weights_opt_power"

    def test_trials_flag_overrides_config(self, tmp_path):
        path = write_config(
            tmp_path, M=4, N=5,
            overrides={"radius": 1.5,
                       "detect": {"pt_grid": [1.0],
                                  "schemes": ["ED_equal_weights_equal_power"]}})
        out = tmp_path / "out"
        assert run_cli("detect", path, "--sweep", "pt", "--trials", 1,
                       "--out", out) == 0
        rows = read_csv(out / "results_pt.csv")
        assert rows[1][8] == "1"

    def test_pfa_sweep_writes_roc_rows(self, tmp_path):
        path = write_config(
            tmp_path, M=4, N=5,
            overrides={"radius": 1.5,
                       "detect": {"trials": 200, "pfa_grid": [0.1, 0.5],
                                  "n_grid": [5, 8],
                                  "schemes": ["MFD_opt_power"]}})
        out = tmp_path / "out"
        assert run_cli("detect", path, "--sweep", "pfa", "--out", out) == 0
        rows = read_csv(out / "results_pfa.csv")
        assert len(rows) == 1 + 2 * 2  # grid points x window lengths
        assert {r[2] for r in rows[1:]} == {"5", "8"}

    @pytest.mark.parametrize("sweep", ["pfa", "n"])
    def test_rows_equal_the_per_scheme_loop(self, tmp_path, sweep):
        # the reference simulates one scheme at a time: its own powers, weights and pass
        path = bundled_config("fig4.cfg")
        out = tmp_path / "out"
        assert run_cli("detect", path, "--sweep", sweep, "--trials", 2000, "--out", out) == 0
        cfg = cli.load_config(path)
        rows = []
        for n in cfg["detect"]["n_grid"]:
            sc = cli.scenario_from_config(cfg, n=n)
            for scheme in map(Scheme, cfg["detect"]["schemes"]):
                p = powers_for_scheme(sc, scheme)
                w = scheme_weights(sc, scheme, p)
                ests = (roc_curve(sc, p, w, scheme, cfg["detect"]["pfa_grid"], 2000)
                        if sweep == "pfa" else [run_trials(sc, p, w, scheme, 2000)])
                rows.extend((e, n, sc.M) for e in ests)
        write_results_csv(tmp_path / "reference.csv", rows)
        assert (out / f"results_{sweep}.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("config, sweep, top, detect", [
        ("fig3.cfg", "pt", {}, {"pt_grid": [5e-324], "schemes": ["MFD_equal_power"]}),
        ("fig4.cfg", "pfa", {"Pt": 5e-324}, {"schemes": ["ED_equal_weights_equal_power"]}),
        ("fig4.cfg", "n", {"Pt": 5e-324}, {"schemes": ["ED_equal_weights_equal_power"]}),
    ], ids=["pt", "pfa", "n"])
    def test_budget_that_silences_every_sensor_exits_2(self, tmp_path, capsys, config, sweep,
                                                       top, detect):
        # Pt/M underflows to 0 under equal power, so no sensor has any power to send with
        cfg = json.loads(bundled_config(config).read_text())
        cfg = {**cfg, **top, "detect": {**cfg["detect"], **detect}}
        assert run_cli("detect", write_config(tmp_path, overrides=cfg), "--sweep", sweep,
                       "--trials", 10, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "all sensors censored" in err and "Traceback" not in err


class TestTraceCommand:
    @pytest.fixture(scope="class")
    @staticmethod
    def trace_run(tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        path = write_config(tmp, M=4, Pt=2.0,
                            overrides={"sigma2_range": [1.0, 1.0],
                                       "deterministic_channel": True,
                                       "radius": 1.5})
        out = tmp / "out"
        code = run_cli("trace", path, "--out", out)
        return code, read_csv(out / "trace.csv")

    def test_exit_code_and_schema(self, trace_run):
        code, rows = trace_run
        assert code == 0
        assert rows[0] == ["k", "lambda0", "p_1", "p_2", "p_3", "p_4",
                           "consensus_iters", "rel_step"]

    def test_identical_sensors_stay_identical(self, trace_run):
        _, rows = trace_run
        for r in rows[1:]:
            powers = [float(v) for v in r[2:6]]
            assert max(powers) - min(powers) < 1e-12

    def test_price_rises_monotonically_to_its_peak(self, trace_run):
        _, rows = trace_run
        lam = np.array([float(r[1]) for r in rows[1:]])
        peak = int(np.argmax(lam))
        assert np.all(np.diff(lam[:peak + 1]) >= 0)

    def test_iteration_cap_maps_to_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path, M=4, Pt=2.0,
                            overrides={"sigma2_range": [1.0, 1.0],
                                       "deterministic_channel": True,
                                       "radius": 1.5,
                                       "solver": {"outer_max_iter": 3}})
        out = tmp_path / "out"
        assert run_cli("trace", path, "--out", out) == 3
        # the partial trace still lands on disk for post-mortems
        assert len(read_csv(out / "trace.csv")) == 4

    @pytest.mark.parametrize("command", [("trace",), ("allocate", "--method", "distributed")])
    def test_consensus_failure_writes_the_partial_trace(self, tmp_path, capsys, command):
        # the fig1 network needs 249 rounds in its first consensus run
        path = write_config(tmp_path, seed=1, M=10, radius=0.5,
                            overrides={"solver": {"consensus_max_iter": 50}})
        out = tmp_path / "out"
        assert run_cli(*command, path, "--out", out) == 3
        assert "no consensus after 50 rounds" in capsys.readouterr().err
        # no outer iteration completed: the header alone
        assert read_csv(out / "trace.csv") == [
            ["k", "lambda0"] + [f"p_{i}" for i in range(1, 11)] + ["consensus_iters", "rel_step"]]

    def test_zero_signal_config_maps_to_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={"amplitude": 0.0})
        assert run_cli("trace", path, "--out", tmp_path / "out") == 2


class TestCsvCells:
    def test_list_and_bool_array_columns(self, tmp_path):
        # a float cell is its repr as a Python float, never np.float64(...)
        path = tmp_path / "cells.csv"
        cli._write_csv(path, "value,flag", ([np.float64(0.1), 0.25, 3, None],
                                            np.array([True, False, True, False])))
        assert path.read_text() == "value,flag\n0.1,1\n0.25,0\n3,1\n,0\n"

    def test_array_columns_match_list_columns(self, tmp_path):
        cols = (np.array([0.1, 1e-300, np.nan]), np.array([7, -2, 0]), np.array(["a", "b", "c"]))
        cli._write_csv(tmp_path / "arrays.csv", "f,i,s", cols)
        cli._write_csv(tmp_path / "lists.csv", "f,i,s", [list(c) for c in cols])
        assert (tmp_path / "arrays.csv").read_text() == (tmp_path / "lists.csv").read_text() \
            == "f,i,s\n0.1,7,a\n1e-300,-2,b\nnan,0,c\n"
