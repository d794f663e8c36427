"""End-to-end acceptance gates.

Each test prints exactly one [PASS]/[FAIL] line with the measured
quantity and the pinned tolerance, then asserts on it. The bundled
study configs are run twice each through the real CLI so the trend
and determinism gates see exactly what a user would produce.
"""
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import distdetect as dd
from distdetect import consensus
from distdetect.fusion import deflection_inputs
from distdetect.montecarlo import Scheme
from distdetect.solver_central import water_levels

from conftest import (
    bundled_config,
    each_sensor,
    kkt_check,
    run_cli,
    sensor,
    spec_at,
    suggest_statistic_halfrange,
    write_config,
)

RUNS = {
    "fig1_alloc": ("fig1.cfg", ("allocate", "--method", "both")),
    "fig1_trace": ("fig1.cfg", ("trace",)),
    "fig2_alloc": ("fig2.cfg", ("allocate", "--method", "central")),
    "fig3_detect": ("fig3.cfg", ("detect", "--sweep", "pt")),
    "fig4_detect": ("fig4.cfg", ("detect", "--sweep", "pfa")),
    "fig5_detect": ("fig5.cfg", ("detect", "--sweep", "pt")),
    "fig4_detect_n": ("fig4.cfg", ("detect", "--sweep", "n")),
}
# sha256sum's listing of every output but manifest.json, one directory per RUNS key;
# the CI kernel step checks its own runs against the same file
PINNED_DIGESTS = Path(__file__).with_name("study_outputs.sha256")


def _compare_to_pinned(outdirs: dict[str, Path]) -> tuple[int, int, list[str]]:
    """(files produced, files pinned, paths moved) for output directories by RUNS key.

    Every output but manifest.json is compared with the pinned digests of
    the same RUNS keys; a path moves when its digest differs or only one
    side has it.
    """
    produced = {f"./{key}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
                for key, outdir in outdirs.items() for f in outdir.iterdir()
                if f.name != "manifest.json"}
    pinned = {path: digest for digest, path in
              (line.split(maxsplit=1) for line in PINNED_DIGESTS.read_text().splitlines())
              if path.split("/")[1] in outdirs}
    moved = sorted(p for p in pinned.keys() | produced.keys() if pinned.get(p) != produced.get(p))
    return len(produced), len(pinned), moved


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _read(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _column(rows, name):
    idx = rows[0].index(name)
    return [r[idx] for r in rows[1:]]


@pytest.fixture(scope="module")
def study_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("studies")
    outdirs = {}
    for key, (cfg, argv) in RUNS.items():
        for rep in ("a", "b"):
            out = base / f"{key}_{rep}"
            cmd, *flags = argv
            code = run_cli(cmd, bundled_config(cfg), *flags, "--out", out)
            assert code == 0, f"{key} rep {rep} exited with {code}"
            outdirs[key, rep] = out
    return outdirs


def test_distributed_allocation_matches_centralized(study_runs):
    rows = _read(study_runs["fig1_alloc", "a"] / "allocation.csv")
    pc = np.array([float(v) for v in _column(rows, "p_central")])
    pdist = np.array([float(v) for v in _column(rows, "p_distributed")])
    gap = float(np.linalg.norm(pdist - pc) / np.linalg.norm(pc))
    _line("central vs distributed allocation", gap <= 1e-3,
          f"relative gap {gap:.3e} (tolerance 1e-3)")


def test_centralized_solution_satisfies_kkt(fig1_scenario, fig1_central):
    report = kkt_check(fig1_central, fig1_scenario)
    ok = (report.max_abs_residual_active <= 1e-6
          and abs(report.complementary_slackness) <= 1e-9
          and report.budget_feasible and report.powers_nonnegative)
    _line("stationarity and complementary slackness", ok,
          f"active residual {report.max_abs_residual_active:.2e} (<= 1e-6), "
          f"slackness {abs(report.complementary_slackness):.2e} (<= 1e-9)")


def test_closed_form_power_matches_grid_search():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 60))
        pt = float(rng.uniform(0.5, 5.0))
        sc = dd.make_scenario(
            m=1, n=n, seed=int(rng.integers(1, 10 ** 6)), u=3.0, pt=pt,
            amplitude=float(rng.uniform(0.1, 0.5)),
            xa_db=float(rng.uniform(-8.0, 0.0)))
        alloc = dd.solve_centralized(sc)
        s = sensor(sc, 0)
        p_cf = dd.power_closed_form(alloc.lambda0, water_levels(s, sc.U))
        # independent maximizer of the per-sensor payoff at the solved price
        g = s.h ** 2 / s.zeta
        a = (n * s.sigma2 * s.xi) ** 2
        b = 2.0 * n * s.sigma2 ** 2 * (1.0 + 2.0 * s.xi)
        c = sc.U ** 2 / 3.0
        grid = np.linspace(0.0, pt, 1_000_001)
        x = 1.0 + grid * g
        payoff = a * x / (b * x + c) - alloc.lambda0 * grid
        p_grid = float(grid[np.argmax(payoff)])
        worst = max(worst, abs(p_cf - p_grid) / pt)
    _line("closed-form power vs grid search", worst <= 1e-4,
          f"worst |closed form - argmax|/budget {worst:.2e} over 20 draws (<= 1e-4)")


def test_optimal_weights_maximize_deflection():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    beaten = True
    for k in range(10):
        sc = dd.make_scenario(m=4 + k % 7, n=5 + 3 * k, seed=100 + k,
                              pt=2.0 + 1.5 * k)
        powers = dd.solve_centralized(sc).p
        inputs = deflection_inputs(dd.Statistic.energy(sc), spec_at(sc, powers))
        alpha = dd.optimal_weights(inputs)
        d_star = dd.deflection(alpha, inputs)
        active = ~inputs.censored
        bound = float(np.sum(inputs.b[active] ** 2 / inputs.R_diag[active]))
        worst_rel = max(worst_rel, abs(d_star - bound) / bound)
        for _ in range(1000):
            cand = rng.normal(size=sc.M)
            cand[inputs.censored] = 0.0
            if not np.any(cand):
                continue
            if dd.deflection(dd.FusionWeights(alpha=cand), inputs) > d_star * (1 + 1e-12):
                beaten = False
    _line("optimal weights reach the deflection bound", worst_rel <= 1e-9 and beaten,
          f"worst relative gap to the bound {worst_rel:.2e} (<= 1e-9), "
          f"undefeated by 10x1000 random weight vectors: {beaten}")


def test_consensus_reaches_the_mean_on_random_graphs():
    rng = np.random.default_rng(11)
    worst_cons = worst_dev = 0.0
    max_rounds_ok = True
    for _ in range(50):
        m = int(rng.integers(2, 31))
        graph = dd.random_geometric_graph(m, float(rng.uniform(0.5, 1.4)), rng)
        x0 = rng.uniform(1.0, 10.0, size=m)
        res = dd.consensus_average(graph, x0, dd.SolverConfig(consensus_tol=1e-10,
                                                              consensus_max_iter=10 * m * m))
        mean = float(np.mean(x0))
        worst_cons = max(worst_cons, abs(float(np.mean(res.values)) - mean) / mean)
        worst_dev = max(worst_dev, float(np.max(np.abs(res.values - mean))))
        max_rounds_ok = max_rounds_ok and res.iterations <= 10 * m * m
    ok = worst_cons <= 1e-13 and worst_dev <= 1e-10 and max_rounds_ok
    _line("consensus on 50 random geometric graphs", ok,
          f"worst mean drift {worst_cons:.2e} (<= 1e-13), worst deviation from the "
          f"mean {worst_dev:.2e} (<= 1e-10), within 10*M^2 rounds: {max_rounds_ok}")


def test_gaussian_calibration_audit():
    # operating point chosen so every capacity lands on a whole bit count
    def audit(n):
        sensors = dd.build_sensors(10, n, seed=5, xa_db=-10.0,
                                   deterministic_channel=True)
        u = suggest_statistic_halfrange(sensors)
        sc = dd.Scenario(sensors.sigma2, sensors.h, sensors.zeta, sensors.signal, U=u,
                         Pt=4095.0, Pfa=0.1, seed=5)
        return dd.run_trials(sc, Scheme.ED_opt_weights_equal_power, 100_000)

    est = audit(100)
    pfa_err = abs(est.pfa_hat - 0.1)
    pd_err = abs(est.pd_hat - est.pd_analytic)
    short = audit(10)
    short_err = abs(short.pd_hat - short.pd_analytic)
    ok = pfa_err <= 0.01 and pd_err <= 0.02
    _line("false-alarm and detection calibration at long windows", ok,
          f"N=100: |pfa_hat - 0.1| = {pfa_err:.4f} (<= 0.01), "
          f"|pd_hat - analytic| = {pd_err:.4f} (<= 0.02); "
          f"N=10 reported ungated: |pd_hat - analytic| = {short_err:.4f}")


def test_study_curve_shapes(study_runs):
    # (a) a looser budget with stronger signals spreads power more evenly
    def active_cv(key):
        rows = _read(study_runs[key, "a"] / "allocation.csv")
        p = np.array([float(v) for v in _column(rows, "p_central")])
        p = p[p > 0]
        return float(np.std(p) / np.mean(p))

    cv_tight, cv_loose = active_cv("fig1_alloc"), active_cv("fig2_alloc")
    a_ok = cv_loose < cv_tight

    # (b) detection probability never degrades as the budget grows
    rows5 = _read(study_runs["fig5_detect", "a"] / "results_pt.csv")
    by_scheme = defaultdict(list)
    for r in rows5[1:]:
        by_scheme[r[0]].append((float(r[1]), float(r[6])))
    b_ok = all(
        np.all(np.diff([pd for _, pd in sorted(points)]) >= 0)
        for points in by_scheme.values())

    # (c) the matched filter ROC dominates the energy detector ROC
    rows4 = _read(study_runs["fig4_detect", "a"] / "results_pfa.csv")
    cells = {(r[0], r[2], r[4]): (float(r[6]), float(r[9])) for r in rows4[1:]}
    c_ok = True
    for (scheme, n, pfa), (pd_ed, sig_ed) in cells.items():
        if scheme != Scheme.ED_opt_weights_opt_power.value:
            continue
        pd_mf, sig_mf = cells[Scheme.MFD_opt_power.value, n, pfa]
        if pd_mf < pd_ed - 2 * (sig_ed + sig_mf):
            c_ok = False

    # (d) the two-detector gap collapses once the budget starves everyone
    rows3 = _read(study_runs["fig3_detect", "a"] / "results_pt.csv")
    table = {(r[0], float(r[1])): (float(r[6]), float(r[9])) for r in rows3[1:]}
    grid = sorted({pt for _, pt in table})
    gaps, sigmas = {}, {}
    for pt in (grid[0], grid[-1]):
        pd_mf, s_mf = table[Scheme.MFD_opt_power.value, pt]
        pd_ed, s_ed = table[Scheme.ED_opt_weights_opt_power.value, pt]
        gaps[pt] = pd_mf - pd_ed
        sigmas[pt] = s_mf + s_ed
    sigma = max(sigmas.values())
    d_ok = gaps[grid[0]] <= gaps[grid[-1]] - 2 * sigma and gaps[grid[0]] <= 0.05

    ok = a_ok and b_ok and c_ok and d_ok
    _line("study curve shapes", ok,
          f"(a) active-power CV {cv_loose:.3f} < {cv_tight:.3f}: {a_ok}; "
          f"(b) pd nondecreasing in budget: {b_ok}; "
          f"(c) matched filter dominates within 2 sigma: {c_ok}; "
          f"(d) detector gap {gaps[grid[0]]:.3f} at the starved end vs "
          f"{gaps[grid[-1]]:.3f} at the loose end: {d_ok}")


def test_power_ranking_and_censoring(study_runs, fig1_scenario, fig1_central):
    rows = _read(study_runs["fig1_alloc", "a"] / "allocation.csv")
    p_csv = np.array([float(v) for v in _column(rows, "p_central")])
    bits_int = np.array([int(v) for v in _column(rows, "bits_int")])
    p_cf = np.array([
        dd.power_closed_form(fig1_central.lambda0, water_levels(s, fig1_scenario.U))
        for s in each_sensor(fig1_scenario)])
    active_csv = p_csv > 0
    active_cf = p_cf > 0
    same_support = bool(np.array_equal(active_csv, active_cf))
    order_csv = np.argsort(-p_csv[active_csv], kind="stable")
    order_cf = np.argsort(-p_cf[active_cf], kind="stable")
    same_order = bool(np.array_equal(order_csv, order_cf))
    censored_silent = bool(np.all(bits_int[~active_csv] == 0))
    ok = same_support and same_order and censored_silent
    _line("power ranking follows the closed form and censored sensors are silent",
          ok,
          f"support match: {same_support}, ranking match over "
          f"{int(np.sum(active_csv))} active sensors: {same_order}, "
          f"all {int(np.sum(~active_csv))} censored sensors at 0 bits: {censored_silent}")


def test_repeated_runs_are_byte_identical(study_runs):
    mismatches = []
    n_files = 0
    for key in RUNS:
        a, b = study_runs[key, "a"], study_runs[key, "b"]
        csvs_a = sorted(f.name for f in a.glob("*.csv"))
        csvs_b = sorted(f.name for f in b.glob("*.csv"))
        if csvs_a != csvs_b:
            mismatches.append(f"{key}: file sets differ")
            continue
        for name in csvs_a:
            n_files += 1
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{key}/{name}")
    _line("repeated runs byte-identical", not mismatches,
          f"{n_files} CSV files compared across {len(RUNS)} commands"
          + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_every_csv_cell_is_a_plain_value(study_runs):
    # blank, an int (0/1 for a flag), a float's repr or a scheme name
    names = {s.value for s in Scheme}

    def plain(cell):
        if cell == "" or cell in names or re.fullmatch(r"-?\d+", cell):
            return True
        try:
            return repr(float(cell)) == cell
        except ValueError:
            return False

    cells, bad = 0, []
    for key in RUNS:
        for path in sorted(study_runs[key, "a"].glob("*.csv")):
            for row in _read(path)[1:]:
                cells += len(row)
                bad += [f"{key}/{path.name}: {c!r}" for c in row if not plain(c)]
    _line("plain CSV cells", cells > 0 and not bad,
          f"{cells} cells in {len(RUNS)} commands' CSV files, {len(bad)} not plain {bad[:3]}")


def test_outputs_match_the_pinned_digests(study_runs):
    produced, pinned, moved = _compare_to_pinned({key: study_runs[key, "a"] for key in RUNS})
    _line("outputs match the pinned digests", produced > 0 and not moved,
          f"{produced} files from {len(RUNS)} commands against {pinned} pinned"
          + (f"; moved, missing or unpinned: {moved}" if moved else ""))


@pytest.mark.parametrize("key, overrides", [
    *(pytest.param(key, {}, id=key) for key, (_, argv) in RUNS.items() if argv[0] == "detect"),
    # no connected graph exists at this radius, which allocate and trace report as exit 2
    pytest.param("fig3_detect", {"radius": 0.05}, id="fig3_detect_radius_0.05"),
])
def test_detect_draws_no_graph(tmp_path, monkeypatch, key, overrides):
    def no_graph(*args, **kwargs):
        raise AssertionError("detect drew a sensor graph")

    monkeypatch.setattr(consensus, "random_geometric_graph", no_graph)
    name, (cmd, *flags) = RUNS[key]
    path = bundled_config(name)
    if overrides:
        path = write_config(tmp_path, {**json.loads(path.read_text()), **overrides})
    out = tmp_path / "out"
    code = run_cli(cmd, path, *flags, "--out", out)
    produced, pinned, moved = _compare_to_pinned({key: out}) if code == 0 else (0, 0, [])
    _line(f"{key}{f' at {overrides}' if overrides else ''} draws no graph",
          code == 0 and produced > 0 and not moved,
          f"exit {code}, {produced} files against {pinned} pinned"
          + (f"; moved, missing or unpinned: {moved}" if moved else ""))


def _fresh_python(code: str, *args) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this distdetect; args land in sys.argv[1:]."""
    env = {**os.environ, "PYTHONPATH": str(Path(dd.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


# None in sys.modules makes every import of scipy, and of any scipy submodule, raise ImportError
_RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from distdetect import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("key", RUNS)
def test_study_runs_without_scipy(tmp_path, key):
    name, (cmd, *flags) = RUNS[key]
    out = tmp_path / "out"
    run = _fresh_python(_RUN_WITHOUT_SCIPY, cmd, bundled_config(name), *flags, "--out", out)
    produced, pinned, moved = _compare_to_pinned({key: out}) if run.returncode == 0 else (0, 0, [])
    _line(f"{key} runs with scipy imports blocked",
          run.returncode == 0 and produced > 0 and not moved,
          f"exit {run.returncode}, {produced} files against {pinned} pinned"
          + (f"; moved, missing or unpinned: {moved}" if moved else "")
          + (f"; stderr tail: {run.stderr[-300:]!r}" if run.returncode else ""))


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_fig1_bytes_under_other_openblas_kernels(tmp_path, core):
    # OpenBLAS picks its kernel from the CPU at load time unless OPENBLAS_CORETYPE names one;
    # fig1's solve makes no BLAS call, so its bytes are the pinned ones under every kernel
    tests = Path(__file__).parent
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join((str(Path(dd.__file__).parents[1]), str(tests)))}

    def run(*argv):
        return subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)

    loaded = run("-c", "from conftest import _openblas_core; print(_openblas_core())")
    outdirs, codes = {}, []
    for key in ("fig1_alloc", "fig1_trace"):
        name, argv = RUNS[key]
        outdirs[key] = tmp_path / key
        codes.append(run("-m", "distdetect", argv[0], bundled_config(name), *argv[1:],
                         "--out", outdirs[key]).returncode)
    produced, pinned, moved = (_compare_to_pinned(outdirs) if codes == [0, 0]
                               else (0, 0, []))
    _line(f"fig1 bytes under OpenBLAS {core}",
          loaded.stdout.strip() == core and codes == [0, 0] and produced > 0 and not moved,
          f"kernel loaded {loaded.stdout.strip() or loaded.stderr[-200:]!r}, exits {codes}, "
          f"{produced} files against {pinned} pinned"
          + (f"; moved, missing or unpinned: {moved}" if moved else ""))


def test_import_loads_no_scipy():
    run = _fresh_python("import sys, distdetect\n"
                        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    _line("import distdetect loads no scipy module",
          run.returncode == 0 and run.stdout.strip() == "[]",
          f"exit {run.returncode}, scipy modules loaded: {run.stdout.strip()[:200]}")
