"""Benchmark workloads: the config each one hands the CLI, and the checks on its outputs.

Each workload stresses a different layer of distdetect, so a change to
one layer shows up on one workload and leaves the others flat:

- dist_solve     dual ascent over consensus (solver_dist, consensus)
- budget_sweep   scheme planning and Monte Carlo over a budget grid
- roc_sweep      Monte Carlo over a false-alarm grid, larger N, matched filter
- large_network  scenario and graph construction plus a centralized solve at M=5000

Configs are built from the benchmark seed and checked with
cli.validate_config; the program sees nothing but the written config.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from distdetect import cli
from distdetect.montecarlo import Scheme

RESULTS_HEADER = "scheme,Pt,N,M,pfa_target,pfa_hat,pd_hat,pd_analytic,trials,sigma_binomial"
DIAGNOSTICS_HEADER = ("scheme,Pt,sensor,p,bits_real,bits_int,transmitting,"
                      "clip_lo_h0,clip_hi_h0,clip_lo_h1,clip_hi_h1")
ALLOCATION_HEADER = "i,h_i,sigma2_i,xi_i,p_central,p_distributed,bits_real,bits_int,censored"
RATE_COLUMNS = ("pfa_target", "pfa_hat", "pd_hat", "pd_analytic")


def trace_header(m: int) -> str:
    return ",".join(["k", "lambda0"] + [f"p_{i + 1}" for i in range(m)]
                    + ["consensus_iters", "rel_step"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]                     # CLI arguments before the config path
    config: Callable[[int, bool], dict]       # (seed, tiny) -> raw config
    outputs: tuple[str, ...]                  # files every call must write
    # (outdir, cfg, reference, printed stdout) -> problems
    check: Callable[[Path, dict, dict, str], list[str]]
    reference: Callable[[dict], dict] | None = None  # computed once, outside the timed calls

    def argv(self, config_path: Path, outdir: Path) -> list[str]:
        return [*self.args, str(config_path), "--out", str(outdir)]


def make_config(workload: "Workload", seed: int, tiny: bool = False) -> dict:
    """The validated, canonical config a workload runs at this seed."""
    return cli.validate_config(workload.config(seed, tiny))


# ---------------------------------------------------------------- configs

def _dist_solve_config(seed: int, tiny: bool) -> dict:
    # The fig1 network at its own seed, whatever the benchmark seed. Across
    # config seeds one distributed solve takes 0.4 to 9.9 s and some seeds
    # (4 and 16) end in exit 3, so a seeded network would measure which
    # graph was drawn rather than the code.
    del seed
    if tiny:
        return {"schema_version": 1, "name": "bench_dist_solve", "seed": 1,
                "M": 6, "N": 10, "U": 3.0, "Pt": 3.0, "Pfa": 0.1, "radius": 0.9}
    return {"schema_version": 1, "name": "bench_dist_solve", "seed": 1,
            "M": 10, "N": 10, "U": 3.0, "Pt": 1.0, "Pfa": 0.1,
            "xa_db": -4.0, "amplitude": 0.2, "radius": 0.5}


def _budget_sweep_config(seed: int, tiny: bool) -> dict:
    m, trials, grid = (10, 500, [1.0, 10.0, 100.0]) if tiny else \
        (100, 8000, [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    return {"schema_version": 1, "name": "bench_budget_sweep", "seed": seed,
            "M": m, "N": 5, "U": 3.0, "Pt": 1.0, "Pfa": 0.1, "xa_db": -4.0,
            "radius": 0.3 if not tiny else 0.6,
            "detect": {"trials": trials, "schemes": [s.value for s in Scheme],
                       "pt_grid": grid}}


def _roc_sweep_config(seed: int, tiny: bool) -> dict:
    # Pt=10 instead of fig4's 1: at Pt=1 no sensor earns a whole bit at some
    # seeds (2, 3, 12), and then nothing is simulated at all.
    trials, n_grid = (1000, [10]) if tiny else (20000, [10, 50])
    return {"schema_version": 1, "name": "bench_roc_sweep", "seed": seed,
            "M": 10, "N": 10, "U": 3.0, "Pt": 10.0, "Pfa": 0.1,
            "detect": {"trials": trials,
                       "schemes": ["ED_opt_weights_opt_power", "MFD_opt_power"],
                       "pfa_grid": [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
                       "n_grid": n_grid}}


def _large_network_config(seed: int, tiny: bool) -> dict:
    # Pt keeps fig1's budget of 0.1 per sensor.
    m, radius = (200, 0.2) if tiny else (5000, 0.05)
    return {"schema_version": 1, "name": "bench_large_network", "seed": seed,
            "M": m, "N": 10, "U": 3.0, "Pt": m / 10, "Pfa": 0.1, "radius": radius}


# ---------------------------------------------------------------- checks

def _read_csv(path: Path, header: str, problems: list[str]) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            problems.append(f"{path.name}: header {first[:80]!r} is not the pinned one")
            return []
        return list(csv.DictReader(fh, fieldnames=header.split(",")))


def _rates_in_unit_interval(rows: list[dict], columns, name: str, problems: list[str]) -> None:
    for j, row in enumerate(rows):
        for col in columns:
            v = float(row[col])
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name} row {j + 1}: {col}={v} outside [0, 1]")


def _dist_solve_reference(cfg: dict) -> dict:
    from distdetect.solver_central import solve_centralized
    return {"p_central": [float(v) for v in solve_centralized(cli.scenario_from_config(cfg)).p]}


def consensus_rounds(outdir: Path) -> int:
    """Total consensus rounds in a trace.csv; 0 when the call wrote none."""
    path = outdir / "trace.csv"
    if not path.is_file():
        return 0
    with open(path, newline="") as fh:
        return sum(int(row["consensus_iters"]) for row in csv.DictReader(fh))


def _check_dist_solve(outdir: Path, cfg: dict, ref: dict, printed: str) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(outdir / "trace.csv", trace_header(cfg["M"]), problems)
    if not rows:
        return problems or ["trace.csv: no rows"]
    p = [float(rows[-1][f"p_{i + 1}"]) for i in range(cfg["M"])]
    pt = cfg["Pt"]
    if abs(sum(p) - pt) > 1e-3 * pt:
        problems.append(f"trace.csv: last row sums to {sum(p)}, Pt={pt}")
    pc = ref["p_central"]
    gap = math.dist(p, pc) / math.hypot(*pc)
    if not gap <= 1e-3:
        problems.append(f"trace.csv: relative gap to the centralized solve is {gap:.3e}")
    rounds = consensus_rounds(outdir)
    reported = re.search(r"(\d+) consensus rounds total", printed)
    if reported is None or int(reported.group(1)) != rounds:
        problems.append(f"trace.csv has {rounds} consensus rounds, the command reported "
                        f"{reported.group(1) if reported else 'none'}")
    return problems


def _check_results(outdir: Path, cfg: dict, sweep: str) -> list[str]:
    problems: list[str] = []
    name = f"results_{sweep}.csv"
    rows = _read_csv(outdir / name, RESULTS_HEADER, problems)
    det = cfg["detect"]
    points = (len(det["pt_grid"]) if sweep == "pt"
              else len(det["pfa_grid"]) * len(det["n_grid"] or [cfg["N"]]))
    expected = len(det["schemes"]) * points
    if len(rows) != expected:
        problems.append(f"{name}: {len(rows)} rows, expected {expected}")
    _rates_in_unit_interval(rows, RATE_COLUMNS, name, problems)
    if sweep == "pfa":
        by_curve: dict = {}
        for row in rows:
            by_curve.setdefault((row["scheme"], row["N"]), []).append(
                (float(row["pfa_target"]), float(row["pd_hat"])))
        for key, curve in by_curve.items():
            pd = [v for _, v in sorted(curve)]
            if any(b < a for a, b in zip(pd, pd[1:])):
                problems.append(f"{name}: pd_hat decreases in Pfa for {key}")
    return problems


def _check_budget_sweep(outdir: Path, cfg: dict, ref: dict, printed: str) -> list[str]:
    problems = _check_results(outdir, cfg, "pt")
    rows = _read_csv(outdir / "diagnostics_pt.csv", DIAGNOSTICS_HEADER, problems)
    det = cfg["detect"]
    expected = len(det["schemes"]) * len(det["pt_grid"]) * cfg["M"]
    if len(rows) != expected:
        problems.append(f"diagnostics_pt.csv: {len(rows)} rows, expected {expected}")
    _rates_in_unit_interval(rows, ("clip_lo_h0", "clip_hi_h0", "clip_lo_h1", "clip_hi_h1"),
                            "diagnostics_pt.csv", problems)
    return problems


def _check_roc_sweep(outdir: Path, cfg: dict, ref: dict, printed: str) -> list[str]:
    return _check_results(outdir, cfg, "pfa")


def _check_large_network(outdir: Path, cfg: dict, ref: dict, printed: str) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(outdir / "allocation.csv", ALLOCATION_HEADER, problems)
    if len(rows) != cfg["M"]:
        problems.append(f"allocation.csv: {len(rows)} rows, expected M={cfg['M']}")
        return problems
    p = [float(r["p_central"]) for r in rows]
    pt = cfg["Pt"]
    if abs(math.fsum(p) - pt) > 1e-9 * pt:
        problems.append(f"allocation.csv: sum(p_central)={math.fsum(p)!r}, Pt={pt}")
    if min(p) < 0.0:
        problems.append("allocation.csv: negative p_central")
    return problems


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="dist_solve",
        why="fig1 network via `trace`: consensus rounds and dual ascent take nearly all the "
            "time (ROADMAP item 3); never touches montecarlo",
        args=("trace",),
        config=_dist_solve_config,
        outputs=("trace.csv", "topology.txt"),
        check=_check_dist_solve,
        reference=_dist_solve_reference,
    ),
    Workload(
        name="budget_sweep",
        why="fig3 shape via `detect --sweep pt`: 42 plans, one batch redrawn at each of 7 "
            "budgets, per-sensor loops (items 2 and 4); runs no consensus",
        args=("detect", "--sweep", "pt"),
        config=_budget_sweep_config,
        outputs=("results_pt.csv", "diagnostics_pt.csv"),
        check=_check_budget_sweep,
    ),
    Workload(
        name="roc_sweep",
        why="fig4 shape via `detect --sweep pfa`: one plan per pass, 9 thresholds, matched "
            "filter, N up to 50; a draw-once loop inversion must not slow it",
        args=("detect", "--sweep", "pfa"),
        config=_roc_sweep_config,
        outputs=("results_pfa.csv",),
        check=_check_roc_sweep,
    ),
    Workload(
        name="large_network",
        why="M=5000 `allocate --method central`: scenario build, the dense M x M graph tensor "
            "and memory dominate (M-scaling items); no montecarlo, no solver_dist",
        args=("allocate", "--method", "central"),
        config=_large_network_config,
        outputs=("allocation.csv", "topology.txt"),
        check=_check_large_network,
    ),
)}
