"""Command-line front end: config-driven allocation, detection sweeps, solver traces.

Configs are JSON documents with a schema_version field; every command
takes one config path plus an output directory and writes plot-ready
CSV files and a manifest. Every CSV file is written here, through one
column-wise cell formatter. The three detect sweeps (pt, pfa, n) share
one path: one sweep_budget pass per run, over every window length N,
budget, scheme and pfa. It draws the noise along each sensor's signal
once, shared by every N, and the noise energy orthogonal to it once per N.
Exit codes are a stable contract: 0 success, 2 config problems or a
model with nothing to fuse, 3 distributed-solver non-convergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import sys
import time

import numpy as np

from .consensus import Graph, TopologyError, save_edge_list
from .fusion import DegenerateFusionError
from .model import Scenario, SolverConfig, build_sensors, make_scenario, make_topology
from .montecarlo import DetectionEstimate, Scheme, SchemePlan, sweep_budget
# not called here; bench/tracer.py wraps them under these names
from .montecarlo import powers_for_scheme, roc_curve, run_trials, weights_for_scheme
from .quantize import specs_for_allocation
from .solver_central import NoSignalError, ScaleError, solve_centralized
from .solver_dist import ConvergenceError, DualAscentTrace, ordered_norm, solve_distributed

SCHEMA_VERSION = 1
OUTDIR_ENV = "DISTDETECT_OUTDIR"
# rows _write_csv formats and writes at once; at fig1's trace.csv width a block's text
# stays under the 128 KiB above which glibc's malloc maps fresh pages for it
CSV_BLOCK = 1 << 8


class ConfigError(ValueError):
    """Config file is missing, malformed, or fails validation."""


_SOLVER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}

_DETECT_DEFAULTS = {
    "trials": 10000,
    "schemes": [s.value for s in Scheme],
    "pt_grid": [],
    "pfa_grid": [],
    "n_grid": [],
}

# the optional scenario fields are build_sensors' keywords; sigma2_range is a JSON list
_SCENARIO_DEFAULTS = {
    k: list(p.default) if isinstance(p.default, tuple) else p.default
    for k, p in inspect.signature(build_sensors).parameters.items() if p.default is not p.empty
}

_TOP_DEFAULTS = {
    "name": "scenario",
    **_SCENARIO_DEFAULTS,
    # the graph and the solver settings; only allocate and trace read them
    "radius": inspect.signature(make_topology).parameters["radius"].default,
    "solver": _SOLVER_DEFAULTS,
    "detect": _DETECT_DEFAULTS,
}

_REQUIRED = ("schema_version", "seed", "M", "N", "U", "Pt", "Pfa")


def load_config(path) -> dict:
    """Parse and validate a config file; errors carry file:line context."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    try:
        return validate_config(raw)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _num(v, name: str, kind=float, positive: bool = False):
    """The finite number v as a float or int; name is the field it came from."""
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
            f"field '{name}' must be a number, got {v!r}")
    # JSON admits NaN and Infinity; a comparison keeps huge integers off float()
    _expect(abs(v) <= sys.float_info.max, f"field '{name}' must be finite, got {v!r}")
    if kind is int:
        _expect(v == int(v), f"field '{name}' must be an integer, got {v!r}")
        v = int(v)
    else:
        v = float(v)
    if positive:
        _expect(v > 0, f"field '{name}' must be positive, got {v!r}")
    return v


def validate_config(raw: dict) -> dict:
    """Fill defaults and type-check; returns the canonical config dict.

    Canonicalization is idempotent: validating the output again yields
    an equal dict, which is what makes parse->canonicalize->serialize->
    parse a fixed point.
    """
    for key in _REQUIRED:
        _expect(key in raw, f"missing required field '{key}'")
    known = set(_REQUIRED) | set(_TOP_DEFAULTS)
    for key in raw:
        _expect(key in known, f"unknown field '{key}'")
    cfg = {k: raw.get(k, v) for k, v in _TOP_DEFAULTS.items()}
    cfg.update({k: raw[k] for k in _REQUIRED})

    _expect(cfg["schema_version"] == SCHEMA_VERSION,
            f"field 'schema_version' must be {SCHEMA_VERSION}, got {cfg['schema_version']!r}")
    cfg["seed"] = _num(cfg["seed"], "seed", int)
    _expect(cfg["seed"] >= 0, "field 'seed' must be nonnegative")
    cfg["M"] = _num(cfg["M"], "M", int, positive=True)
    cfg["N"] = _num(cfg["N"], "N", int, positive=True)
    cfg["U"] = _num(cfg["U"], "U", positive=True)
    cfg["Pt"] = _num(cfg["Pt"], "Pt", positive=True)
    cfg["Pfa"] = _num(cfg["Pfa"], "Pfa")
    _expect(0.0 < cfg["Pfa"] < 1.0, "field 'Pfa' must be in (0, 1)")
    _expect(isinstance(cfg["name"], str) and cfg["name"], "field 'name' must be a nonempty string")
    cfg["xa_db"] = _num(cfg["xa_db"], "xa_db")
    cfg["amplitude"] = _num(cfg["amplitude"], "amplitude", positive=True)
    sr = cfg["sigma2_range"]
    _expect(isinstance(sr, (list, tuple)) and len(sr) == 2,
            "field 'sigma2_range' must be a [lo, hi] pair")
    sr = [_num(v, "sigma2_range") for v in sr]
    _expect(0 < sr[0] <= sr[1], "field 'sigma2_range' must satisfy 0 < lo <= hi")
    cfg["sigma2_range"] = sr
    cfg["zeta"] = _num(cfg["zeta"], "zeta", positive=True)
    cfg["radius"] = _num(cfg["radius"], "radius", positive=True)
    _expect(isinstance(cfg["deterministic_channel"], bool),
            "field 'deterministic_channel' must be true/false")

    solver = dict(_SOLVER_DEFAULTS)
    _expect(isinstance(cfg["solver"], dict), "field 'solver' must be an object")
    for key in cfg["solver"]:
        _expect(key in _SOLVER_DEFAULTS, f"unknown field 'solver.{key}'")
    solver.update(cfg["solver"])
    for key, default in _SOLVER_DEFAULTS.items():
        if isinstance(default, (int, float)):
            solver[key] = _num(solver[key], f"solver.{key}", type(default))
    try:
        SolverConfig(**solver)
    except ValueError as e:
        raise ConfigError(f"field 'solver': {e}") from e
    cfg["solver"] = solver

    detect = dict(_DETECT_DEFAULTS)
    _expect(isinstance(cfg["detect"], dict), "field 'detect' must be an object")
    for key in cfg["detect"]:
        _expect(key in _DETECT_DEFAULTS, f"unknown field 'detect.{key}'")
    detect.update(cfg["detect"])
    detect["trials"] = _num(detect["trials"], "detect.trials", int, positive=True)
    _expect(isinstance(detect["schemes"], list) and detect["schemes"],
            "field 'detect.schemes' must be a nonempty list")
    for s in detect["schemes"]:
        try:
            Scheme(s)
        except ValueError:
            raise ConfigError(
                f"field 'detect.schemes': unknown scheme {s!r}; valid: {[x.value for x in Scheme]}"
            ) from None
    for gname in ("pt_grid", "pfa_grid", "n_grid"):
        grid = detect[gname]
        _expect(isinstance(grid, list), f"field 'detect.{gname}' must be a list")
        vals = [_num(v, f"detect.{gname}", int if gname == "n_grid" else float) for v in grid]
        _expect(all(v > 0 for v in vals), f"field 'detect.{gname}' entries must be positive")
        if gname == "pfa_grid":
            _expect(all(v < 1 for v in vals), "field 'detect.pfa_grid' entries must be < 1")
            _expect(vals == sorted(vals), "field 'detect.pfa_grid' must be increasing")
        detect[gname] = vals
    cfg["detect"] = detect
    return cfg


def canonical_dumps(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_dumps(cfg).encode()).hexdigest()


def scenario_from_config(cfg: dict, n: int | None = None) -> Scenario:
    try:
        return make_scenario(
            m=cfg["M"], n=n if n is not None else cfg["N"], seed=cfg["seed"],
            u=cfg["U"], pt=cfg["Pt"], pfa=cfg["Pfa"],
            **{k: cfg[k] for k in _SCENARIO_DEFAULTS},
        )
    except ValueError as e:
        raise ConfigError(f"config does not describe a valid scenario: {e}") from e


def _outdir(args) -> str:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(outdir: str, cfg: dict, command: str, outputs: list[str],
                    timings: dict[str, float]) -> str:
    from . import __version__
    for name in outputs:
        path = os.path.join(outdir, name)
        if not (os.path.exists(path) and os.path.getsize(path) > 0):
            raise RuntimeError(f"output {name} missing or empty; refusing to write manifest")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "name": cfg["name"],
        "command": command,
        "config_digest": config_digest(cfg),
        "package_version": __version__,
        "outputs": sorted(outputs),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _cells(col: np.ndarray):
    """An array column's cells: repr of a float, str of an int or a name, 1/0 for a bool."""
    if col.dtype == bool:
        return np.where(col, "1", "0").tolist()
    return map(repr if col.dtype.kind == "f" else str, col.tolist())


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line, CSV_BLOCK rows per write.

    A column is an array, formatted under _cells' rules. Only one block's
    cells are held at once, however many rows there are.
    """
    columns = list(columns)
    rows = min(map(len, columns), default=0)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for b in range(0, rows, CSV_BLOCK):
            block = zip(*(_cells(col[b:b + CSV_BLOCK]) for col in columns))
            fh.write("\n".join(map(",".join, block)) + "\n")


def write_allocation_csv(path, scenario: Scenario, p_central, p_distributed) -> None:
    """Columns: i,h_i,sigma2_i,xi_i,p_central,p_distributed,bits_real,bits_int,censored.

    Bit columns follow the centralized powers when present, otherwise
    the distributed ones.
    """
    basis = p_central if p_central is not None else p_distributed
    spec = specs_for_allocation(basis, scenario.h, scenario.zeta, scenario.U)
    blank = np.full(scenario.M, "")
    _write_csv(path, "i,h_i,sigma2_i,xi_i,p_central,p_distributed,bits_real,bits_int,censored", (
        np.arange(scenario.M), scenario.h, scenario.sigma2, scenario.xi,
        *(blank if p is None else p for p in (p_central, p_distributed)),
        spec.bits_real, spec.bits_int, spec.censored,
    ))


def write_trace_csv(trace: DualAscentTrace, path) -> None:
    """Columns: k, lambda0, p_1..p_M, consensus_iters, rel_step."""
    powers = [f"p_{i + 1}" for i in range(trace.powers.shape[1])]
    _write_csv(path, ",".join(["k", "lambda0", *powers, "consensus_iters", "rel_step"]),
               (trace.k, trace.lambda0, *trace.powers.T, trace.consensus_iters, trace.rel_step))


def write_results_csv(path, rows: list[tuple[DetectionEstimate, int, int]]) -> None:
    """Rows are (estimate, N, M) triples.

    Pinned column order: scheme,Pt,N,M,pfa_target,pfa_hat,pd_hat,pd_analytic,trials,sigma_binomial.
    """
    columns = zip(*((e.scheme.value, e.pt, n, m, e.pfa_target, e.pfa_hat, e.pd_hat,
                     e.pd_analytic, e.trials, e.sigma_binomial()) for e, n, m in rows))
    _write_csv(path, "scheme,Pt,N,M,pfa_target,pfa_hat,pd_hat,pd_analytic,trials,sigma_binomial",
               map(np.array, columns))


def write_diagnostics_csv(path, diag: list[tuple[SchemePlan, np.ndarray]]) -> None:
    """One row per sensor of each (plan, clip rates) pair that sweep_budget collected.

    The rates are a (4, M) array, one row per clip column.
    """
    plans = [plan for plan, _ in diag]
    m = plans[0].powers.size
    _write_csv(path, "scheme,Pt,sensor,p,bits_real,bits_int,transmitting,"
                     "clip_lo_h0,clip_hi_h0,clip_lo_h1,clip_hi_h1", (
        np.repeat([p.scheme.value for p in plans], m),
        np.repeat([p.pt for p in plans], m),
        np.tile(np.arange(m), len(plans)),
        np.concatenate([p.powers for p in plans]),
        *(np.concatenate([getattr(p.spec, f) for p in plans]) for f in ("bits_real", "bits_int")),
        np.concatenate([p.transmit for p in plans]),
        *np.hstack([rates for _, rates in diag]),
    ))


def _write_topology(outdir: str, graph: Graph) -> list[str]:
    """Save the edge list; it counts as an output only when the graph has edges."""
    save_edge_list(graph, os.path.join(outdir, "topology.txt"))
    return ["topology.txt"] if graph.edges.size else []


def _solve_distributed(scenario: Scenario, graph: Graph, cfg: dict, outdir: str):
    """solve_distributed at the config's settings; on ConvergenceError, write trace.csv, re-raise.

    The partial trace holds every outer iteration completed before the
    failure: none, if the first consensus run already failed, which
    leaves only the header.
    """
    try:
        return solve_distributed(scenario, graph, SolverConfig(**cfg["solver"]))
    except ConvergenceError as e:
        if e.trace is not None:
            trace_path = os.path.join(outdir, "trace.csv")
            write_trace_csv(e.trace, trace_path)
            print(f"partial trace written to {trace_path}", file=sys.stderr)
        raise


def cmd_allocate(args) -> int:
    cfg = load_config(args.config)
    outdir = _outdir(args)
    scenario = scenario_from_config(cfg)
    graph = make_topology(cfg["M"], cfg["seed"], cfg["radius"])
    timings: dict[str, float] = {}

    p_central = p_dist = None
    if args.method in ("central", "both"):
        t0 = time.perf_counter()
        p_central = solve_centralized(scenario).p
        timings["solve_centralized"] = time.perf_counter() - t0
    if args.method in ("distributed", "both"):
        t0 = time.perf_counter()
        alloc, _ = _solve_distributed(scenario, graph, cfg, outdir)
        p_dist = alloc.p
        timings["solve_distributed"] = time.perf_counter() - t0

    alloc_path = os.path.join(outdir, "allocation.csv")
    write_allocation_csv(alloc_path, scenario, p_central, p_dist)
    outputs = ["allocation.csv", *_write_topology(outdir, graph)]
    _write_manifest(outdir, cfg, "allocate", outputs, timings)
    if p_central is not None and p_dist is not None:
        nc = ordered_norm(p_central)
        gap = ordered_norm(p_dist - p_central) / nc if nc > 0 else float("nan")
        print(f"allocate: {scenario.M} sensors, central vs distributed relative gap {gap:.3e}")
    else:
        print(f"allocate: {scenario.M} sensors, method {args.method}")
    print(f"wrote {alloc_path}")
    return 0


def cmd_detect(args) -> int:
    """One sweep_budget call per run: every window length N and every point of the sweep.

    `pt` sweeps detect.pt_grid at the config's N, `pfa` sweeps
    detect.pfa_grid and `n` the config's Pfa, both at every N of
    detect.n_grid (the config's N if it is empty). Every N shares one
    draw of g, the noise along the signal, so the sweep makes one pass
    whatever the number of window lengths. Rows come in (N, budget,
    scheme, pfa) order, a repeated N repeating its rows; `pt` also
    writes diagnostics_pt.csv.
    """
    cfg = load_config(args.config)
    outdir = _outdir(args)
    detect = cfg["detect"]
    trials = args.trials if args.trials is not None else detect["trials"]
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    sweep = args.sweep
    grid = detect[f"{sweep}_grid"]
    if not grid:
        raise ConfigError(f"sweep '{sweep}' needs a nonempty 'detect.{sweep}_grid'")
    schemes = [Scheme(s) for s in detect["schemes"]]
    n_values = [cfg["N"]] if sweep == "pt" else detect["n_grid"] or [cfg["N"]]
    pt_grid = grid if sweep == "pt" else [cfg["Pt"]]
    pfa_grid = grid if sweep == "pfa" else [cfg["Pfa"]]
    diag = [] if sweep == "pt" else None
    t0 = time.perf_counter()
    by_n = {n: scenario_from_config(cfg, n=n) for n in n_values}
    windows = [by_n[n] for n in n_values]
    ests = sweep_budget(windows, schemes, pt_grid, trials, diagnostics=diag, pfa_grid=pfa_grid)
    per_window = len(ests) // len(windows)
    rows = [(e, windows[k // per_window].N, cfg["M"]) for k, e in enumerate(ests)]
    outputs = [f"results_{sweep}.csv"]
    write_results_csv(os.path.join(outdir, outputs[0]), rows)
    if diag is not None:
        outputs.append("diagnostics_pt.csv")
        write_diagnostics_csv(os.path.join(outdir, outputs[1]), diag)

    timings = {f"sweep_{sweep}": time.perf_counter() - t0}
    _write_manifest(outdir, cfg, f"detect --sweep {sweep}", outputs, timings)
    print(f"detect: sweep {sweep}, {trials} trials per point, "
          f"{len(schemes)} schemes -> {', '.join(sorted(outputs))}")
    return 0


def cmd_trace(args) -> int:
    cfg = load_config(args.config)
    outdir = _outdir(args)
    scenario = scenario_from_config(cfg)
    graph = make_topology(cfg["M"], cfg["seed"], cfg["radius"])
    t0 = time.perf_counter()
    alloc, trace = _solve_distributed(scenario, graph, cfg, outdir)
    elapsed = time.perf_counter() - t0
    trace_path = os.path.join(outdir, "trace.csv")
    write_trace_csv(trace, trace_path)
    outputs = ["trace.csv", *_write_topology(outdir, graph)]
    _write_manifest(outdir, cfg, "trace", outputs, {"solve_distributed": elapsed})
    print(f"trace: converged in {trace.iterations} outer iterations, "
          f"{trace.total_consensus_rounds} consensus rounds total, "
          f"final rel_step {trace.rel_step[-1]:.3e}, sum(p) = {alloc.total():.6f}")
    print(f"wrote {trace_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdetect",
        description="Decentralized detection: power allocation, detection sweeps, solver traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="solve the power allocation and write per-sensor CSV")
    p_alloc.add_argument("config")
    p_alloc.add_argument("--method", choices=("central", "distributed", "both"), default="both")
    p_alloc.add_argument("--out", default=None, help=f"output directory (default ${OUTDIR_ENV} or .)")
    p_alloc.set_defaults(func=cmd_allocate)

    p_det = sub.add_parser("detect", help="run Monte Carlo detection sweeps")
    p_det.add_argument("config")
    p_det.add_argument("--sweep", choices=("pt", "pfa", "n"), required=True)
    p_det.add_argument("--trials", type=int, default=None, help="override config trial count")
    p_det.add_argument("--out", default=None)
    p_det.set_defaults(func=cmd_detect)

    p_tr = sub.add_parser("trace", help="run the distributed solver and dump its trace")
    p_tr.add_argument("config")
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # no nan or inf output
            return args.func(args)
    except (ConfigError, TopologyError, NoSignalError, ScaleError, DegenerateFusionError,
            FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
