#!/usr/bin/env python3
"""distdetect benchmark: seeded workloads timed through ``distdetect.cli.main``.

    python3 bench/run.py --workload dist_solve --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, measured
untraced. With ``--trace 1`` it reports the per-layer metrics from traced
calls, and the tracing overhead against untraced calls made in turn
with them. Everything, warm-up included, fits in ``--seconds``. Every
call's outputs are checked, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_run"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MIN_CALLS = 3

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# reported by the traced run next to the per-layer metrics: (name, unit, better)
TRACE_METRICS = [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
                 ("trace.coverage", "ratio", "higher")]

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import distdetect.cli; print(time.perf_counter() - t)")


def cap_threads() -> dict[str, str]:
    """Run BLAS/OpenMP single-threaded, before numpy loads.

    The program's arrays are small enough that extra threads buy little,
    and threads that spin while waiting for each other time the host's
    scheduler rather than the program.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to ``import distdetect.cli``."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def digests(outdir: Path) -> dict[str, str]:
    """sha256 of every output except the manifest, which carries timings."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


class Runner:
    """Calls cli.main on one workload config and checks what each call wrote."""

    def __init__(self, workload, cfg: dict, workdir: Path):
        from distdetect import cli
        self.cli, self.workload, self.cfg = cli, workload, cfg
        workdir.mkdir(parents=True, exist_ok=True)
        self.outdir = workdir / "out"
        config_path = workdir / "config.json"
        config_path.write_text(cli.canonical_dumps(cfg))
        self.argv = workload.argv(config_path, self.outdir)
        self.reference = workload.reference(cfg) if workload.reference else {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.expected: dict[str, str] | None = None
        self.consensus_rounds = 0
        self.bytes_written = 0

    def call(self, tracer=None) -> float:
        """One timed cli.main call, then the output checks; returns its wall time."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    code = self.cli.main(self.argv)
            except Exception as e:  # a traceback is a failed call, not a harness crash
                error = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        problems = self._check(code, error, sink.getvalue())
        if problems:
            self.failed += 1
            self.problems.extend(f"call {self.attempted}: {p}" for p in problems)
        return elapsed

    def _check(self, code, error, printed: str) -> list[str]:
        from workloads import consensus_rounds
        if error is not None:
            return [f"raised {error}"]
        if code != 0:
            return [f"exit code {code}: {printed.strip()[-300:]}"]
        missing = [n for n in self.workload.outputs if not (self.outdir / n).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        try:
            problems = self.workload.check(self.outdir, self.cfg, self.reference, printed)
        except (ValueError, KeyError, IndexError) as e:  # unparsable output fails the call
            problems = [f"malformed output: {type(e).__name__}: {e}"]
        self.consensus_rounds = consensus_rounds(self.outdir)
        got = digests(self.outdir)
        self.bytes_written = sum(p.stat().st_size for p in self.outdir.iterdir())
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            changed = sorted(k for k in set(got) | set(self.expected)
                             if got.get(k) != self.expected.get(k))
            problems.append(f"outputs differ from the first call: {changed}")
        return problems

    def warm(self, other: "Runner") -> None:
        """Make one call on `other` and count it, and its failures, as this runner's."""
        other.call()
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(f"warm-up {p}" for p in other.problems)

    def timed_calls(self, deadline: float, setup: list[float]) -> list[float]:
        """Repeat calls until the next one would end after `deadline`, at least MIN_CALLS.

        Between calls, the set-up probes are spread evenly over the time
        left, so that they sample the same stretch of machine time as
        the calls; they are appended to `setup`.
        """
        start = time.perf_counter()
        probe_every = (deadline - start) / SETUP_REPEATS
        walls: list[float] = []
        while True:
            walls.append(self.call())
            now = time.perf_counter()
            if len(setup) < SETUP_REPEATS and now >= start + len(setup) * probe_every:
                setup.append(setup_probe())
                now = time.perf_counter()
            if len(walls) >= MIN_CALLS and now + statistics.median(walls) > deadline:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_probe())
        return walls


def high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if there is one above p50."""
    n = len(values)
    if n <= 20:
        return f"n={n}; no percentile above the median has 10 samples beyond it"
    pct = int(100 * (1 - 10 / n))
    return f"n={n}; p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4f}"


def environment(seed: int, threads: dict) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "threads": threads,
            "platform": platform.platform()}


def measure_end_to_end(runner: Runner, deadline: float) -> dict:
    """wall_s, setup_s and peak_rss_mb, with tracing off."""
    setup: list[float] = []
    walls = runner.timed_calls(deadline, setup)
    values = [statistics.fmean(walls), statistics.median(setup),
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    metrics = {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}
    print(f"wall_s           {values[0]:.4f} s   mean over the run; median "
          f"{statistics.median(walls):.4f}, {high_percentile(walls)}")
    print(f"  calls_s        {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s          {values[1]:.4f} s   median of {len(setup)} fresh interpreters "
          f"importing distdetect.cli")
    print(f"  imports_s      {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"peak_rss_mb      {values[2]:.1f} MB")
    return metrics


def measure_layers(runner: Runner, deadline: float) -> dict:
    """Per-layer metrics from traced calls, alternating with untraced calls for the overhead."""
    import tracer as tracing

    originals = tracing.current_targets()
    tr = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    while True:
        untraced.append(runner.call())
        with tr:
            traced.append(runner.call(tr))
        tr.counts["cli.bytes_written"] += runner.bytes_written
        now = tracing.current_targets()
        stale = [f"distdetect.{m}.{a}" for (m, a), obj in originals.items()
                 if now[m, a] is not obj]
        if stale:
            raise RuntimeError(f"tracing left wrappers in place: {stale}")
        pair = statistics.median(untraced) + statistics.median(traced)
        if time.perf_counter() + pair > deadline:
            break

    metrics = tracing.layer_metrics(tr, len(traced))
    wall_traced = statistics.median(traced)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    values = [wall_traced, overhead, tracing.coverage(tr)]
    metrics.update({name: (v, unit) for (name, unit, _), v in zip(TRACE_METRICS, values)})
    print(f"{len(traced)} traced calls, median {wall_traced:.4f} s, alternating with untraced "
          f"calls, median {statistics.median(untraced):.4f} s; overhead {overhead:+.4f} s "
          f"(median of pairs); {len(tr.spans)} spans; named stages cover {values[2]:.1%} "
          f"of traced wall time")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; print the readable report and return the result object."""
    from workloads import WORKLOADS, make_config

    deadline = time.perf_counter() + seconds
    workload = WORKLOADS[workload_name]
    cfg = make_config(workload, seed, tiny)
    print(f"config: {json.dumps(cfg, sort_keys=True)}")
    workdir = WORKDIR / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        runner = Runner(workload, cfg, workdir / "run")
        # warm-up: the first import writes bytecode, and the first call pays lazy
        # imports; the tiny config takes the same code paths in a fraction of the time
        setup_probe()
        runner.warm(Runner(workload, make_config(workload, seed, tiny=True), workdir / "warm"))
        metrics = (measure_layers(runner, deadline) if trace
                   else measure_end_to_end(runner, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    print(f"consensus_rounds {runner.consensus_rounds} count (exact)")
    print(f"error_rate       {runner.failed / runner.attempted:.4g} ratio ({runner.failed} failed "
          f"of {runner.attempted} attempted)")
    for name, digest in (runner.expected or {}).items():
        print(f"sha256 {digest}  {name}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small configs, for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "distdetect" / "__init__.py").is_file():
        print(f"error: no distdetect sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import distdetect
    if Path(distdetect.__file__).resolve().parent != SRC / "distdetect":
        print(f"error: imported distdetect from {distdetect.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"env: {json.dumps(environment(args.seed, threads), sort_keys=True)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
