"""Spans and counters around distdetect's public functions, patched from outside.

Every target is wrapped where it is looked up (``cli.solve_distributed``,
``montecarlo.quantize_array``, ...), so the program runs unchanged and
each call site is measured. A span records its name, start, end and
parent span; spans stay in memory until the run reports. The scalar hot
functions get count-only wrappers to keep the tracing overhead low.
``Tracer.restore`` puts every original object back.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from importlib import import_module

SPAN, COUNT, STREAM = "span", "count", "stream"


# after-hooks: (tracer, args, kwargs, result) -> None, adding counts
def _graph_edges(tr, args, kwargs, graph):
    tr.counts["consensus.graph_edges"] += len(graph.edges)


def _rounds(tr, args, kwargs, result):
    tr.counts["consensus.rounds"] += result.iterations


def _outer_iters(tr, args, kwargs, result):
    tr.counts["solver_dist.outer_iters"] += result[1].iterations


def _trials(tr, args, kwargs, result):
    trials = args[3] if len(args) > 3 else kwargs["trials"]
    tr.counts["montecarlo.trials"] += trials


def _values(tr, args, kwargs, result):
    tr.counts["quantize.values"] += result.size


FUSION = ("deflection_inputs", "equal_weights", "optimal_weights", "matched_filter_weights",
          "fusion_moments", "matched_filter_moments", "analytic_pd", "qfunc_inv")

# (module the name is looked up in, attribute, span or counter name, kind, after-hook)
TARGETS = [
    ("cli", "cmd_allocate", "cli.cmd_allocate", SPAN, None),
    ("cli", "cmd_detect", "cli.cmd_detect", SPAN, None),
    ("cli", "cmd_trace", "cli.cmd_trace", SPAN, None),
    ("cli", "load_config", "cli.load_config", SPAN, None),
    ("cli", "scenario_from_config", "cli.scenario_from_config", SPAN, None),
    ("cli", "write_allocation_csv", "cli.write_allocation_csv", SPAN, None),
    ("cli", "_write_manifest", "cli.write_manifest", SPAN, None),
    ("cli", "_outdir", "cli.outdir", SPAN, None),
    ("cli", "make_scenario", "model.make_scenario", SPAN, None),
    ("cli", "solve_centralized", "solver_central.solve_centralized", SPAN, None),
    ("cli", "solve_distributed", "solver_dist.solve_distributed", SPAN, _outer_iters),
    ("cli", "write_trace_csv", "solver_dist.write_trace_csv", SPAN, None),
    ("cli", "save_edge_list", "consensus.save_edge_list", SPAN, None),
    ("cli", "specs_for_allocation", "quantize.specs_for_allocation", SPAN, None),
    ("cli", "sweep_budget", "montecarlo.sweep_budget", SPAN, None),
    ("cli", "roc_curve", "montecarlo.roc_curve", SPAN, None),
    ("cli", "run_trials", "montecarlo.run_trials", SPAN, None),
    ("cli", "powers_for_scheme", "montecarlo.powers_for_scheme", SPAN, None),
    ("cli", "weights_for_scheme", "montecarlo.weights_for_scheme", SPAN, None),
    ("cli", "write_results_csv", "montecarlo.write_results_csv", SPAN, None),
    ("cli", "write_diagnostics_csv", "montecarlo.write_diagnostics_csv", SPAN, None),
    ("model", "build_sensors", "model.build_sensors", SPAN, None),
    ("model", "derive_stream", "model.derive_stream", COUNT, None),
    # make_scenario imports it from the consensus module at call time
    ("consensus", "random_geometric_graph", "consensus.random_geometric_graph", SPAN,
     _graph_edges),
    ("solver_dist", "metropolis_matrix", "consensus.metropolis_matrix", SPAN, None),
    ("solver_dist", "consensus_average", "consensus.consensus_average", SPAN, _rounds),
    ("solver_dist", "local_power_update", "solver_dist.local_power_update", COUNT, None),
    ("solver_central", "total_power", "solver_central.total_power", COUNT, None),
    ("solver_central", "power_closed_form", "solver_central.power_closed_form", COUNT, None),
    ("montecarlo", "solve_centralized", "solver_central.solve_centralized", SPAN, None),
    ("montecarlo", "plan_scheme", "montecarlo.plan_scheme", SPAN, None),
    ("montecarlo", "simulate_plans", "montecarlo.simulate_plans", SPAN, _trials),
    ("montecarlo", "derive_stream", "model.derive_stream", STREAM, None),
    ("montecarlo", "quantized_gaussian_moments", "montecarlo.quantized_gaussian_moments",
     COUNT, None),
    ("montecarlo", "specs_for_allocation", "quantize.specs_for_allocation", SPAN, None),
    ("montecarlo", "quantize_array", "quantize.quantize", SPAN, _values),
    ("montecarlo", "quantize_centered", "quantize.quantize", SPAN, _values),
    *[("montecarlo", f, f"fusion.{f}", SPAN, None) for f in FUSION],
]

# spans that only dispatch; time left in them is not attributed to any stage
DISPATCH = ("cli.main", "cli.cmd_allocate", "cli.cmd_detect", "cli.cmd_trace")


class _TimedGenerator:
    """Generator proxy that times ``normal`` draws and remembers which batch each was."""

    def __init__(self, tracer: "Tracer", rng, key: tuple):
        self._tracer, self._rng, self._key, self._drawn = tracer, rng, key, 0

    def normal(self, *args, **kwargs):
        with self._tracer.span("montecarlo.draw"):
            out = self._rng.normal(*args, **kwargs)
        self._tracer.counts["montecarlo.draw.normals"] += out.size
        # a batch is identified within one cli.main call, the root of the span stack
        root = self._tracer._stack[0] if self._tracer._stack else -1
        self._tracer.batches.append(
            (root, self._key, self._drawn, args, tuple(sorted(kwargs.items()))))
        self._drawn += 1
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """In-memory spans and counters; install() patches the targets, restore() undoes it."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.batches: list[tuple] = []  # identity of every normal() batch drawn
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._child: list[float] = []

    # -- recording
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap_span(self, orig, name, after):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def _wrap_count(self, orig, name):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _wrap_stream(self, orig, name):
        counts, key_calls = self.counts, name + ".calls"

        @functools.wraps(orig)
        def wrapper(seed, *key):
            counts[key_calls] += 1
            return _TimedGenerator(self, orig(seed, *key), (seed, *key))
        return wrapper

    # -- patching
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, kind, after in TARGETS:
            module = import_module(f"distdetect.{modname}")
            orig = getattr(module, attr)
            if kind == SPAN:
                wrapper = self._wrap_span(orig, name, after)
            elif kind == COUNT:
                wrapper = self._wrap_count(orig, name)
            else:
                wrapper = self._wrap_stream(orig, name)
            self._patched.append((module, attr, orig))
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis
    def children_time(self) -> list[float]:
        """Per span, the summed duration of its direct children (spans must be closed)."""
        if len(self._child) != len(self.spans):
            self._child = [0.0] * len(self.spans)
            for name, start, end, parent in self.spans:
                if parent >= 0:
                    self._child[parent] += end - start
        return self._child

    def totals(self, match) -> tuple[float, float, int]:
        """(time inside, self time, calls) over spans whose name satisfies match.

        Time inside counts a matching span only when no ancestor matches,
        so nested matches are not counted twice.
        """
        child = self.children_time()
        inside = self_s = 0.0
        calls = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if not match(name):
                continue
            calls += 1
            self_s += (end - start) - child[idx]
            p = parent
            while p >= 0 and not match(self.spans[p][0]):
                p = self.spans[p][3]
            if p < 0:
                inside += end - start
        return inside, self_s, calls


def _exact(name):
    return lambda n: n == name


# (metric, unit, better, how): how maps (tracer, calls) -> value per cli.main call
def _inside(name):
    return lambda tr, k: tr.totals(_exact(name))[0] / k


def _self(name):
    return lambda tr, k: tr.totals(_exact(name))[1] / k


def _calls(name):
    return lambda tr, k: tr.totals(_exact(name))[2] / k


def _count(key):
    return lambda tr, k: tr.counts[key] / k


def _distinct_ratio(tr, k):
    # nothing drawn wastes nothing
    return len(set(tr.batches)) / len(tr.batches) if tr.batches else 1.0


def _prefix(p):
    return lambda n: n.startswith(p)


LAYER_METRICS = [
    ("cli.self_s", "s", "lower", lambda tr, k: tr.totals(_prefix("cli."))[1] / k),
    ("cli.load_config.s", "s", "lower", _inside("cli.load_config")),
    ("cli.write_allocation_csv.s", "s", "lower", _inside("cli.write_allocation_csv")),
    ("cli.bytes_written", "bytes", "lower", _count("cli.bytes_written")),
    ("model.make_scenario.s", "s", "lower", _inside("model.make_scenario")),
    ("model.build_sensors.s", "s", "lower", _inside("model.build_sensors")),
    ("model.derive_stream.calls", "count", "lower", _count("model.derive_stream.calls")),
    ("consensus.random_geometric_graph.s", "s", "lower",
     _inside("consensus.random_geometric_graph")),
    ("consensus.graph_edges", "count", "lower", _count("consensus.graph_edges")),
    ("consensus.metropolis_matrix.s", "s", "lower", _inside("consensus.metropolis_matrix")),
    ("consensus.consensus_average.s", "s", "lower", _inside("consensus.consensus_average")),
    ("consensus.consensus_average.calls", "count", "lower",
     _calls("consensus.consensus_average")),
    ("consensus.rounds", "count", "lower", _count("consensus.rounds")),
    ("consensus.rounds_per_call", "count", "lower",
     lambda tr, k: (tr.counts["consensus.rounds"]
                    / max(tr.totals(_exact("consensus.consensus_average"))[2], 1))),
    ("solver_central.solve_centralized.s", "s", "lower",
     _inside("solver_central.solve_centralized")),
    ("solver_central.solve_centralized.calls", "count", "lower",
     _calls("solver_central.solve_centralized")),
    ("solver_central.total_power.calls", "count", "lower",
     _count("solver_central.total_power.calls")),
    ("solver_central.power_closed_form.calls", "count", "lower",
     _count("solver_central.power_closed_form.calls")),
    ("solver_dist.solve_distributed.s", "s", "lower", _inside("solver_dist.solve_distributed")),
    ("solver_dist.solve_distributed.self_s", "s", "lower",
     _self("solver_dist.solve_distributed")),
    ("solver_dist.outer_iters", "count", "lower", _count("solver_dist.outer_iters")),
    ("solver_dist.local_power_update.calls", "count", "lower",
     _count("solver_dist.local_power_update.calls")),
    ("solver_dist.write_trace_csv.s", "s", "lower", _inside("solver_dist.write_trace_csv")),
    ("fusion.s", "s", "lower", lambda tr, k: tr.totals(_prefix("fusion."))[0] / k),
    ("fusion.calls", "count", "lower", lambda tr, k: tr.totals(_prefix("fusion."))[2] / k),
    ("quantize.specs_for_allocation.s", "s", "lower", _inside("quantize.specs_for_allocation")),
    ("quantize.specs_for_allocation.calls", "count", "lower",
     _calls("quantize.specs_for_allocation")),
    ("quantize.quantize.s", "s", "lower", _inside("quantize.quantize")),
    ("quantize.quantize.calls", "count", "lower", _calls("quantize.quantize")),
    ("quantize.values", "count", "lower", _count("quantize.values")),
    ("montecarlo.plan_scheme.s", "s", "lower", _inside("montecarlo.plan_scheme")),
    ("montecarlo.plan_scheme.calls", "count", "lower", _calls("montecarlo.plan_scheme")),
    ("montecarlo.quantized_gaussian_moments.calls", "count", "lower",
     _count("montecarlo.quantized_gaussian_moments.calls")),
    ("montecarlo.simulate_plans.s", "s", "lower", _inside("montecarlo.simulate_plans")),
    ("montecarlo.simulate_plans.self_s", "s", "lower", _self("montecarlo.simulate_plans")),
    ("montecarlo.simulate_plans.calls", "count", "lower", _calls("montecarlo.simulate_plans")),
    ("montecarlo.trials", "count", "lower", _count("montecarlo.trials")),
    ("montecarlo.draw.s", "s", "lower", _inside("montecarlo.draw")),
    ("montecarlo.draw.normals", "count", "lower", _count("montecarlo.draw.normals")),
    ("montecarlo.draw.distinct_ratio", "ratio", "higher", _distinct_ratio),
    ("montecarlo.write_results_csv.s", "s", "lower", _inside("montecarlo.write_results_csv")),
    ("montecarlo.write_diagnostics_csv.s", "s", "lower",
     _inside("montecarlo.write_diagnostics_csv")),
]


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value per cli.main call, unit)."""
    return {name: (float(how(tracer, calls)), unit) for name, unit, _, how in LAYER_METRICS}


def coverage(tracer: Tracer) -> float:
    """Share of cli.main time spent inside a named stage rather than in dispatch code."""
    wall = tracer.totals(_exact("cli.main"))[0]
    loose = tracer.totals(lambda n: n in DISPATCH)[1]
    return (wall - loose) / wall if wall > 0 else 0.0


def current_targets() -> dict[tuple[str, str], object]:
    """The object each target name is bound to right now."""
    return {(m, a): getattr(import_module(f"distdetect.{m}"), a) for m, a, *_ in TARGETS}
