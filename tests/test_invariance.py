"""Invariance gates: a result does not depend on sensor labels or on the company it keeps.

Relabeling the sensors permutes the central allocation bit for bit and
the distributed one to within its rounding; a detect row does not move
when other schemes, other budgets or other window lengths run beside it,
or in another order. Hypothesis chooses the permutation and the subset.
"""
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distdetect as dd
from distdetect import cli

from conftest import bundled_config


@functools.cache
def _config(name):
    return cli.load_config(bundled_config(f"{name}.cfg"))


@functools.cache
def _scenario(name):
    return cli.scenario_from_config(_config(name))


def _relabeled(scenario, perm):
    """The scenario whose sensor j is sensor perm[j] of the given one."""
    return dd.Scenario(scenario.sigma2[perm], scenario.h[perm], scenario.zeta[perm],
                       scenario.signal[perm], U=scenario.U, Pt=scenario.Pt, Pfa=scenario.Pfa,
                       seed=scenario.seed)


def _permutations(m):
    return st.permutations(range(m)).map(np.array)


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig5"])
@settings(max_examples=20)
@given(data=st.data())
def test_central_solve_permutes_with_the_labels(name, data):
    sc = _scenario(name)
    perm = data.draw(_permutations(sc.M), label="perm")
    alloc = dd.solve_centralized(sc)
    relabeled = dd.solve_centralized(_relabeled(sc, perm))
    assert np.array_equal(relabeled.p, alloc.p[perm])
    assert relabeled.lambda0 == alloc.lambda0


def _distributed_outcome(scenario, graph, solver):
    """(powers, outer iterations, failed) of one distributed solve, success or ConvergenceError."""
    try:
        alloc, trace = dd.solve_distributed(scenario, graph, solver)
    except dd.ConvergenceError as e:
        return e.trace.powers[-1], e.trace.iterations, True
    return alloc.p, trace.iterations, False


@functools.cache
def _distributed(name):
    cfg = _config(name)
    graph = dd.make_topology(cfg["M"], cfg["seed"], cfg["radius"])
    return graph, _distributed_outcome(_scenario(name), graph, dd.SolverConfig(**cfg["solver"]))


# fig1 converges after 2,150 outer iterations, fig2 after 35; fig5 fails in its 4th
@pytest.mark.parametrize("name", ["fig1", "fig2", "fig5"])
@settings(max_examples=4)
@given(data=st.data())
def test_distributed_solve_permutes_with_the_labels(name, data):
    # the sums over the sensors (norms, matrix-vector products) add in label order,
    # so the relabeled powers may differ in the last bits; the run ends the same way
    sc = _scenario(name)
    perm = data.draw(_permutations(sc.M), label="perm")
    graph, (p, iterations, failed) = _distributed(name)
    inverse = np.argsort(perm)
    relabeled_graph = dd.Graph(M=graph.M, edges=inverse[graph.edges])
    got = _distributed_outcome(_relabeled(sc, perm), relabeled_graph,
                               dd.SolverConfig(**_config(name)["solver"]))
    assert got[1:] == (iterations, failed)
    assert np.max(np.abs(got[0] - p[perm])) <= 1e-9 * np.max(p)


@functools.cache
def _detect_rows(name, schemes, pt_grid):
    """Each (scheme, Pt) of a pt sweep: its results row and its diagnostics clip rates."""
    diagnostics = []
    estimates = dd.sweep_budget(_scenario(name), [dd.Scheme(s) for s in schemes], pt_grid,
                                _config(name)["detect"]["trials"], diagnostics=diagnostics)
    rates = {(plan.scheme, plan.pt): r for plan, r in diagnostics}
    return {(e.scheme, e.pt): (e, rates[e.scheme, e.pt]) for e in estimates}


@pytest.mark.parametrize("name", ["fig3", "fig5"])
@settings(max_examples=10)
@given(data=st.data())
def test_detect_rows_do_not_depend_on_the_other_points(name, data):
    # a scheme alone, the scheme list in any order, any subset of the budgets
    detect = _config(name)["detect"]
    schemes = data.draw(st.permutations(detect["schemes"]), label="schemes")
    schemes = schemes[:data.draw(st.integers(1, len(schemes)), label="scheme count")]
    pts = data.draw(st.lists(st.sampled_from(detect["pt_grid"]), min_size=1, unique=True),
                    label="pt_grid")
    full = _detect_rows(name, tuple(detect["schemes"]), tuple(detect["pt_grid"]))
    part = _detect_rows(name, tuple(schemes), tuple(pts))
    assert part.keys() <= full.keys() and len(part) == len(schemes) * len(pts)
    for key, (estimate, rates) in part.items():
        assert estimate == full[key][0], key
        assert np.array_equal(rates, full[key][1]), key


# window lengths for the n grids below: N=1 draws no R, N=2 one degree of freedom
WINDOWS = (1, 2, 10, 50)


@functools.cache
def _window_rows(sweep, n_grid):
    """The results rows of a fig4 `detect --sweep` run at n_grid, through the CLI.

    fig4 at Pt=10, the roc_sweep benchmark's budget: at fig4's Pt=1 one
    sensor sends one bit and most rates read 0.
    """
    raw = {**json.loads(bundled_config("fig4.cfg").read_text()), "Pt": 10.0}
    raw["detect"] = {**raw["detect"], "n_grid": list(n_grid)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig4.cfg"
        path.write_text(json.dumps(raw))
        assert cli.main(["detect", str(path), "--sweep", sweep, "--trials", "2000",
                         "--out", tmp]) == 0
        return (Path(tmp) / f"results_{sweep}.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize("sweep", ["pfa", "n"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_detect_rows_do_not_depend_on_the_other_window_lengths(sweep, data):
    # one pass draws g once for every N of the grid: each N's rows must be the ones
    # it gets alone, in any grid, in any order, repeated or not
    n_grid = tuple(data.draw(st.lists(st.sampled_from(WINDOWS), min_size=1, max_size=5),
                             label="n_grid"))
    rows = _window_rows(sweep, n_grid)
    per_window = len(rows) // len(n_grid)
    assert per_window * len(n_grid) == len(rows) and per_window > 0
    for k, n in enumerate(n_grid):
        assert rows[k * per_window:(k + 1) * per_window] == _window_rows(sweep, (n,)), (k, n)
