"""Graphs, Metropolis weights, and the average-consensus iteration."""
import collections
import gc
import itertools
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect import consensus
from distdetect.consensus import CHAIN_ROUNDS, EDGE_BLOCK, STACK_NODES, Consensus, geometric_edges

from conftest import complete_graph, in_order, load_edge_list, reference_states


def path_graph(m):
    return dd.Graph(M=m, edges=tuple((i, i + 1) for i in range(m - 1)))


def consensus_settings(tol, max_iter, mode="oracle", window=5):
    """A SolverConfig with these consensus settings and the defaults elsewhere."""
    return dd.SolverConfig(consensus_tol=tol, consensus_max_iter=max_iter, consensus_mode=mode,
                           consensus_window=window)


def sorted_pairs(edges):
    """Rows of an (E, 2) pair array as u < v, in lexicographic order."""
    u, v = edges.min(axis=1), edges.max(axis=1)
    order = np.lexsort((v, u))
    return np.stack((u[order], v[order]), axis=1)


def random_edge_list(rng):
    """A vertex count and an edge list: shuffled with some rows reversed, or canonical.

    A random spanning tree plus random chords, thinned in half the cases
    so that some lists are disconnected; a quarter of the lists also get
    one self loop, out-of-range vertex or repeated pair at a random place.
    A third of the lists arrive canonical instead, as random_geometric_graph
    and load_edge_list give them: u < v in each row and rows sorted, the
    planted row sorted in among them, so a repeated pair sits next to its first.
    """
    m = int(rng.integers(1, 61))
    perm = rng.permutation(m)
    parents = perm[(rng.random(m - 1) * np.arange(1, m)).astype(int)]
    chords = rng.integers(0, m, size=(int(rng.integers(0, m + 1)), 2))
    pairs = np.concatenate((np.stack((perm[1:], parents), axis=1), chords))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    if rng.random() < 0.5:
        pairs = pairs[rng.random(len(pairs)) < 0.8]
    canonical = rng.random() < 1 / 3
    if not canonical:
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip, ::-1]
    edges = [tuple(row) for row in pairs.tolist()]
    if rng.random() < 0.25:
        k = int(rng.integers(m))
        bad = [(k, k), (k, m + int(rng.integers(3))), (-1, k)]
        if edges:
            repeat = edges[int(rng.integers(len(edges)))]
            bad.append(repeat if canonical else repeat[::-1])
        edges.insert(int(rng.integers(len(edges) + 1)), bad[int(rng.integers(len(bad)))])
    if canonical:
        edges.sort()
    return m, edges


class TestGraph:
    def test_edges_normalized_sorted(self):
        g = dd.Graph(M=3, edges=((2, 1), (1, 0)))
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.degrees.tolist() == [1, 2, 1]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(dd.TopologyError):
            dd.Graph(M=3, edges=((1, 0), (0, 1), (1, 2)))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            dd.Graph(M=3, edges=((0, 0), (0, 1), (1, 2)))

    def test_disconnected_rejected(self):
        with pytest.raises(dd.TopologyError):
            dd.Graph(M=4, edges=((0, 1), (2, 3)))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            dd.Graph(M=3, edges=((0, 3),))

    def test_single_vertex_graph(self):
        g = dd.Graph(M=1, edges=())
        assert g.M == 1 and g.edges.shape == (0, 2) and g.degrees.tolist() == [0]

    @pytest.mark.parametrize("m", [3.0, 2.5, "3", None, 0])
    def test_vertex_count_that_is_not_an_integer_rejected(self, m):
        with pytest.raises(dd.TopologyError, match=f"^M must be an integer >= 1, got {m!r}$"):
            dd.Graph(m, [(0, 1), (1, 2)])


    @pytest.mark.parametrize("edges, first", [
        (((0, 1, 2),), "[0, 1, 2]"),
        (((0, 1), (1, 2, 0)), "(1, 2, 0)"),
        (((0,), (1,)), "[0]"),
        ((0, 1), "0"),
    ])
    def test_rows_that_are_not_pairs_rejected(self, edges, first):
        with pytest.raises(dd.TopologyError, match=re.escape(f"edge {first} is not a pair")):
            dd.Graph(M=3, edges=edges)

    @pytest.mark.parametrize("edges, first", [
        ([(0.5, 1.7), (1, 2)], "[0.5, 1.7]"),
        (np.array([[0.9, 1.0], [1.0, 2.0]]), "[0.9, 1.0]"),
        ([("0", "1"), (1, 2)], "['0', '1']"),
        ([(0, 1), (1, 2), (1.0, 2.5)], "[1.0, 2.5]"),
        ([(True, False)], "[True, False]"),
    ])
    def test_vertex_ids_that_are_not_integers_rejected(self, edges, first):
        # not truncated or parsed into vertices: the first such row is named
        message = f"edge {first} has a vertex id that is not an integer"
        with pytest.raises(dd.TopologyError, match=f"^{re.escape(message)}$"):
            dd.Graph(M=3, edges=edges)

    @pytest.mark.parametrize("edges, message", [
        (((0, 1), (2, 2), (5, 1), (1, 0)), "self loop at vertex 2"),
        (((0, 1), (5, 1), (2, 2), (1, 0)), "edge (5, 1) out of range for M=4"),
        (((0, 1), (1, -1), (2, 2)), "edge (1, -1) out of range for M=4"),
        (((1, 2), (3, 2), (2, 1), (2, 2)), "duplicate edge (1, 2)"),
    ])
    def test_error_names_the_first_offending_edge(self, edges, message):
        with pytest.raises(dd.TopologyError, match=f"^{re.escape(message)}$"):
            dd.Graph(M=4, edges=edges)

    def test_arrays_are_read_only_and_equality_is_identity(self):
        g = path_graph(4)
        assert g.edges.dtype == np.intp and g.edges.shape == (3, 2)
        assert not g.edges.flags.writeable and not g.degrees.flags.writeable
        assert g == g and g != path_graph(4)

    def test_matches_the_reference_on_random_edge_lists(self, reference_graph):
        rng = np.random.default_rng(2024)
        verdicts = collections.Counter()
        for _ in range(3000):
            m, edges = random_edge_list(rng)
            try:
                ref_edges, ref_degrees, connected = reference_graph(m, edges)
                want = (ref_edges, ref_degrees) if connected else "graph is disconnected"
            except dd.TopologyError as e:
                want = str(e)
            try:
                g = dd.Graph(M=m, edges=edges)
                got = (tuple(map(tuple, g.edges.tolist())), tuple(g.degrees.tolist()))
            except dd.TopologyError as e:
                got = str(e)
            assert got == want, (m, edges)
            verdicts[want.split(" ")[0] if isinstance(want, str) else "accepted"] += 1
        # every verdict is well represented
        assert set(verdicts) == {"accepted", "graph", "self", "edge", "duplicate"}
        assert min(verdicts.values()) >= 100, verdicts

    @pytest.mark.parametrize("edge_block", [1, 2, 5])
    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, edge_block):
        # the sorted keys become rows in their own buffer, one block at a time
        # from the last: a block of 1, and blocks that split the edges unevenly
        monkeypatch.setattr(consensus, "EDGE_BLOCK", edge_block)
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, edges = random_edge_list(rng)
            try:
                g = dd.Graph(m, edges)
            except dd.TopologyError:
                continue
            assert np.array_equal(g.edges, sorted_pairs(np.array(edges).reshape(-1, 2))), (m, edges)

    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_large_relabeled_graphs(self, shape):
        m = 20_000
        rng = np.random.default_rng(7)
        perm = rng.permutation(m)
        if shape == "path":
            edges = np.stack((perm[:-1], perm[1:]), axis=1)
        else:
            edges = np.stack((np.full(m - 1, perm[0]), perm[1:]), axis=1)
        edges = edges[rng.permutation(m - 1)]
        g = dd.Graph(M=m, edges=edges)
        assert len(g.edges) == m - 1 and np.all(g.edges[:, 0] < g.edges[:, 1])
        assert g.degrees.max() == (2 if shape == "path" else m - 1)
        with pytest.raises(dd.TopologyError, match="disconnected"):
            dd.Graph(M=m, edges=np.delete(edges, rng.integers(m - 1), axis=0))

class TestRandomGeometricGraph:
    def test_single_vertex(self):
        g = dd.random_geometric_graph(1, 0.3, np.random.default_rng(0))
        assert g.M == 1

    @pytest.mark.parametrize("m", [3.0, 2.5, "3", None, 0])
    def test_node_count_that_is_not_an_integer_rejected(self, m):
        with pytest.raises(dd.TopologyError, match=f"^m must be an integer >= 1, got {m!r}$"):
            dd.random_geometric_graph(m, 0.5, np.random.default_rng(0))

    def test_radius_beyond_diameter_gives_complete_graph(self):
        for radius in (1.5, 1e300):   # 1e300 squares to inf: one cell, every pair kept
            g = dd.random_geometric_graph(6, radius, np.random.default_rng(1))
            assert np.array_equal(g.edges, complete_graph(6).edges)

    def test_golden_edge_set(self):
        rng = dd.derive_stream(42, "graph")
        g = dd.random_geometric_graph(10, 0.5, rng)
        assert np.array_equal(g.edges, (
            (0, 1), (0, 2), (0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 5),
            (1, 6), (1, 7), (1, 8), (2, 5), (2, 8), (3, 5), (3, 7), (3, 8),
            (4, 7), (4, 9), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8),
        ))
        assert g.degrees.tolist() == [5, 7, 4, 4, 2, 7, 4, 6, 6, 1]

    def test_unreachable_radius_raises(self, monkeypatch):
        monkeypatch.setattr(consensus, "MAX_TRIES", 5)
        with pytest.raises(dd.TopologyError):
            dd.random_geometric_graph(20, 0.01, np.random.default_rng(2))

    def test_edges_match_the_dense_reference(self, reference_geometric_edges):
        rng = np.random.default_rng(2024)
        at_radius = 0
        for draw in range(2000):
            # log-uniform: as many small grids and sparse graphs as dense ones
            m = int(np.exp(rng.uniform(0.0, np.log(401))))
            radius = float(np.exp(rng.uniform(np.log(0.01), np.log(1.5))))
            if draw % 3:
                pts = rng.uniform(0.0, 1.0, size=(m, 2))
            else:
                # a block of an exact lattice at multiples of radius / 2, inside
                # the unit square: pairs exactly radius apart, points repeated,
                # and points on the cell borders wherever those are multiples too
                n = int(np.sum(np.arange(int(2 / radius) + 2) * (radius / 2) < 1))
                k = min(n, int(np.sqrt(m)) + 2)
                ij = rng.integers(0, k, size=(m, 2)) + rng.integers(0, n - k + 1, size=2)
                pts = ij * (radius / 2)
            ref = reference_geometric_edges(pts, radius)
            assert np.array_equal(sorted_pairs(geometric_edges(pts, radius)), ref), (draw, m, radius)
            d2 = np.sum((pts[ref[:, 0]] - pts[ref[:, 1]]) ** 2, axis=-1)
            at_radius += int(np.sum(d2 == radius * radius))
        assert at_radius >= 1000

    def test_pairs_straddling_cell_borders(self, reference_geometric_edges):
        # radius within a few ulps of 1/k, points within a few ulps of the
        # multiples of 1/k and radius beyond them: a grid of k cells a side
        # would be a hair narrower than radius and split such pairs
        for k in range(2, 21):
            for ulps in range(-2, 3):
                radius = float(1 / k + ulps * np.spacing(1 / k))
                x = np.arange(k + 1) / k
                x = (x[:, None] + np.arange(-2, 3) * np.spacing(x)[:, None]).ravel()
                x = np.concatenate((x, x + radius))
                x = x[(x >= 0) & (x < 1)]
                pts = np.concatenate((np.stack((x, np.full_like(x, 0.5)), axis=1),
                                      np.stack((np.full_like(x, 0.25), x), axis=1)))
                assert np.array_equal(sorted_pairs(geometric_edges(pts, radius)),
                                      reference_geometric_edges(pts, radius)), (k, ulps)

    def test_retries_match_a_loop_over_the_reference(self, reference_geometric_edges,
                                                     reference_graph):
        m, radius = 40, 0.2
        tries = 0
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            g = dd.random_geometric_graph(m, radius, rng)
            while True:
                tries += 1
                ref = reference_geometric_edges(ref_rng.uniform(0.0, 1.0, size=(m, 2)), radius)
                if reference_graph(m, ref.tolist())[2]:
                    break
            assert np.array_equal(g.edges, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert tries > 15   # some tries were disconnected and redrawn

    def test_giving_up_draws_max_tries_point_sets(self, monkeypatch):
        monkeypatch.setattr(consensus, "MAX_TRIES", 7)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(dd.TopologyError, match="after 7 tries"):
            dd.random_geometric_graph(40, 0.05, rng)
        for _ in range(7):
            ref_rng.uniform(0.0, 1.0, size=(40, 2))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("pair_block", [1, 5, 64])
    def test_edges_do_not_depend_on_the_block_size(self, reference_geometric_edges, monkeypatch,
                                                   pair_block):
        # a block of 1 candidate measures about one point at a time; 5 and 64 cut
        # blocks of a few points, some of them inside a cell
        rng = np.random.default_rng(11)
        cases = [(rng.uniform(0.0, 1.0, size=(m, 2)), radius)
                 for m, radius in ((1, 0.3), (2, 1.5), (40, 0.2), (150, 0.1), (300, 0.5))]
        # an exact lattice at multiples of radius / 2: pairs exactly radius apart
        cases.append((rng.integers(0, 9, size=(200, 2)) * 0.05, 0.1))
        whole = [geometric_edges(pts, radius) for pts, radius in cases]
        monkeypatch.setattr(consensus, "PAIR_BLOCK", pair_block)
        for (pts, radius), want in zip(cases, whole):
            got = geometric_edges(pts, radius)
            assert np.array_equal(got, want), (len(pts), radius)
            assert np.array_equal(sorted_pairs(got), reference_geometric_edges(pts, radius))

    def test_m5000_draw_and_write_peak_memory(self, tmp_path):
        # the large_network benchmark shape. Measured all at once, its 290,466
        # candidate pairs took the draw's peak past 15 MB, and one format
        # string of every vertex id took the writer's past 9 MB
        def peak(step):
            tracemalloc.start()
            try:
                return step(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        graph, draw_peak = peak(lambda: dd.make_topology(5000, 1, 0.05))
        _, write_peak = peak(lambda: dd.save_edge_list(graph, tmp_path / "topology.txt"))
        assert len(graph.edges) == 94_859
        assert draw_peak < 14e6 and write_peak < 8e6, (draw_peak, write_peak)

    def test_m5000_graph_peak_memory(self):
        # one sorted key array validates and orders the 94,859 edges; the
        # concatenate-then-stack draw and a stable argsort with its index
        # temporaries took the draw's peak past 9 MB
        tracemalloc.start()
        try:
            graph = dd.make_topology(5000, 1, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(graph.edges) == 94_859
        assert peak < 6e6, peak

    def test_memory_grows_with_the_edges_not_with_m_squared(self):
        # the M x M x 2 difference tensor alone would be 6.4 GB here
        tracemalloc.start()
        try:
            g = dd.random_geometric_graph(20_000, 0.015, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.M == 20_000
        assert peak < 100e6


class TestMetropolisMatrix:
    def test_path_graph_hand_values(self):
        w = dd.metropolis_matrix(path_graph(3))
        expected = np.array([
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 3, 2 / 3],
        ])
        assert_allclose(w, expected, rtol=1e-12)

    def test_doubly_stochastic_on_random_graph(self):
        g = dd.random_geometric_graph(15, 0.5, np.random.default_rng(5))
        w = dd.metropolis_matrix(g)
        assert_allclose(w.sum(axis=0), 1.0, rtol=1e-12)
        assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)
        assert_allclose(w, w.T, rtol=1e-12)
        assert np.all(w >= 0)

    def test_complete_graph_is_uniform_averaging(self):
        w = dd.metropolis_matrix(complete_graph(4))
        assert_allclose(w, np.full((4, 4), 0.25), rtol=1e-12)

    @pytest.mark.parametrize("m, radius, seed", [(1, 0.5, 0), (10, 0.5, 1), (60, 0.3, 2)])
    def test_matches_the_per_edge_reference(self, m, radius, seed):
        g = dd.random_geometric_graph(m, radius, np.random.default_rng(seed))
        # degrees and weights edge by edge, and each diagonal entry 1 minus its row's
        # other entries added in index order, as plain Python
        deg = [0] * m
        for u, v in g.edges.tolist():
            deg[u] += 1
            deg[v] += 1
        ref = np.zeros((m, m))
        for u, v in g.edges.tolist():
            ref[u, v] = ref[v, u] = 1.0 / (1.0 + max(deg[u], deg[v]))
        for i in range(m):
            ref[i, i] = 1.0 - in_order([0.0, *(ref[i, j] for j in range(m) if j != i)])
        assert g.degrees.tolist() == deg
        assert g.degrees.dtype == np.intp
        assert np.array_equal(dd.metropolis_matrix(g), ref)


class TestConsensusAverage:
    def test_already_agreed_needs_no_iterations(self):
        g = path_graph(4)
        res = dd.consensus_average(g, np.full(4, 2.5), consensus_settings(1e-10, 100))
        assert res.iterations == 0
        assert_allclose(res.values, 2.5)

    def test_complete_graph_one_shot(self):
        g = complete_graph(8)
        res = dd.consensus_average(g, np.arange(8, dtype=float), consensus_settings(1e-12, 100))
        assert res.iterations == 1
        assert res.max_deviation == 0.0
        assert_allclose(res.values, 3.5)

    def test_average_conserved_every_iteration(self):
        g = path_graph(3)
        w = dd.metropolis_matrix(g)
        x = np.array([0.0, 0.0, 3.0])
        for _ in range(25):
            x = w @ x
            assert_allclose(np.mean(x), 1.0, rtol=1e-13)
        res = dd.consensus_average(g, np.array([0.0, 0.0, 3.0]), consensus_settings(1e-10, 10_000))
        assert_allclose(np.mean(res.values), 1.0, rtol=1e-13)

    def test_spread_contracts_monotonically(self):
        g = path_graph(6)
        w = dd.metropolis_matrix(g)
        rng = np.random.default_rng(7)
        x = rng.normal(size=6)
        spread = np.ptp(x)
        for _ in range(200):
            x = w @ x
            new = np.ptp(x)
            assert new <= spread + 1e-15
            spread = new

    def test_converges_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 25))
            g = dd.random_geometric_graph(m, 0.6, rng)
            x0 = rng.normal(size=m) * 10
            res = dd.consensus_average(g, x0, consensus_settings(1e-10, 10 * m * m))
            assert res.max_deviation <= 1e-10
            assert_allclose(np.mean(res.values), np.mean(x0), rtol=1e-13)

    def test_iteration_budget_error_carries_state(self):
        g = path_graph(8)
        with pytest.raises(dd.ConsensusError) as exc:
            dd.consensus_average(g, np.arange(8, dtype=float), consensus_settings(1e-12, 3))
        assert exc.value.iterations == 3
        assert exc.value.values is not None and len(exc.value.values) == 8

    def test_local_mode_needs_no_oracle(self):
        g = path_graph(5)
        x0 = np.array([4.0, 0.0, 0.0, 0.0, 1.0])
        res = dd.consensus_average(g, x0, consensus_settings(1e-9, 10_000, "local", 5))
        assert abs(float(np.mean(res.values)) - 1.0) < 1e-12
        assert res.max_deviation <= 1e-8

    def test_local_mode_rejects_degenerate_window(self):
        with pytest.raises(ValueError, match="consensus_window must be an integer >= 1, got 0"):
            consensus_settings(1e-9, 10, "local", 0)


# opening marks the engine tests set: short, next to the first chain point, and past it
OPENINGS = (1, 5, CHAIN_ROUNDS - 1, CHAIN_ROUNDS, CHAIN_ROUNDS + 1, 200)


def opened_at(graph, solver, opening):
    """A fresh engine whose first run ends a block at round `opening`, as after one of that - 2."""
    engine = Consensus(graph, solver)
    engine.opening_block = opening
    return engine


def _stop_statistics(graph, x0, rounds, window):
    """Per round k: the oracle deviation and, from k = window on, the local window spread."""
    xs = np.array(list(itertools.islice(reference_states(graph, x0), rounds + 1)))
    dev = np.max(np.abs(xs - xs[0].mean()), axis=1)
    spread = np.array([np.max(np.ptp(xs[k - window:k + 1], axis=0)) if k >= window else np.inf
                       for k in range(rounds + 1)])
    return dev, spread


class TestBlockedRounds:
    """The blocked loop against a reference that tests every round: equal bits, equal counts."""

    def test_random_graphs_both_modes(self, reference_consensus_average):
        rng = np.random.default_rng(23)
        blocks = np.random.default_rng(29)   # opening marks, apart from the graph draws
        for t in range(60):
            m = int(rng.integers(1, 30))
            g = dd.random_geometric_graph(m, float(rng.uniform(0.3, 0.9)), rng)
            x0 = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
            solver = consensus_settings(10.0 ** rng.uniform(-12, -3), int(rng.integers(1, 400)),
                                        ("oracle", "local")[t % 2], int(rng.integers(1, 80)))
            opening = int(blocks.choice(OPENINGS))
            got = _outcome(opened_at(g, solver, opening).run, x0)
            ref = _outcome(lambda x: reference_consensus_average(g, x, solver), x0)
            assert got[1:] == ref[1:], (solver, opening)
            assert np.all(got[0] == ref[0]), (solver, opening)

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_stops_at_the_block_boundary(self, mode, offset, reference_consensus_average):
        rounds = CHAIN_ROUNDS + offset
        g = path_graph(8)
        x0 = np.arange(8, dtype=float) ** 2
        dev, spread = _stop_statistics(g, x0, rounds, window=5)
        stat = dev if mode == "oracle" else spread
        # the rule is first met after exactly `rounds` rounds
        assert np.all(stat[:rounds] > stat[rounds])
        solver = consensus_settings(float(stat[rounds]), 10_000, mode, 5)
        res = dd.consensus_average(g, x0, solver)
        ref = reference_consensus_average(g, x0, solver)
        assert res.iterations == ref.iterations == rounds
        assert np.all(res.values == ref.values)
        assert res.max_deviation == ref.max_deviation

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("max_iter", [3, CHAIN_ROUNDS - 1, CHAIN_ROUNDS,
                                          CHAIN_ROUNDS + 1, 2 * CHAIN_ROUNDS + 3])
    def test_budget_error_at_exactly_max_iter(self, mode, max_iter, reference_consensus_average):
        g = path_graph(8)
        x0 = np.arange(8, dtype=float)
        solver = consensus_settings(1e-12, max_iter, mode, 5)
        # blocks ending at the chain points, whose ends the budgets straddle, and at the marks
        for opening in OPENINGS:
            with pytest.raises(dd.ConsensusError) as exc:
                opened_at(g, solver, opening).run(x0)
            with pytest.raises(dd.ConsensusError) as ref:
                reference_consensus_average(g, x0, solver)
            assert exc.value.iterations == ref.value.iterations == max_iter
            assert np.all(exc.value.values == ref.value.values)
            assert str(exc.value) == str(ref.value)

    def test_window_longer_than_the_budget_never_stops(self):
        g = complete_graph(4)
        with pytest.raises(dd.ConsensusError) as exc:
            dd.consensus_average(g, np.arange(4.0), consensus_settings(1e-9, 10, "local", 10**9))
        assert exc.value.iterations == 10
        assert_allclose(exc.value.values, 1.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="consensus_max_iter must be an integer >= 1, got -1"):
            consensus_settings(1e-10, -1)

    # the engine's settings are checked where they live, in SolverConfig
    @pytest.mark.parametrize("setting, message", [
        (dict(max_iter=2.5), "consensus_max_iter must be an integer >= 1, got 2.5"),
        (dict(max_iter=10.0), "consensus_max_iter must be an integer >= 1, got 10.0"),
        (dict(max_iter=10, window=2.5), "consensus_window must be an integer >= 1, got 2.5"),
        (dict(max_iter=10, mode="local", window=5.0),
         "consensus_window must be an integer >= 1, got 5.0"),
    ], ids=["max_iter", "max_iter_whole_float", "window_oracle", "window_local"])
    def test_non_integer_settings_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            consensus_settings(1e-9, **setting)


def _outcome(run, x0):
    """(values, iterations, max_deviation or error message) of one consensus run."""
    try:
        res = run(x0)
    except dd.ConsensusError as e:
        return e.values, e.iterations, str(e)
    return res.values, res.iterations, res.max_deviation


class TestEngineReuse:
    """One Consensus engine run on input after input gives what a fresh run gives on each."""

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    def test_runs_match_fresh_runs(self, mode, reference_consensus_average):
        g = path_graph(8)
        solver = consensus_settings(1e-9, 300, mode, 5)
        # input scales: 1e-3 takes 200-260 rounds, 1 and 1e3 more than the budget; the run
        # after a long one opens with blocks up to a mark several chain points ahead, a
        # short run follows a long one, and runs follow failures
        scales = [1e-8, 1e-3, 1e-8, 1.0, 1e-10, 1e-6, 1e3, 1e-3]
        for opening in OPENINGS:
            engine = opened_at(g, solver, opening)
            rng = np.random.default_rng(31)
            failed = []
            for scale in scales:
                x0 = rng.normal(size=8) * scale
                opening = engine.opening_block
                got = _outcome(engine.run, x0)
                fresh = _outcome(lambda x: dd.consensus_average(g, x, solver), x0)
                ref = _outcome(lambda x: reference_consensus_average(g, x, solver), x0)
                for other in (fresh, ref):
                    assert np.array_equal(got[0], other[0]), (opening, scale)
                    assert got[1:] == other[1:], (opening, scale)
                failed.append(isinstance(got[2], str))
                # the next opening mark: this run's rounds + 2, or unchanged after a failure
                assert engine.opening_block == (opening if failed[-1] else got[1] + 2)
            assert failed == [False, False, False, True, False, False, True, False]

    def test_settings_are_checked_once_at_construction(self):
        # the settings when their SolverConfig is built, before any engine exists; x0 on each run
        with pytest.raises(ValueError, match="consensus_mode must be 'oracle' or 'local'"):
            consensus_settings(1e-9, 10, "gossip")
        with pytest.raises(ValueError, match="consensus_window must be an integer >= 1, got 0"):
            consensus_settings(1e-9, 10, "local", 0)
        engine = Consensus(path_graph(3), consensus_settings(1e-9, 10))
        for x0, msg in [(np.zeros(4), "shape"), (np.array([0, np.nan, 0]), "finite")]:
            with pytest.raises(ValueError, match=msg):
                engine.run(x0)


    @pytest.mark.parametrize("m", [10, STACK_NODES + 1], ids=["stacked_powers", "slots"])
    def test_an_engine_is_freed_when_dropped(self, m):
        # no reference cycle: the engine and its buffers go when the last reference does,
        # not when the cycle collector next runs
        g = dd.random_geometric_graph(m, 0.5, np.random.default_rng(m))
        engine = Consensus(g, consensus_settings(1e-9, 1000))
        engine.run(np.arange(m, dtype=float))
        gc.disable()
        try:
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()


def assert_one_segment(engine):
    """The engine's round buffer holds one chain segment and the lead rows before it."""
    assert engine._buf.shape == (engine.lead + 1 + CHAIN_ROUNDS, engine.graph.M)


class TestRoundBuffer:
    """A mark many segments ahead runs segment after segment, with the values of one block."""

    # the runs take 2,538 (oracle) and 2,097 (local) rounds, or stop at the budget
    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("max_iter", [20_000, 1_000])
    def test_a_long_first_block_stays_within_the_cap(self, mode, max_iter,
                                                     reference_consensus_average):
        g = dd.random_geometric_graph(200, 0.12, np.random.default_rng(7))
        x0 = np.random.default_rng(8).normal(size=200)
        solver = consensus_settings(1e-9, max_iter, mode, 5)
        engine = opened_at(g, solver, 5000)
        buf = engine._buf
        got = _outcome(engine.run, x0)
        ref = _outcome(lambda x: reference_consensus_average(g, x, solver), x0)
        assert np.array_equal(got[0], ref[0])
        assert got[1:] == ref[1:]
        assert got[1] > 3 * CHAIN_ROUNDS
        # allocated once, at construction
        assert engine._buf is buf
        assert_one_segment(engine)


class TestChainPoints:
    """A state's bits are set by the chain points alone; the block schedule only places the tests."""

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("rounds", [63, 64, 65, 127, 128, 129])
    def test_stops_next_to_a_chain_point(self, mode, rounds, reference_consensus_average):
        g = path_graph(8)
        x0 = np.arange(8, dtype=float) ** 2
        dev, spread = _stop_statistics(g, x0, rounds, window=5)
        stat = dev if mode == "oracle" else spread
        # the rule is first met after exactly `rounds` rounds
        assert np.all(stat[:rounds] > stat[rounds])
        solver = consensus_settings(float(stat[rounds]), 10_000, mode, 5)
        ref = reference_consensus_average(g, x0, solver)
        assert ref.iterations == rounds
        for opening in OPENINGS:
            res = opened_at(g, solver, opening).run(x0)
            assert res.iterations == rounds, opening
            assert np.array_equal(res.values, ref.values), opening
            assert res.max_deviation == ref.max_deviation

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    def test_block_schedule_sets_no_bits(self, mode, reference_consensus_average):
        rng = np.random.default_rng(41)
        # both forms: stacked powers up to STACK_NODES nodes, slots above
        for m in (2, 10, STACK_NODES, STACK_NODES + 1, 60):
            g = dd.random_geometric_graph(m, 0.4, rng)
            x0 = rng.normal(size=m)
            # the second budget runs out
            for solver in (consensus_settings(1e-10, 5000, mode, 5),
                           consensus_settings(1e-14, 150, mode, 5)):
                ref = _outcome(lambda x: reference_consensus_average(g, x, solver), x0)
                for opening in OPENINGS:
                    engine = opened_at(g, solver, opening)
                    got = _outcome(engine.run, x0)
                    assert np.array_equal(got[0], ref[0]), (m, solver, opening)
                    assert got[1:] == ref[1:], (m, solver, opening)
                    assert_one_segment(engine)

    @pytest.mark.parametrize("m, radius, max_iter", [(STACK_NODES + 1, 0.35, 5000),
                                                      (100, 0.2, 5000), (1000, 0.06, 40)])
    def test_slots_match_the_reference(self, m, radius, max_iter, reference_consensus_average):
        g = dd.random_geometric_graph(m, radius, np.random.default_rng(m))
        x0 = np.random.default_rng(m + 1).normal(size=m)
        solver = consensus_settings(1e-6, max_iter)
        engine = Consensus(g, solver)
        assert not engine._stacked
        got = _outcome(engine.run, x0)
        ref = _outcome(lambda x: reference_consensus_average(g, x, solver), x0)
        assert np.array_equal(got[0], ref[0])
        assert got[1:] == ref[1:]
        # the 1,000-node run stops at its budget
        assert isinstance(ref[2], str) == (m == 1000)

    def test_m5000_engine_peak_memory(self):
        # the large_network graph, whose dense W alone would take 200 MB
        g = dd.make_topology(5000, 1, 0.05)
        x0 = np.random.default_rng(0).normal(size=5000)
        tracemalloc.start()
        try:
            engine = Consensus(g, consensus_settings(1e-12, 3))
            with pytest.raises(dd.ConsensusError) as exc:
                engine.run(x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.iterations == 3
        assert_one_segment(engine)
        assert peak < 25e6, peak


class TestInputChecks:
    """x0 is refused exactly as a full np.isfinite check refused it, with no floating-point flag."""

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                     [1e308, 1e308, np.nan]])
    @pytest.mark.parametrize("mode", ["oracle", "local"])
    def test_non_finite_x0_refused(self, bad, mode):
        x0 = np.zeros(6)
        x0[:len(bad)] = bad
        engine = Consensus(path_graph(6), consensus_settings(1e-9, 10, mode))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for errstate in ("warn", "raise"):
                with np.errstate(all=errstate):
                    with pytest.raises(ValueError, match="x0 must be finite"):
                        engine.run(x0)

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    def test_finite_x0_whose_sum_overflows(self, mode, reference_consensus_average):
        # 1e308 at every node: the mean overflows to inf, as x0.mean() does
        g, x0 = path_graph(6), np.full(6, 1e308)
        solver = consensus_settings(1e-9, 10, mode, 3)
        outcomes = []
        for run in (lambda x: dd.consensus_average(g, x, solver),
                    lambda x: reference_consensus_average(g, x, solver)):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                run(x0)
            with pytest.warns(RuntimeWarning, match="overflow"):
                outcomes.append(_outcome(run, x0))
        got, ref = outcomes
        assert np.array_equal(got[0], ref[0])
        assert got[1:] == ref[1:]
        # the oracle rule never meets an infinite mean; the local rule stops after the window
        assert got[1:] == ((10, "no consensus after 10 rounds (tol=1e-09)") if mode == "oracle"
                           else (3, np.inf))


class TestEdgeListRoundTrip:
    def test_save_load_preserves_edges(self, tmp_path):
        g = dd.random_geometric_graph(12, 0.5, np.random.default_rng(9))
        path = tmp_path / "topology.txt"
        dd.save_edge_list(g, path)
        back = load_edge_list(path)
        assert np.array_equal(back.edges, g.edges)
        assert back.M == g.M

    @pytest.mark.parametrize("edge_block", [3, EDGE_BLOCK])
    def test_blocks_write_the_same_lines(self, tmp_path, monkeypatch, edge_block):
        g = complete_graph(200)   # 19,900 edges: more than one block of either size
        assert len(g.edges) > edge_block and len(g.edges) % edge_block
        monkeypatch.setattr(consensus, "EDGE_BLOCK", edge_block)
        path = tmp_path / "topology.txt"
        dd.save_edge_list(g, path)
        lines = path.read_text().split("\n")
        want = [f"{u} {v}" for u, v in g.edges.tolist()] + [""]
        # the first line that differs, not a diff of 19,900 lines
        first_bad = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]), None)
        assert (len(lines), first_bad) == (len(want), None)
        back = load_edge_list(path)
        assert np.array_equal(back.edges, g.edges)
        assert back.M == g.M

    def test_single_vertex_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "topology.txt"
        dd.save_edge_list(dd.Graph(M=1, edges=()), path)
        assert path.read_bytes() == b""
        assert load_edge_list(path, m=1).M == 1

    def test_file_format_is_plain_pairs(self, tmp_path):
        g = dd.Graph(M=3, edges=((0, 1), (1, 2)))
        path = tmp_path / "topology.txt"
        dd.save_edge_list(g, path)
        assert path.read_text().splitlines() == ["0 1", "1 2"]

    def test_explicit_vertex_count_honored(self, tmp_path):
        path = tmp_path / "topology.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, m=2)
        assert g.M == 2


class TestNanRefused:
    """Each positivity guard refuses NaN, which compares False with everything."""

    @pytest.mark.parametrize("call, message", [
        (lambda: dd.random_geometric_graph(5, float("nan"), np.random.default_rng(0)),
         "radius must be positive"),
        # the tolerance an engine reads is refused where it lives, in SolverConfig
        (lambda: Consensus(complete_graph(3), consensus_settings(float("nan"), 10)),
         "consensus_tol must be positive"),
        (lambda: dd.consensus_average(complete_graph(3), np.ones(3),
                                      consensus_settings(float("nan"), 10)),
         "consensus_tol must be positive"),
    ], ids=["random_geometric_graph_radius", "consensus_tol", "consensus_average_tol"])
    def test_nan_refused(self, call, message):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            call()
