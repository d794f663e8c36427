"""Graphs, Metropolis weights, and the average-consensus iteration."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect.consensus import BLOCK_ROUNDS


def path_graph(m):
    return dd.Graph(M=m, edges=tuple((i, i + 1) for i in range(m - 1)))


class TestGraph:
    def test_edges_normalized_sorted(self):
        g = dd.Graph(M=3, edges=((2, 1), (1, 0)))
        assert g.edges == ((0, 1), (1, 2))
        assert g.degrees == (1, 2, 1)

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
        assert g.M == 1 and g.edges == ()


class TestRandomGeometricGraph:
    def test_single_vertex(self):
        g = dd.random_geometric_graph(1, 0.3, np.random.default_rng(0))
        assert g.M == 1

    def test_radius_beyond_diameter_gives_complete_graph(self):
        g = dd.random_geometric_graph(6, 1.5, np.random.default_rng(1))
        assert len(g.edges) == 6 * 5 // 2

    def test_golden_edge_set(self):
        rng = dd.derive_stream(42, "graph")
        g = dd.random_geometric_graph(10, 0.5, rng)
        assert g.edges == (
            (0, 1), (0, 2), (0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 5),
            (1, 6), (1, 7), (1, 8), (2, 5), (2, 8), (3, 5), (3, 7), (3, 8),
            (4, 7), (4, 9), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8),
        )
        assert g.degrees == (5, 7, 4, 4, 2, 7, 4, 6, 6, 1)

    def test_unreachable_radius_raises(self):
        with pytest.raises(dd.TopologyError):
            dd.random_geometric_graph(20, 0.01, np.random.default_rng(2), max_tries=5)


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
        w = dd.metropolis_matrix(dd.complete_graph(4))
        assert_allclose(w, np.full((4, 4), 0.25), rtol=1e-12)

    @pytest.mark.parametrize("m, radius, seed", [(1, 0.5, 0), (10, 0.5, 1), (60, 0.3, 2)])
    def test_matches_the_per_edge_reference(self, m, radius, seed):
        g = dd.random_geometric_graph(m, radius, np.random.default_rng(seed))
        # degrees and weights edge by edge, as plain Python
        deg = [0] * m
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        ref = np.zeros((m, m))
        for u, v in g.edges:
            ref[u, v] = ref[v, u] = 1.0 / (1.0 + max(deg[u], deg[v]))
        ref[np.diag_indices(m)] = 1.0 - ref.sum(axis=1)
        assert g.degrees == tuple(deg)
        assert all(type(d) is int for d in g.degrees)
        assert np.array_equal(dd.metropolis_matrix(g), ref)


class TestConsensusAverage:
    def test_already_agreed_needs_no_iterations(self):
        g = path_graph(4)
        res = dd.consensus_average(g, np.full(4, 2.5), tol=1e-10, max_iter=100)
        assert res.iterations == 0
        assert_allclose(res.values, 2.5)

    def test_complete_graph_one_shot(self):
        g = dd.complete_graph(8)
        res = dd.consensus_average(g, np.arange(8, dtype=float), tol=1e-12, max_iter=100)
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
        res = dd.consensus_average(g, np.array([0.0, 0.0, 3.0]), tol=1e-10, max_iter=10_000)
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
            res = dd.consensus_average(g, x0, tol=1e-10, max_iter=10 * m * m)
            assert res.max_deviation <= 1e-10
            assert_allclose(np.mean(res.values), np.mean(x0), rtol=1e-13)

    def test_iteration_budget_error_carries_state(self):
        g = path_graph(8)
        with pytest.raises(dd.ConsensusError) as exc:
            dd.consensus_average(g, np.arange(8, dtype=float), tol=1e-12, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.values is not None and len(exc.value.values) == 8

    def test_local_mode_needs_no_oracle(self):
        g = path_graph(5)
        x0 = np.array([4.0, 0.0, 0.0, 0.0, 1.0])
        res = dd.consensus_average(g, x0, tol=1e-9, max_iter=10_000,
                                   mode="local", window=5)
        assert abs(float(np.mean(res.values)) - 1.0) < 1e-12
        assert res.max_deviation <= 1e-8

    def test_local_mode_rejects_degenerate_window(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            dd.consensus_average(g, np.zeros(3), tol=1e-9, max_iter=10,
                                 mode="local", window=0)


def _run(fn, graph, x0, **kw):
    """(values, iterations, failed) of one consensus run, success or ConsensusError."""
    try:
        res = fn(graph, x0, **kw)
    except dd.ConsensusError as e:
        return e.values, e.iterations, True
    return res.values, res.iterations, False


def _stop_statistics(graph, x0, rounds, window):
    """Per round k: the oracle deviation and, from k = window on, the local window spread."""
    w = dd.metropolis_matrix(graph)
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(rounds):
        xs.append(w @ xs[-1])
    xs = np.array(xs)
    dev = np.max(np.abs(xs - xs[0].mean()), axis=1)
    spread = np.array([np.max(np.ptp(xs[k - window:k + 1], axis=0)) if k >= window else np.inf
                       for k in range(rounds + 1)])
    return dev, spread


class TestBlockedRounds:
    """The blocked loop against a per-round x = W @ x reference: equal bits, equal counts."""

    def test_random_graphs_both_modes(self, reference_consensus_average):
        rng = np.random.default_rng(23)
        for t in range(60):
            m = int(rng.integers(1, 30))
            g = dd.random_geometric_graph(m, float(rng.uniform(0.3, 0.9)), rng)
            x0 = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
            kw = dict(tol=10.0 ** rng.uniform(-12, -3), max_iter=int(rng.integers(0, 400)),
                      mode=("oracle", "local")[t % 2], window=int(rng.integers(1, 80)))
            got = _run(dd.consensus_average, g, x0, **kw)
            ref = _run(reference_consensus_average, g, x0, **kw)
            assert got[1:] == ref[1:], kw
            assert np.all(got[0] == ref[0]), kw

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_stops_at_the_block_boundary(self, mode, offset, reference_consensus_average):
        rounds = BLOCK_ROUNDS + offset
        g = path_graph(8)
        x0 = np.arange(8, dtype=float) ** 2
        dev, spread = _stop_statistics(g, x0, rounds, window=5)
        stat = dev if mode == "oracle" else spread
        # the rule is first met after exactly `rounds` rounds
        assert np.all(stat[:rounds] > stat[rounds])
        kw = dict(tol=float(stat[rounds]), max_iter=10_000, mode=mode, window=5)
        res = dd.consensus_average(g, x0, **kw)
        ref = reference_consensus_average(g, x0, **kw)
        assert res.iterations == ref.iterations == rounds
        assert np.all(res.values == ref.values)
        assert res.max_deviation == ref.max_deviation

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("max_iter", [0, 3, BLOCK_ROUNDS - 1, BLOCK_ROUNDS,
                                          BLOCK_ROUNDS + 1, 2 * BLOCK_ROUNDS + 3])
    def test_budget_error_at_exactly_max_iter(self, mode, max_iter,
                                              reference_consensus_average):
        g = path_graph(8)
        x0 = np.arange(8, dtype=float)
        kw = dict(tol=1e-12, max_iter=max_iter, mode=mode, window=5)
        with pytest.raises(dd.ConsensusError) as exc:
            dd.consensus_average(g, x0, **kw)
        with pytest.raises(dd.ConsensusError) as ref:
            reference_consensus_average(g, x0, **kw)
        assert exc.value.iterations == ref.value.iterations == max_iter
        assert np.all(exc.value.values == ref.value.values)
        assert str(exc.value) == str(ref.value)

    def test_window_longer_than_the_budget_never_stops(self):
        g = dd.complete_graph(4)
        with pytest.raises(dd.ConsensusError) as exc:
            dd.consensus_average(g, np.arange(4.0), tol=1e-9, max_iter=10,
                                 mode="local", window=10**9)
        assert exc.value.iterations == 10
        assert_allclose(exc.value.values, 1.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            dd.consensus_average(path_graph(3), np.arange(3.0), max_iter=-1)


class TestEdgeListRoundTrip:
    def test_save_load_preserves_edges(self, tmp_path):
        g = dd.random_geometric_graph(12, 0.5, np.random.default_rng(9))
        path = tmp_path / "topology.txt"
        dd.save_edge_list(g, path)
        back = dd.load_edge_list(path)
        assert back.edges == g.edges
        assert back.M == g.M

    def test_file_format_is_plain_pairs(self, tmp_path):
        g = dd.Graph(M=3, edges=((0, 1), (1, 2)))
        path = tmp_path / "topology.txt"
        dd.save_edge_list(g, path)
        assert path.read_text().splitlines() == ["0 1", "1 2"]

    def test_explicit_vertex_count_honored(self, tmp_path):
        path = tmp_path / "topology.txt"
        path.write_text("0 1\n")
        g = dd.load_edge_list(path, m=2)
        assert g.M == 2
