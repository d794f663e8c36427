"""Undirected communication graphs and average consensus.

Nodes exchange scalars with their neighbors and iterate a Metropolis
weighted average until every node holds the network mean. This is the
only communication primitive the distributed solver needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# consensus rounds run between two tests of the stopping rule
BLOCK_ROUNDS = 64


class TopologyError(ValueError):
    """Graph is unusable: disconnected, malformed edges, or generation failed."""


class ConsensusError(RuntimeError):
    """Consensus did not reach the tolerance within the iteration budget."""

    def __init__(self, msg: str, values: np.ndarray | None = None, iterations: int = 0):
        super().__init__(msg)
        self.values = values
        self.iterations = iterations


def _normalize_edges(m: int, edges) -> tuple[tuple[int, int], ...]:
    seen = set()
    out = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise TopologyError(f"self loop at vertex {u}")
        if not (0 <= u < m and 0 <= v < m):
            raise TopologyError(f"edge ({u}, {v}) out of range for M={m}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise TopologyError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        out.append((u, v))
    out.sort()
    return tuple(out)


def _edge_array(edges) -> np.ndarray:
    """The edge list as an (E, 2) integer array, (0, 2) when there are no edges."""
    return np.array(edges, dtype=np.intp).reshape(-1, 2)


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on vertices 0..M-1.

    Edges are stored normalized (u < v, sorted, no duplicates) so two
    graphs with the same edge set compare equal. Construction fails on
    a disconnected graph: consensus cannot mix across components.
    """

    M: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.M < 1:
            raise TopologyError("graph needs at least one vertex")
        edges = _normalize_edges(self.M, self.edges)
        object.__setattr__(self, "edges", edges)
        deg = np.bincount(_edge_array(edges).ravel(), minlength=self.M)
        object.__setattr__(self, "degrees", tuple(deg.tolist()))
        if not self._connected():
            raise TopologyError("graph is disconnected")

    def _connected(self) -> bool:
        if self.M == 1:
            return True
        adj = self.neighbors()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.M

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.M)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def complete_graph(m: int) -> Graph:
    return Graph(m, tuple((u, v) for u in range(m) for v in range(u + 1, m)))


def random_geometric_graph(
    m: int,
    radius: float,
    rng: np.random.Generator,
    max_tries: int = 200,
) -> Graph:
    """Connected random geometric graph on the unit square.

    M points are dropped uniformly at random and joined whenever their
    euclidean distance is at most `radius`. Redraws everything until the
    result is connected; gives up after `max_tries` attempts so a radius
    that is too small fails loudly instead of looping forever.
    """
    if m < 1:
        raise TopologyError("need at least one node")
    if radius <= 0:
        raise TopologyError("radius must be positive")
    for _ in range(max_tries):
        pts = rng.uniform(0.0, 1.0, size=(m, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        iu, ju = np.triu_indices(m, k=1)
        mask = d2[iu, ju] <= radius * radius
        edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
        try:
            return Graph(m, edges)
        except TopologyError:
            continue
    raise TopologyError(
        f"no connected geometric graph after {max_tries} tries (M={m}, radius={radius})"
    )


def metropolis_matrix(graph: Graph) -> np.ndarray:
    """Metropolis-Hastings mixing matrix.

    W[i, j] = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal soaks up
    the remainder. Symmetric and doubly stochastic by construction, so
    repeated application preserves the mean and converges to it.
    """
    m = graph.M
    w = np.zeros((m, m))
    deg = np.array(graph.degrees)
    u, v = _edge_array(graph.edges).T
    w[u, v] = w[v, u] = 1.0 / (1.0 + np.maximum(deg[u], deg[v]))
    w[np.diag_indices(m)] = 1.0 - w.sum(axis=1)
    return w


@dataclass(frozen=True)
class ConsensusResult:
    values: np.ndarray     # final per-node estimates
    iterations: int        # rounds of neighbor exchange used
    max_deviation: float   # max_i |values_i - mean(x0)|


def consensus_average(
    graph: Graph,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10000,
    mode: str = "oracle",
    window: int = 5,
    weights: np.ndarray | None = None,
) -> ConsensusResult:
    """Iterate x <- W x until every node agrees on the mean of x0.

    mode="oracle" stops on the true deviation max_i |x_i - mean(x0)|,
    which is observable in simulation but not in a deployment.
    mode="local" stops when each node's own trajectory has moved less
    than tol over a sliding window of `window` rounds, information a
    real node actually has. Raises ConsensusError (carrying the last
    state) if max_iter rounds are not enough.

    Rounds run in blocks of BLOCK_ROUNDS, each written into one row of
    a buffer, and the stopping rule is tested once per block for every
    round in it. Each round is the same matrix-vector product as
    x = W @ x and the tests are exact comparisons, so values and round
    counts are those of testing after every round.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (graph.M,):
        raise ValueError(f"x0 must have shape ({graph.M},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if mode not in ("oracle", "local"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "local" and window < 1:
        raise ValueError("window must be >= 1")
    w = metropolis_matrix(graph) if weights is None else np.asarray(weights, dtype=float)
    target = x.mean()

    # rows kept in front of each block: the current state, and for the
    # local rule the `window` states before it (no more than can exist)
    lead = min(window, max_iter) if mode == "local" else 0
    buf = np.zeros((lead + 1 + BLOCK_ROUNDS, graph.M))
    rows = list(buf)
    buf[lead] = x
    k = 0   # rounds done; buf[lead] holds the state after k rounds
    while True:
        n = min(BLOCK_ROUNDS, max_iter - k)
        for r in range(lead + 1, lead + 1 + n):
            w.dot(rows[r - 1], out=rows[r])
        states = buf[:lead + 1 + n]
        # done[j]: the state after k + j rounds meets the stopping rule
        if mode == "oracle":
            done = np.abs(states - target).max(axis=1) <= tol
        else:
            spans = sliding_window_view(states, lead + 1, axis=0)
            done = np.ptp(spans, axis=2).max(axis=1) <= tol
            done[:max(window - k, 0)] = False   # fewer than window + 1 states so far
        if done.any():
            j = int(np.argmax(done))
            x = buf[lead + j].copy()
            return ConsensusResult(values=x, iterations=k + j,
                                   max_deviation=float(np.max(np.abs(x - target))))
        k += n
        if k >= max_iter:
            raise ConsensusError(
                f"no consensus after {max_iter} rounds (tol={tol})",
                values=buf[lead + n].copy(), iterations=k,
            )
        buf[:lead + 1] = buf[n:n + lead + 1]


def save_edge_list(graph: Graph, path) -> None:
    """Write one "u v" pair per line, 0-indexed. No header."""
    with open(path, "w") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def load_edge_list(path, m: int | None = None) -> Graph:
    """Read a graph saved by save_edge_list.

    The format carries no vertex count, so M is inferred as the largest
    vertex index plus one; pass `m` explicitly for graphs with a
    trailing isolated index or for the single-vertex graph (empty file).
    """
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TopologyError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as e:
                raise TopologyError(f"{path}:{lineno}: {e}") from e
    if m is None:
        if not edges:
            raise TopologyError(f"{path}: empty edge list needs an explicit vertex count")
        m = max(max(u, v) for u, v in edges) + 1
    return Graph(m, tuple(edges))
