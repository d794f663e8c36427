"""Undirected communication graphs and average consensus.

Nodes exchange scalars with their neighbors and iterate a Metropolis
weighted average until every node holds the network mean. This is the
only communication primitive the distributed solver needs. A Consensus
engine is set up once (weights, stopping rule, round buffer) and run on
input after input; consensus_average is one run of a fresh engine.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SolverConfig

# consensus rounds in an engine's first block and between later tests of the stopping rule
BLOCK_ROUNDS = 64
# rounds between the chain points a small graph's states are mixed from: the powers of W it stacks
CHAIN_ROUNDS = 64
# largest graph whose engine stacks those powers: the measured crossover. From 56 nodes on
# the slot form solved as fast or faster, with no build of CHAIN_ROUNDS M x M x M products
STACK_NODES = 48
# floats the round buffer holds (512 KiB): a block runs no more rounds than fit
BUFFER_FLOATS = 1 << 16
# candidate pairs geometric_edges measures at once (a point with more takes a block alone)
PAIR_BLOCK = 1 << 14
# edges Graph turns from keys into rows at once, and lines save_edge_list joins into one write
EDGE_BLOCK = 1 << 14
# point sets random_geometric_graph draws before it gives up on a connected graph
MAX_TRIES = 200


class TopologyError(ValueError):
    """Graph is unusable: disconnected, malformed edges, or generation failed."""


class ConsensusError(RuntimeError):
    """Consensus did not reach the tolerance within the iteration budget."""

    def __init__(self, msg: str, values: np.ndarray | None = None, iterations: int = 0):
        super().__init__(msg)
        self.values = values
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph on vertices 0..M-1.

    edges    read-only (E, 2) intp array, normalized: u < v in each row,
             rows sorted lexicographically, no duplicates
    degrees  read-only (M,) integer array; derived, never passed

    Construction fails, naming the first offending edge in the order
    given, on a row that is not a pair, a vertex id that is not an
    integer, a self loop, a vertex outside 0..M-1 or a duplicate; and it
    fails on a disconnected graph, since consensus cannot mix across
    components. Valid edges cost one check over every row, a connectivity
    pass and one in-place sort of one key u * M + v per edge, held in the
    buffer of the edge array it becomes; the search that names an
    offending edge runs only after a check has failed. Like the other
    array-backed records, two graphs compare equal only if they are the
    same object.
    """

    M: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            raise TopologyError(f"M must be an integer >= 1, got {self.M!r}")
        try:
            e = np.asarray(self.edges)
        except ValueError:
            # rows of unequal length: numpy keeps each row as one object
            rows = np.array(self.edges, dtype=object)
            if rows.ndim != 1:
                raise
            sizes = np.vectorize(np.size, otypes=[np.intp])(rows)
            raise TopologyError(f"edge {rows[np.argmax(sizes != 2)]!r} is not a pair") from None
        if e.shape == (0,):
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise TopologyError(f"edge {e[0].tolist()!r} is not a pair")
        if e.size and e.dtype.kind not in "iu":   # a float, str or bool id, or an int past int64
            first = np.asarray(next(r for r in self.edges if np.asarray(r).dtype.kind != "i"))
            raise TopologyError(f"edge {first.tolist()!r} has a vertex id that is not an integer")
        e = e.astype(np.intp, copy=False)
        u, v = e.T
        # one check over every row first; the search that names the offending edge,
        # in the order given, runs only when there is one
        if (u == v).any() or (e < 0).any() or (e >= self.M).any():
            raise TopologyError(_first_offence(e, self.M))
        # on the rows as given, before an (E,) array of its own is built; a repeat is named first
        connected = _connected(self.M, u, v)
        # the keys are formed and sorted in the edge array's own buffer: its
        # first half holds them, its second half the larger ends until added in
        edges = np.empty_like(e)
        flat = edges.reshape(-1)
        key, high = flat[:len(e)], flat[len(e):]
        np.minimum(u, v, out=key)
        np.maximum(u, v, out=high)
        key *= self.M
        key += high
        # stable, though the keys are distinct or refused: the kind of sort the package
        # already runs, so no other sort's code is paged in
        key.sort(kind="stable")
        if (key[1:] == key[:-1]).any():
            raise TopologyError(_first_offence(e, self.M))
        if not connected:
            raise TopologyError("graph is disconnected")
        # row i is flat[2i:2i + 2], at or past key i (flat[i]): turning blocks of keys
        # into rows from the last block back overwrites only keys already read
        for b in range((len(key) - 1) // EDGE_BLOCK * EDGE_BLOCK, -1, -EDGE_BLOCK):
            q, r = np.divmod(key[b:b + EDGE_BLOCK], self.M)
            edges[b:b + EDGE_BLOCK, 0], edges[b:b + EDGE_BLOCK, 1] = q, r
        degrees = np.bincount(edges.ravel(), minlength=self.M)
        for name, value in (("edges", edges), ("degrees", degrees)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def _first_offence(e: np.ndarray, m: int) -> str:
    """The message naming the first self loop, out-of-range vertex or repeat among the rows of e.

    Only called once a check has found one. A stable sort of one key per
    row finds the repeats, each after the first of its pair in the order given.
    """
    u, v = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    loop, outside = u == v, (u < 0) | (v >= m)
    # one key u * m + v per vertex pair; an edge out of range gets a negative key
    # of its own instead, so it repeats nothing, however large its vertices
    key = np.where(outside, -1 - np.arange(len(e)), u * m + v)
    order = np.argsort(key, kind="stable")   # stable: repeats keep the order given
    key = key[order]
    repeat = np.zeros(len(e), dtype=bool)
    repeat[order[1:]] = key[1:] == key[:-1]
    i = int(np.argmax(loop | outside | repeat))
    if loop[i]:
        return f"self loop at vertex {u[i]}"
    if outside[i]:
        return f"edge ({e[i, 0]}, {e[i, 1]}) out of range for M={m}"
    return f"duplicate edge ({u[i]}, {v[i]})"


def _connected(m: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges (u[j], v[j]), vertex ids in 0..m-1 and no loops, connect all m vertices.

    Shiloach-Vishkin connectivity: hook roots onto smaller roots, then
    pointer-jump. root[x] <= x throughout, so every tree is rooted at its
    smallest vertex and the graph is connected iff every vertex ends at
    root 0. Each pass joins every root to its smallest neighbouring root,
    so passes are few even on long paths (Shiloach & Vishkin, "An O(log n)
    parallel connectivity algorithm", J. Algorithms 3, 1982). Repeated
    edges change nothing.
    """
    root = np.arange(m)
    ru, rv = u, v   # the roots of each edge's ends: every vertex starts as its own root
    while len(ru):
        np.minimum.at(root, ru, rv)
        np.minimum.at(root, rv, ru)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        # root[r] is now the root of the tree that r's tree joined; an edge within
        # one tree stays within one, so later passes skip it
        ru = root[ru]
        split = ru != root[rv]
        ru, rv = ru[split], root[rv[split]]
    return not root.any()


def geometric_edges(pts: np.ndarray, radius: float) -> np.ndarray:
    """Every pair of points in the unit square at most `radius` apart.

    Returns an (E, 2) intp array of indices into `pts`, one row per
    pair, in no particular order; Graph normalizes and sorts it. A pair
    is kept when dx * dx + dy * dy is at most radius * radius, where dx
    and dy are the differences of its x and of its y coordinates. That
    is bitwise the sum of (p_u - p_v) ** 2 over the two coordinates that
    the full distance matrix computes: squaring is the same product, and
    a sum of two terms is one rounding whichever way it is reduced. So
    the pairs are exactly the ones that matrix would give.

    Only candidates are measured. The points are binned into a grid of
    square cells at least `radius` wide, so two points within `radius`
    lie in the same or in adjacent cells. Each point is paired with the
    later points of its own cell (in cell order) and with every point of
    its 4 forward cells, (+1, -1), (+1, 0), (+1, +1) and (0, +1): every
    adjacent pair of cells is met from exactly one side, so every pair
    is a candidate exactly once. Cells are made wider than `radius` by a
    relative 1e-9, far more than the rounding of the binning and of the
    distance (a few 2**-53 times the cells a side), so no kept pair
    lands two cells apart. A grid has at most about sqrt(M) cells a
    side, so a tiny radius costs no more than one point per cell. The
    points are measured in blocks of consecutive points with at most
    PAIR_BLOCK candidates between them, or one point with more, so the
    candidate arrays stay bounded however dense the points are. Each
    block's pairs are kept apart and copied into the returned array
    once, after the arrays that index the grid are freed.
    """
    return np.concatenate([np.empty((0, 2), np.intp), *_near_pairs(pts, radius)])


def _near_pairs(pts: np.ndarray, radius: float):
    """geometric_edges' pairs as (k, 2) arrays, one per block of candidates."""
    m = len(pts)
    # m ** -0.5 first: a NaN radius then keeps the sqrt(M) grid and matches nothing
    side = max(1, int(1 / max(max(m, 1) ** -0.5, radius * (1 + 1e-9))))
    order, first, count = _cell_neighbours(pts, side)
    per_point = count.sum(axis=1)
    reach = np.cumsum(per_point)   # candidates of the points up to and including k
    k = np.arange(m)
    x, y = pts[order, 0], pts[order, 1]
    k0 = 0
    while k0 < m:
        # point k0 and the points after it that fit in one block with it
        k1 = max(int(np.searchsorted(reach, reach[k0] - per_point[k0] + PAIR_BLOCK, "right")),
                 k0 + 1)
        c = count[k0:k1].ravel()
        u = np.repeat(k[k0:k1], per_point[k0:k1])
        v = np.arange(len(u)) + np.repeat(first[k0:k1].ravel() - (np.cumsum(c) - c), c)
        dx, dy = x[u], y[u]
        dx -= x[v]
        dy -= y[v]
        keep = dx * dx + dy * dy <= radius * radius
        yield order[np.stack((u[keep], v[keep]), axis=1)]
        k0 = k1


def _cell_neighbours(pts: np.ndarray, side: int):
    """The cell order of the points and, for each, the later points it is paired with.

    Point k of the cell order (point order[k] of pts) is paired with
    count[k, s] consecutive points of the cell order from first[k, s] on:
    s = 0 for the rest of its own cell, s = 1..4 for its 4 forward cells.
    """
    cx, cy = np.clip(pts * side, 0, side - 1).astype(np.intp).T
    cell = cx * side + cy
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=side * side)
    end = np.cumsum(counts)
    start = end - counts
    cx, cy = cx[order], cy[order]
    # the 4 forward cells of each point, in the cell order
    nx, ny = cx[:, None] + (1, 1, 1, 0), cy[:, None] + (-1, 0, 1, 1)
    inside = (nx < side) & (ny >= 0) & (ny < side)
    forward = np.where(inside, nx * side + ny, 0)
    k = np.arange(len(pts))
    first = np.column_stack((k + 1, start[forward]))
    count = np.column_stack((end[cell[order]] - k - 1, np.where(inside, counts[forward], 0)))
    return order, first, count


def random_geometric_graph(
    m: int,
    radius: float,
    rng: np.random.Generator,
) -> Graph:
    """Connected random geometric graph on the unit square.

    M points are dropped uniformly at random and joined whenever their
    euclidean distance is at most `radius`, found by `geometric_edges`
    from a cell grid rather than from all M(M-1)/2 distances. Redraws
    everything until the result is connected; gives up after
    MAX_TRIES attempts so a radius that is too small fails loudly
    instead of looping forever.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise TopologyError(f"m must be an integer >= 1, got {m!r}")
    if not radius > 0:
        raise TopologyError("radius must be positive")
    for _ in range(MAX_TRIES):
        pts = rng.uniform(0.0, 1.0, size=(m, 2))
        try:
            return Graph(m, geometric_edges(pts, radius))
        except TopologyError:
            continue
    raise TopologyError(
        f"no connected geometric graph after {MAX_TRIES} tries (M={m}, radius={radius})"
    )


def metropolis_matrix(graph: Graph) -> np.ndarray:
    """Metropolis-Hastings mixing matrix: the slots of _slots, laid out dense.

    W[i, j] = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal soaks up
    the remainder: 1 minus the node's edge weights, added in index order.
    Symmetric and doubly stochastic by construction, so repeated
    application preserves the mean and converges to it.
    """
    m = graph.M
    cols, vals = _slots(graph)
    w = np.zeros((m, m))
    rows = np.arange(m)
    for c, v in zip(cols, vals):   # a padding slot adds 0 to its node's diagonal
        w[rows, c] += v
    return w


@dataclass(frozen=True)
class ConsensusResult:
    values: np.ndarray     # final per-node estimates
    iterations: int        # rounds of neighbor exchange used
    max_deviation: float   # max_i |values_i - mean(x0)|


def _stacked_powers(w: np.ndarray) -> np.ndarray:
    """W^1 ... W^CHAIN_ROUNDS as one (M, CHAIN_ROUNDS, M) array: [j, r - 1, i] is (W^r)[i, j].

    W^(r+1) is W^r W, each entry summed over the inner index in index order.
    """
    m = len(w)
    stack = np.empty((m, CHAIN_ROUNDS, m))
    terms = np.empty((m, m, m))
    stack[:, 0] = w.T
    for r in range(1, CHAIN_ROUNDS):
        # (W^(r+1))[i, j] = sum over l of (W^r)[i, l] W[l, j], held as [j, i]
        np.multiply(w[:, :, None], stack[:, r - 1][:, None, :], out=terms)
        np.add.reduce(terms, axis=0, out=stack[:, r])
    return stack


def _slots(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """W's nonzero slots: (D + 1, M) column indices and Metropolis weights, D the largest degree.

    Node i's slots are i itself, then its neighbours in ascending order,
    then i again at weight 0 up to D + 1 slots. The diagonal is 1 minus
    the node's neighbour weights, added in ascending order.
    """
    m, deg = graph.M, graph.degrees
    u, v = graph.edges.T
    # each edge from both ends, ordered by node and then by neighbour
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.argsort(src * m + dst, kind="stable")
    src, dst = src[order], dst[order]
    slot = np.arange(1, len(src) + 1) - (np.cumsum(deg) - deg)[src]
    cols = np.tile(np.arange(m), (int(deg.max(initial=0)) + 1, 1))
    cols[slot, src] = dst
    vals = np.zeros(cols.shape)
    vals[slot, src] = 1.0 / (1.0 + np.maximum(deg[src], deg[dst]))
    vals[0] = 1.0 - np.add.reduce(vals[1:], axis=0)
    return cols, vals


class Consensus:
    """Average consensus on one graph: set up once, then run on input after input.

    Holds the Metropolis weights (metropolis_matrix) in the form its
    rounds are computed from, a round buffer and its block
    schedule, and reads the tolerance, round budget, stopping rule and
    window from a validated SolverConfig.
    consensus_mode="oracle" stops on the true deviation max_i |x_i - mean(x0)|,
    observable in simulation but not in a deployment; "local" stops when
    each node's own trajectory has moved less than the tolerance over a
    sliding window of consensus_window rounds, information a real node has.

    Every sum runs over its terms in index order, with no BLAS call, so
    the values depend only on the graph and the input: not on the CPU,
    its BLAS kernel or the block schedule. Up to STACK_NODES (48) nodes,
    the engine stacks W^1 ... W^CHAIN_ROUNDS once, and the state after
    c + r rounds is W^r times the state after c rounds, c the last
    multiple of CHAIN_ROUNDS (the chain point): a block of rounds is one
    product and one sum over the stack. A larger graph mixes one round
    per product over W's nonzero slots (see _slots), M x (largest degree
    + 1) of them, and never forms the dense M x M matrix.
    """

    def __init__(self, graph: Graph, solver: SolverConfig):
        self.graph, self.solver = graph, solver
        m = graph.M
        # rows kept in front of each block: the current state, and for the
        # local rule the `window` states before it (no more than can exist)
        self.lead = (min(solver.consensus_window, solver.consensus_max_iter)
                     if solver.consensus_mode == "local" else 0)
        self.max_block = max(BUFFER_FLOATS // m - self.lead - 1, 1)
        # the next run's first block, and the later blocks; read here so a test can patch it
        self.block_rounds = self.opening_block = BLOCK_ROUNDS
        self._buf, self._rows = np.zeros((0, m)), []
        # which mixer run() calls; a bound method kept on the engine would be a
        # reference cycle, freeing the engine only when the cycle collector runs
        self._stacked = m <= STACK_NODES
        if self._stacked:
            self._powers = _stacked_powers(metropolis_matrix(graph))
            self._terms = np.empty_like(self._powers)
            self._chain = np.empty(m)   # the state at the last chain point
        else:
            self._cols, self._vals = _slots(graph)
            self._terms = np.empty_like(self._vals)

    def _mix_powers(self, k: int, first: int, n: int) -> None:
        """Buffer rows first+1 .. first+n: the states after rounds k+1 .. k+n.

        Row first holds the state after k rounds. Each state is a power of
        W times the state at its chain point, one product and one sum for
        the rows between two chain points.
        """
        buf, done = self._buf, 0
        while done < n:
            r0 = (k + done) % CHAIN_ROUNDS   # rounds past the chain point
            if r0 == 0:
                self._chain[:] = buf[first + done]
            r1 = min(CHAIN_ROUNDS, r0 + n - done)
            terms = self._terms[:, :r1 - r0]
            np.multiply(self._powers[:, r0:r1], self._chain[:, None, None], out=terms)
            np.add.reduce(terms, axis=0, out=buf[first + 1 + done:first + 1 + done + r1 - r0])
            done += r1 - r0

    def _mix_slots(self, k: int, first: int, n: int) -> None:
        """Buffer rows first+1 .. first+n, each one round past the row before it."""
        rows, cols, vals, terms = self._rows, self._cols, self._vals, self._terms
        for r in range(first + 1, first + 1 + n):
            np.take(rows[r - 1], cols, out=terms)
            np.multiply(terms, vals, out=terms)
            np.add.reduce(terms, axis=0, out=rows[r])

    def run(self, x0: np.ndarray) -> ConsensusResult:
        """Iterate x <- W x from x0 until every node agrees on the mean of x0.

        Raises ConsensusError (carrying the last state) if consensus_max_iter
        rounds are not enough. Rounds run in blocks, each cut to what
        BUFFER_FLOATS holds, and the stopping rule is tested once per block
        for every round in it. The first block is BLOCK_ROUNDS rounds (as
        read at construction), or after a successful run that run's rounds
        + 2; later blocks are BLOCK_ROUNDS. The schedule decides only how
        many states are computed before each test: a state's bits are set
        by the chain point it is computed from (see Consensus), and the
        tests are exact, so values and round counts are those of testing
        after every round.
        """
        x = np.asarray(x0, dtype=float)
        m = self.graph.M
        if x.shape != (m,):
            raise ValueError(f"x0 must have shape ({m},), got {x.shape}")
        if not np.isfinite(x).all():   # before any arithmetic, which could flag inf - inf
            raise ValueError("x0 must be finite")
        cfg, lead = self.solver, self.lead
        tol, max_iter, window = cfg.consensus_tol, cfg.consensus_max_iter, cfg.consensus_window
        # x.mean(): a sum past float range warns or raises as np.errstate says
        target = np.add.reduce(x) / m
        size = lead + 1 + min(max(self.opening_block, self.block_rounds), max_iter, self.max_block)
        if len(self._buf) < size:
            self._buf = np.zeros((size, m))
            self._rows = list(self._buf)
        buf = self._buf
        # the lead rows stand for states before x0; the local rule skips every
        # window that reaches them, and filling them with x0 keeps no last run's state
        buf[:lead + 1] = x
        mix = self._mix_powers if self._stacked else self._mix_slots
        k, block = 0, self.opening_block   # rounds done (buf[lead] is the state after them), asked
        while True:
            n = min(block, self.max_block, max_iter - k)
            mix(k, lead, n)
            states = buf[:lead + 1 + n]
            # done[j]: the state after k + j rounds meets the stopping rule
            if cfg.consensus_mode == "oracle":
                dev = np.abs(states - target).max(axis=1)
                done = dev <= tol
            else:
                # each node's max and min over the window of lead + 1 states ending at each row
                hi, lo = states[lead:].copy(), states[lead:].copy()
                for s in range(lead):
                    np.maximum(hi, states[s:s + n + 1], out=hi)
                    np.minimum(lo, states[s:s + n + 1], out=lo)
                done = np.subtract(hi, lo, out=hi).max(axis=1) <= tol
                done[:max(window - k, 0)] = False   # fewer than window + 1 states so far
            j = int(done.argmax())
            if done[j]:
                x = buf[lead + j].copy()
                dev_j = dev[j] if cfg.consensus_mode == "oracle" else np.abs(x - target).max()
                self.opening_block = k + j + 2
                return ConsensusResult(values=x, iterations=k + j, max_deviation=float(dev_j))
            k += n
            if k >= max_iter:
                raise ConsensusError(f"no consensus after {max_iter} rounds (tol={tol})",
                                     values=buf[lead + n].copy(), iterations=k)
            buf[:lead + 1] = buf[n:n + lead + 1]
            block = max(block - n, self.block_rounds)


def consensus_average(graph: Graph, x0: np.ndarray, solver: SolverConfig = SolverConfig()
                      ) -> ConsensusResult:
    """One run of a Consensus engine built for this input alone."""
    return Consensus(graph, solver).run(x0)


def save_edge_list(graph: Graph, path) -> None:
    """Write one "u v" pair per line, 0-indexed. No header.

    Each line joins two strings from per-vertex tables, "u " and "v\\n",
    so no integer is formatted twice; EDGE_BLOCK lines go out per write,
    so the text held at once stays bounded however many edges there are.
    """
    heads = np.array([f"{i} " for i in range(graph.M)], dtype=object)
    tails = np.array([f"{i}\n" for i in range(graph.M)], dtype=object)
    with open(path, "w") as fh:
        for b in range(0, len(graph.edges), EDGE_BLOCK):
            block = graph.edges[b:b + EDGE_BLOCK]
            parts = np.empty(2 * len(block), dtype=object)
            parts[0::2], parts[1::2] = heads[block[:, 0]], tails[block[:, 1]]
            fh.write("".join(parts.tolist()))
