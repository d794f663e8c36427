"""Sensing model: per-sensor signals, noise, energy statistics and their moments.

Each sensor i observes N samples that are either pure Gaussian noise
(null hypothesis) or a known deterministic signal plus that noise
(alternative). The local test statistic is the sample energy; for large
N it is treated as Gaussian with moments that follow from the chi-square
exactly, which is what every analytic expression downstream builds on.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import Graph


class Hypothesis(enum.Enum):
    H0 = "h0"   # noise only
    H1 = "h1"   # signal present


@dataclass(frozen=True)
class SensorParams:
    """One sensor: noise power, reporting channel, and the known signal.

    sigma2  observation noise variance
    h       reporting channel gain to the fusion center (amplitude)
    zeta    receiver noise power on that reporting channel
    signal  the deterministic signal samples this sensor would see under H1
    es      signal energy sum(signal^2); derived, never passed
    xi      per-sensor SNR, es / (N * sigma2); derived, never passed
    """

    sigma2: float
    h: float
    zeta: float
    signal: np.ndarray
    es: float = field(init=False)
    xi: float = field(init=False)

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        sig = np.asarray(self.signal, dtype=float)
        if sig.ndim != 1 or sig.size < 1:
            raise ValueError("signal must be a nonempty 1-d array")
        if not np.all(np.isfinite(sig)):
            raise ValueError("signal must be finite")
        sig = sig.copy()
        sig.setflags(write=False)
        es = float(np.sum(sig * sig))
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "es", es)
        object.__setattr__(self, "xi", es / (sig.size * self.sigma2))

    @property
    def n_samples(self) -> int:
        return self.signal.size

    def scaled_signal(self, factor: float) -> "SensorParams":
        return SensorParams(self.sigma2, self.h, self.zeta, self.signal * factor)


@dataclass(frozen=True)
class StatisticMoments:
    """Gaussian-approximation moments of a sensor's local statistic.

    Each field is a float for one sensor or an (M,) array for a whole
    population, matching what statistic_moments was given.
    """

    mean_h0: float | np.ndarray
    var_h0: float | np.ndarray
    mean_h1: float | np.ndarray
    var_h1: float | np.ndarray

    @classmethod
    def energy(cls, n: int, sigma2, xi) -> "StatisticMoments":
        """Exact chi-square moments from the noise power and SNR.

        Mean N sigma^2 and variance 2 N sigma^4 under H0, inflated by
        the SNR xi under H1. Elementwise over arrays.
        """
        var_h0 = 2.0 * n * np.square(sigma2)
        return cls(
            mean_h0=n * sigma2,
            var_h0=var_h0,
            mean_h1=n * sigma2 * (1.0 + xi),
            var_h1=var_h0 * (1.0 + 2.0 * xi),
        )

    @classmethod
    def matched(cls, sigma2, es) -> "StatisticMoments":
        """Moments of the matched-filter statistic x . s from signal energy Es.

        Mean 0 under H0 and Es under H1, variance sigma^2 Es under both.
        """
        var = sigma2 * es
        return cls(mean_h0=np.zeros_like(es), var_h0=var, mean_h1=es, var_h1=var)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the distributed dual-ascent solver.

    The multiplier step is eps_k = lambda0_k / k, with eps_0 = lambda0_0
    (the k=0 update needs a step too). consensus_mode picks how the
    inner averaging loop decides it is done (see
    consensus.consensus_average).
    """

    lambda0_init: float = 1e-8
    kappa: float = 1e-7
    consensus_tol: float = 1e-10
    consensus_max_iter: int = 20000
    outer_max_iter: int = 100000
    consensus_mode: str = "oracle"
    consensus_window: int = 5

    def __post_init__(self):
        if self.lambda0_init <= 0:
            raise ValueError("lambda0_init must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.consensus_tol <= 0:
            raise ValueError("consensus_tol must be positive")
        if self.consensus_max_iter < 1 or self.outer_max_iter < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.consensus_mode not in ("oracle", "local"):
            raise ValueError(f"consensus_mode must be 'oracle' or 'local', "
                             f"got {self.consensus_mode!r}")
        if self.consensus_window < 1:
            raise ValueError("consensus_window must be >= 1")


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: sensors, sampling, budget, target, topology.

    N     samples per local statistic (every sensor's signal has length N)
    U     half-range of the quantizer input; statistics are clipped to [0, 2U]
    Pt    total transmit power budget across the network
    Pfa   target false-alarm probability at the fusion center

    The sensor population is also held as read-only arrays named like
    the SensorParams fields: sigma2, h, zeta, xi, es of shape (M,) and
    signal of shape (M, N). A Scenario therefore stands in for a
    SensorParams wherever a per-sensor formula reads those fields, and
    the formula then runs over the whole population at once.
    """

    sensors: tuple[SensorParams, ...]
    N: int
    U: float
    Pt: float
    Pfa: float
    topology: Graph
    seed: int
    solver: SolverConfig = field(default_factory=SolverConfig)
    sigma2: np.ndarray = field(init=False, repr=False, compare=False)
    h: np.ndarray = field(init=False, repr=False, compare=False)
    zeta: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    es: np.ndarray = field(init=False, repr=False, compare=False)
    signal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if len(self.sensors) < 1:
            raise ValueError("need at least one sensor")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        for i, s in enumerate(self.sensors):
            if s.n_samples != self.N:
                raise ValueError(f"sensor {i} signal length {s.n_samples} != N={self.N}")
        if self.U <= 0:
            raise ValueError("U must be positive")
        if self.Pt <= 0:
            raise ValueError("Pt must be positive")
        if not 0.0 < self.Pfa < 1.0:
            raise ValueError("Pfa must be in (0, 1)")
        if self.topology.M != len(self.sensors):
            raise ValueError(
                f"topology has {self.topology.M} nodes for {len(self.sensors)} sensors"
            )
        for name in ("sigma2", "h", "zeta", "xi", "es"):
            object.__setattr__(self, name, _read_only([getattr(s, name) for s in self.sensors]))
        object.__setattr__(self, "signal", _read_only([s.signal for s in self.sensors]))

    @property
    def M(self) -> int:
        return len(self.sensors)

    def stream(self, *key: str | int) -> np.random.Generator:
        """Deterministic named RNG stream derived from the scenario seed.

        Same scenario and key give the same stream; distinct keys give
        statistically independent streams (SeedSequence spawn keys).
        """
        return derive_stream(self.seed, *key)


def _key_ints(key) -> tuple[int, ...]:
    out = []
    for part in key:
        if isinstance(part, int):
            out.append(part)
        else:
            for b in str(part).encode():
                out.append(int(b))
    return tuple(out)


def derive_stream(seed: int, *key: str | int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=_key_ints(key))
    return np.random.default_rng(ss)


def generate_observations(
    sensor: SensorParams | Scenario,
    n: int,
    hypothesis: Hypothesis,
    rng: np.random.Generator,
    trials: int = 1,
) -> np.ndarray:
    """Draw observation rows: (trials, n) for one SensorParams, (trials, M, n) for a Scenario.

    Under H1 each sensor's known signal is added sample for sample, so n
    must match the stored signal length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(hypothesis, Hypothesis):
        raise TypeError(f"hypothesis must be a Hypothesis, got {hypothesis!r}")
    samples = np.shape(sensor.signal)[-1]
    if hypothesis is Hypothesis.H1 and n != samples:
        raise ValueError(f"n={n} but sensor signal has {samples} samples")
    sd = np.sqrt(sensor.sigma2)
    # unit draws scaled in place: the same values as a per-sensor scale, drawn faster
    x = rng.normal(0.0, 1.0, size=(trials, *sd.shape, n))
    x *= sd[..., None]
    if hypothesis is Hypothesis.H1:
        x += sensor.signal
    return x


def energy_statistic(x: np.ndarray) -> np.ndarray | float:
    """Sum of squares along the last axis; scalar for a 1-d input."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty observation vector")
    t = np.einsum("...n,...n->...", x, x)
    return float(t) if t.ndim == 0 else t


def statistic_moments(sensor, n: int) -> StatisticMoments:
    """Gaussian moments of the energy statistic under both hypotheses.

    sensor is one SensorParams (float moments) or a Scenario (arrays
    over its sensors); see StatisticMoments.energy for the formulas.
    """
    samples = np.shape(sensor.signal)[-1]
    if n != samples:
        raise ValueError(f"n={n} but sensor signal has {samples} samples")
    return StatisticMoments.energy(n, sensor.sigma2, sensor.xi)


def calibrate_average_snr(
    sensors: tuple[SensorParams, ...] | list[SensorParams],
    target_xa_db: float,
) -> tuple[SensorParams, ...]:
    """Scale every signal by one common factor so mean(xi) hits a dB target.

    Per-sensor SNR ratios are preserved: xi scales with the square of
    the amplitude factor, so a single multiplier moves the average
    without reshuffling who is strong and who is weak.
    """
    sensors = tuple(sensors)
    if not sensors:
        raise ValueError("no sensors to calibrate")
    current = float(np.mean([s.xi for s in sensors]))
    if current <= 0:
        raise ValueError("cannot calibrate: all signals are zero")
    target = 10.0 ** (target_xa_db / 10.0)
    factor = math.sqrt(target / current)
    return tuple(s.scaled_signal(factor) for s in sensors)


def build_sensors(
    m: int,
    n: int,
    seed: int,
    xa_db: float = -4.0,
    amplitude: float = 0.2,
    sigma2_range: tuple[float, float] = (0.5, 2.0),
    zeta: float = 0.1,
    deterministic_channel: bool = False,
) -> tuple[SensorParams, ...]:
    """Draw a heterogeneous sensor population, then calibrate mean SNR.

    Noise powers are log-uniform over sigma2_range, reporting channels
    are Rayleigh (magnitude of a unit-variance complex Gaussian) unless
    deterministic_channel pins every gain at 1. Signals start as a
    constant-amplitude burst and get rescaled by calibrate_average_snr.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng_sigma = derive_stream(seed, "sigma2")
    rng_chan = derive_stream(seed, "channel")
    lo, hi = sigma2_range
    if not 0 < lo <= hi:
        raise ValueError("sigma2_range must satisfy 0 < lo <= hi")
    sigma2 = np.exp(rng_sigma.uniform(math.log(lo), math.log(hi), size=m))
    if deterministic_channel:
        h = np.ones(m)
    else:
        re_im = rng_chan.normal(0.0, math.sqrt(0.5), size=(m, 2))
        h = np.hypot(re_im[:, 0], re_im[:, 1])
        h = np.maximum(h, 1e-6)   # a literally dead channel breaks nothing downstream but is unphysical
    base = np.full(n, amplitude)
    sensors = tuple(SensorParams(float(sigma2[i]), float(h[i]), zeta, base) for i in range(m))
    return calibrate_average_snr(sensors, xa_db)


def make_scenario(
    m: int,
    n: int,
    seed: int,
    u: float = 3.0,
    pt: float = 1.0,
    pfa: float = 0.1,
    xa_db: float = -4.0,
    amplitude: float = 0.2,
    sigma2_range: tuple[float, float] = (0.5, 2.0),
    zeta: float = 0.1,
    radius: float = 0.5,
    deterministic_channel: bool = False,
    solver: SolverConfig | None = None,
) -> Scenario:
    """Standard seeded scenario: drawn sensors plus a connected geometric topology."""
    from .consensus import random_geometric_graph

    sensors = build_sensors(
        m, n, seed, xa_db=xa_db, amplitude=amplitude,
        sigma2_range=sigma2_range, zeta=zeta,
        deterministic_channel=deterministic_channel,
    )
    if m == 1:
        topo = Graph(1, ())
    else:
        topo = random_geometric_graph(m, radius, derive_stream(seed, "topology"))
    return Scenario(
        sensors=sensors, N=n, U=u, Pt=pt, Pfa=pfa,
        topology=topo, seed=seed,
        solver=solver if solver is not None else SolverConfig(),
    )


def suggest_statistic_halfrange(
    sensors: tuple[SensorParams, ...] | list[SensorParams],
    n: int,
    n_sigmas: float = 8.0,
) -> float:
    """Half-range U wide enough that clipping at 2U is negligible.

    Covers the largest per-sensor H1 mean plus n_sigmas standard
    deviations, then halves (the quantizer spans [0, 2U]).
    """
    top = 0.0
    for s in sensors:
        mom = statistic_moments(s, n)
        top = max(top, mom.mean_h1 + n_sigmas * math.sqrt(mom.var_h1))
    return 0.5 * top
