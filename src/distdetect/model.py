"""Sensing model: per-sensor signals, noise, local statistics and their laws.

Each sensor i observes N samples that are either pure Gaussian noise
(null hypothesis) or a known deterministic signal plus that noise
(alternative). The local test statistic is the sample energy; for large
N it is treated as Gaussian with moments that follow from the chi-square
exactly, which is what every analytic expression downstream builds on.
The matched-filter correlation is the benchmark statistic. One Statistic
record describes either: moments, deflection numerator, quantizer window
and closed-form law.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# libm's exp elementwise, as in quantize._log2: numpy's SIMD exp rounds
# some last bits differently on different CPUs
_exp = np.vectorize(math.exp, otypes=[float])


def _read_only(values, shape: tuple | None = None) -> np.ndarray:
    """values, broadcast to shape if given, as a read-only float array.

    One that already is, owning its C-contiguous float64 data, is kept
    uncopied: so a Scenario shares build_sensors' arrays.
    """
    if (type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata
            and not values.flags.writeable and values.flags.c_contiguous
            and shape in (None, values.shape)):
        return values
    arr = np.array(values if shape is None else np.broadcast_to(values, shape), dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SensorParams:
    """Noise power, reporting channel and known signal of one sensor or of many.

    Elementwise, like Statistic: floats with an (N,) signal
    describe one sensor; (M,) arrays, or scalars that broadcast, with an
    (M, N) signal describe a population of M sensors. Fields are stored
    read-only, as floats for one sensor and as arrays for a population.
    A Scenario is a population with its budget and false-alarm target.

    sigma2  observation noise variance
    h       reporting channel gain to the fusion center (amplitude)
    zeta    receiver noise power on that reporting channel
    signal  the deterministic signal samples each sensor would see under H1
    es      signal energy sum(signal^2) per sensor; derived, never passed
    xi      per-sensor SNR, es / (N * sigma2); derived, never passed
    """

    sigma2: float | np.ndarray
    h: float | np.ndarray
    zeta: float | np.ndarray
    signal: np.ndarray
    es: float | np.ndarray = field(init=False)
    xi: float | np.ndarray = field(init=False)

    def __post_init__(self):
        sig = _read_only(self.signal)
        if sig.ndim not in (1, 2) or 0 in sig.shape:
            raise ValueError("signal must be a nonempty (N,) or (M, N) array")
        if not np.all(np.isfinite(sig)):
            raise ValueError("signal must be finite")
        values = {}
        for name in ("sigma2", "h", "zeta"):
            values[name] = _read_only(getattr(self, name), sig.shape[:-1])
            if not np.all(values[name] > 0):
                raise ValueError(f"{name} must be positive")
        if not np.all(np.square(values["sigma2"]) > 0):
            raise ValueError("sigma2 is so small that the energy's variance 2 N sigma2^2 is 0")
        # a finite signal can still square past float range; es and xi are
        # then inf, which build_sensors' calibration rejects
        with np.errstate(over="ignore"):
            values["es"] = _read_only(np.sum(sig * sig, axis=-1))
            values["xi"] = _read_only(values["es"] / (sig.shape[-1] * values["sigma2"]))
        object.__setattr__(self, "signal", sig)
        for name, value in values.items():
            object.__setattr__(self, name, value if value.ndim else float(value))


@dataclass(frozen=True, eq=False)
class Statistic:
    """The local statistic a sensor sends: its law, its deflection numerator, its window.

    Built by one of two constructors, energy (the paper's energy
    detector) and matched (the matched-filter benchmark); the layers
    downstream read the record and never ask which one they hold. Each
    moment is a float for one sensor or an (M,) array for a population,
    matching the sensor given.

    mean_h0, var_h0, mean_h1, var_h1  Gaussian-approximation moments
    b_factors   (c, f1, f2), whose product is the deflection numerator b,
                the mean gap mean_h1 - mean_h0 of one sensor: (N, sigma^2, xi)
                for the energy and (1.0, Es, 1.0) for the matched filter; kept
                as factors so that each sum over them rounds as the formula reads
    lo          lower edge of the quantizer window [lo, lo + 2U]
    from_noise  from_noise(sigma g, sigma^2 R, h1) is the statistic under H1
                (h1 true) or H0, in closed form from the two variates that
                montecarlo._noise draws for every sensor and trial
    """

    mean_h0: float | np.ndarray
    var_h0: float | np.ndarray
    mean_h1: float | np.ndarray
    var_h1: float | np.ndarray
    b_factors: tuple
    lo: float
    from_noise: Callable = field(repr=False)

    @property
    def b(self):
        c, f1, f2 = self.b_factors
        return c * f1 * f2

    @classmethod
    def energy(cls, sensor, u: float | None = None) -> "Statistic":
        """The energy |x|^2 of N samples, exact chi-square moments, window [0, 2U].

        N is the length of the sensor's signal. Mean N sigma^2 and variance
        2 N sigma^4 under H0, inflated by the SNR xi under H1. With
        x = s + sigma z under H1 and sigma z under H0, the energy is
        (|s| + sigma g)^2 + sigma^2 R under H1 and sigma^2 (g^2 + R) under
        H0. u is not needed: the window starts at 0 for every U.
        """
        n = sensor.signal.shape[-1]
        sigma2, xi = sensor.sigma2, sensor.xi
        var_h0 = 2.0 * n * np.square(sigma2)
        norm = np.sqrt(sensor.es)[..., None]

        def from_noise(sg, rest, h1: bool):
            # one new array, squared and summed in place; sg is left as it is
            if h1:
                energy = sg + norm
                energy *= energy
            else:
                energy = sg * sg
            energy += rest
            return energy

        return cls(mean_h0=n * sigma2, var_h0=var_h0, mean_h1=n * sigma2 * (1.0 + xi),
                   var_h1=var_h0 * (1.0 + 2.0 * xi), b_factors=(n, sigma2, xi), lo=0.0,
                   from_noise=from_noise)

    @classmethod
    def matched(cls, sensor, u: float) -> "Statistic":
        """The correlation x . s with the known signal, Gaussian, window [-U, U].

        Mean 0 under H0 and Es under H1, variance sigma^2 Es under both.
        It is |s| sigma g under H0 and Es + |s| sigma g under H1.
        """
        es = sensor.es
        var = sensor.sigma2 * es
        norm, shift = np.sqrt(es)[..., None], np.asarray(es)[..., None]

        def from_noise(sg, rest, h1: bool):
            mf = norm * sg
            if h1:
                mf += shift
            return mf

        return cls(mean_h0=np.zeros_like(es), var_h0=var, mean_h1=es, var_h1=var,
                   b_factors=(1.0, es, 1.0), lo=-u, from_noise=from_noise)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the distributed dual-ascent solver, checked here and nowhere else.

    The multiplier step is eps_k = lambda0_k / k, with eps_0 = lambda0_0
    (the k=0 update needs a step too). The consensus_* fields are the
    only home of the consensus settings: a consensus.Consensus engine
    reads its tolerance, round budget, stopping rule (consensus_mode) and
    the local rule's window from this record, and has no defaults of its own.
    """

    lambda0_init: float = 1e-8
    kappa: float = 1e-7
    consensus_tol: float = 1e-10
    consensus_max_iter: int = 20000
    outer_max_iter: int = 100000
    consensus_mode: str = "oracle"
    consensus_window: int = 5

    def __post_init__(self):
        for name in ("lambda0_init", "kappa", "consensus_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("consensus_max_iter", "outer_max_iter", "consensus_window"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.consensus_mode not in ("oracle", "local"):
            raise ValueError(f"consensus_mode must be 'oracle' or 'local', "
                             f"got {self.consensus_mode!r}")


@dataclass(frozen=True, eq=False)
class Scenario(SensorParams):
    """Everything detection and the centralized solve need: sensors, budget, target.

    A SensorParams for the whole population, with an (M, N) signal, so
    every per-sensor formula runs over all M sensors at once. M, the
    number of sensors, and N, the samples per local statistic, are the
    signal's two dimensions. To the sensors it adds:

    U     half-range of the quantizer input: a statistic is clipped to its window
          [lo, lo + 2U], [0, 2U] for the energy and [-U, U] for the matched
          filter (Statistic.lo)
    Pt    total transmit power budget across the network
    Pfa   target false-alarm probability at the fusion center
    """

    U: float
    Pt: float
    Pfa: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        if self.signal.ndim != 2:
            raise ValueError(f"sensors must have an (M, N) signal, got shape {self.signal.shape}")
        for name in ("U", "Pt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.Pfa < 1.0:
            raise ValueError("Pfa must be in (0, 1)")

    @property
    def M(self) -> int:
        return self.signal.shape[0]

    @property
    def N(self) -> int:
        return self.signal.shape[1]


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


def _snr_factor(current: float, target_xa_db: float) -> float:
    """The amplitude factor that takes a mean SNR of `current` to target_xa_db dB."""
    if not 0.0 < current < math.inf:
        raise ValueError(f"cannot calibrate: mean SNR is {current!r}, not a finite positive float")
    try:
        target = 10.0 ** (target_xa_db / 10.0)
    except OverflowError:
        target = math.inf
    if not 0.0 < target < math.inf:
        raise ValueError(f"cannot calibrate: a mean SNR of {target_xa_db!r} dB "
                         "is not a finite positive float")
    return math.sqrt(target / current)


def build_sensors(
    m: int,
    n: int,
    seed: int,
    xa_db: float = -4.0,
    amplitude: float = 0.2,
    sigma2_range: tuple[float, float] = (0.5, 2.0),
    zeta: float = 0.1,
    deterministic_channel: bool = False,
) -> SensorParams:
    """Draw a heterogeneous sensor population, then calibrate mean SNR.

    Noise powers are log-uniform over sigma2_range, reporting channels
    are Rayleigh (magnitude of a unit-variance complex Gaussian) unless
    deterministic_channel pins every gain at 1. Signals start as a
    constant-amplitude burst, scaled by one common factor so that mean(xi)
    hits xa_db: xi scales with the square of that factor, so who is strong
    and who is weak stays as drawn.
    """
    for name, count in (("m", m), ("n", n)):
        if not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    rng_sigma = derive_stream(seed, "sigma2")
    rng_chan = derive_stream(seed, "channel")
    lo, hi = sigma2_range
    if not 0 < lo <= hi:
        raise ValueError("sigma2_range must satisfy 0 < lo <= hi")
    sigma2 = _exp(rng_sigma.uniform(math.log(lo), math.log(hi), size=m))
    if deterministic_channel:
        h = np.ones(m)
    else:
        re_im = rng_chan.normal(0.0, math.sqrt(0.5), size=(m, 2))
        h = np.hypot(re_im[:, 0], re_im[:, 1])
        h = np.maximum(h, 1e-6)   # a literally dead channel breaks nothing downstream but is unphysical
    signal = np.full((m, n), amplitude, dtype=float)
    # mean(xi) of the drawn population, without building it first: by SensorParams'
    # operations, so the factor is the one its xi gives, to the bit
    with np.errstate(all="ignore"):   # a signal or SNR out of float range is refused below
        current = float(np.mean(np.sum(signal * signal, axis=-1) / (n * sigma2)))
        try:
            signal *= _snr_factor(current, xa_db)
        except ValueError:
            # the population's own refusals come first, as when it was built before calibrating
            SensorParams(sigma2, h, zeta, signal)
            raise
    for arr in (sigma2, h, signal):   # handed over, so SensorParams keeps them uncopied
        arr.setflags(write=False)
    return SensorParams(sigma2, h, zeta, signal)


def make_scenario(
    m: int,
    n: int,
    seed: int,
    u: float = 3.0,
    pt: float = 1.0,
    pfa: float = 0.1,
    **sensor_options,
) -> Scenario:
    """Standard seeded scenario: drawn sensors, budget and false-alarm target.

    sensor_options are build_sensors' keywords (xa_db, amplitude,
    sigma2_range, zeta, deterministic_channel), with its defaults.
    """
    s = build_sensors(m, n, seed, **sensor_options)
    return Scenario(s.sigma2, s.h, s.zeta, s.signal, U=u, Pt=pt, Pfa=pfa, seed=seed)


def make_topology(m: int, seed: int, radius: float = 0.5):
    """The connected sensor graph, from its own "topology" stream; solve_distributed reads it."""
    from .consensus import random_geometric_graph  # looked up per call, so a patch of it applies
    return random_geometric_graph(m, radius, derive_stream(seed, "topology"))
