"""Capacity-matched uniform quantization of the local statistics.

A sensor spending power p on a reporting channel with gain h and
receiver noise zeta can push L = 0.5 * log2(1 + p h^2 / zeta) bits per
statistic through that channel. The statistic, clipped to [0, 2U], is
quantized by a midrise uniform quantizer at that rate; running the
channel at capacity makes the quantization noise variance
U^2 / (3 * 2^(2L)) = U^2 / (3 (1 + p h^2 / zeta)), which is the noise
model every analytic expression downstream uses. The analytic layer
keeps L real-valued; an actual transmission rounds down to whole bits,
and a sensor with zero whole bits sends nothing at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# libm's log2 elementwise: numpy's SIMD log2 can round the last bit differently,
# which would change the bits_real column
_log2 = np.vectorize(math.log2, otypes=[float])


def _check_channel(p, h, zeta) -> None:
    if np.any(np.less(p, 0)):
        raise ValueError("power must be nonnegative")
    if np.any(np.less_equal(h, 0)) or np.any(np.less_equal(zeta, 0)):
        raise ValueError("h and zeta must be positive")


def capacity_bits(p, h, zeta):
    """Bits per statistic a power-p transmission supports; 0 when p = 0.

    Elementwise over arrays of powers and channels.
    """
    _check_channel(p, h, zeta)
    return 0.5 * _log2(1.0 + p * h * h / zeta)


def quant_noise_var(p, h, zeta, u: float):
    """Quantization noise variance at capacity-matched rate.

    Equals U^2 / (3 * 2^(2 L)) with L = capacity_bits(p, h, zeta); the
    closed form below avoids the round trip through the exponent.
    Elementwise over arrays of powers and channels.
    """
    if u <= 0:
        raise ValueError("U must be positive")
    _check_channel(p, h, zeta)
    return u * u / (3.0 * (1.0 + p * h * h / zeta))


@dataclass(frozen=True)
class QuantSpec:
    """Rate and noise budget of one sensor's quantizer.

    bits_real  capacity at the allocated power, real-valued (analysis)
    bits_int   floor(bits_real), what a transmission actually uses
    noise_var  U^2 / (3 * 2^(2 bits_real)), the analytic noise variance
    censored   True when the sensor got zero power and transmits nothing
    """

    bits_real: float
    bits_int: int
    noise_var: float
    censored: bool


def quant_spec(p: float, h: float, zeta: float, u: float) -> QuantSpec:
    (spec,) = specs_for_allocation([p], [h], [zeta], u)
    return spec


def specs_for_allocation(powers, h, zeta, u: float) -> list[QuantSpec]:
    p = np.asarray(powers, dtype=float)
    h, zeta = np.asarray(h, dtype=float), np.asarray(zeta, dtype=float)
    bits = capacity_bits(p, h, zeta)
    noise = quant_noise_var(p, h, zeta, u)
    return [QuantSpec(bits_real=b, bits_int=math.floor(b), noise_var=v, censored=(pi == 0.0))
            for pi, b, v in zip(p.tolist(), bits.tolist(), noise.tolist())]


def quantize_array(t: np.ndarray, bits_int, u: float) -> np.ndarray:
    """Midrise uniform quantizer over [0, 2U] with clipping.

    2^bits_int cells of width 2U / 2^bits_int; values are clipped into
    range and mapped to their cell midpoint. Vectorized over t; bits_int
    is one count or an integer array broadcasting against t, such as
    one count per row of a (sensors, trials) array.
    """
    bits_int = np.asarray(bits_int)
    if np.any(bits_int < 1):
        raise ValueError("need at least one bit to quantize")
    if u <= 0:
        raise ValueError("U must be positive")
    cells = np.ldexp(1.0, bits_int)
    delta = 2.0 * u / cells
    tc = np.clip(np.asarray(t, dtype=float), 0.0, 2.0 * u)
    idx = np.minimum(np.floor(tc / delta), cells - 1)
    return (idx + 0.5) * delta


def quantize_statistic(t: float, spec: QuantSpec, u: float) -> float:
    """Quantize one statistic under a sensor's QuantSpec.

    Refuses censored sensors and zero-bit specs: neither puts anything
    on the air, so there is no value to reconstruct.
    """
    if spec.censored:
        raise ValueError("sensor is censored (zero power), nothing is transmitted")
    if spec.bits_int < 1:
        raise ValueError("bits_int = 0: no codeword to send")
    return float(quantize_array(np.asarray([t]), spec.bits_int, u)[0])


def quantize_centered(t: np.ndarray, bits_int, u: float) -> np.ndarray:
    """Same lattice shifted to [-U, U] for statistics symmetric around 0."""
    return quantize_array(np.asarray(t, dtype=float) + u, bits_int, u) - u
