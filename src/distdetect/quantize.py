"""Capacity-matched uniform quantization of the local statistics.

A sensor spending power p on a reporting channel with gain h and
receiver noise zeta can push L = 0.5 * log2(1 + p h^2 / zeta) bits per
statistic through that channel. The statistic, clipped to a window of
width 2U ([0, 2U] for the energy, [-U, U] for the matched filter), is
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


@dataclass(frozen=True, eq=False)
class QuantSpec:
    """Rate and noise budget of each sensor's quantizer, one entry per sensor.

    Arrays shaped like the powers given to specs_for_allocation.

    bits_real  capacity at the allocated power, real-valued (analysis)
    bits_int   floor(bits_real) as integers, what a transmission actually uses
    noise_var  U^2 / (3 * 2^(2 bits_real)), the analytic noise variance
    censored   True where the sensor got zero power and transmits nothing
    """

    bits_real: np.ndarray
    bits_int: np.ndarray
    noise_var: np.ndarray
    censored: np.ndarray


def specs_for_allocation(powers, h, zeta, u: float) -> QuantSpec:
    """Quantizer specs at the allocated powers; elementwise over powers and channels."""
    p = np.asarray(powers, dtype=float)
    bits = capacity_bits(p, h, zeta)
    return QuantSpec(bits_real=bits, bits_int=np.floor(bits).astype(int),
                     noise_var=quant_noise_var(p, h, zeta, u), censored=(p == 0.0))


def quantize_array(t: np.ndarray, bits_int, u: float, lo: float = 0.0) -> np.ndarray:
    """Midrise uniform quantizer over [lo, lo + 2U] with clipping.

    2^bits_int cells of width 2U / 2^bits_int; values are clipped into
    range and mapped to their cell midpoint. lo is 0 for the energy
    statistic and -U for the matched filter, which is symmetric around 0.
    Vectorized over t; bits_int is one count or an integer array
    broadcasting against t, such as one count per row of a
    (sensors, trials) array. Zero bits, what a censored sensor has, are
    refused: nothing is sent, so there is no value to reconstruct. t is
    left as it is; the steps after the clip work on one output array.
    """
    bits_int = np.asarray(bits_int)
    if np.any(bits_int < 1):
        raise ValueError("need at least one bit to quantize")
    if u <= 0:
        raise ValueError("U must be positive")
    cells = np.ldexp(1.0, bits_int)
    delta = 2.0 * u / cells
    t = np.asarray(t, dtype=float)
    out = np.clip(t, lo, lo + 2.0 * u, out=np.empty(np.broadcast_shapes(t.shape, cells.shape)))
    out -= lo
    out /= delta
    np.floor(out, out=out)
    np.minimum(out, cells - 1, out=out)    # the top edge belongs to the last cell
    out += 0.5
    out *= delta
    out += lo
    return out if out.ndim else out[()]
