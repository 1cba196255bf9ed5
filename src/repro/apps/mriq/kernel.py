"""The mri-q numerical kernel, shared by every framework.

``ftcoeff`` is the paper's per-(sample, pixel) contribution; the chunk
form evaluates a block of pixels against all samples with numpy, which is
how every framework's inner task runs (the paper's inner loops are tight
native code in all three languages; the comparison lives in distribution
and overhead, not in the arithmetic).
"""
from __future__ import annotations

import numpy as np

from repro.core import meter

TWO_PI = 2.0 * np.pi


def _cos_sin_turns(t, mag):
    """``mag·cos(2πt)`` and ``mag·sin(2πt)`` for a phase *t* in turns,
    computed in *t*'s own memory (an array the caller gives up).

    ``t - rint(t)`` is exact for ``|t| < 2**52`` (Sterbenz), so the trig
    functions see an argument in ``[-π, π]`` and skip their own, costlier
    and less accurate, range reduction (IEEE 754-2008's ``cospi``).
    Every form calls this, so all of them agree bit for bit.
    """
    t -= np.rint(t)
    t *= TWO_PI
    s = np.sin(t)
    s *= mag
    c = np.cos(t, t)
    c *= mag
    return c, s


def ftcoeff(kx, ky, kz, mag, x, y, z) -> complex:
    """One sample's contribution to one pixel (scalar form)."""
    c, s = _cos_sin_turns(np.asarray(kx * x + ky * y + kz * z), mag)
    return complex(c, s)


def q_for_pixels(
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    kz: np.ndarray,
    mag: np.ndarray,
) -> np.ndarray:
    """Q values for a block of pixels: sum over all k-space samples.

    Tallies ``len(xs) * len(kx)`` visits minus the ones the caller's
    library already counted per pixel.
    """
    c, s = _cos_sin_turns(np.outer(xs, kx) + np.outer(ys, ky) + np.outer(zs, kz), mag)
    re = np.add.reduce(c, axis=1)
    im = np.add.reduce(s, axis=1)
    n = len(xs) * len(kx)
    meter.tally_visits(max(0, n - len(xs)))
    return re + 1j * im


def q_for_one_pixel(x, y, z, kx, ky, kz, mag) -> complex:
    """Q value of a single pixel (the Triolet element function).

    The sample sum is ``np.add.reduce`` over elementwise products (not
    BLAS ``@``) so the batched form below reproduces it bit-for-bit.
    """
    c, s = _cos_sin_turns(kx * x + ky * y + kz * z, mag)
    meter.tally_inner(len(kx))
    return complex(np.add.reduce(c), np.add.reduce(s))


def q_for_pixels_bulk(
    kx, ky, kz, mag, xs, ys, zs
) -> np.ndarray:
    """Batched :func:`q_for_one_pixel`: same phases, same per-row sums.

    Meters exactly like ``len(xs)`` scalar calls.
    """
    n = len(xs)
    c, s = _cos_sin_turns(kx * np.asarray(xs)[:, None] + ky * np.asarray(ys)[:, None] + kz * np.asarray(zs)[:, None], mag)
    out = np.empty(n, dtype=complex)
    out.real = np.add.reduce(c, axis=1)
    out.imag = np.add.reduce(s, axis=1)
    meter.tally_uniform(n, max(len(kx) - 1, 0))
    return out
