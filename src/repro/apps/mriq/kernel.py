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


def ftcoeff(kx, ky, kz, mag, x, y, z) -> complex:
    """One sample's contribution to one pixel (scalar form)."""
    phase = TWO_PI * (kx * x + ky * y + kz * z)
    return complex(mag * np.cos(phase), mag * np.sin(phase))


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
    phase = TWO_PI * (
        np.outer(xs, kx) + np.outer(ys, ky) + np.outer(zs, kz)
    )
    re = np.sum(np.cos(phase) * mag, axis=1)
    im = np.sum(np.sin(phase) * mag, axis=1)
    n = len(xs) * len(kx)
    meter.tally_visits(max(0, n - len(xs)))
    return re + 1j * im


def q_for_one_pixel(x, y, z, kx, ky, kz, mag) -> complex:
    """Q value of a single pixel (the Triolet element function).

    The sample sum is ``np.sum`` over elementwise products (not BLAS
    ``@``) so the batched form below reproduces it bit-for-bit.
    """
    phase = TWO_PI * (kx * x + ky * y + kz * z)
    meter.tally_inner(len(kx))
    return complex(
        np.sum(np.cos(phase) * mag), np.sum(np.sin(phase) * mag)
    )


def q_for_pixels_bulk(
    kx, ky, kz, mag, xs, ys, zs
) -> np.ndarray:
    """Batched :func:`q_for_one_pixel`: same phases, same per-row sums.

    Meters exactly like ``len(xs)`` scalar calls.
    """
    n = len(xs)
    phase = TWO_PI * (kx * np.asarray(xs)[:, None] + ky * np.asarray(ys)[:, None] + kz * np.asarray(zs)[:, None])
    out = np.empty(n, dtype=complex)
    out.real = np.sum(np.cos(phase) * mag, axis=1)
    out.imag = np.sum(np.sin(phase) * mag, axis=1)
    meter.tally_uniform(n, max(len(kx) - 1, 0))
    return out
