"""cutcp kernel: one atom's contributions to nearby grid points.

The switched 1/r potential of Parboil's cutcp::

    s(r) = q * (1/r) * (1 - (r/c)^2)^2      for 0 < r < c

Each atom visits the grid points inside the bounding box of its cutoff
sphere, skips points outside the sphere (the irregular/conditional part
the paper emphasizes), and contributes ``s(r)`` -- a floating-point
histogram over the flattened grid.
"""
from __future__ import annotations

import numpy as np

from repro.core import meter


def atom_contribution(
    atom: np.ndarray,
    grid_dim: tuple[int, int, int],
    spacing: float,
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(flat grid indices, potential values) for one atom.

    Tallies one visit per grid point *examined* (the box, not just the
    sphere) minus the caller's one-per-atom count, matching the C code's
    loop trip counts.
    """
    az, ay, ax, q = float(atom[0]), float(atom[1]), float(atom[2]), float(atom[3])
    nz, ny, nx = grid_dim
    c2 = cutoff * cutoff

    zlo = max(0, int(np.ceil((az - cutoff) / spacing)))
    zhi = min(nz - 1, int(np.floor((az + cutoff) / spacing)))
    ylo = max(0, int(np.ceil((ay - cutoff) / spacing)))
    yhi = min(ny - 1, int(np.floor((ay + cutoff) / spacing)))
    xlo = max(0, int(np.ceil((ax - cutoff) / spacing)))
    xhi = min(nx - 1, int(np.floor((ax + cutoff) / spacing)))
    if zlo > zhi or ylo > yhi or xlo > xhi:
        meter.tally_inner(1)
        return np.empty(0, dtype=np.int64), np.empty(0)

    zs = spacing * np.arange(zlo, zhi + 1)
    ys = spacing * np.arange(ylo, yhi + 1)
    xs = spacing * np.arange(xlo, xhi + 1)
    dz2 = ((zs - az) ** 2)[:, None, None]
    dy2 = ((ys - ay) ** 2)[None, :, None]
    dx2 = ((xs - ax) ** 2)[None, None, :]
    r2 = dz2 + dy2 + dx2
    examined = r2.size
    meter.tally_inner(examined)

    inside = (r2 < c2) & (r2 > 0.0)
    r = np.sqrt(r2[inside])
    s = q * (1.0 / r) * (1.0 - r2[inside] / c2) ** 2

    gz, gy, gx = np.nonzero(inside)
    flat = ((gz + zlo) * ny + (gy + ylo)) * nx + (gx + xlo)
    return flat, s


# Cap on the padded per-block box tensor (floats); keeps the batched
# form's temporaries bounded regardless of cutoff/spacing.
_BULK_BUDGET = 1 << 22


def atoms_contribution_bulk(
    atoms: np.ndarray,
    grid_dim: tuple[int, int, int],
    spacing: float,
    cutoff: float,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Batched :func:`atom_contribution` (segmented bulk form).

    Returns ``((flat_indices, potentials), lengths)`` with every atom's
    contributions concatenated in atom order.  Each atom's box is padded
    to the block's maximum extent and masked, so the arithmetic per
    grid point -- and the resulting floats, indices, order, and meter
    tallies -- are identical to the per-atom scalar form.
    """
    atoms = np.asarray(atoms)
    m = len(atoms)
    nz, ny, nx = grid_dim
    c2 = cutoff * cutoff
    empty_out = (np.empty(0, dtype=np.int64), np.empty(0))
    if m == 0:
        return empty_out, np.zeros(0, dtype=np.int64)

    az, ay, ax, q = atoms[:, 0], atoms[:, 1], atoms[:, 2], atoms[:, 3]
    zlo = np.maximum(0, np.ceil((az - cutoff) / spacing).astype(np.int64))
    zhi = np.minimum(nz - 1, np.floor((az + cutoff) / spacing).astype(np.int64))
    ylo = np.maximum(0, np.ceil((ay - cutoff) / spacing).astype(np.int64))
    yhi = np.minimum(ny - 1, np.floor((ay + cutoff) / spacing).astype(np.int64))
    xlo = np.maximum(0, np.ceil((ax - cutoff) / spacing).astype(np.int64))
    xhi = np.minimum(nx - 1, np.floor((ax + cutoff) / spacing).astype(np.int64))

    ez = np.maximum(zhi - zlo + 1, 0)
    ey = np.maximum(yhi - ylo + 1, 0)
    ex = np.maximum(xhi - xlo + 1, 0)
    nonempty = (ez > 0) & (ey > 0) & (ex > 0)
    meter.tally_each(np.where(nonempty, ez * ey * ex - 1, 0))

    box_elems = max(1, int(ez.max() * ey.max() * ex.max()))
    block = max(1, _BULK_BUDGET // box_elems)
    lengths = np.zeros(m, dtype=np.int64)
    idx_parts, s_parts = [], []
    for lo_i in range(0, m, block):
        hi_i = min(lo_i + block, m)
        sl = slice(lo_i, hi_i)
        bez, bey, bex = int(ez[sl].max()), int(ey[sl].max()), int(ex[sl].max())
        if bez == 0 or bey == 0 or bex == 0:
            continue
        kz = zlo[sl][:, None] + np.arange(bez)
        ky = ylo[sl][:, None] + np.arange(bey)
        kx = xlo[sl][:, None] + np.arange(bex)
        vz = kz <= zhi[sl][:, None]
        vy = ky <= yhi[sl][:, None]
        vx = kx <= xhi[sl][:, None]
        dz2 = (spacing * kz - az[sl][:, None]) ** 2
        dy2 = (spacing * ky - ay[sl][:, None]) ** 2
        dx2 = (spacing * kx - ax[sl][:, None]) ** 2
        r2 = (
            dz2[:, :, None, None] + dy2[:, None, :, None] + dx2[:, None, None, :]
        )
        box = vz[:, :, None, None] & vy[:, None, :, None] & vx[:, None, None, :]
        inside = box & (r2 < c2) & (r2 > 0.0)
        r2in = r2[inside]
        r = np.sqrt(r2in)
        ai, zi, yi, xi = np.nonzero(inside)
        s = q[sl][ai] * (1.0 / r) * (1.0 - r2in / c2) ** 2
        flat = (kz[ai, zi] * ny + ky[ai, yi]) * nx + kx[ai, xi]
        idx_parts.append(flat)
        s_parts.append(s)
        lengths[sl] = np.bincount(ai, minlength=hi_i - lo_i)
    if not idx_parts:
        return empty_out, lengths
    return (np.concatenate(idx_parts), np.concatenate(s_parts)), lengths

