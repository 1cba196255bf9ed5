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
    _, ny, nx = grid_dim
    c2 = cutoff * cutoff
    empty_out = (np.empty(0, dtype=np.int64), np.empty(0))
    if m == 0:
        return empty_out, np.zeros(0, dtype=np.int64)

    # Per axis (z, y, x) and atom: the box of grid points it examines.
    at, q = atoms[:, :3].T, atoms[:, 3]
    lo = np.maximum(0, np.ceil((at - cutoff) / spacing).astype(np.int64))
    hi = np.minimum(np.array(grid_dim)[:, None] - 1,
                    np.floor((at + cutoff) / spacing).astype(np.int64))
    ext = np.maximum(hi - lo + 1, 0)
    meter.tally_each(np.maximum(ext.prod(axis=0) - 1, 0))

    block = max(1, _BULK_BUDGET // max(1, int(ext.max(axis=1).prod())))
    lengths = np.zeros(m, dtype=np.int64)
    idx_parts, s_parts = [], []
    for lo_i in range(0, m, block):
        sl = slice(lo_i, min(lo_i + block, m))
        bez, bey, bex = pad = [int(n) for n in ext[:, sl].max(axis=1)]
        if not all(pad):
            continue
        d2 = []  # each atom's box padded to the block's, the padding at inf
        for first, last, a, n in zip(lo[:, sl], hi[:, sl], at[:, sl], pad):
            k = first[:, None] + np.arange(n)
            d = (spacing * k - a[:, None]) ** 2
            d[k > last[:, None]] = np.inf
            d2.append(d)
        dz2, dy2, dx2 = d2
        r2 = (
            dz2[:, :, None, None] + dy2[:, None, :, None] + dx2[:, None, None, :]
        )
        inside = r2 < c2
        inside &= r2 > 0.0
        # Grid index = the atom's box corner + the point's offset in the box.
        pos = np.flatnonzero(inside)
        ai, off = np.divmod(pos, bez * bey * bex)
        r2in = r2.reshape(-1)[pos]
        r = np.sqrt(r2in)
        s = q[sl][ai] * (1.0 / r) * (1.0 - r2in / c2) ** 2
        corner = (lo[0, sl] * ny + lo[1, sl]) * nx + lo[2, sl]
        box = ((np.arange(bez)[:, None, None] * ny + np.arange(bey)[:, None]) * nx
               + np.arange(bex))
        idx_parts.append(corner[ai] + box.reshape(-1)[off])
        s_parts.append(s)
        lengths[sl] = np.bincount(ai, minlength=sl.stop - lo_i)
    if not idx_parts:
        return empty_out, lengths
    return (np.concatenate(idx_parts), np.concatenate(s_parts)), lengths

