"""Vectorized whole-population neighbour sweeps (numpy).

The scalar kernel (:meth:`repro.mobility.world.World.nodes_within`)
answers "who is near device d?" one device at a time.  At crowd scale
thousands of scans repeat that walk per topology version even though
positions only change at movement ticks.  This module answers the
question for *every* device in one shot: positions are batched into
float64 arrays, candidate pairs come from a dense cell-occupancy table
(bincount + cumsum + pure gathers), and one elementwise pass applies
the exact ``dx*dx + dy*dy <= radius*radius`` comparison every kernel
uses.  IEEE-754 arithmetic is deterministic elementwise, so the
listings are *bit-identical* to the scalar ones; the brute-force
referee lives in ``tests/oracles.py``.

:class:`repro.radio.medium.Medium` picks the kernel by roster size
(``VECTOR_SWEEP_MIN_DEVICES``), and takes the scalar kernel whenever
:func:`sweep_pairs` declines a batch whose dense cell table would
exceed ``_DENSE_CELL_CAP`` (a sparse population over a wide world).

The cell bucketing here is only a candidate generator: cell indexes
are derived with :func:`numpy.floor_divide`, whose rare edge rounding
may disagree with the grid's ``int(x // size)`` by one cell, so the
search reach carries one guard ring.  Candidates never affect output
— the exact distance mask does — so the guard ring costs a little
masking work and buys unconditional correctness.
"""

from __future__ import annotations

import math

import numpy as _np

#: Largest dense cell table :func:`sweep_pairs` builds; a batch whose
#: populated bounding box needs more cells is declined (``None``).
_DENSE_CELL_CAP = 1 << 22


def sweep_pairs(xs, ys, radius: float, cell_size: float):
    """All-pairs-within-``radius`` listings for one batch of positions.

    Args:
        xs: Device x coordinates, float64, in listing (id-sorted) order.
        ys: Device y coordinates, same order.
        radius: Radio range in metres (exact squared-distance cutoff).
        cell_size: Bucketing pitch for candidate generation; correctness
            holds for any positive value, speed is best near ``radius``.

    Returns:
        ``(starts, flat)`` where ``flat[starts[i]:starts[i + 1]]`` holds
        the indices of device ``i``'s in-range neighbours in ascending
        index order (self excluded).  Both are plain Python lists so
        callers never box numpy scalars on their hot path.  ``None``
        when the dense cell table would exceed ``_DENSE_CELL_CAP``.
    """
    n = xs.shape[0]
    if n == 0:
        return [0], []
    cx = _np.floor_divide(xs, cell_size).astype(_np.int64)
    cy = _np.floor_divide(ys, cell_size).astype(_np.int64)
    # +1 guard ring: floor_divide's edge rounding vs the grid's
    # ``int(x // size)`` can shift a cell index by one.
    reach = int(math.ceil(radius / cell_size)) + 1
    span = 2 * reach + 1
    # Dense cell-occupancy table over the populated bounding box, with
    # a ``reach``-wide empty margin so every offset lookup stays in
    # bounds without clipping.  World coordinates are clamped to the
    # world rect, so the table is small (bounds/cell_size per axis).
    min_cx = int(cx.min())
    min_cy = int(cy.min())
    ncy = int(cy.max()) - min_cy + 1 + 2 * reach
    ncx = int(cx.max()) - min_cx + 1 + 2 * reach
    if ncx * ncy > _DENSE_CELL_CAP:
        return None
    lin = (cx - (min_cx - reach)) * ncy + (cy - (min_cy - reach))
    # Stable sort by cell: within a cell, candidates keep ascending
    # device index, which *is* the scalar path's sorted-id order.
    order = _np.argsort(lin, kind="stable")
    cell_counts = _np.bincount(lin, minlength=ncx * ncy)
    cell_starts = _np.empty(ncx * ncy + 1, dtype=_np.int64)
    cell_starts[0] = 0
    _np.cumsum(cell_counts, out=cell_starts[1:])
    # One flat (span^2 * n) target array: every device crossed with
    # every cell offset, resolved by pure table gathers.
    deltas = (_np.arange(-reach, reach + 1) * ncy)[:, None] \
        + _np.arange(-reach, reach + 1)[None, :]
    targets = (lin[None, :] + deltas.reshape(-1, 1)).ravel()
    left = cell_starts[targets]
    counts = cell_starts[targets + 1]
    counts -= left
    # Most offset cells are empty (the guard ring especially); dropping
    # them before the repeat-expansion shrinks its input ~10x.
    occupied = counts > 0
    counts = counts[occupied]
    left = left[occupied]
    dev_base = _np.tile(_np.arange(n), span * span)[occupied]
    total = int(counts.sum())
    if total == 0:
        return [0] * (n + 1), []
    dev = _np.repeat(dev_base, counts)
    # Expand each [left_i, left_i + count_i) range into explicit
    # indexes: a global arange minus each element's start offset in
    # the output, plus its range start.
    group_starts = _np.cumsum(counts) - counts
    pos = (_np.arange(total)
           - _np.repeat(group_starts, counts)
           + _np.repeat(left, counts))
    cand = order[pos]
    dx = xs[cand] - xs[dev]
    dy = ys[cand] - ys[dev]
    d2 = dx * dx
    d2 += dy * dy
    mask = d2 <= radius * radius
    mask &= cand != dev
    # Sort surviving pairs device-major with neighbours ascending via
    # one composite int64 key (cand < n, so the packing is injective
    # and order-preserving) — cheaper than an indirect lexsort.
    combo = dev[mask]
    combo *= n
    combo += cand[mask]
    combo.sort()
    all_dev = combo // n
    all_nbr = combo
    all_nbr %= n
    counts = _np.bincount(all_dev, minlength=n)
    starts = _np.empty(n + 1, dtype=_np.int64)
    starts[0] = 0
    _np.cumsum(counts, out=starts[1:])
    return starts.tolist(), all_nbr.tolist()


def positions_array(nodes, ids):
    """Batch node positions into float64 arrays in ``ids`` order."""
    n = len(ids)
    xs = _np.empty(n, dtype=_np.float64)
    ys = _np.empty(n, dtype=_np.float64)
    for index, node_id in enumerate(ids):
        position = nodes[node_id].position
        xs[index] = position.x
        ys[index] = position.y
    return xs, ys
