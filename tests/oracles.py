"""Brute-force referee for every neighbour kernel.

``reference_neighbors`` is an O(n^2) all-pairs scan with no grid, no
cache and no numpy.  The scalar kernel (``World.nodes_within``), the
sweep kernel (``sweep_pairs``) and the medium's ``neighbors`` and
``reachable`` are all refereed against it, so none of them is checked
against another kernel that could share its fault.
"""

from __future__ import annotations

from collections.abc import Sequence


def reference_neighbors(xs: Sequence[float], ys: Sequence[float],
                        radius: float) -> list[list[int]]:
    """Per point ``i``, the ascending indices ``j != i`` in range.

    "In range" is the medium's one predicate,
    ``dx*dx + dy*dy <= radius*radius``, in plain Python floats.
    """
    radius_sq = radius * radius
    points = [(float(x), float(y)) for x, y in zip(xs, ys, strict=True)]
    listings = []
    for i, (xi, yi) in enumerate(points):
        listings.append([
            j for j, (xj, yj) in enumerate(points)
            if j != i and (xj - xi) * (xj - xi) + (yj - yi) * (yj - yi)
            <= radius_sq])
    return listings


def expected_listings(world, medium, technology) -> dict[str, list[str]]:
    """What ``medium.neighbors`` must return for every node in ``world``.

    The oracle's in-range set, filtered by adapter power: a device with
    no powered adapter sees nobody and is seen by nobody.
    """
    ids = sorted(node.node_id for node in world)
    positions = [world.node(node_id).position for node_id in ids]
    in_range = reference_neighbors([p.x for p in positions],
                                   [p.y for p in positions],
                                   technology.range_m)

    def powered(node_id: str) -> bool:
        adapter = medium.adapter(node_id, technology.name)
        return adapter is not None and adapter.enabled

    return {a: [ids[j] for j in in_range[i] if powered(ids[j])]
            if powered(a) else []
            for i, a in enumerate(ids)}
