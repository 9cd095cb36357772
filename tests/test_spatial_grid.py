"""Grid-backed world and caching medium vs the brute-force oracle.

The grid-backed ``World.nodes_within`` and the medium's cached
``neighbors`` and ``reachable`` must agree *exactly* with the O(N^2)
referee in ``tests/oracles.py``, filtered by adapter power: same
members, same order, across arbitrary interleavings of placements,
moves, removals and adapter power toggles.  The hypothesis machine
below drives one world and medium through an operation stream and
compares every observable with the oracle after every operation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.grid import SpatialGrid
from repro.mobility.world import World
from repro.radio.medium import Medium
from repro.radio.standards import BLUETOOTH, WLAN
from repro.simenv import Environment
from tests.oracles import expected_listings, reference_neighbors

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
NODE_IDS = tuple(f"n{i}" for i in range(8))
TECHNOLOGIES = (BLUETOOTH, WLAN)

coords = st.floats(min_value=0.0, max_value=300.0,
                   allow_nan=False, allow_infinity=False)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("move"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("remove"), st.sampled_from(NODE_IDS)),
        st.tuples(st.just("toggle"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
    ),
    min_size=1, max_size=30)


def _apply(world: World, medium: Medium, op: tuple) -> None:
    kind, node_id = op[0], op[1]
    if kind == "add":
        if node_id not in world:
            world.add_node(node_id, Point(op[2], op[3]))
            for technology in TECHNOLOGIES:
                medium.attach(node_id, technology)
    elif node_id not in world:
        return
    elif kind == "move":
        world.move_node(node_id, Point(op[2], op[3]))
    elif kind == "remove":
        for technology in TECHNOLOGIES:
            medium.detach(node_id, technology.name)
        world.remove_node(node_id)
    else:  # toggle
        adapter = medium.adapter(node_id, op[2])
        adapter.enabled = not adapter.enabled


def _check_against_oracle(world: World, medium: Medium) -> None:
    ids = sorted(node.node_id for node in world)
    xs = [world.node(node_id).position.x for node_id in ids]
    ys = [world.node(node_id).position.y for node_id in ids]
    for radius in (10.0, 60.0, 150.0):
        expected = reference_neighbors(xs, ys, radius)
        for i, node_id in enumerate(ids):
            assert [node.node_id for node in world.nodes_within(node_id, radius)] \
                == [ids[j] for j in expected[i]]
    for technology in TECHNOLOGIES:
        name = technology.name
        expected = expected_listings(world, medium, technology)
        for a in ids:
            assert medium.neighbors(a, name) == expected[a]
            for b in ids:
                assert medium.reachable(a, b, name) is (b in expected[a])


@settings(deadline=None, max_examples=60)
@given(ops=operations)
# A power toggle must drop the device from its neighbour's cached
# listing, and powering back on must restore it.
@example(ops=[("add", "n0", 10.0, 10.0), ("add", "n1", 15.0, 10.0),
              ("toggle", "n1", "bluetooth"), ("toggle", "n1", "bluetooth")])
def test_grid_and_incremental_match_brute_force_oracle(ops) -> None:
    """Grid queries and the medium's caches are observationally
    identical to the O(N^2) oracle."""
    world = World(Environment(seed=7), bounds=BOUNDS)
    medium = Medium(world)
    for op in ops:
        _apply(world, medium, op)
        _check_against_oracle(world, medium)


def test_stamp_detects_cover_shift_despite_equal_epoch_sums() -> None:
    """A moved query centre must never validate a stale listing.

    The disc around n0 shifts one cell right (60 m cells once WLAN
    attaches) after equal churn in the cell its cover drops and the
    cell it gains.  A cache keyed on per-cell change counts summed over
    the cover would see equal sums across the shift and keep the
    listing taken at the old centre; the medium must drop it.
    """
    world = World(Environment(seed=7), bounds=BOUNDS)
    medium = Medium(world)
    for op in [("add", "n0", 65.0, 5.0), ("add", "n1", 20.0, 5.0)]:
        _apply(world, medium, op)
    assert medium.neighbors("n0", "wlan") == ["n1"]  # 45 m apart
    for op in [("add", "n2", 5.0, 5.0), ("remove", "n2"),
               ("add", "n3", 185.0, 5.0), ("remove", "n3"),
               ("move", "n0", 125.0, 5.0)]:
        _apply(world, medium, op)
        _check_against_oracle(world, medium)
    assert medium.neighbors("n0", "wlan") == []  # now 105 m apart


# -- SpatialGrid unit properties ----------------------------------------------


@settings(deadline=None, max_examples=60)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
       center=st.tuples(coords, coords),
       radius=st.floats(min_value=1.0, max_value=150.0))
def test_candidates_is_a_superset_of_the_disc(points, center, radius) -> None:
    """Grid candidate lists may over-approximate but never miss."""
    grid = SpatialGrid(25.0)
    for index, (x, y) in enumerate(points):
        grid.insert(f"p{index}", Point(x, y))
    cx, cy = center
    candidates = set(grid.candidates(Point(cx, cy), radius))
    for index, (x, y) in enumerate(points):
        if math.hypot(x - cx, y - cy) <= radius:
            assert f"p{index}" in candidates


# -- incremental invalidation regressions -------------------------------------


@pytest.fixture
def crowded():
    env = Environment(seed=3)
    world = World(env, bounds=BOUNDS)
    medium = Medium(world)
    for i in range(6):
        node_id = f"d{i}"
        world.add_node(node_id, Point(30.0 * i + 5.0, 40.0))
        medium.attach(node_id, BLUETOOTH)
        medium.attach(node_id, WLAN)
    return env, world, medium


def test_no_movement_preserves_stamps_and_caches(crowded) -> None:
    """A tick in which nobody moved must leave memoized state intact."""
    env, world, medium = crowded
    listings = {d: medium.neighbors(d, "wlan") for d in ("d0", "d3")}
    version = medium._topology_version
    cached = dict(medium._neighbors_cache)
    verdicts = dict(medium._reachable_cache)
    env.run(until=env.now + 2.0)  # several world ticks, all stationary
    assert medium._topology_version == version
    for d in ("d0", "d3"):
        assert medium.neighbors(d, "wlan") == listings[d]
    assert medium._neighbors_cache == cached
    assert medium._reachable_cache == verdicts


def test_single_mover_evicts_only_its_own_pairs(crowded) -> None:
    """Moving one node drops exactly that node's cached verdicts."""
    env, world, medium = crowded
    for a in ("d0", "d1", "d4", "d5"):
        for b in ("d0", "d1", "d4", "d5"):
            medium.reachable(a, b, "wlan")
    survivor_keys = [key for key in medium._reachable_cache
                     if "d5" not in key]
    assert survivor_keys, "need unrelated cached verdicts for the test"
    world.move_node("d5", Point(200.0, 200.0))
    for key in survivor_keys:
        assert key in medium._reachable_cache, \
            f"verdict {key} wrongly evicted by an unrelated move"
    assert not any("d5" in key for key in medium._reachable_cache), \
        "the mover's own verdicts must be dropped"


def test_adapter_toggle_touches_only_that_device(crowded) -> None:
    """Power-toggling one radio invalidates only that device's pairs."""
    env, world, medium = crowded
    for a in ("d0", "d1"):
        for b in ("d0", "d1"):
            medium.reachable(a, b, "wlan")
    unrelated = [key for key in medium._reachable_cache
                 if "d5" not in key]
    medium.adapter("d5", "wlan").enabled = False
    for key in unrelated:
        assert key in medium._reachable_cache
    assert medium.reachable("d4", "d5", "wlan") is False
    medium.adapter("d5", "wlan").enabled = True
    assert medium.reachable("d4", "d5", "wlan") is True


def test_batch_coalesces_to_one_report() -> None:
    """Bulk population inside world.batch() fires one merged report."""
    env = Environment(seed=1)
    world = World(env, bounds=BOUNDS)
    reports = []
    world.on_moves(reports.append)
    with world.batch():
        for i in range(10):
            world.add_node(f"b{i}", Point(10.0 * i, 10.0))
        world.move_node("b3", Point(35.0, 12.0))
        world.remove_node("b9")
        assert reports == []
    assert len(reports) == 1
    report = reports[0]
    assert report.added == tuple(f"b{i}" for i in range(10))
    assert report.moved == ("b3",)
    assert report.removed == ("b9",)
    with world.batch():
        pass  # nothing changed: listeners must stay silent
    assert len(reports) == 1
