"""Both neighbour kernels vs the brute-force oracle.

The medium serves local-radio listings from the scalar kernel
(``World.nodes_within`` per device) below ``Medium._vector_min`` devices
and from the numpy whole-population sweep (:mod:`repro.radio.sweep`)
at or above it.  Each test forces a kernel through that attribute and
referees it against ``tests/oracles.py``: same neighbours, same order,
across arbitrary interleavings of moves, adapter toggles and detaches.
The ``sweep_pairs`` kernel itself is refereed the same way.
"""

from __future__ import annotations

import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point, Rect
from repro.mobility.world import World
from repro.radio import sweep
from repro.radio.medium import Medium, VECTOR_SWEEP_MIN_DEVICES
from repro.radio.standards import BLUETOOTH, WLAN
from repro.simenv import Environment
from tests.oracles import expected_listings, reference_neighbors

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
NODE_IDS = tuple(f"n{i:02d}" for i in range(12))
TECHNOLOGIES = (BLUETOOTH, WLAN)
#: ``Medium._vector_min`` values that force each kernel.
SWEEP, SCALAR = 1, 1 << 30

coords = st.floats(min_value=0.0, max_value=300.0,
                   allow_nan=False, allow_infinity=False)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("move"), st.sampled_from(NODE_IDS), coords, coords),
        st.tuples(st.just("toggle"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
        st.tuples(st.just("detach"), st.sampled_from(NODE_IDS),
                  st.sampled_from([t.name for t in TECHNOLOGIES])),
    ),
    min_size=1, max_size=25)


def _build(vector_min: int = VECTOR_SWEEP_MIN_DEVICES,
           seed: int = 3) -> tuple[World, Medium]:
    world = World(Environment(seed=7), bounds=BOUNDS)
    medium = Medium(world)
    medium._vector_min = vector_min
    rng = random.Random(seed)
    with world.batch():
        for node_id in NODE_IDS:
            world.add_node(node_id, Point(rng.uniform(0, 300),
                                          rng.uniform(0, 300)))
            for technology in TECHNOLOGIES:
                medium.attach(node_id, technology)
    return world, medium


def _assert_matches_oracle(world: World, medium: Medium) -> None:
    for technology in TECHNOLOGIES:
        expected = expected_listings(world, medium, technology)
        for node_id in NODE_IDS:
            assert medium.neighbors(node_id, technology.name) \
                == expected[node_id]


@pytest.fixture
def sweeps(monkeypatch) -> list[int]:
    """Counts ``sweep_pairs`` calls (the batch size of each)."""
    calls: list[int] = []
    real = sweep.sweep_pairs

    def counting(xs, ys, radius, cell_size):
        calls.append(len(xs))
        return real(xs, ys, radius, cell_size)

    monkeypatch.setattr(sweep, "sweep_pairs", counting)
    return calls


class TestEscapeHatch:
    """Roster size against ``Medium._vector_min`` picks the kernel;
    tests move the threshold to force one."""

    def test_scalar_medium_never_sweeps(self, sweeps):
        world, medium = _build(SCALAR)
        _assert_matches_oracle(world, medium)
        assert sweeps == []

    def test_threshold_gates_small_populations(self, sweeps):
        world, medium = _build()
        assert len(NODE_IDS) < VECTOR_SWEEP_MIN_DEVICES
        _assert_matches_oracle(world, medium)
        # Below the threshold the scalar path serves everything.
        assert sweeps == []

    def test_auto_enables_at_threshold(self, sweeps):
        world, medium = _build(len(NODE_IDS))
        _assert_matches_oracle(world, medium)
        # At or above the threshold each local technology is served by
        # one whole-population sweep per topology version.
        assert sweeps == [len(NODE_IDS)] * len(TECHNOLOGIES)


class TestLockstep:
    """Each kernel, the oracle, identical operation streams."""

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_arbitrary_interleavings_identical(self, ops):
        for vector_min in (SWEEP, SCALAR):
            world, medium = _build(vector_min)
            _assert_matches_oracle(world, medium)
            for kind, node_id, *rest in ops:
                if kind == "move":
                    world.move_node(node_id, Point(*rest))
                else:
                    adapter = medium.adapter(node_id, rest[0])
                    if adapter is None:
                        continue  # already detached
                    if kind == "toggle":
                        adapter.enabled = not adapter.enabled
                    else:
                        medium.detach(node_id, rest[0])
                _assert_matches_oracle(world, medium)

    def test_repeat_reads_are_cached_spans(self, sweeps):
        world, medium = _build(SWEEP)
        _assert_matches_oracle(world, medium)
        assert sweeps  # the vector path actually ran
        done = len(sweeps)
        _assert_matches_oracle(world, medium)
        assert len(sweeps) == done  # no topology change: no re-sweep


class TestDenseCap:
    """A roster too sparse for the dense cell table takes the scalar
    kernel instead of failing."""

    def test_sparse_wide_world_takes_scalar_kernel(self):
        count = VECTOR_SWEEP_MIN_DEVICES
        world = World(Environment(seed=7),
                      bounds=Rect(0.0, 0.0, 60000.0, 60000.0))
        medium = Medium(world)
        rng = random.Random(11)
        ids = [f"s{i:03d}" for i in range(count)]
        with world.batch():
            for node_id in ids:
                world.add_node(node_id, Point(rng.uniform(0, 60000),
                                              rng.uniform(0, 60000)))
                medium.attach(node_id, BLUETOOTH)
        # Pin a few pairs inside radio range so the listings are not
        # all empty.
        for i in range(0, 8, 2):
            anchor = world.node(ids[i]).position
            world.move_node(ids[i + 1], Point(anchor.x + 3.0, anchor.y))
        positions = [world.node(node_id).position for node_id in ids]
        xs = numpy.array([p.x for p in positions])
        ys = numpy.array([p.y for p in positions])
        assert sweep.sweep_pairs(xs, ys, BLUETOOTH.range_m,
                                 world.grid.cell_size) is None
        expected = expected_listings(world, medium, BLUETOOTH)
        assert any(expected.values())
        for node_id in ids:
            assert medium.neighbors(node_id, "bluetooth") == expected[node_id]


class TestSweepKernel:
    """sweep_pairs against the brute-force O(n^2) oracle."""

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(coords, coords),
                           min_size=1, max_size=40),
           radius=st.floats(min_value=0.5, max_value=120.0,
                            allow_nan=False, allow_infinity=False),
           cell_size=st.floats(min_value=1.0, max_value=80.0,
                               allow_nan=False, allow_infinity=False))
    def test_matches_brute_force(self, points, radius, cell_size):
        xs = numpy.array([x for x, _ in points], dtype=numpy.float64)
        ys = numpy.array([y for _, y in points], dtype=numpy.float64)
        starts, flat = sweep.sweep_pairs(xs, ys, radius, cell_size)
        expected = reference_neighbors(xs, ys, radius)
        assert len(starts) == len(points) + 1
        for i, listing in enumerate(expected):
            assert flat[starts[i]:starts[i + 1]] == listing

    def test_empty_population(self):
        starts, flat = sweep.sweep_pairs(
            numpy.empty(0), numpy.empty(0), 10.0, 25.0)
        assert starts == [0]
        assert flat == []

    def test_positions_array_order(self):
        world = World(Environment(), bounds=BOUNDS)
        world.add_node("b", Point(1.0, 2.0))
        world.add_node("a", Point(3.0, 4.0))
        nodes = {node.node_id: node for node in world}
        xs, ys = sweep.positions_array(nodes, ["a", "b"])
        assert list(xs) == [3.0, 1.0]
        assert list(ys) == [4.0, 2.0]
