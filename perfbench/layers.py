"""Layer map of the benchmark: what the traced run wraps and reports.

Each layer of the program is measured at its public entry points, from
the outside, by :class:`tracer.Tracer` patches.  One wrapped entry point
is not public, because the work it stands for has no public one: the
world's movement tick ``World._advance``, which moves every walker
(``World.move_node`` only serves teleports).  A renamed entry point
makes the traced run fail instead of silently dropping its layer.

Every per-layer metric is normalised per completed operation of the
workload (its ``op`` is defined in :mod:`workloads`), so a faster run,
which completes more operations in the same seconds, does not look like
more work.  ``LAYER_MAP`` records which end-to-end metric each layer
should move, and on which workload; ``python3 perfbench/run.py
--layers`` prints it.
"""

from __future__ import annotations

import sys
from typing import Any

from tracer import Tracer

#: Span names per layer; a layer's self time is the sum over its spans.
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "simenv": ("simenv.run", "simenv.step"),
    "mobility.move": ("mobility.tick", "mobility.move_node"),
    "mobility.query": ("mobility.nodes_within",),
    "radio.neighbors": ("radio.neighbors",),
    "radio.reachable": ("radio.reachable",),
    "radio.sweep": ("radio.sweep_pairs",),
    "peerhood.scan": ("peerhood.discover",),
    "peerhood.connect": ("peerhood.connect",),
    "net.send": ("net.send",),
    "net.encode": ("net.serialize_into",),
    "net.decode": ("net.deserialize",),
    "net.feed": ("net.feed",),
    "community.handle": ("community.handle_request",),
    "community.client": ("community.client",),
    "shard.run": ("shard.run",),
}

#: Every per-layer metric: name -> (unit, better).  The order is the
#: order of BENCHMARK.json's ``per_layer`` list.
PER_LAYER: dict[str, tuple[str, str]] = {
    "simenv.events": ("1/op", "lower"),
    "simenv.self_s": ("s/op", "lower"),
    "mobility.moves": ("1/op", "lower"),
    "mobility.move_s": ("s/op", "lower"),
    "mobility.queries": ("1/op", "lower"),
    "mobility.query_s": ("s/op", "lower"),
    "radio.neighbor_queries": ("1/op", "lower"),
    "radio.neighbor_s": ("s/op", "lower"),
    "radio.reachable_calls": ("1/op", "lower"),
    "radio.reachable_s": ("s/op", "lower"),
    "radio.sweeps": ("1/op", "lower"),
    "radio.sweep_s": ("s/op", "lower"),
    "radio.sweeps_per_query": ("ratio", "lower"),
    "peerhood.scans": ("1/op", "lower"),
    "peerhood.scan_s": ("s/op", "lower"),
    "peerhood.connects": ("1/op", "lower"),
    "peerhood.connect_s": ("s/op", "lower"),
    "net.sends": ("1/op", "lower"),
    "net.send_bytes": ("B/op", "lower"),
    "net.send_s": ("s/op", "lower"),
    "net.retries": ("1/op", "lower"),
    "net.giveups": ("1/op", "lower"),
    "net.encodes": ("1/op", "lower"),
    "net.encode_s": ("s/op", "lower"),
    "net.decode_s": ("s/op", "lower"),
    "net.frames": ("1/op", "lower"),
    "net.feed_s": ("s/op", "lower"),
    "net.pool_reuse_ratio": ("ratio", "higher"),
    "net.frame_errors": ("1/op", "lower"),
    "community.requests": ("1/op", "lower"),
    "community.bad_requests": ("1/op", "lower"),
    "community.handle_s": ("s/op", "lower"),
    "community.client_s": ("s/op", "lower"),
    "community.probes": ("1/op", "lower"),
    "community.probe_match_ratio": ("ratio", "higher"),
    "shard.windows": ("1/op", "lower"),
    "shard.critical_path_s": ("s/op", "lower"),
    "shard.coord_s": ("s/op", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    "shard.tiles_migrated": ("1/op", "lower"),
    "shard.migrations": ("1/op", "lower"),
    "shard.ghost_peak": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.uncovered_pct": ("%", "lower"),
}

#: layer -> (metrics, end-to-end metric it should move, workloads).
LAYER_MAP: dict[str, tuple[tuple[str, ...], str, str]] = {
    "simenv": (("simenv.events", "simenv.self_s"), "ops_per_ref_s",
               "crowd_discovery, ps_session (zero on ps_tcp)"),
    "mobility": (("mobility.moves", "mobility.move_s", "mobility.queries",
                  "mobility.query_s"), "ops_per_ref_s", "crowd_discovery"),
    "radio": (("radio.neighbor_queries", "radio.neighbor_s",
               "radio.reachable_calls", "radio.reachable_s", "radio.sweeps",
               "radio.sweep_s", "radio.sweeps_per_query"), "ops_per_ref_s",
              "crowd_discovery (little on ps_session, none on ps_tcp)"),
    "peerhood": (("peerhood.scans", "peerhood.scan_s", "peerhood.connects",
                  "peerhood.connect_s"), "ops_per_ref_s",
                 "scans: crowd_discovery; connects: ps_session"),
    "net (sim)": (("net.sends", "net.send_bytes", "net.send_s",
                   "net.retries", "net.giveups"), "ops_per_ref_s",
                  "ps_session"),
    "net (wire)": (("net.encodes", "net.encode_s", "net.decode_s",
                    "net.frames", "net.feed_s", "net.pool_reuse_ratio",
                    "net.frame_errors"), "ops_per_ref_s (and op_p50_us)",
                   "ps_tcp"),
    "community": (("community.requests", "community.bad_requests",
                   "community.handle_s", "community.client_s"),
                  "ops_per_ref_s (and op_p50_us)", "ps_tcp, ps_session"),
    "community (Fig. 6)": (("community.probes",
                            "community.probe_match_ratio"), "ops_per_ref_s",
                           "crowd_discovery"),
    "shard": (("shard.windows", "shard.critical_path_s", "shard.coord_s",
               "shard.imbalance", "shard.tiles_migrated", "shard.migrations",
               "shard.ghost_peak"), "ops_per_ref_s", "shard_crowd"),
}


def _count_bytes(tracer: Tracer, args: tuple, _result: Any) -> None:
    # Medium.record_transfer(self, device_id, technology_name, nbytes)
    tracer.counts["net.send_bytes"] += args[3]


def _count_frames(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.counts["net.frames"] += len(result)


def _count_bad(tracer: Tracer, _args: tuple, result: Any) -> None:
    from repro.community import protocol
    if result.get("status") == protocol.BAD_REQUEST:
        tracer.counts["community.bad_requests"] += 1


def _patch_function_everywhere(tracer: Tracer, module: Any, attr: str,
                               name: str) -> None:
    """Wrap a module-level function and every ``from x import f`` alias
    of it in the program's already-imported modules."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attr, None) is original):
            tracer.patch(loaded, attr, name)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Patch every layer entry point of the program into ``tracer``."""
    import repro.community.client as client
    import repro.community.filetransfer as filetransfer
    import repro.community.server as server
    import repro.mobility.world as world
    import repro.net.connection as connection
    import repro.net.framing as framing
    import repro.net.messages as messages
    import repro.net.tcp  # noqa: F401 - imported so its aliases get patched
    import repro.peerhood.daemon as daemon
    import repro.peerhood.plugins as plugins
    import repro.radio.medium as medium
    import repro.radio.sweep as sweep
    import repro.shard.runner as runner
    import repro.simenv.environment as environment

    tracer.patch(environment.Environment, "run", "simenv.run")
    tracer.patch(environment.Environment, "step", "simenv.step")
    tracer.patch(world.World, "_advance", "mobility.tick")
    tracer.patch(world.World, "move_node", "mobility.move_node")
    tracer.patch(world.World, "nodes_within", "mobility.nodes_within")
    tracer.patch(medium.Medium, "neighbors", "radio.neighbors")
    tracer.patch(medium.Medium, "reachable", "radio.reachable")
    tracer.count_only(medium.Medium, "record_transfer", _count_bytes)
    tracer.patch(sweep, "sweep_pairs", "radio.sweep_pairs")
    for cls in _subclasses(plugins.Plugin):
        if "discover" in cls.__dict__:
            tracer.patch(cls, "discover", "peerhood.discover")
    tracer.patch(daemon.PeerHoodDaemon, "connect", "peerhood.connect")
    tracer.patch(connection.Connection, "send", "net.send")
    _patch_function_everywhere(tracer, messages, "serialize_into",
                               "net.serialize_into")
    _patch_function_everywhere(tracer, messages, "deserialize",
                               "net.deserialize")
    tracer.patch(framing.FrameDecoder, "feed", "net.feed",
                 on_result=_count_frames)
    tracer.patch(server.CommunityService, "handle_request",
                 "community.handle_request", on_result=_count_bad)
    for op in ("get_online_members", "get_interest_list",
               "get_interested_members", "view_profile",
               "put_profile_comment", "view_trusted_friends",
               "view_shared_content", "browse_shared_content",
               "send_message", "request_trust", "check_member_location"):
        tracer.patch(client.CommunityClient, op, "community.client")
    tracer.patch(filetransfer.FileDownloader, "download", "community.client")
    tracer.patch(runner.ShardedRunner, "run", "shard.run")


def _self(tracer: Tracer, layer: str) -> float:
    return sum(tracer.self_s.get(name, 0.0) for name in LAYER_SPANS[layer])


def _calls(tracer: Tracer, layer: str) -> int:
    return sum(tracer.calls.get(name, 0) for name in LAYER_SPANS[layer])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, ops: int, wall_s: float,
                      counters: dict[str, float],
                      shard: dict[str, float] | None = None,
                      ) -> dict[str, float]:
    """Per-op layer metrics of one traced run.

    ``counters`` holds deltas of the program's own public counters over
    the timed region (``simenv.events``, ``mobility.moves``,
    ``community.probes``, ``community.probes_matched``,
    ``net.retries``, ``net.giveups``, ``net.pool_checkouts``,
    ``net.pool_reuses``, ``net.frame_errors``); ``shard`` holds the
    per-run medians of the :class:`ShardedResult` figures.  The two
    ``trace.*`` metrics are filled in by the caller, which alone sees
    the untraced run.
    """
    def per_op(value: float) -> float:
        return _ratio(value, ops)

    neighbor_queries = _calls(tracer, "radio.neighbors")
    sweeps = _calls(tracer, "radio.sweep")
    shard = shard or {}
    values = {
        "simenv.events": per_op(counters.get("simenv.events", 0)),
        "simenv.self_s": per_op(_self(tracer, "simenv")),
        "mobility.moves": per_op(counters.get("mobility.moves", 0)),
        "mobility.move_s": per_op(_self(tracer, "mobility.move")),
        "mobility.queries": per_op(_calls(tracer, "mobility.query")),
        "mobility.query_s": per_op(_self(tracer, "mobility.query")),
        "radio.neighbor_queries": per_op(neighbor_queries),
        "radio.neighbor_s": per_op(_self(tracer, "radio.neighbors")),
        "radio.reachable_calls": per_op(_calls(tracer, "radio.reachable")),
        "radio.reachable_s": per_op(_self(tracer, "radio.reachable")),
        "radio.sweeps": per_op(sweeps),
        "radio.sweep_s": per_op(_self(tracer, "radio.sweep")),
        "radio.sweeps_per_query": _ratio(sweeps, neighbor_queries),
        "peerhood.scans": per_op(_calls(tracer, "peerhood.scan")),
        "peerhood.scan_s": per_op(_self(tracer, "peerhood.scan")),
        "peerhood.connects": per_op(_calls(tracer, "peerhood.connect")),
        "peerhood.connect_s": per_op(_self(tracer, "peerhood.connect")),
        "net.sends": per_op(_calls(tracer, "net.send")),
        "net.send_bytes": per_op(tracer.counts.get("net.send_bytes", 0)),
        "net.send_s": per_op(_self(tracer, "net.send")),
        "net.retries": per_op(counters.get("net.retries", 0)),
        "net.giveups": per_op(counters.get("net.giveups", 0)),
        "net.encodes": per_op(_calls(tracer, "net.encode")),
        "net.encode_s": per_op(_self(tracer, "net.encode")),
        "net.decode_s": per_op(_self(tracer, "net.decode")),
        "net.frames": per_op(tracer.counts.get("net.frames", 0)),
        "net.feed_s": per_op(_self(tracer, "net.feed")),
        "net.pool_reuse_ratio": _ratio(counters.get("net.pool_reuses", 0),
                                       counters.get("net.pool_checkouts", 0)),
        "net.frame_errors": per_op(counters.get("net.frame_errors", 0)),
        "community.requests": per_op(_calls(tracer, "community.handle")),
        "community.bad_requests": per_op(
            tracer.counts.get("community.bad_requests", 0)),
        "community.handle_s": per_op(_self(tracer, "community.handle")),
        "community.client_s": per_op(_self(tracer, "community.client")),
        "community.probes": per_op(counters.get("community.probes", 0)),
        "community.probe_match_ratio": _ratio(
            counters.get("community.probes_matched", 0),
            counters.get("community.probes", 0)),
        "shard.windows": shard.get("windows", 0.0),
        "shard.critical_path_s": shard.get("critical_path_s", 0.0),
        "shard.coord_s": shard.get("coord_s", 0.0),
        "shard.imbalance": shard.get("imbalance", 0.0),
        "shard.tiles_migrated": shard.get("tiles_migrated", 0.0),
        "shard.migrations": shard.get("migrations", 0.0),
        "shard.ghost_peak": shard.get("ghost_peak", 0.0),
        "trace.overhead_pct": 0.0,
        "trace.uncovered_pct": 100.0 * max(0.0, 1.0 - _ratio(
            tracer.covered_s, wall_s)),
    }
    missing = set(PER_LAYER) - set(values)
    if missing:  # pragma: no cover - keeps the two tables in step
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return values
