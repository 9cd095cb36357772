"""The four benchmark workloads, driven through public entry points only.

Each workload builds its inputs from the seed (``setup``), advances
them to a steady state (``warm``, timed apart from both), runs closed
loop operations for a number of host seconds (``measure``) and checks
the outputs afterwards (``check``).  An *operation* ("op") is what a
user of that part of the system waits for:

* ``crowd_discovery``: one simulated second of the 1024-member crowd;
* ``ps_session``: one PS_* client operation (``Testbed.execute``);
* ``ps_tcp``: one PS_* request/reply over a loopback TCP connection;
* ``shard_crowd``: one whole sharded run of one of the run's eight
  4096-device crowds, taken in turn.

Importing this module imports the program (``repro``); a checkout
without it fails here.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.community import protocol
from repro.community.exchanges import (CLIENT_MEMBER, SERVER_MEMBER,
                                       build_server_store)
from repro.community.filetransfer import PS_GETFILECHUNK, TransferProgress
from repro.community.server import CommunityService
from repro.eval.metrics import fault_retry_summary
from repro.eval.table8 import PAPER_TABLE8, run_table8
from repro.eval.testbed import Testbed
from repro.eval.workloads import crowd_bounds, populate_crowd
from repro.net.buffers import frame_pool
from repro.net.tcp import TcpServer, dial
from repro.shard.equivalence import interaction_digests
from repro.shard.runner import ShardedResult, ShardedRunner, clustered_workload

Progress = Callable[[int], None]


@dataclass
class Measurement:
    """What one timed region produced."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Host seconds of each completed op (an array, so a long run's
    #: samples do not show up as the benchmark's own memory growth).
    latencies_s: array = field(default_factory=lambda: array("d"))
    #: Outcome digest of a fixed prefix of the run (``None`` where the
    #: outcome is not a deterministic simulation).
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    #: Workload-specific figures for the human-readable report.
    extras: dict[str, float] = field(default_factory=dict)
    #: Per-run medians of the ShardedResult figures (shard_crowd only).
    shard: dict[str, float] | None = None


def _sha(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()).hexdigest()


def _testbed_counters(bed: Testbed) -> dict[str, float]:
    """The public counters of a testbed that per-layer metrics use."""
    apps = [member.app for member in bed.members.values()]
    probes = [record for app in apps for record in app.engine.probe_log]
    summary = fault_retry_summary(apps)
    return {"simenv.events": bed.env.events_processed,
            "community.probes": len(probes),
            "community.probes_matched": sum(1 for record in probes
                                            if record.matched),
            "net.retries": (summary["client"]["retries"]
                            + summary["transfer"]["retries"]),
            "net.giveups": (summary["client"]["giveups"]
                            + summary["transfer"]["giveups"])}


def _forget_trace(bed: Testbed) -> None:
    """Drop the message sequence chart recorded so far (between ops,
    untimed).  The testbed records every PS_* message and discovery
    action for its MSC figures; kept for a whole run, that record grows
    with the number of ops completed (about 4 KB per ``ps_session`` op),
    so a faster run would read as a larger peak memory, and the
    collector's full passes would get slower as the run goes on.  The
    recording itself still happens inside every timed op."""
    bed.recorder.clear()


class Workload:
    """Interface every workload implements."""

    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def warm(self, state: Any) -> None:
        """Advance the built state to where the timed region starts (a
        simulated warm-up); timed apart from set-up and measurement."""

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` built."""

    def enable_counting(self, state: Any) -> None:
        """Attach read-only counters (traced run only)."""

    def counters(self, state: Any) -> dict[str, float]:
        """Current values of the program's public counters."""
        return {}

    def measure(self, state: Any, seconds: float,
                progress: Progress) -> Measurement:
        raise NotImplementedError

    def check(self, state: Any, result: Measurement) -> None:
        """Verify outputs after the timed region; records problems and
        counts wrong operations as failed."""


# -- crowd_discovery ----------------------------------------------------------


class CrowdDiscovery(Workload):
    name = "crowd_discovery"
    members = 1024
    warmup_s = 10.0
    step_s = 1.0
    #: The membership digest is taken after this many timed steps.
    checkpoint_ops = 5

    def setup(self, seed: int) -> dict:
        bed = Testbed(seed=seed, bounds=crowd_bounds(self.members),
                      scan_interval=1.0)
        populate_crowd(bed, self.members, shared_interest="music")
        return {"bed": bed, "moves": 0}

    def warm(self, state: dict) -> None:
        state["bed"].run(self.warmup_s)

    def teardown(self, state: dict) -> None:
        state["bed"].stop()

    def enable_counting(self, state: dict) -> None:
        def count(report) -> None:
            state["moves"] += len(report.moved)
        state["bed"].world.on_moves(count)

    def counters(self, state: dict) -> dict[str, float]:
        return {**_testbed_counters(state["bed"]),
                "mobility.moves": state["moves"]}

    @staticmethod
    def membership_digest(bed: Testbed) -> str:
        """Digest of every member's groups and their member lists."""
        view = {}
        for name, member in sorted(bed.members.items()):
            app = member.app
            view[name] = [app.my_groups(),
                          {group: app.group_members(group)
                           for group in app.groups()}]
        return _sha(view)

    def measure(self, state: dict, seconds: float,
                progress: Progress) -> Measurement:
        bed = state["bed"]
        result = Measurement()
        clock = time.perf_counter
        excluded = 0.0
        start = clock()
        deadline = start + seconds
        while result.ops < self.checkpoint_ops or clock() < deadline:
            began = clock()
            result.ops += 1
            try:
                bed.run(self.step_s)
            except Exception as exc:  # noqa: BLE001 - reported, run stops
                result.failed += 1
                result.problems.append(f"step {result.ops}: {exc!r}")
                break
            ended = clock()
            result.latencies_s.append(ended - began)
            progress(result.ops)
            _forget_trace(bed)
            if result.ops == self.checkpoint_ops:
                result.digest = self.membership_digest(bed)
            excluded += clock() - ended
        result.wall_s = clock() - start - excluded
        done = len(result.latencies_s)
        result.extras["device_sim_s_per_s"] = (
            self.members * self.step_s * done / result.wall_s)
        return result

    def check(self, state: dict, result: Measurement) -> None:
        bed = state["bed"]
        interests = {}
        for name, member in bed.members.items():
            profile = member.app.profile
            interests[name] = set(profile.interests.as_list()) \
                if profile is not None else set()
        in_music = 0
        for name, member in bed.members.items():
            app = member.app
            canonical = app.engine.matcher.canonical
            for group in app.groups():
                for other in app.group_members(group):
                    held = {canonical(item) for item in interests.get(other, ())}
                    if group not in held:
                        result.problems.append(
                            f"{name}: group {group!r} lists {other!r}, "
                            f"who does not hold that interest")
                        return
            if len(app.group_members("music")) >= 2:
                in_music += 1
        result.extras["music_group_share"] = in_music / len(bed.members)
        if in_music < len(bed.members) // 2:
            result.problems.append(
                f"only {in_music} of {len(bed.members)} members share a "
                f"music group with anyone: dynamic groups did not form")


# -- ps_session ---------------------------------------------------------------

_SESSION_INTERESTS = ("chess", "biking", "movies", "travel", "cooking")
_SESSION_FILE = "song.bin"
_SESSION_FILE_BYTES = 64 * 1024
_SESSION_CHUNK_BYTES = 32 * 1024
#: Op kind -> weight in the mix: Table 8 reads, writes and bulk.
_SESSION_MIX = (("view_all_members", 3), ("view_member_profile", 2),
                ("view_interest_list", 2), ("send_message", 2),
                ("view_shared_content", 1), ("download_file", 1))


class PsSession(Workload):
    name = "ps_session"
    members = 8
    warmup_s = 30.0
    plan_length = 4096
    checkpoint_ops = 64

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        bed = Testbed(seed=seed, technologies=("bluetooth",))
        names = [f"m{index}" for index in range(self.members)]
        interests = {}
        for name in names:
            extra = rng.sample(_SESSION_INTERESTS, rng.randint(1, 2))
            interests[name] = ["music", *extra]
            bed.add_member(name, interests[name])
        client, peers = names[0], names[1:]
        for peer in peers:
            app = bed.members[peer].app
            app.accept_trusted(client)
            app.share_file(_SESSION_FILE, _SESSION_FILE_BYTES)
        kinds = [kind for kind, weight in _SESSION_MIX for _ in range(weight)]
        plan = [(rng.choice(kinds), rng.choice(peers))
                for _ in range(self.plan_length)]
        return {"bed": bed, "seed": seed, "client": client, "peers": peers,
                "interests": interests, "plan": plan}

    def warm(self, state: dict) -> None:
        state["bed"].run(self.warmup_s)

    def teardown(self, state: dict) -> None:
        state["bed"].stop()

    def counters(self, state: dict) -> dict[str, float]:
        return _testbed_counters(state["bed"])

    @staticmethod
    def _operation(app, kind: str, target: str):
        if kind == "view_all_members":
            return app.view_all_members()
        if kind == "view_member_profile":
            return app.view_member_profile(target)
        if kind == "view_interest_list":
            return app.view_interest_list()
        if kind == "send_message":
            return app.send_message(target, "hello", f"hi {target}")
        if kind == "view_shared_content":
            return app.view_shared_content(target)
        return app.download_file(target, _SESSION_FILE)

    def measure(self, state: dict, seconds: float,
                progress: Progress) -> Measurement:
        bed = state["bed"]
        app = bed.members[state["client"]].app
        plan = state["plan"]
        expected = {(kind, target): self._expected(state, kind, target)
                    for kind, target in set(plan)}
        prefix = []
        result = Measurement()
        clock = time.perf_counter
        sim_start = bed.env.now
        excluded = 0.0
        start = clock()
        deadline = start + seconds
        while result.ops < self.checkpoint_ops or clock() < deadline:
            kind, target = plan[result.ops % len(plan)]
            result.ops += 1
            began = clock()
            try:
                outcome = bed.execute(self._operation(app, kind, target),
                                      timeout=600.0)
            except Exception as exc:  # noqa: BLE001 - a failed op
                outcome = exc
            ended = clock()
            result.latencies_s.append(ended - began)
            progress(result.ops)
            _forget_trace(bed)
            # The check runs between ops; its time is not measured.
            observed = self._observed(kind, outcome)
            if observed != expected[kind, target]:
                result.failed += 1
                if len(result.problems) < 5:
                    result.problems.append(
                        f"{kind}({target}): expected "
                        f"{expected[kind, target]!r}, got {observed!r}"[:300])
            if result.ops <= self.checkpoint_ops:
                prefix.append((kind, target, observed))
                if result.ops == self.checkpoint_ops:
                    result.digest = _sha([bed.env.now, prefix])
            excluded += clock() - ended
        result.wall_s = clock() - start - excluded
        result.extras["device_sim_s_per_s"] = (
            self.members * (bed.env.now - sim_start) / result.wall_s)
        return result

    def _expected(self, state: dict, kind: str, target: str) -> Any:
        client = state["client"]
        if kind == "view_all_members":
            return sorted(state["peers"])
        if kind == "view_member_profile":
            return [target, state["interests"][target], [client]]
        if kind == "view_interest_list":
            seen: list[str] = []
            for name in [client, *state["peers"]]:
                for interest in state["interests"][name]:
                    if interest not in seen:
                        seen.append(interest)
            return sorted(seen)
        if kind == "send_message":
            return protocol.SUCCESSFULLY_WRITTEN
        if kind == "view_shared_content":
            return [{"name": _SESSION_FILE, "size": _SESSION_FILE_BYTES}]
        return [True, _SESSION_FILE_BYTES, _SESSION_FILE_BYTES,
                _SESSION_FILE_BYTES // _SESSION_CHUNK_BYTES]

    @staticmethod
    def _observed(kind: str, outcome: Any) -> Any:
        if isinstance(outcome, BaseException):
            return repr(outcome)
        if kind == "view_all_members" and isinstance(outcome, list):
            return sorted(member["member_id"] for member in outcome)
        if kind == "view_member_profile" and isinstance(outcome, dict):
            return [outcome.get("member_id"), outcome.get("interests"),
                    outcome.get("trusted")]
        if kind == "view_interest_list" and isinstance(outcome, list):
            return sorted(outcome)
        if kind == "download_file" and isinstance(outcome, TransferProgress):
            return [outcome.complete, outcome.received_bytes,
                    outcome.total_bytes, outcome.chunks]
        return outcome

    def check(self, state: dict, result: Measurement) -> None:
        client = state["bed"].members[state["client"]].app
        if sorted(client.group_members("music")) != sorted(
                [state["client"], *state["peers"]]):
            result.problems.append("the music group never spanned the room")
        measured = run_table8(seed=state["seed"])
        errors = [abs(measured[column].total_s - paper.total_s) / paper.total_s
                  for column, paper in PAPER_TABLE8.items()]
        result.extras["table8_err_pct"] = 100.0 * sum(errors) / len(errors)


# -- ps_tcp ---------------------------------------------------------------------

_TCP_CHUNK_BYTES = 24 * 1024
_TCP_FILE = "mixtape.mp3"
_TCP_CONNECTIONS = 2


class PsTcp(Workload):
    name = "ps_tcp"
    plan_length = 4096

    @staticmethod
    def _requests() -> dict[str, dict]:
        requests = {
            "interest_list": protocol.make_request(
                protocol.PS_GETINTERESTLIST),
            "member_list": protocol.make_request(
                protocol.PS_GETONLINEMEMBERLIST),
            "profile": protocol.make_request(
                protocol.PS_GETPROFILE, member_id=SERVER_MEMBER,
                requester=CLIENT_MEMBER),
            "member_check": protocol.make_request(
                protocol.PS_CHECKMEMBERID, member_id=SERVER_MEMBER),
            "message": protocol.make_request(
                protocol.PS_MSG, receiver=SERVER_MEMBER,
                sender=CLIENT_MEMBER, subject="hello", body="hi bob"),
        }
        store = build_server_store()
        size = store.active.shared_files[_TCP_FILE].size_bytes
        for index, offset in enumerate(range(0, size, _TCP_CHUNK_BYTES)):
            requests[f"chunk{index}"] = protocol.make_request(
                PS_GETFILECHUNK, member_id=SERVER_MEMBER,
                requester=CLIENT_MEMBER, name=_TCP_FILE, offset=offset,
                length=_TCP_CHUNK_BYTES)
        return requests

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        requests = self._requests()
        # Expected replies come from a second, identically prepared
        # service called directly, with no transport in between.
        oracle_store = build_server_store()
        oracle_store.active.add_trusted(CLIENT_MEMBER)
        oracle = CommunityService(oracle_store, device_id=SERVER_MEMBER)
        expected = {kind: oracle.handle_request(request)
                    for kind, request in requests.items()}
        # Each connection walks its own shuffled cycle of the mix; the
        # chunk requests of one cycle download the whole file in order.
        chunks = sorted(kind for kind in requests if kind.startswith("chunk"))
        plans = []
        for _ in range(_TCP_CONNECTIONS):
            plan: list[str] = []
            while len(plan) < self.plan_length:
                cycle = [kind for kind in requests if kind not in chunks]
                cycle += ["chunk"] * len(chunks)
                rng.shuffle(cycle)
                order = iter(chunks)
                plan += [next(order) if kind == "chunk" else kind
                         for kind in cycle]
            plans.append(plan)
        loop = asyncio.new_event_loop()
        store = build_server_store()
        store.active.add_trusted(CLIENT_MEMBER)
        service = CommunityService(store, device_id=SERVER_MEMBER)
        server = TcpServer(service.handle_request)
        loop.run_until_complete(server.start())
        connections = [loop.run_until_complete(dial("127.0.0.1", server.port))
                       for _ in range(_TCP_CONNECTIONS)]
        return {"loop": loop, "server": server, "service": service,
                "connections": connections, "requests": requests,
                "expected": expected, "plans": plans, "chunks": chunks}

    def teardown(self, state: dict) -> None:
        loop = state["loop"]
        for connection in state["connections"]:
            loop.run_until_complete(connection.close())
        loop.run_until_complete(state["server"].stop())
        loop.close()

    def counters(self, state: dict) -> dict[str, float]:
        return {"net.pool_checkouts": frame_pool.checkouts,
                "net.pool_reuses": frame_pool.reuses,
                "net.frame_errors": state["server"].frame_errors}

    def measure(self, state: dict, seconds: float,
                progress: Progress) -> Measurement:
        requests = state["requests"]
        expected = state["expected"]
        result = Measurement()
        clock = time.perf_counter
        latencies = result.latencies_s
        checking = [0.0]

        async def client(connection, plan: list[str]) -> None:
            index = 0
            while clock() < deadline:
                kind = plan[index % len(plan)]
                index += 1
                result.ops += 1
                began = clock()
                await connection.send(requests[kind])
                reply = await connection.recv()
                ended = clock()
                latencies.append(ended - began)
                progress(result.ops)
                # The check runs between ops; its time is not measured.
                if reply != expected[kind]:
                    result.failed += 1
                    if len(result.problems) < 5:
                        result.problems.append(
                            f"{kind}: unexpected reply {reply!r}"[:300])
                checking[0] += clock() - ended

        async def run_all() -> None:
            await asyncio.gather(*(
                client(connection, plan) for connection, plan
                in zip(state["connections"], state["plans"], strict=True)))

        start = clock()
        deadline = start + seconds
        state["loop"].run_until_complete(run_all())
        result.wall_s = clock() - start - checking[0]
        return result

    def check(self, state: dict, result: Measurement) -> None:
        # The expected replies themselves: every status as the protocol
        # says, and the chunks of one pass reassemble the file exactly.
        expected = state["expected"]
        for kind in ("interest_list", "member_list", "profile",
                     "member_check"):
            if expected[kind].get("status") != protocol.STATUS_OK:
                result.problems.append(f"{kind}: status {expected[kind]!r}")
        if expected["message"].get("status") != protocol.SUCCESSFULLY_WRITTEN:
            result.problems.append(f"message: {expected['message']!r}")
        size = build_server_store().active.shared_files[_TCP_FILE].size_bytes
        received = 0
        for kind in state["chunks"]:
            reply = expected[kind]
            want = min(_TCP_CHUNK_BYTES, size - reply.get("offset", 0))
            if (reply.get("status") != protocol.STATUS_OK
                    or reply.get("offset") != received
                    or reply.get("data_len") != want
                    or reply.get("data") != "x" * want):
                result.problems.append(f"{kind}: bad chunk reply")
            received += reply.get("data_len", 0)
        last = expected[state["chunks"][-1]]
        if received != size or not last.get("eof"):
            result.problems.append(
                f"download reassembled {received} of {size} bytes")
        if state["server"].frame_errors:
            result.problems.append(
                f"{state['server'].frame_errors} frame errors on the server")


# -- shard_crowd ----------------------------------------------------------------


class ShardCrowd(Workload):
    name = "shard_crowd"
    devices = 4096
    shards = 2
    #: Crowds per run, each from its own seed derived from the run's.
    variants = 8

    def workloads(self, seed: int) -> list:
        # Small crowds (about 0.5 s an op), several of them taken in
        # turn: a run of a single 20k crowd held three ops, and the cost
        # of one crowd depends on where its seed drops the hotspots.
        # Cycling through eight crowds makes a run's figure a mean over
        # eight placements, with a few dozen ops behind it; 64 small
        # hotspots holding a quarter of the crowd vary less from seed to
        # seed than 16 holding 40% (run-to-run spread 0.08 against
        # 0.09-0.12).  They still sit on one main street, so the tile
        # rebalancer moves tiles in most crowds.
        return [clustered_workload(self.devices, seed=seed * 1000 + index,
                                   sim_seconds=6.0, clusters=64,
                                   hot_fraction=0.25, center_spread=0.05,
                                   center_spread_y=0.3, scan_interval=2.0,
                                   window=1.0)
                for index in range(self.variants)]

    def runner(self, workload, shards: int, *, logs: bool) -> ShardedRunner:
        # The shards run in this process, one after the other at each
        # window edge: two spawned workers plus the coordinator contend
        # for a 2-vCPU host, and their run time spread 0.09-0.28 of its
        # median across sets of ten runs.  Partition, exchange, ghosts
        # and rebalancing run all the same; the pipe transport does not.
        # A tight rebalance threshold: at the default 1.2 the run ends
        # anywhere up to 20% out of balance, and where depends on the seed.
        return ShardedRunner(workload, shards, processes=False,
                             partition="tile", rebalance=shards > 1,
                             rebalance_threshold=1.05, collect_logs=logs)

    def setup(self, seed: int) -> dict:
        # Timed runs collect no interaction logs; the logged runs that
        # check the outcome are made apart (see ``reference``).
        runners = [self.runner(workload, self.shards, logs=False)
                   for workload in self.workloads(seed)]
        return {"runners": runners,
                "outcomes": [[] for _ in runners]}

    @staticmethod
    def outcome(result: ShardedResult) -> dict:
        outcome = {"events": result.events,
                   "device_count": result.device_count}
        if result.logs is not None:
            digests = interaction_digests(result.logs)
            outcome["digest"] = _sha(sorted(digests.items()))
        return outcome

    def measure(self, state: dict, seconds: float,
                progress: Progress) -> Measurement:
        runners = state["runners"]
        result = Measurement()
        clock = time.perf_counter
        figures: list[dict[str, float]] = []
        excluded = 0.0
        start = clock()
        deadline = start + seconds
        # Every crowd runs at least once, so that traced and untraced
        # runs cover the same outcomes.
        while result.ops < len(runners) or clock() < deadline:
            index = result.ops % len(runners)
            result.ops += 1
            began = clock()
            try:
                outcome = runners[index].run()
            except RuntimeError as exc:
                result.failed += 1
                result.problems.append(f"run {result.ops}: {exc}"[:300])
                break
            ended = clock()
            wall = ended - began
            result.latencies_s.append(wall)
            progress(result.ops)
            state["outcomes"][index].append(self.outcome(outcome))
            figures.append({
                "windows": outcome.windows,
                "critical_path_s": outcome.critical_path_seconds,
                "coord_s": wall - outcome.critical_path_seconds,
                "imbalance": outcome.imbalance_factor,
                "tiles_migrated": outcome.tiles_migrated,
                "migrations": outcome.migrations,
                "ghost_peak": outcome.ghost_peak})
            del outcome
            excluded += clock() - ended
        result.wall_s = clock() - start - excluded
        if figures:
            result.shard = {key: sorted(entry[key] for entry in figures)
                            [len(figures) // 2] for key in figures[0]}
            result.digest = _sha([outcomes[:1]
                                  for outcomes in state["outcomes"]])
        done = len(result.latencies_s)
        result.extras["device_sim_s_per_s"] = (
            self.devices * runners[0].workload.sim_seconds * done
            / max(result.wall_s, 1e-9))
        return result

    def check(self, state: dict, result: Measurement) -> None:
        for variant, outcomes in enumerate(state["outcomes"]):
            for index, outcome in enumerate(outcomes, start=1):
                if outcome["device_count"] != self.devices:
                    result.failed += 1
                    result.problems.append(
                        f"crowd {variant} run {index} simulated "
                        f"{outcome['device_count']} devices, "
                        f"not {self.devices}")
                elif outcome != outcomes[0]:
                    result.failed += 1
                    result.problems.append(
                        f"crowd {variant} run {index} differs from its "
                        f"run 1")
        if all(state["outcomes"]):
            result.extras["events"] = sum(
                outcomes[0]["events"] for outcomes in state["outcomes"])

    def reference(self, seed: int) -> dict:
        """The outcome check, made in a process of its own: for every
        crowd, a logged run with the measured configuration, and the
        run it must equal, the same seed on one in-process shard."""
        totals = {"sharded": [], "single": []}
        for workload in self.workloads(seed):
            totals["sharded"].append(self.outcome(
                self.runner(workload, self.shards, logs=True).run()))
            totals["single"].append(self.outcome(
                self.runner(workload, 1, logs=True).run()))
        return {label: {"events": sum(entry["events"] for entry in entries),
                        "digest": _sha(entries)}
                for label, entries in totals.items()}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CrowdDiscovery, PsSession, PsTcp, ShardCrowd)}
