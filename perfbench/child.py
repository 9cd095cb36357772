"""One measured (or reference) run of one workload, in its own process.

``run.py`` starts this file as a child process with a wall-clock
timeout; it is not meant to be run by hand.  The child prints
``progress <ops>`` lines while it measures (so a parent that has to
kill a hung child still knows how many operations were attempted) and
one JSON object as its last line.

Exit codes: 0 on a completed run (whatever its checks found), 3 when
the program cannot be imported, 1 on any other crash.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

#: Spans kept verbatim for ``--spans``; aggregates need none.
KEPT_SPANS = 200_000

#: Set-ups per batch: at least MIN_SETUPS, then more until they add up
#: to SETUP_BUDGET_S (a cheap set-up is repeated often enough for its
#: median to be steady), at most MAX_SETUPS.  One batch runs before the
#: timed region and one after it; ``setup_s`` is the mean of the two
#: batch medians, each in reference seconds (see ``calibration_loop``).
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 100

#: Host seconds ``calibration_loop`` takes on the reference host.
REFERENCE_LOOP_S = 0.0015
#: Between ops, the calibration loop runs at most this often.
CALIBRATE_EVERY_S = 0.2


def calibration_loop() -> float:
    """Host seconds a fixed pure-Python loop takes right now (median of
    three timings).

    The loop uses nothing of the program, so its time moves only with
    the host.  On a shared 2-vCPU host the time of the same small piece
    of code switches between levels up to 2x apart for seconds to
    minutes at a time, longer than a run, and short set-ups from a cold
    cache follow it closely: a ``ps_tcp`` set-up took 4.9-8.9 ms over
    one minute while the loop took 1.1-2.0 ms beside it, and scaling by
    the loop cut the spread of one-second medians from 0.29 to 0.09 of
    their median.  Throughput follows it less closely op by op, but over
    a run it does: scaled by the loop timed between ops, the coefficient
    of variation of 10 s throughput windows fell from 0.084 to 0.056
    (``ps_tcp``), 0.094 to 0.035 (``ps_session``) and 0.074 to 0.035
    (``crowd_discovery``).  Gated times are therefore reported in
    reference seconds: host seconds times REFERENCE_LOOP_S over the
    loop's time measured beside them, op by op and set-up by set-up
    (the mean of the two timings on either side), so that a slow
    stretch is scaled by its own loop time, not the run's average.  A change to the program cannot
    move the loop, so it moves the gated metrics as it moves the host
    times, which are printed too."""
    timings = []
    for _ in range(3):
        began = time.perf_counter()
        table: dict[int, int] = {}
        for index in range(12_000):
            key = index & 255
            table[key] = table.get(key, 0) + index % 7
        timings.append(time.perf_counter() - began)
    return statistics.median(timings)


def _setup_batch(workload, seed: int, keep: bool,
                 ) -> tuple[list[float], float, object]:
    """Time a batch of set-ups; returns their host times, the batch
    median in reference seconds and, with ``keep``, the last state built
    (otherwise every state is torn down).  Each set-up is scaled by the
    calibration loop timed on either side of it."""
    times: list[float] = []
    loops = [calibration_loop()]
    state = None
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S
                                      and len(times) < MAX_SETUPS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        began = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - began)
        loops.append(calibration_loop())
    if not keep:
        workload.teardown(state)
        state = None
    reference_s = statistics.median(
        spent * 2 * REFERENCE_LOOP_S / (loops[index] + loops[index + 1])
        for index, spent in enumerate(times))
    return times, reference_s, state


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[min(len(ordered), int(rank)) - 1]


class _Progress:
    """Called after every op, outside the timed region: prints the
    attempted-op count at most twice a second and times the
    calibration loop every CALIBRATE_EVERY_S (and once before the
    first op), noting which two loop timings each op falls between."""

    def __init__(self) -> None:
        self._last = 0.0
        self.loop_s = [calibration_loop()]
        self._calibrated = time.perf_counter()
        #: Per op, in completion order: the index of the first loop
        #: timing made after it.
        self._after: list[int] = []

    def __call__(self, ops: int) -> None:
        now = time.perf_counter()
        if now - self._last >= 0.5:
            self._last = now
            print(f"progress {ops}", flush=True)
        self._after.append(len(self.loop_s))
        if now - self._calibrated >= CALIBRATE_EVERY_S:
            self.loop_s.append(calibration_loop())
            self._calibrated = time.perf_counter()

    def local_loop_s(self, latencies: list[float]) -> float:
        """The loop time that scales ``latencies`` (one per call, in
        call order) to reference seconds: each op's latency is divided
        by the mean of the loop timings on either side of it, so a
        stretch of slow host counts at its own speed."""
        self.loop_s.append(calibration_loop())
        if not latencies:
            return statistics.fmean(self.loop_s)
        scaled = sum(
            spent * 2 / (self.loop_s[after - 1] + self.loop_s[after])
            for spent, after in zip(latencies, self._after, strict=True))
        return sum(latencies) / scaled


def _parse_delays(items: list[str]) -> dict[str, float]:
    delays = {}
    for item in items:
        name, _, seconds = item.partition("=")
        delays[name] = float(seconds)
    return delays


def run(args: argparse.Namespace) -> dict:
    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]()
    if args.mode == "reference":
        return {"reference": workload.reference(args.seed),
                "peak_rss_mb": _peak_rss_mb()}
    tracer = None
    if args.trace:
        tracer = Tracer(keep_spans=KEPT_SPANS if args.spans else 0,
                        delays=_parse_delays(args.delay))
        layers.install(tracer)
    setups_before, before_s, state = _setup_batch(workload, args.seed,
                                                  keep=True)
    began = time.perf_counter()
    workload.warm(state)
    warmup_s = time.perf_counter() - began
    before: dict[str, float] = {}
    if tracer is not None:
        workload.enable_counting(state)
        before = workload.counters(state)
        tracer.reset()
    gc.collect()
    progress = _Progress()
    result = workload.measure(state, args.seconds, progress)
    after = workload.counters(state) if tracer is not None else {}
    workload.check(state, result)
    # Read before sorting: the sorted copy holds a float object per op,
    # which would make a faster run read as a larger peak.
    peak_rss_mb = _peak_rss_mb()
    ordered = sorted(result.latencies_s)
    out = {
        "ops": result.ops,
        "completed": len(ordered),
        "failed": result.failed,
        "wall_s": result.wall_s,
        "ops_per_s": len(ordered) / result.wall_s if result.wall_s else 0.0,
        "loop_s": progress.local_loop_s(result.latencies_s),
        "op_p50_us": 1e6 * statistics.median(ordered) if ordered else 0.0,
        "op_p99_us": 1e6 * _percentile(ordered, 0.99),
        "warmup_s": warmup_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": result.digest,
        "problems": result.problems,
        "extras": result.extras,
    }
    out["ops_per_ref_s"] = out["ops_per_s"] * out["loop_s"] / REFERENCE_LOOP_S
    if tracer is not None:
        counters = {key: after[key] - before.get(key, 0) for key in after}
        out["layers"] = layers.per_layer_metrics(
            tracer, len(ordered), result.wall_s, counters, result.shard)
        if args.spans:
            tracer.write_spans(args.spans)
        tracer.uninstall()
    workload.teardown(state)
    del state
    setups_after, after_s, _ = _setup_batch(workload, args.seed, keep=False)
    out["setup_s"] = (before_s + after_s) / 2
    out["setup_host_s"] = (statistics.median(setups_before)
                           + statistics.median(setups_after)) / 2
    out["setup_runs_s"] = setups_before + setups_after
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "reference"),
                        default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", action="append", default=[],
                        metavar="SPAN=SECONDS")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 3
    out = run(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
