"""Benchmark of the PeerHood Community reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload crowd_discovery --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20      # every workload,
                                                     # untraced and traced
    python3 perfbench/run.py --layers                # layer -> metric map

Every measured run happens in a child process (``child.py``) under a
wall-clock timeout, so a hung shard, socket or peer costs one
bounded wait: the report names the workload and counts all of its
operations as failed.  ``--trace 0`` runs the workload once, untraced,
and reports the end-to-end metrics.  ``--trace 1`` runs it untraced and
then traced, in two fresh processes: the traced run gives the
per-layer metrics, the pair gives the tracing overhead, and their
outcome digests must agree, which shows tracing never feeds back into
the simulation.  ``shard_crowd`` adds a third process that checks the
outcome: for each of its crowds, a sharded run that ships its
interaction logs back and a single-shard run of the same seed, whose
event counts and log digests must agree; the timed runs (which ship no
logs) must reproduce the event count.

The report prints every metric by name and unit.  The ones in
``END_TO_END`` hold on every workload and are gated by BENCHMARK.json;
the others are printed, not gated: ``ops_per_s``, the op latencies
``op_p50_us`` and ``op_p99_us`` (with the sample count; on this closed
loop they carry the same information as ``ops_per_s`` but spread wider
from run to run), ``fail_ratio``, ``device_sim_s_per_s`` (simulated
workloads) and the simulated ``table8_err_pct`` (``ps_session``).  The
gated times are in reference seconds: host seconds scaled by a
calibration loop timed between ops and after each set-up
(``child.calibration_loop`` says why).  ``ops_per_ref_s`` is
``ops_per_s`` in those units; the host figures are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A checkout
without the program (``src/repro``) exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

sys.path.insert(0, str(HERE))

from layers import LAYER_MAP, PER_LAYER  # noqa: E402

#: End-to-end metrics: name -> (unit, better, bound, meaning).
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "ops_per_ref_s": ("1/s", "higher", 0.25,
                      "completed operations per reference second"),
    "peak_rss_mb": ("MiB", "lower", 0.2,
                    "peak resident memory of the measuring process"),
    "setup_s": ("s", "lower", 0.25,
                "build time before the warm-up and the timed region, in "
                "reference seconds (mean of two batch medians)"),
}

#: Workload name -> why.  The workloads live in ``workloads.py``, which
#: imports the program; this table does not need it.
WHY: dict[str, str] = {
    "crowd_discovery": (
        "1024-member mobile crowd, 25% walkers, 1 s scans: walker moves "
        "beside neighbour queries and Fig. 6 probes; moves ops_per_ref_s via "
        "simenv, mobility, radio, peerhood scans"),
    "ps_session": (
        "8 members in one Bluetooth room, closed-loop Table 8 reads, "
        "PS_MSG writes and 64 KiB downloads; moves ops_per_ref_s via "
        "community, net (sim), peerhood connects, simenv"),
    "ps_tcp": (
        "PS_* mix over loopback TCP, 2 closed-loop connections on one "
        "asyncio loop; only workload on the wire path; moves ops_per_ref_s (and "
        "op_p50_us) via net (wire), community"),
    "shard_crowd": (
        "8 clustered 4096-device crowds (64 hotspots on a main street) in "
        "turn, 2 in-process shards, tile partition with rebalance; only "
        "workload on the shard layer; outcomes must equal 1-shard runs"),
}

RUN_SECONDS = 20
#: Everything one invocation does must end within this many seconds.
BUDGET_S = 170.0


def benchmark_json() -> dict:
    """The BENCHMARK.json document this benchmark satisfies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


# -- child processes ----------------------------------------------------------


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and wait
    until the group is empty (its own children are not ours)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(arguments: list[str], timeout: float) -> dict:
    """Run ``child.py`` with ``arguments``; returns its JSON result, or
    a dict with ``error`` (and the attempted-op count) when it crashed
    or hung."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(HERE)] + ([environment["PYTHONPATH"]]
                                    if environment.get("PYTHONPATH") else []))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *arguments],
        cwd=ROOT, env=environment, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    hung = False
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        hung = True
        _stop_group(process)
        stdout, stderr = process.communicate()
    finally:
        _stop_group(process)
    lines = stdout.splitlines()
    attempted = 0
    for line in lines:
        if line.startswith("progress "):
            attempted = int(line.split()[1])
    if hung:
        return {"error": f"hung: no result within {timeout:.0f} s, killed",
                "attempted": attempted + 1}
    if process.returncode == 3:
        sys.stderr.write(stderr)
        raise SystemExit(2)
    if process.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        return {"error": f"exit status {process.returncode}:\n{tail}",
                "attempted": attempted + 1}
    return json.loads(lines[-1])


# -- one invocation -------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            delays: list[str] | None = None, spans: str = "") -> dict:
    """Run one benchmark invocation; returns the report dict (the JSON
    result plus ``lines`` for the human-readable report)."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    plan = [("untraced", base)]
    if trace:
        traced = base + ["--trace", "1"]
        for delay in delays or []:
            traced += ["--delay", delay]
        if spans:
            traced += ["--spans", spans]
        plan.append(("traced", traced))
    if workload == "shard_crowd":
        plan.append(("reference", base + ["--mode", "reference"]))
    timeout = BUDGET_S / len(plan)
    runs = {label: run_child(arguments, timeout) for label, arguments in plan}

    lines = [f"perfbench {workload} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}"]
    problems: list[str] = []
    attempted = failed = 0
    for label, result in runs.items():
        if "error" in result:
            problems.append(f"{workload} {label} run: {result['error']}")
            if label != "reference":
                attempted += result["attempted"]
                failed += result["attempted"]
            continue
        if label == "reference":
            continue
        attempted += result["ops"]
        failed += result["failed"]
        problems += [f"{workload} {label} run: {problem}"
                     for problem in result["problems"]]

    untraced = runs["untraced"]
    digests = {label: result.get("digest") for label, result in runs.items()
               if label != "reference" and "error" not in result}
    if len(set(digests.values())) > 1:
        problems.append(f"{workload}: outcome digests differ between runs "
                        f"of one seed: {digests}")
    reference = runs.get("reference", {}).get("reference")
    if reference is not None and "error" not in untraced:
        sharded, single = reference["sharded"], reference["single"]
        lines.append(f"  reference: logged sharded runs events "
                     f"{sharded['events']}, digest {sharded['digest'][:16]}; "
                     f"1-shard runs events {single['events']}, digest "
                     f"{single['digest'][:16]}")
        if sharded != single:
            problems.append(f"{workload}: sharded outcomes differ from the "
                            f"single-shard runs of the same seeds")
        if untraced["extras"].get("events") != single["events"]:
            problems.append(f"{workload}: the timed runs simulated "
                            f"{untraced['extras'].get('events')} events, "
                            f"the single-shard runs {single['events']}")

    metrics: dict[str, dict] = {}
    if not trace:
        for name, (unit, _, _, meaning) in END_TO_END.items():
            value = untraced.get(name, 0.0) if "error" not in untraced else 0.0
            metrics[name] = _metric(value, unit)
            lines.append(f"  {name:<16} {value:>14.6g} {unit:<4} {meaning}")
        if "error" not in untraced:
            lines.append(f"  ops_per_s        {untraced['ops_per_s']:>14.6g} 1/s  "
                         f"completed operations per host second (not "
                         f"gated; calibration loop {untraced['loop_s']:.4g} s)")
            lines.append(f"  op_p50_us        {untraced['op_p50_us']:>14.6g} us   "
                         f"median host latency of one op (not gated)")
            lines.append(f"  op_p99_us        {untraced['op_p99_us']:>14.6g} us   "
                         f"99th percentile (nearest rank) of "
                         f"{untraced['completed']} op latencies (not gated)")
            lines.append(f"  ({untraced['completed']} ops in "
                         f"{untraced['wall_s']:.3f} s; "
                         f"{len(untraced['setup_runs_s'])} set-ups of "
                         f"{untraced['setup_host_s']:.4g} host s, range "
                         f"{min(untraced['setup_runs_s']):.4g}-"
                         f"{max(untraced['setup_runs_s']):.4g} s; warm-up "
                         f"{untraced['warmup_s']:.4g} s, not gated)")
    else:
        traced = runs["traced"]
        layers = traced.get("layers") if "error" not in traced else None
        for name, (unit, _) in PER_LAYER.items():
            value = layers[name] if layers else 0.0
            if (name == "trace.overhead_pct" and layers
                    and "error" not in untraced and traced["ops_per_ref_s"]):
                value = 100.0 * (untraced["ops_per_ref_s"]
                                 / traced["ops_per_ref_s"] - 1.0)
            metrics[name] = _metric(value, unit)
            lines.append(f"  {name:<28} {value:>14.6g} {unit}")
    for label, result in runs.items():
        if "error" not in result and label != "reference":
            extras = dict(result["extras"])
            extras["fail_ratio"] = (result["failed"] / result["ops"]
                                    if result["ops"] else 1.0)
            lines.append(f"  {label}: " + ", ".join(
                f"{key} {value:.6g}" for key, value in sorted(extras.items())))
    correct = not problems
    lines.append("  checks: " + ("all passed" if correct else "FAILED"))
    lines += [f"    {problem}" for problem in problems]
    return {"correct": correct, "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics, "lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--spans", default="",
                        help="with --trace 1: write the traced run's first "
                             "spans to this JSON-lines file, e.g. "
                             "perfbench-spans.jsonl")
    parser.add_argument("--layers", action="store_true",
                        help="print the layer -> metric -> workload map")
    args = parser.parse_args(argv)

    if args.layers:
        for layer, (metrics, moves, where) in LAYER_MAP.items():
            print(f"{layer}: {', '.join(metrics)}\n    moves {moves} "
                  f"on {where}")
        return 0
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SOURCE / 'repro'})",
              file=sys.stderr)
        return 2
    if args.all:
        summary = {}
        for workload in WHY:
            for trace in (False, True):
                report = measure(workload, args.seed, args.seconds, trace)
                print("\n".join(report.pop("lines")), flush=True)
                summary[f"{workload}/trace{int(trace)}"] = report
        print(json.dumps(summary))
        return 0
    if args.workload is None:
        parser.error("--workload is required (or --all)")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans=args.spans)
    print("\n".join(report.pop("lines")), flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
