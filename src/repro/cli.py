"""``repro`` — the one command-line entrypoint of the reproduction.

Subcommands::

    repro run gemm --dataset MEDIUM     # host-vs-CIM evaluation of a kernel
    repro serve --scenario fleet_faultstorm --record trace.jsonl
    repro gateway --requests 1000       # wall-clock pool under open-loop load
    repro gateway --diff trace.jsonl    # wall-clock vs VirtualClock, bit-exact
    repro gateway chaos --requests 1000 # seeded fault storm + invariant suite
    repro bench --selftest              # = python3 benchmarks/suite/run.py ...
    repro replay trace.jsonl --diff     # re-drive a recorded trace, diff it
    repro diff a.jsonl b.jsonl          # compare two traces bit-for-bit

Installed as a console script through ``setup.py`` (``pip install -e .``)
and equally runnable without installation as
``PYTHONPATH=src python -m repro.cli``, which is how CI invokes it.

Exit codes: 0 on success, 1 on a failed gate (replay/diff mismatch),
2 on bad usage or a malformed trace; ``repro bench`` exits with the
benchmark suite's own code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

from repro.trace.replayer import TraceReplayer, diff_traces
from repro.trace.scenarios import SCENARIOS
from repro.trace.schema import Trace, TraceFormatError, load_trace

def repo_root() -> Path:
    """The checkout root (this file lives at src/repro/cli.py)."""
    return Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# repro run
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    from repro.eval.experiments import evaluate_kernel
    from repro.workloads.polybench import kernel_names

    if args.list:
        for name in kernel_names():
            print(name)
        return 0
    if not args.kernel:
        print("repro run: a kernel name is required (or --list)", file=sys.stderr)
        return 2
    evaluation = evaluate_kernel(
        args.kernel,
        dataset=args.dataset,
        seed=args.seed,
        verify=args.verify,
        pipeline=args.pipeline,
    )
    print(f"kernel             {evaluation.kernel} ({evaluation.category})")
    print(f"dataset            {evaluation.dataset}")
    print(f"host energy        {evaluation.host_energy_j:.6e} J")
    print(f"host+CIM energy    {evaluation.cim_energy_j:.6e} J")
    print(f"energy improvement {evaluation.energy_improvement:.3f}x")
    print(f"runtime improvement {evaluation.runtime_improvement:.3f}x")
    print(f"EDP improvement    {evaluation.edp_improvement:.3f}x")
    if args.verify:
        print("verification       results match the NumPy reference")
    return 0


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    recorder = SCENARIOS[args.scenario]
    trace = recorder(seed=args.seed) if args.seed is not None else recorder()
    _print_trace_summary(trace)
    if args.record:
        path = trace.save(args.record)
        print(f"\nrecorded trace -> {path}")
    return 0


def _print_trace_summary(trace: Trace) -> None:
    responses = trace.responses()
    statuses: dict[str, int] = {}
    for response in responses.values():
        statuses[response["status"]] = statuses.get(response["status"], 0) + 1
    print(f"kind               {trace.kind}")
    print(f"schema version     {trace.schema_version}")
    print(f"events             {len(trace.events)}")
    print(f"submissions        {len(trace.submissions())}")
    print(
        "responses          "
        + ", ".join(f"{count} {status}" for status, count in sorted(statuses.items()))
    )
    faults = trace.of_kind("fault")
    if faults:
        print(f"faults             {len(faults)}")
    print("\ntenant bills:")
    for tenant, bill in sorted(trace.tenant_bills().items()):
        print(
            f"  {tenant:<12} completed={bill['completed']:<3} "
            f"rejected={bill['rejected']:<3} wear={bill['wear_bytes']} B "
            f"energy={bill['energy_j']:.6e} J"
        )
    print("\ndevice bills:")
    for device_id, bill in sorted(trace.device_bills().items()):
        print(
            f"  device {device_id} [{bill['state']:<11}] "
            f"writes={bill['physical_cell_writes']} "
            f"energy={bill['physical_energy_j']:.6e} J "
            f"compensations={bill['compensations']} "
            f"partition={'ok' if bill['partition_ok'] else 'BROKEN'}"
        )


# ----------------------------------------------------------------------
# repro gateway
# ----------------------------------------------------------------------
def cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway.differential import run_differential

    if args.mode == "chaos":
        return _gateway_chaos(args)
    if args.diff:
        trace = load_trace(args.diff)
        result = run_differential(
            trace, num_workers=args.workers, cache_dir=args.cache_dir
        )
        print(
            f"differential: {result.num_requests} recorded requests through "
            f"VirtualClock mode and a {args.workers}-worker wall-clock pool"
        )
        print(result.diff.summary())
        return 0 if result.identical else 1
    if args.arrivals == "trace" and not args.trace:
        print(
            "repro gateway: --arrivals trace needs --trace PATH",
            file=sys.stderr,
        )
        return 2
    return asyncio.run(_gateway_loadgen(args))


def _gateway_chaos(args: argparse.Namespace) -> int:
    """``repro gateway chaos``: one seeded fault storm plus the full
    invariant suite (zero lost requests, exact partition, exactly-once
    billing, bit-identical results).  Exit 0 iff every invariant held."""
    from repro.gateway.chaos import ChaosSpec, run_chaos

    spec = ChaosSpec(
        num_requests=args.requests,
        seed=args.seed,
        num_workers=args.workers,
        hot_spares=args.hot_spares,
        max_respawns=args.respawns,
        hang_timeout_s=args.hang_timeout,
        rate_rps=args.rate,
        num_tenants=args.tenants,
    )
    print(
        f"[repro gateway] chaos storm: {spec.num_requests} requests "
        f"(seed {spec.seed}) -> {spec.num_workers} worker(s) + "
        f"{spec.hot_spares} spare(s), {spec.max_respawns} respawns/slot, "
        f"watchdog {spec.hang_timeout_s:g}s",
        flush=True,
    )
    report = run_chaos(spec)
    load = report.load
    planned = ", ".join(
        f"{name} x{count}"
        for name, count in sorted(report.planned_faults.items())
    ) or "none"
    print(f"planned faults     {planned}")
    print(f"planned deadlines  {report.planned_deadlines}")
    print(
        f"responses          {load.completed} completed, "
        f"{load.failed} failed, {load.rejected} rejected, "
        f"{load.deadline_exceeded} deadline-exceeded "
        f"({load.offered} offered in {load.duration_s:.3f} s)"
    )
    resilience = load.snapshot.get("resilience", {})
    if resilience:
        print(
            "resilience         "
            + ", ".join(f"{name}={value}" for name, value in resilience.items())
        )
    for name, passed in report.invariants.items():
        print(f"invariant          {name:<24} {'ok' if passed else 'VIOLATED'}")
    for violation in report.violations[:20]:
        print(f"  violation: {violation}")
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"\nchaos report -> {args.output}")
    return 0 if report.ok else 1


async def _gateway_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load generation against a live wall-clock pool.

    SIGINT drains gracefully: the first ^C closes admission, every
    request already offered still completes, the pool drains (flushing
    the authoritative bills) and the partial report is printed; exit
    code 130 marks the interrupted run.
    """
    import asyncio
    import signal

    from repro.gateway.differential import gateway_config_from_trace
    from repro.gateway.loadgen import (
        run_open_loop,
        synthetic_gemv_workload,
        trace_workload,
    )
    from repro.gateway.server import AsyncGateway, GatewayConfig
    from repro.trace.arrivals import poisson_plan, trace_plan

    trace = load_trace(args.trace) if args.trace else None
    if args.arrivals == "trace":
        plan = trace_plan(
            trace,
            num_requests=args.requests,
            amplify=args.amplify,
            jitter_s=args.jitter,
            seed=args.seed,
        )
    else:
        plan = poisson_plan(args.requests, rate_rps=args.rate, seed=args.seed)
    if trace is not None:
        workload = trace_workload(trace)
        config = gateway_config_from_trace(
            trace, num_workers=args.workers, cache_dir=args.cache_dir
        )
    else:
        workload = synthetic_gemv_workload(num_tenants=args.tenants, seed=args.seed)
        config = GatewayConfig(num_workers=args.workers, cache_dir=args.cache_dir)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGINT, stop.set)
    try:
        gateway = AsyncGateway(config)
        async with gateway:
            print(
                f"[repro gateway] {len(plan)} {plan.kind} arrivals "
                f"(~{plan.mean_rate_rps:.1f} rps) -> {args.workers} worker(s)",
                flush=True,
            )
            report = await run_open_loop(
                gateway,
                plan,
                workload,
                progress=lambda done, total: print(
                    f"[repro gateway] {done}/{total} offered", flush=True
                ),
                stop=stop,
            )
            await gateway.drain()
            checks = gateway.verify_partition()
    finally:
        loop.remove_signal_handler(signal.SIGINT)

    if stop.is_set():
        print(
            "\n[repro gateway] interrupted: admission closed, in-flight "
            "requests served, bills flushed",
            flush=True,
        )
    print(f"offered            {report.offered} ({report.plan_kind} arrivals)")
    print(
        f"responses          {report.completed} completed, "
        f"{report.failed} failed, {report.rejected} rejected"
    )
    print(f"duration           {report.duration_s:.3f} s wall-clock")
    print(f"throughput         {report.throughput_rps:.1f} completed/s")
    print(
        f"latency            p50={report.latency_p50_s * 1e3:.2f} ms  "
        f"p99={report.latency_p99_s * 1e3:.2f} ms  "
        f"max={report.latency_max_s * 1e3:.2f} ms"
    )
    workers = report.snapshot["gateway"]["workers"]
    utilization = ", ".join(
        f"w{worker_id}={stats['utilization']:.2f}"
        for worker_id, stats in sorted(workers.items())
    )
    print(f"utilization        {utilization}")
    print(
        "accounting         "
        + ("partition ok" if all(checks.values()) else "PARTITION BROKEN")
    )
    if args.output:
        payload = report.to_dict()
        payload["partition_ok"] = all(checks.values())
        payload["interrupted"] = stop.is_set()
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nload report -> {args.output}")
    if not all(checks.values()):
        return 1
    return 130 if stop.is_set() else 0


# ----------------------------------------------------------------------
# repro bench
# ----------------------------------------------------------------------
def cmd_bench(suite_args: list[str]) -> int:
    """Forward to the one benchmark, ``BENCHMARK.json`` +
    ``benchmarks/suite/``, which exists only in a source checkout."""
    root = repo_root()
    script = root / "benchmarks" / "suite" / "run.py"
    if not script.is_file():
        print(
            f"repro bench: {script} not found — the benchmark runs from a "
            "source checkout, not an installed package",
            file=sys.stderr,
        )
        return 2
    command = [sys.executable, str(script), *suite_args]
    return subprocess.run(command, cwd=root).returncode


# ----------------------------------------------------------------------
# repro replay / repro diff
# ----------------------------------------------------------------------
def cmd_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    result = TraceReplayer(trace).replay()
    if args.save:
        result.replayed.save(args.save)
        print(f"replayed trace -> {args.save}")
    if args.diff or not result.identical:
        print(result.diff.summary())
    else:
        print("replay matches the recording (bit-for-bit)")
    return 0 if result.identical else 1


def cmd_diff(args: argparse.Namespace) -> int:
    left = load_trace(args.left)
    right = load_trace(args.right)
    diff = diff_traces(left, right)
    print(diff.summary())
    return 0 if diff.identical else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TDO-CIM reproduction: evaluate kernels, serve traffic, "
        "run benchmarks, and record/replay/diff serving traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="host-vs-CIM evaluation of one kernel")
    run.add_argument("kernel", nargs="?", help="PolyBench kernel name")
    run.add_argument("--dataset", default="MEDIUM", help="dataset preset")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--pipeline", default=None, help="named pass pipeline")
    run.add_argument(
        "--verify", action="store_true", help="check results against NumPy"
    )
    run.add_argument("--list", action="store_true", help="list kernels and exit")
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve", help="run a canonical serving scenario (optionally record it)"
    )
    serve.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="serve_multitenant",
    )
    serve.add_argument(
        "--seed", type=int, default=None, help="override the pinned seed"
    )
    serve.add_argument(
        "--record", metavar="PATH", help="save the recorded trace as JSONL"
    )
    serve.set_defaults(func=cmd_serve)

    gateway = sub.add_parser(
        "gateway",
        help="wall-clock process-pool gateway: open-loop load, differential, "
        "or seeded chaos storm",
    )
    gateway.add_argument(
        "mode",
        nargs="?",
        choices=("load", "chaos"),
        default="load",
        help="'load' (default): open-loop load generation; 'chaos': seeded "
        "fault storm with the resilience invariant suite",
    )
    gateway.add_argument(
        "--diff",
        metavar="TRACE",
        help="differential gate: drive TRACE through VirtualClock mode and "
        "the wall-clock pool, require bit-identical responses and bills",
    )
    gateway.add_argument(
        "--workers", type=int, default=2, help="worker processes in the pool"
    )
    gateway.add_argument(
        "--requests", type=int, default=1000, help="requests to offer"
    )
    gateway.add_argument(
        "--arrivals",
        choices=("poisson", "trace"),
        default="poisson",
        help="arrival process (trace arrivals need --trace)",
    )
    gateway.add_argument(
        "--rate", type=float, default=200.0, help="Poisson offered rate (req/s)"
    )
    gateway.add_argument(
        "--trace",
        metavar="PATH",
        help="recorded trace: supplies the workload bodies (and the "
        "arrival pattern with --arrivals trace)",
    )
    gateway.add_argument(
        "--amplify",
        type=float,
        default=1.0,
        help="time-compress trace arrivals by this factor",
    )
    gateway.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="uniform +/- jitter (s) on resampled trace arrivals",
    )
    gateway.add_argument(
        "--tenants", type=int, default=4, help="synthetic workload tenants"
    )
    gateway.add_argument("--seed", type=int, default=0)
    gateway.add_argument(
        "--cache-dir", help="shared on-disk compile-cache directory"
    )
    gateway.add_argument(
        "--hot-spares",
        type=int,
        default=1,
        help="chaos: pre-spawned spare workers promoted on worker death",
    )
    gateway.add_argument(
        "--respawns",
        type=int,
        default=16,
        help="chaos: respawn budget per worker slot",
    )
    gateway.add_argument(
        "--hang-timeout",
        type=float,
        default=0.5,
        help="chaos: watchdog timeout (s) before a worker is declared wedged",
    )
    gateway.add_argument(
        "--output", metavar="PATH", help="write the load report JSON here"
    )
    gateway.set_defaults(func=cmd_gateway)

    # Listed for --help only: main() hands everything after `bench` to
    # benchmarks/suite/run.py unparsed.
    sub.add_parser(
        "bench",
        help="run benchmarks/suite/run.py with the arguments that follow",
    )

    replay = sub.add_parser(
        "replay", help="re-drive a recorded trace through a fresh server"
    )
    replay.add_argument("trace", help="path to a .jsonl trace")
    replay.add_argument(
        "--diff",
        action="store_true",
        help="print the full section-by-section diff report",
    )
    replay.add_argument(
        "--save", metavar="PATH", help="save the replayed trace as JSONL"
    )
    replay.set_defaults(func=cmd_replay)

    diff = sub.add_parser("diff", help="compare two traces bit-for-bit")
    diff.add_argument("left")
    diff.add_argument("right")
    diff.set_defaults(func=cmd_diff)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] == ["bench"]:
            return cmd_bench(argv[1:])
        args = build_parser().parse_args(argv)
        return args.func(args)
    except KeyboardInterrupt:
        # A graceful SIGINT exit for the simulated subcommands (the
        # gateway handles SIGINT itself, draining the pool first): no
        # traceback, the conventional 128+SIGINT exit code.
        print("\nrepro: interrupted", file=sys.stderr)
        return 130
    except TraceFormatError as exc:
        print(f"repro: bad trace: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
