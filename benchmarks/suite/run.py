"""The repository's benchmark: seven workloads, a per-layer traced pass.

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py [--seed N] [--repeat R] [--output FILE]

The first form is the contract of ``BENCHMARK.json``: one workload, and as
the last line of standard output one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The second runs
all seven workloads untraced and traced, prints every metric by name with
its unit, checks that the workloads separate the layers, and writes the
full result (per-input rows, machine description) to ``--output``.

``--selftest`` is a one-fiftieth-size run of everything that validates
the output against ``BENCHMARK.json``; ``--compare A.json [B.json ...]``
prints run-to-run spread and, between files, each median's gap against
its bound.  See ``README.md`` next to this file for the definitions.

Every workload runs in a fresh subprocess (``workloads.py``) with the
BLAS thread count pinned to one and the hash seed fixed; this file itself
imports nothing but the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT_DIR = SUITE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: NumPy's multithreaded BLAS makes one offloaded gemm run take either
#: ~1 ms or ~16 ms on a 2-vCPU box; one thread gives a steady 1-2 ms.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Set-up is measured this many times per run (fresh process each time)
#: and reported as the median: one start takes 0.45 s or 0.7 s depending on
#: the moment, and three samples still let the median flip between the two.
SETUP_SAMPLES = 5
#: A child that has not finished by then is killed with its process group.
CHILD_TIMEOUT_S = 170
#: A run whose workloads saw machine speeds further apart than this is
#: marked as disturbed.
DISTURBED = 0.15
SELFTEST_SECONDS = 0.2
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchmarkError(RuntimeError):
    """A workload process failed, or a result is not what the spec says."""


# ----------------------------------------------------------------------
# Running workload processes
# ----------------------------------------------------------------------
def child(*arguments: str) -> dict:
    """Run ``workloads.py`` with the pinned environment; return the JSON
    document on the last line of its output."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    environment = dict(os.environ, **PINNED_ENV)
    inherited = os.environ.get("PYTHONPATH")
    environment["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else ""
    )
    command = [
        sys.executable, str(SUITE / "workloads.py"), *arguments,
        "--out-dir", str(OUT_DIR), "--spawned-at", repr(time.time()),
    ]
    # Its own process group, so that a timeout also ends gateway workers.
    process = subprocess.Popen(
        command, env=environment, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"timed out after {CHILD_TIMEOUT_S} s: {arguments}") from None
    if process.returncode != 0:
        raise BenchmarkError(f"workloads.py {arguments} exited with {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """One workload, one mode.  Untraced runs also measure set-up in
    ``setup_samples - 1`` extra processes that stop before the timed
    region, and report the median."""
    common = ("--workload", name, "--seed", str(seed), "--seconds", repr(seconds))
    if trace:
        return child(*common, "--trace", "1")
    setups = [
        child(*common, "--setup-only")["end_to_end"]["setup_s"]
        for _ in range(setup_samples - 1)
    ]
    document = child(*common, "--trace", "0")
    setups.append(document["end_to_end"]["setup_s"])
    document["setup_samples_s"] = setups
    document["end_to_end"]["setup_s"] = statistics.median(setups)
    return document


def is_correct(document: dict) -> bool:
    """Failed operations are tolerated on the open-loop workload only,
    where they count against the latency limit instead."""
    if document["errors"]:
        return False
    return document["failed"] == 0 or document["workload"] == "gw_open_mix"


def report_problems(document: dict) -> None:
    for message in document["errors"]:
        print(f"ERROR {document['workload']}: {message}", file=sys.stderr)
    for message in document["failures"]:
        print(f"FAILED OP {document['workload']}: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# Contract mode: one workload, one JSON line
# ----------------------------------------------------------------------
def contract(args) -> int:
    document = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report_problems(document)
    if args.trace:
        # A layer the workload never enters spends nothing there.
        values = {name: document["per_layer"].get(name, 0.0) for name in PER_LAYER}
        declared = PER_LAYER
    else:
        values = document["end_to_end"]
        declared = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": metric["unit"]}
        for name, metric in declared.items()
    }
    correct = is_correct(document)
    print(json.dumps({
        "correct": correct,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Full mode: all workloads, both passes
# ----------------------------------------------------------------------
def full_run(seed: int, seconds: float, trace: str, setup_samples: int) -> dict:
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "loadavg_before": os.getloadavg(),
    }
    workloads = {}
    for name in WORKLOADS:
        entry = {}
        if trace in ("0", "both"):
            entry["untraced"] = run_workload(name, seed, seconds, 0, setup_samples)
        if trace in ("1", "both"):
            entry["traced"] = run_workload(name, seed, seconds, 1)
        workloads[name] = entry
        for document in entry.values():
            report_problems(document)
    machine["loadavg_after"] = os.getloadavg()
    documents = [document for entry in workloads.values() for document in entry.values()]
    machine["numpy"] = documents[0]["numpy"]
    # Every pass times the same machine-speed probe between its operations.
    probes = [document["machine_probe_ms"] for document in documents]
    machine["probe_ms_min"], machine["probe_ms_max"] = min(probes), max(probes)
    machine["disturbed"] = max(probes) / min(probes) - 1.0 > DISTURBED
    return {"seed": seed, "seconds": seconds, "machine": machine, "workloads": workloads}


def print_run(run: dict) -> None:
    """Every metric by name, with its unit."""
    for name, entry in run["workloads"].items():
        if "untraced" in entry:
            document = entry["untraced"]
            print(f"\n{name}: {document['attempted']} ops, {document['failed']} failed, "
                  f"{document['samples_per_segment']} samples per segment, "
                  f"per-input geomean {document['rows_geomean_ms']:.4f} ms")
            for metric, value in document["end_to_end"].items():
                print(f"  {metric:<32}{value:>16.6g} {END_TO_END[metric]['unit']}")
        if "traced" in entry:
            print(f"{name}, traced pass:")
            for metric, value in entry["traced"]["per_layer"].items():
                if value:
                    print(f"  {metric:<32}{value:>16.6g} {PER_LAYER[metric]['unit']}")
    machine = run["machine"]
    print(f"\nmachine: {machine['nproc']} cpus, python {machine['python']}, numpy "
          f"{machine['numpy']}, probe {machine['probe_ms_min']:.3f} to "
          f"{machine['probe_ms_max']:.3f} ms"
          + (" (DISTURBED)" if machine["disturbed"] else ""))


#: The dominant layer group of the serving workloads, as measured when the
#: benchmark was defined (README, layer-share table); gated at 0.8x.
DOMINANT_SHARE = {
    "serve_batched": (("serve", "compiler"), 0.40),
    "fleet_unbatched": (("hw", "system", "driver", "runtime"), 0.58),
}
#: Share of a pool request's in-flight time that is not worker service
#: (the process hop), as measured; gated at 0.8x.
HOP_SHARE = {"gw_closed_small": 0.57, "gw_open_mix": 0.59}


def separation_checks(run: dict) -> dict[str, bool]:
    """Do the workloads stress different layers?  Needs both passes."""
    traced = {name: entry["traced"] for name, entry in run["workloads"].items()}
    layer = {name: document["per_layer"] for name, document in traced.items()}

    def share(workload: str, *layers: str) -> float:
        return sum(traced[workload]["layer_share"][name] for name in layers)

    device = ("hw", "system", "driver", "runtime")
    checks = {
        "compile_cold spends nothing in hw/runtime/serve/fleet":
            share("compile_cold", "hw", "runtime", "serve", "fleet") == 0.0,
        "compile_cold is >= 70% compile path":
            share("compile_cold", "frontend", "poly", "tactics", "transforms",
                  "compiler", "codegen", "ir", "ir.engine") >= 0.70,
        "exec_host is >= 50% ir + ir.engine": share("exec_host", "ir", "ir.engine") >= 0.50,
        "exec_host is <= 5% device stack": share("exec_host", *device) <= 0.05,
        "exec_offload is >= 50% device stack": share("exec_offload", *device) >= 0.50,
        "exec_offload is <= 15% ir.engine": share("exec_offload", "ir.engine") <= 0.15,
        "serve_batched programs <= 1/4 of fleet_unbatched's cells per request":
            layer["serve_batched"]["hw.tile_write_ms"]
            <= layer["fleet_unbatched"]["hw.tile_write_ms"] / 4,
        "serve_batched occupancy is 16": layer["serve_batched"]["serve.batch_occupancy"] == 16,
        "fleet_unbatched occupancy is 1": layer["fleet_unbatched"]["serve.batch_occupancy"] == 1,
    }
    for name in WORKLOADS[:5]:
        checks[f"{name} spans cover >= 90% of the op"] = layer[name]["spans.coverage"] >= 0.9
    for name, (layers, measured) in DOMINANT_SHARE.items():
        checks[f"{name} is >= {0.8 * measured:.2f} {'+'.join(layers)}"] = (
            share(name, *layers) >= 0.8 * measured
        )
    for name, measured in HOP_SHARE.items():
        hop = 1.0 - layer[name]["gateway.worker_service_ms"] / layer[name]["gateway.in_flight_ms_p50"]
        checks[f"{name} is >= {0.8 * measured:.2f} process hop"] = hop >= 0.8 * measured
    if all("untraced" in entry for entry in run["workloads"].values()):
        compile_p50, offload_p50 = (
            run["workloads"][name]["untraced"]["end_to_end"]["latency_p50_ms"]
            for name in ("compile_cold", "exec_offload")
        )
        writes = [layer[name]["sim_cell_writes_per_op"] for name in ("compile_cold", "exec_offload")]
        checks["compile_cold and exec_offload differ > 2x in p50 or cell writes"] = (
            max(compile_p50, offload_p50) > 2 * min(compile_p50, offload_p50)
            or max(writes) > 2 * min(writes)
        )
    return checks


def run_all(args) -> int:
    runs = []
    status = 0
    for repeat in range(args.repeat):
        run = full_run(args.seed + repeat, args.seconds, args.trace, SETUP_SAMPLES)
        print_run(run)
        documents = [d for entry in run["workloads"].values() for d in entry.values()]
        if not all(is_correct(document) for document in documents):
            status = 1
        if args.trace in ("1", "both"):
            run["separation"] = separation_checks(run)
            print("\nlayer separation:")
            for check, passed in run["separation"].items():
                print(f"  {'ok  ' if passed else 'FAIL'} {check}")
            if not all(run["separation"].values()):
                status = 1
        runs.append(run)
        if args.output:  # after every run, so an interrupted series keeps its runs
            Path(args.output).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return status


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------
def validate_against_spec(run: dict) -> list[str]:
    """Every declared metric present, named and typed as declared."""
    problems = []
    for name in list(END_TO_END) + list(PER_LAYER) + WORKLOADS:
        if not NAME.match(name):
            problems.append(f"name {name!r} is not [A-Za-z0-9_.-]+")
    for workload in WORKLOADS:
        entry = run["workloads"].get(workload, {})
        for mode, declared, section, required in (
            ("untraced", END_TO_END, "end_to_end", True),
            ("traced", PER_LAYER, "per_layer", False),
        ):
            values = entry.get(mode, {}).get(section)
            if values is None:
                problems.append(f"{workload}: no {mode} result")
                continue
            for name in values:
                if name not in declared:
                    problems.append(f"{workload}: {name} is not declared in BENCHMARK.json")
            for name in declared:
                value = values.get(name, None if required else 0.0)
                if not isinstance(value, (int, float)) or value != value:
                    problems.append(f"{workload}: {name} is missing or not a number")
    return problems


def selftest(args) -> int:
    started = time.perf_counter()
    first = full_run(args.seed, SELFTEST_SECONDS, "both", setup_samples=1)
    second = full_run(args.seed, SELFTEST_SECONDS, "0", setup_samples=1)
    problems = validate_against_spec(first)
    for workload in WORKLOADS:
        documents = [first["workloads"][workload]["untraced"],
                     first["workloads"][workload]["traced"],
                     second["workloads"][workload]["untraced"]]
        for document in documents:
            if not is_correct(document):
                problems.append(f"{workload}: {document['errors'] + document['failures']}")
        if documents[0]["sims"] != documents[2]["sims"]:
            problems.append(
                f"{workload}: sim_* differ between two runs of one seed: "
                f"{documents[0]['sims']} != {documents[2]['sims']}"
            )
    for problem in problems:
        print(f"SELFTEST FAIL {problem}", file=sys.stderr)
    print(f"selftest: {len(WORKLOADS)} workloads, {len(END_TO_END)} end-to-end and "
          f"{len(PER_LAYER)} per-layer metrics, {len(problems)} problems, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> end-to-end metric -> one value per run in the file."""
    table: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, entry in run["workloads"].items():
            document = entry["untraced"]
            row = table.setdefault(workload, {})
            for metric, value in document["end_to_end"].items():
                row.setdefault(metric, []).append(value)
            row.setdefault("failed", []).append(document["failed"])
    return table


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(paths: list[str]) -> int:
    tables = [load_runs(path) for path in paths]
    base = tables[0]
    breaches = 0
    print(f"{'workload':<16}{'metric':<22}{'median':>13}{'spread':>8}"
          + "".join(f"{'median':>13}{'worse':>8}" for _ in tables[1:]) + f"{'bound':>7}")
    for workload in WORKLOADS:
        for metric, declared in END_TO_END.items():
            values = base[workload][metric]
            median = statistics.median(values)
            bound = declared["bound"]
            cells = f"{workload:<16}{metric:<22}{median:>13.6g}{spread(values):>8.3f}"
            # Set-up spread is reported but not held to the bound.
            failed = metric != "setup_s" and spread(values) > bound
            for other in tables[1:]:
                theirs = statistics.median(other[workload][metric])
                gap = (theirs - median) / median
                worse = gap if declared["better"] == "lower" else -gap
                failed = failed or worse > bound
                cells += f"{theirs:>13.6g}{worse:>+8.3f}"
            print(cells + f"{bound:>7.3f}" + ("  BREACH" if failed else ""))
            breaches += failed
        for other in tables[1:]:
            if sorted(other[workload]["failed"]) != sorted(base[workload]["failed"]):
                print(f"{workload:<16}failed operations differ  BREACH")
                breaches += 1
    print(f"{breaches} breaches")
    return 1 if breaches else 0


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1", "both"), default=None,
                        help="0 untraced, 1 traced; all workloads default to both")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: this many runs, seeds seed, seed+1, ...")
    parser.add_argument("--output", help="all workloads: write the full result here")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(args.compare)
        if args.selftest:
            return selftest(args)
        if args.workload:
            if args.trace == "both":
                parser.error("--workload takes --trace 0 or 1")
            args.trace = int(args.trace or "0")
            return contract(args)
        args.trace = args.trace or "both"
        return run_all(args)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
