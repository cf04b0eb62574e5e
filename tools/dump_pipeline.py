#!/usr/bin/env python3
"""Print the resolved pass pipeline and per-pass timings for a source file.

Resolves a named pipeline into its passes, compiles the given
mini-C file (or a built-in PolyBench kernel via ``--kernel``), and prints
the pass list, the per-pass wall-time table recorded by the pass
manager, the engine tier of every top-level loop nest of the compiled
program (``program_lowering_report``), and the compiler's decision
summary.

Usage::

    PYTHONPATH=src python tools/dump_pipeline.py path/to/kernel.c
    PYTHONPATH=src python tools/dump_pipeline.py --kernel gemm --pipeline no-fusion
    PYTHONPATH=src python tools/dump_pipeline.py --kernel 2mm \\
        --pipeline detect-only --size-hint NI=64 --size-hint NJ=64
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Allow running without PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import CompileOptions, TdoCimCompiler  # noqa: E402
from repro.compiler.passes import NAMED_PIPELINES, resolve_pass_names  # noqa: E402
from repro.ir.engine import program_lowering_report  # noqa: E402


def parse_size_hints(pairs: list[str]) -> dict[str, float] | None:
    if not pairs:
        return None
    hints: dict[str, float] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not _:
            raise SystemExit(f"--size-hint expects NAME=VALUE, got {pair!r}")
        hints[name] = float(value)
    return hints


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("source", nargs="?", help="mini-C source file")
    parser.add_argument(
        "--kernel", help="built-in PolyBench kernel name instead of a file"
    )
    parser.add_argument(
        "--pipeline",
        default="default",
        help=f"named pipeline ({', '.join(sorted(NAMED_PIPELINES))})",
    )
    parser.add_argument(
        "--policy",
        default="threshold",
        help="offload policy: threshold (default), always, never",
    )
    parser.add_argument(
        "--size-hint",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="problem-size parameter for the intensity heuristic (repeatable)",
    )
    parser.add_argument(
        "--list-passes", action="store_true", help="list each named pipeline's passes and exit"
    )
    args = parser.parse_args()

    if args.list_passes:
        print("named pipelines:")
        for name, passes in NAMED_PIPELINES.items():
            print(f"  {name:<12s} = {' -> '.join(passes)}")
        return 0

    if args.kernel:
        from repro.workloads import get_kernel

        source = get_kernel(args.kernel).source
        label = f"polybench:{args.kernel}"
    elif args.source:
        source = Path(args.source).read_text()
        label = args.source
    else:
        parser.error("give a source file or --kernel NAME")

    try:
        names = resolve_pass_names(args.pipeline)
        options = CompileOptions(
            pipeline=args.pipeline,
            offload_policy=args.policy,
            enable_compile_cache=False,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"pipeline {args.pipeline!r} for {label}:")
    print("  " + " -> ".join(names))
    print()

    result = TdoCimCompiler(options).compile(
        source, size_hint=parse_size_hints(args.size_hint)
    )
    print(result.report.timing_summary())
    print()
    print(f"engine lowering for {label}:")
    nests = program_lowering_report(result.program)
    for nest in nests:
        print(f"  {nest.summary()}")
    if not nests:
        print("  (no top-level loop nest)")
    print()
    print(result.report.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
