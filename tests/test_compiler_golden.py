"""The compiler's observable output, pinned bit for bit.

For each PolyBench kernel with and without a SMALL size hint, four kernels
across eight option sets, Listing 2's shared-input source, and one GEMM
that Listing 3's tiling does split, ``tests/golden/compiler/compiler.json``
holds the printed program, the decisions, the fusion groups, the tiled
kernels, the runtime calls and the device mappings.  The snapshots see a
change inside a leaf transform as well as one in the pipeline that
orchestrates them.

Recording adds the cases the file does not have yet and never rewrites one
it has, so an entry keeps the tree it was first recorded from; record from
the parent of a change, never from the change itself::

    PYTHONPATH=src python tests/test_compiler_golden.py
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import json
from pathlib import Path

import pytest

from repro.compiler import CompileOptions, compile_source
from repro.eval.lifetime import SHARED_INPUT_GEMMS_SOURCE
from repro.ir.printer import to_source
from repro.workloads import get_kernel, kernel_names

GOLDEN = Path(__file__).resolve().parent / "golden" / "compiler" / "compiler.json"

UNCACHED = dict(enable_compile_cache=False)

#: The option sets the four kernels are compiled under, by id.
OPTION_SETS = {
    "no-offload": dict(enable_offload=False),
    "no-fusion-flag": dict(enable_fusion=False),
    "tiling": dict(enable_tiling=True, crossbar_rows=16, crossbar_cols=16),
    "selective": dict(min_macs_per_write=32.0),
    "gemm-only": dict(offload_kinds=("gemm",)),
    "always-policy": dict(offload_policy="always"),
    "never-policy": dict(offload_policy="never"),
    "shared-input-fusion": dict(fusion_requires_shared_input=True),
}

PURE_GEMM = """
void matmul(int N, float C[N][N], float A[N][N], float B[N][N]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < N; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


def _inputs() -> dict[str, tuple[str, dict, dict | None]]:
    """Case name -> (source, options, size hint)."""
    inputs = {}
    for name in kernel_names():
        kernel = get_kernel(name)
        inputs[f"polybench/{name}/small-hint"] = (kernel.source, {}, kernel.params("SMALL"))
        inputs[f"polybench/{name}/no-hint"] = (kernel.source, {}, None)
    for name in ("2mm", "gemm", "mvt", "conv"):
        kernel = get_kernel(name)
        for option_id, options in OPTION_SETS.items():
            inputs[f"options/{name}/{option_id}"] = (
                kernel.source, options, kernel.params("SMALL")
            )
    inputs["fusion/shared-input"] = (SHARED_INPUT_GEMMS_SOURCE, {}, {"N": 32})
    # The PolyBench GEMMs keep their init statement in the nest, which
    # tiling rejects; a pure GEMM is split.
    inputs["tiling/pure-gemm"] = (PURE_GEMM, OPTION_SETS["tiling"], {"N": 64})
    return inputs


INPUTS = _inputs()


def snapshot(result) -> dict:
    """What a compile shows, as JSON."""
    report = result.report
    return json.loads(json.dumps({
        "printed": to_source(result.program).splitlines(),
        "scop_count": report.scop_count,
        "decisions": [dataclasses.asdict(d) for d in report.decisions],
        "fusion_groups": report.fusion_groups,
        "tiled_kernels": report.tiled_kernels,
        "runtime_calls": report.runtime_calls_emitted,
        "matches": [[m.kind, m.update_stmt] for m in result.matches],
        "offloaded": result.offloaded,
        "mappings": [[m.call_name for m in mapping.mappings] for mapping in result.mappings],
    }))


def compile_case(case: str):
    source, options, size_hint = INPUTS[case]
    return compile_source(source, CompileOptions(**options, **UNCACHED), size_hint)


def test_a_compile_leaves_no_cyclic_garbage():
    """Schedule trees point down only and no pass builds a function that
    captures itself, so reference counting alone frees every compile."""
    for case in sorted(INPUTS):  # warm-up: first-use caches are not garbage
        compile_case(case)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for case in sorted(INPUTS):
            compile_case(case)
        gc.collect()
        kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        assert not gc.garbage, (
            f"{len(gc.garbage)} objects in reference cycles: {kinds.most_common()}"
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(INPUTS)


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_compiler_output_equals_golden(case, golden):
    assert snapshot(compile_case(case)) == golden[case]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    added = sorted(set(INPUTS) - set(recorded))
    for case in added:
        recorded[case] = snapshot(compile_case(case))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(added)} new case(s) to {GOLDEN}")
