"""The compiler's observable output, pinned bit for bit.

For every case of the pass-manager differential in
``tests/test_compiler_passes.py`` — each PolyBench kernel with and without
a SMALL size hint, four kernels across eight option sets, and Listing 2's
shared-input source — plus one GEMM that Listing 3's tiling does split,
``tests/golden/compiler/compiler.json`` holds the
printed program, the decisions, the fusion groups, the tiled kernels, the
runtime calls and the device mappings.  The differential compares the
pipeline with :mod:`repro.compiler.legacy`, which calls the same leaf
transforms, so it cannot see a change inside one of them; these
snapshots can.

Recording checks that the pipeline and the legacy monolith agree on every
case, adds the cases the file does not have yet and never rewrites one it
has, so an entry keeps the tree it was first recorded from::

    PYTHONPATH=src python tests/test_compiler_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.compiler import CompileOptions, compile_source
from repro.eval.lifetime import SHARED_INPUT_GEMMS_SOURCE
from repro.frontend import parse_program
from repro.ir.printer import to_source
from repro.workloads import get_kernel, kernel_names

GOLDEN = Path(__file__).resolve().parent / "golden" / "compiler" / "compiler.json"

UNCACHED = dict(enable_compile_cache=False)

#: The option sets of the differential, by the ids it gives them.
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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(INPUTS)


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_compiler_output_equals_golden(case, golden):
    assert snapshot(compile_case(case)) == golden[case]


if __name__ == "__main__":
    from repro.compiler.legacy import compile_monolithic

    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    added = sorted(set(INPUTS) - set(recorded))
    for case in added:
        source, options, size_hint = INPUTS[case]
        legacy = compile_monolithic(
            parse_program(source), CompileOptions(**options, **UNCACHED), size_hint
        )
        recorded[case] = snapshot(compile_case(case))
        assert recorded[case] == snapshot(legacy), case
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(added)} new case(s) to {GOLDEN}")
