"""Schedule-tree transformations (the TDO-CIM specific optimizations).

* :mod:`repro.transforms.tiling` — the revisited tiling + interchange of
  Listing 3: split a GEMM's bands so one operand tile fits the crossbar and
  reorder the tile loops so the written tile is reused across consecutive
  point-loop executions.
* :mod:`repro.transforms.fusion` — the revisited kernel fusion of Listing 2:
  group adjacent, independent, same-shaped kernels so device mapping can
  emit one batched runtime call and write shared operands only once.
* :mod:`repro.transforms.device_map` — replace matched subtrees by extension
  nodes carrying the CIM runtime calls (Listing 1).
"""

from repro.transforms.tiling import tile_band_chain, tile_gemm_for_crossbar, TilingError
from repro.transforms.fusion import FusionGroup, find_fusable_groups
from repro.transforms.device_map import (
    DeviceMapping,
    DeviceMappingResult,
    map_kernels_to_cim,
)

__all__ = [
    "tile_band_chain",
    "tile_gemm_for_crossbar",
    "TilingError",
    "FusionGroup",
    "find_fusable_groups",
    "DeviceMapping",
    "DeviceMappingResult",
    "map_kernels_to_cim",
]
