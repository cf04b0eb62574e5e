"""Device buffer handles returned by ``cim_malloc``."""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.errors import CimRuntimeError


@dataclass(frozen=True)
class DeviceBuffer:
    """A shared-memory buffer usable by the CIM accelerator.

    ``virtual`` is the address the host-side runtime uses, ``physical`` the
    address the accelerator's DMA uses (translation happens in the driver at
    allocation time and the pair is carried around together, mirroring how
    the real runtime caches the translation).
    """

    handle: int
    virtual: int
    physical: int
    size: int

    def require_capacity(self, needed: int) -> None:
        if needed > self.size:
            raise CimRuntimeError(
                f"buffer {self.handle} holds {self.size} B, {needed} B required"
            )
