"""Core CIM runtime API: device management, buffers, transfers.

These are the Python counterparts of ``polly_cimInit``, ``polly_cimMalloc``,
``polly_cimHostToDev``, ``polly_cimDevToHost`` and ``polly_cimFree`` from the
paper's Listing 1.  Host-to-device and device-to-host "transfers" are copies
between host NumPy arrays and the CMA shared-memory region; they charge host
copy instructions, because the data preparation in shared memory is host
work (Figure 2 (d): "Prepare data in shared memory").
"""

from __future__ import annotations

import math

import numpy as np

from repro.driver.driver import CimDriver
from repro.runtime.errors import CimRuntimeError
from repro.runtime.handles import DeviceBuffer


class CimRuntime:
    """User-space runtime for one CIM device.

    The runtime is also a context manager: entering initialises the
    device, leaving calls :meth:`cim_shutdown`, so long-lived callers
    (e.g. the serving layer) cannot leak device buffers across sessions::

        with CimRuntime(driver) as runtime:
            buffer = runtime.cim_malloc(1024)
            ...
        # all outstanding buffers released here
    """

    def __init__(self, driver: CimDriver):
        self.driver = driver
        self._initialised_devices: set[int] = set()
        self._buffers: dict[int, DeviceBuffer] = {}
        # Handles are issued from a monotonic counter, so "issued but not
        # live" identifies a double free without keeping per-handle state
        # (long-lived serving runs free millions of buffers).
        self._last_issued_handle = 0
        self._shut_down = False

    # ------------------------------------------------------------------
    # polly_cimInit / polly_cimShutdown
    # ------------------------------------------------------------------
    def cim_init(self, device: int = 0) -> None:
        """Initialise (open) the CIM device.  Idempotent per device."""
        self._require_not_shut_down()
        if device != 0:
            raise CimRuntimeError(f"no CIM device {device} in the emulated system")
        if device in self._initialised_devices:
            return
        self.driver.open()
        self._initialised_devices.add(device)

    def cim_shutdown(self) -> None:
        """Tear the runtime down: release every outstanding
        :class:`DeviceBuffer` and close the session.  Idempotent; any API
        call other than another ``cim_shutdown`` afterwards raises a
        :class:`CimRuntimeError`."""
        if self._shut_down:
            return
        if self._initialised_devices:
            self.free_all()
        self._initialised_devices.clear()
        self._shut_down = True

    @property
    def closed(self) -> bool:
        return self._shut_down

    def __enter__(self) -> "CimRuntime":
        self.cim_init()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cim_shutdown()

    def _require_not_shut_down(self) -> None:
        if self._shut_down:
            raise CimRuntimeError("CIM runtime has been shut down")

    def _require_init(self) -> None:
        self._require_not_shut_down()
        if not self._initialised_devices:
            raise CimRuntimeError("cim_init() must be called before any other API")

    def cim_device_info(self) -> dict:
        """Structural device info (tile count, crossbar geometry) via the
        driver's ``CIM_QUERY`` ioctl — the counterpart of a
        ``polly_cimDeviceInfo`` query."""
        self._require_init()
        return self.driver.query_info()

    # ------------------------------------------------------------------
    # polly_cimMalloc / polly_cimFree
    # ------------------------------------------------------------------
    def cim_malloc(self, size: int) -> DeviceBuffer:
        """Allocate a physically-contiguous shared buffer of *size* bytes."""
        self._require_init()
        if size <= 0:
            raise CimRuntimeError("cim_malloc size must be positive")
        virtual, physical = self.driver.alloc(size)
        self._last_issued_handle += 1
        buffer = DeviceBuffer(
            handle=self._last_issued_handle,
            virtual=virtual,
            physical=physical,
            size=self.driver.buffer_size(virtual),
        )
        self._buffers[buffer.handle] = buffer
        return buffer

    def cim_free(self, buffer: DeviceBuffer) -> None:
        self._require_init()
        if buffer.handle not in self._buffers:
            # Distinguish a double free from a handle this runtime never
            # issued; neither may touch the handle table.
            if 0 < buffer.handle <= self._last_issued_handle:
                raise CimRuntimeError(
                    f"double free of buffer {buffer.handle} (already released)"
                )
            raise CimRuntimeError(f"unknown buffer {buffer.handle}")
        if self._buffers[buffer.handle] is not buffer:
            raise CimRuntimeError(
                f"buffer object does not match live handle {buffer.handle}"
            )
        # Release driver-side state first: if the driver rejects the free,
        # the handle table is left untouched instead of silently dropping
        # a still-allocated buffer.
        self.driver.free(buffer.virtual)
        del self._buffers[buffer.handle]

    def free_all(self) -> None:
        """Release every live buffer (used by program epilogues and tests)."""
        for buffer in list(self._buffers.values()):
            self.cim_free(buffer)

    def reset_handle_counter(self) -> None:
        """Restart buffer-handle numbering from 1.

        Only legal with no live buffers (handles must stay unambiguous).
        The serving tiers use this between requests for measurement
        isolation: with the counter reset, the handles a request's
        execution sees — including the ones quoted in its error messages —
        are a pure function of the request, not of how much the session
        served before it.
        """
        self._require_init()
        if self._buffers:
            raise CimRuntimeError(
                f"cannot reset handle numbering with {len(self._buffers)} "
                "live buffer(s)"
            )
        self._last_issued_handle = 0

    @property
    def live_buffers(self) -> int:
        return len(self._buffers)

    # ------------------------------------------------------------------
    # polly_cimHostToDev / polly_cimDevToHost
    # ------------------------------------------------------------------
    def cim_host_to_dev(self, buffer: DeviceBuffer, array: np.ndarray) -> int:
        """Copy a host array into the shared buffer.  Returns bytes copied."""
        self._require_init()
        data = np.ascontiguousarray(array, dtype=np.float32)
        nbytes = data.nbytes
        buffer.require_capacity(nbytes)
        self.driver.memory.write(buffer.physical, data.view(np.uint8).ravel())
        self._charge_copy(nbytes)
        return nbytes

    def cim_dev_to_host(
        self,
        buffer: DeviceBuffer,
        shape: tuple[int, ...],
        dtype=np.float32,
    ) -> np.ndarray:
        """Copy data back from the shared buffer into a new host array."""
        self._require_init()
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        buffer.require_capacity(nbytes)
        window = self.driver.memory.view(buffer.physical, nbytes)
        self._charge_copy(nbytes)
        return window.view(dtype).reshape(shape).copy()

    def _charge_copy(self, nbytes: int) -> None:
        instructions = nbytes * self.driver.host_model.copy_instructions_per_byte
        self.driver.overhead.charge_instructions(instructions)
        self.driver.counters.add("runtime.copy_bytes", nbytes)

    # ------------------------------------------------------------------
    # Introspection helpers used by the executor and tests
    # ------------------------------------------------------------------
    def buffer(self, handle: int) -> DeviceBuffer:
        if handle not in self._buffers:
            raise CimRuntimeError(f"unknown buffer handle {handle}")
        return self._buffers[handle]
