"""Message buffers: real (numpy-backed) and phantom (size-only).

Tests and examples run collectives over :class:`RealBuffer`, which moves
actual bytes so data correctness is observable. Large benchmark sweeps
use :class:`PhantomBuffer`, which keeps only sizes — at 32 MiB x 256
ranks, allocating real buffers would dominate the run without changing
any simulated timing. Chunk-ownership tracking lives in the algorithms,
not here, so the key invariants are checked in both modes.

Both types present the same tiny interface: ``nbytes``, ``read(disp,
count)`` and ``write(disp, payload)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import MpiError, TruncationError

if TYPE_CHECKING:  # numpy loads with the first real buffer, off the start-up path
    import numpy as np

__all__ = ["RealBuffer", "PhantomBuffer", "make_buffer"]


class _BufferBase:
    """Shared slicing validation."""

    nbytes: int

    def _check_span(self, disp: int, count: int) -> None:
        if count < 0:
            raise MpiError(f"negative byte count {count}")
        if disp < 0 or disp + count > self.nbytes:
            raise MpiError(
                f"span [{disp}, {disp + count}) outside buffer of {self.nbytes} bytes"
            )


class RealBuffer(_BufferBase):
    """A numpy ``uint8`` buffer that actually stores message bytes."""

    phantom = False

    def __init__(self, nbytes: int, fill: Optional[int] = None):
        if nbytes < 0:
            raise MpiError(f"buffer size must be >= 0, got {nbytes}")
        import numpy as np

        self.nbytes = nbytes
        self.array = np.zeros(nbytes, dtype=np.uint8)
        if fill is not None:
            self.array[:] = fill

    @classmethod
    def from_array(cls, array: np.ndarray) -> "RealBuffer":
        """Wrap an existing array (viewed as bytes, no copy)."""
        import numpy as np

        buf = cls.__new__(cls)
        flat = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        buf.array = flat
        buf.nbytes = flat.size
        return buf

    def read(self, disp: int, count: int) -> np.ndarray:
        """A *copy* of ``[disp, disp+count)`` — the payload a send carries.

        Copying at send time gives MPI's semantics: later writes to the
        source buffer cannot corrupt an in-flight message.
        """
        self._check_span(disp, count)
        return self.array[disp : disp + count].copy()

    def write(self, disp: int, payload: np.ndarray) -> int:
        """Deposit an incoming payload; returns the byte count written."""
        count = int(payload.size)
        if disp < 0 or disp + count > self.nbytes:
            raise TruncationError(
                f"payload of {count} bytes does not fit at disp {disp} "
                f"in buffer of {self.nbytes} bytes"
            )
        self.array[disp : disp + count] = payload
        return count

    def __repr__(self) -> str:
        return f"<RealBuffer {self.nbytes}B>"


class PhantomBuffer(_BufferBase):
    """A buffer that tracks only its size; reads return byte counts."""

    phantom = True

    def __init__(self, nbytes: int):
        if nbytes < 0:
            raise MpiError(f"buffer size must be >= 0, got {nbytes}")
        self.nbytes = nbytes

    def read(self, disp: int, count: int) -> int:
        self._check_span(disp, count)
        return count

    def write(self, disp: int, payload) -> int:
        count = int(payload) if not hasattr(payload, "size") else int(payload.size)
        if disp < 0 or disp + count > self.nbytes:
            raise TruncationError(
                f"payload of {count} bytes does not fit at disp {disp} "
                f"in phantom buffer of {self.nbytes} bytes"
            )
        return count

    def __repr__(self) -> str:
        return f"<PhantomBuffer {self.nbytes}B>"


def make_buffer(nbytes: int, real: bool, fill: Optional[int] = None):
    """Factory used by the broadcast drivers."""
    if real:
        return RealBuffer(nbytes, fill=fill)
    return PhantomBuffer(nbytes)
