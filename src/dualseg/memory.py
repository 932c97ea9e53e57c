"""Live-byte accounting for tensor payloads.

Every Tensor that owns its buffer reports its payload size here on
creation, and again (in `Tensor.__del__`) when it is collected.
CPython's refcounting frees non-cyclic tensors deterministically, so
`current_bytes` tracks live payload bytes closely and `peak_bytes` is a
faithful high-water mark for serial code.

The ledger deliberately counts only tensor payloads: short-lived numpy
temporaries inside an operation are not visible to it. That is the
measurement contract for the patch-vs-global inference comparison.
"""

from __future__ import annotations


class AllocationLedger:
    """Current and peak live payload bytes, resettable between phases."""

    def __init__(self):
        self.current_bytes = 0
        self.peak_bytes = 0

    def on_alloc(self, nbytes: int) -> None:
        self.current_bytes += nbytes
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def on_free(self, nbytes: int) -> None:
        self.current_bytes -= nbytes

    def reset_peak(self) -> int:
        """Start a new phase: peak collapses to the current live bytes.

        Returns the new baseline so callers can compute transient peaks
        as ``peak_bytes - baseline``.
        """
        self.peak_bytes = self.current_bytes
        return self.current_bytes


# Process-wide ledger. The tensor core reports into this instance.
LEDGER = AllocationLedger()
