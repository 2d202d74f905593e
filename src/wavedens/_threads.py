"""The thread count read from WAVEDENS_THREADS, shared by the theorem runs'
replication pool and the Gamma_v endpoints."""

from __future__ import annotations

import os

from .errors import ConfigurationError


def thread_count() -> int:
    """WAVEDENS_THREADS as a thread count: unset or 0 means auto (the CPU
    count, at most 8); anything but an integer >= 0 raises."""
    raw = os.environ.get("WAVEDENS_THREADS", "0")
    try:
        k = int(raw)
    except ValueError:
        k = -1
    if k < 0:
        raise ConfigurationError(
            f"WAVEDENS_THREADS must be an integer >= 0 (0 = auto), got {raw!r}")
    return k or min(os.cpu_count() or 1, 8)
