"""Block bookkeeping for ``perfbench``'s per-operation leak check.

No process shares memory with another any more: campaign stage A
returns each scenario's panel through the executor's normal pickling,
and every unit fit runs in the process that planned it.  This module
no longer imports :mod:`multiprocessing.shared_memory`; it exists only
because ``perfbench/run.py`` imports :func:`live_arena_blocks` and
:func:`live_panel_blocks` to fail any operation that leaves a block
behind, and ``perfbench``'s own tests allocate a deliberately leaked
block through :class:`SharedFrameArena` to prove that check fires.
No code in ``repro`` creates one, so both functions return ``()`` on
every entry point.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Names of the blocks allocated and not yet released, in this process.
_LIVE: set[str] = set()
_NAMES = itertools.count()


def live_arena_blocks() -> tuple[str, ...]:
    """Names of blocks this process allocated and has not released."""
    return tuple(sorted(_LIVE))


def live_panel_blocks() -> tuple[str, ...]:
    """Live blocks that hold a panel: none, since panels are never shared."""
    return ()


class SharedFrameArena:
    """A named set of private float64 buffers, tracked until :meth:`close`."""

    def __init__(self, tag: str = "frame") -> None:
        self._tag = str(tag)
        self._names: list[str] = []

    def allocate(self, label: str, shape: tuple[int, ...]) -> np.ndarray:
        """A new uninitialised float64 buffer of *shape*, live until close."""
        name = f"{self._tag}/{label}/{next(_NAMES)}"
        _LIVE.add(name)
        self._names.append(name)
        return np.empty(tuple(int(n) for n in shape))

    def close(self) -> None:
        """Release every buffer's name (idempotent)."""
        names, self._names = self._names, []
        _LIVE.difference_update(names)

    def __enter__(self) -> "SharedFrameArena":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False
