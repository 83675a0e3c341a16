"""Shared-memory storage for zero-copy process-pool fan-out.

The process-pool study used to pickle the full :class:`~repro.synthcontrol.donor.Panel`
into every per-unit task, so the transport cost grew as
``O(tasks x panel_bytes)`` and the parallel study ran *slower* than
serial at CI scale.  This module keeps every float payload a pooled
worker reads — the study's panel and the batched fit engine's
pre-factored slabs — in named :mod:`multiprocessing.shared_memory`
blocks, so a task ships only a tiny named reference.  Measurement
frames stay in the private memory of the process that built them: no
worker reads a frame column, and only a pooled stage opens an arena,
so a serial run creates no block at all.

- :class:`SharedFrameArena` — the parent-side owner of a set of
  blocks.  :meth:`~SharedFrameArena.allocate` hands out a writable
  view of a new block for the caller to fill in place (the pivot
  scatters a panel straight into one — no seal-time copy), and
  :meth:`~SharedFrameArena.close` unlinks every block exactly once
  however the stage exits.
- :class:`SharedArrayRef` — the picklable worker-side reference: the
  block name and the array shape.  ``load()`` attaches by name and
  returns a zero-copy array view; ``panel()`` returns the block's
  :class:`~repro.synthcontrol.donor.Panel`.  Both are memoised per
  process, so a pooled worker running hundreds of unit tasks attaches
  (and unpickles the header) once per block.

Every block has one layout: an 8-byte little-endian header length, the
pickled header (empty for a plain array, ``(times, units)`` for a
panel), then the float64 payload at a 64-byte-aligned offset.

Lifecycle rules the pipeline relies on:

- a block is independent of any process pool, so a
  ``BrokenProcessPool`` rebuild needs no re-publication — respawned
  workers attach lazily by name;
- ``close`` removes the names immediately while live views (the
  parent's own arrays, attached workers) stay valid until they are
  dropped, so teardown never races the last fits and a block-backed
  panel outlives its arena;
- every created block is tracked in :func:`live_arena_blocks` until it
  is unlinked (panel blocks are also listed by :func:`live_panel_blocks`),
  which is what the leak tests assert drains to empty.
"""

from __future__ import annotations

import os
import pickle
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import PipelineError
from repro.synthcontrol.donor import Panel

#: Byte alignment of the payload within the block (numpy is happy with
#: any alignment, but 64 keeps the payload cache-line aligned).
_ALIGN = 64

#: Block-name prefixes; also how the leak tests recognise our blocks in
#: ``/dev/shm``.  Kept short: POSIX shm names are limited (NAME_MAX).
ARENA_PREFIX = "rpr-arena-"
PANEL_PREFIX = "rpr-panel-"

#: Names created by this process and not yet unlinked, with their block
#: sizes in bytes (``SharedMemory.size``) so the resource sampler can
#: report live ``/dev/shm`` byte totals without stat-ing the filesystem.
_LIVE: dict[str, int] = {}

#: An attach-cache entry: (mapping, array view, panel or ``None``).
_Entry = tuple[shared_memory.SharedMemory, np.ndarray, "Panel | None"]

#: Per-process attach cache: block name -> entry.  A pooled worker
#: touches the same blocks on every task; the first load attaches, the
#: rest hit this dict.  There is no
#: eviction: a pool never outlives the blocks its tasks read, so a
#: worker's entries die with it, and the parent's entries are popped
#: by :meth:`SharedFrameArena.close`.
_ATTACHED: dict[str, _Entry] = {}


def live_arena_blocks() -> tuple[str, ...]:
    """Names of blocks this process created and has not unlinked yet."""
    return tuple(sorted(_LIVE))


def live_panel_blocks() -> tuple[str, ...]:
    """The live blocks that hold a panel."""
    return tuple(n for n in live_arena_blocks() if n.startswith(PANEL_PREFIX))


def live_shm_bytes() -> int:
    """Total bytes of the live blocks this process owns.

    This is the byte-exact ``/dev/shm`` footprint of the blocks in
    :func:`live_arena_blocks` (each block's ``SharedMemory.size``),
    which the resource sampler records and the leak tests cross-check
    against the filesystem.  The dict is copied before summing: the
    sampler thread reads while the study thread allocates.
    """
    return sum(dict(_LIVE).values())


def live_shm_blocks() -> int:
    """How many live blocks this process owns."""
    return len(_LIVE)


def _payload_offset(header_len: int) -> int:
    head = 8 + header_len
    return head + (-head) % _ALIGN


def _map_block(
    shm: shared_memory.SharedMemory,
    shape: tuple[int, ...],
    offset: int,
    header: tuple | None,
) -> _Entry:
    """The cache entry over *shm*: its payload view and, for a panel, the Panel."""
    view = np.ndarray(shape, dtype=np.float64, buffer=shm.buf, offset=offset)
    if header is None:
        return shm, view, None
    times, units = header
    return shm, view, Panel(times=tuple(times), units=tuple(units), matrix=view)


def _attach(name: str, shape: tuple[int, ...]) -> _Entry:
    """Attach block *name* by name and validate its header and size."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise PipelineError(
            f"shared block {name!r} does not exist "
            "(already unlinked, or never published in this host)"
        ) from None
    header_len = int.from_bytes(bytes(shm.buf[:8]), "little") if shm.size >= 8 else -1
    if not 0 <= header_len <= shm.size - 8:
        _defuse_handle(shm)
        raise PipelineError(
            f"shared block {name!r} has a corrupt header "
            f"(header_len={header_len}, size={shm.size})"
        )
    offset = _payload_offset(header_len)
    nbytes = int(np.prod(shape, dtype=np.int64)) * 8
    if shm.size < offset + nbytes:
        _defuse_handle(shm)
        raise PipelineError(
            f"shared block {name!r} holds {shm.size} bytes "
            f"but shape {shape} needs {nbytes} past its header"
        )
    header = pickle.loads(bytes(shm.buf[8 : 8 + header_len])) if header_len else None
    return _map_block(shm, shape, offset, header)


def _defuse_handle(shm: shared_memory.SharedMemory) -> None:
    """Release a block handle without unmapping under live numpy views.

    ``SharedMemory.close()`` (also run by ``__del__``) unmaps
    unconditionally on interpreters where numpy views hold no buffer
    export — any view still alive would then read freed pages.  Detaching
    the private ``_mmap``/``_buf``/``_fd`` fields makes ``close()`` a
    no-op: the descriptor is closed here, and the ``mmap`` object —
    referenced by every view's ``.base`` — unmaps itself when the last
    view is collected.  Falls back to a plain ``close()`` when the
    fields are absent (a non-CPython layout), accepting the eager unmap.
    """
    if not hasattr(shm, "_mmap"):  # pragma: no cover - unexpected layout
        try:
            shm.close()
        except BufferError:
            pass
        return
    shm._mmap = None
    shm._buf = None
    fd = getattr(shm, "_fd", -1)
    shm._fd = -1
    if fd is not None and fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed elsewhere
            pass


@dataclass(frozen=True)
class SharedArrayRef:
    """A picklable, zero-copy reference to one float64 array in a named block.

    This is all a process-pool task carries: attaching by *name* in the
    worker reconstructs the array (and, for a panel block, the full
    panel) without copying the payload.
    """

    name: str
    shape: tuple[int, ...]

    def _attached(self) -> _Entry:
        hit = _ATTACHED.get(self.name)
        if hit is None:
            hit = _ATTACHED[self.name] = _attach(self.name, tuple(self.shape))
        elif hit[1].shape != tuple(self.shape):
            raise PipelineError(
                f"shared block {self.name!r} is attached with shape "
                f"{hit[1].shape} but was requested as {self.shape}"
            )
        return hit

    def load(self) -> np.ndarray:
        """Attach (memoised per process) and return the array view."""
        return self._attached()[1]

    def panel(self) -> Panel:
        """Attach (memoised per process) and return the block's panel view."""
        panel = self._attached()[2]
        if panel is None:
            raise PipelineError(f"shared block {self.name!r} holds no panel")
        return panel


class SharedFrameArena:
    """Parent-side owner of a set of named float64 shared-memory blocks.

    One arena per pooled stage (a study's panel, a campaign's panels, a
    fit stage's pre-factored slabs): every :meth:`allocate` call creates
    one named block whose uninitialised array view the caller fills in
    place — the pivot scatters the panel, the fit engine writes its
    slabs.
    :meth:`close` unlinks every block exactly once (idempotent); live
    views — the parent's own arrays, attached workers — stay valid
    until dropped.
    """

    def __init__(self, tag: str = "frame") -> None:
        self._tag = str(tag)
        self._blocks: list[tuple[str, shared_memory.SharedMemory, SharedArrayRef]] = []
        self._closed = False

    def allocate(
        self, label: str, shape: tuple[int, ...], header: tuple | None = None
    ) -> np.ndarray:
        """A new named block's uninitialised float64 view of *shape*.

        *label* is bookkeeping only (diagnostics and :meth:`ref`
        lookup); the block name is random.  A *header* of
        ``(times, units)`` makes the block a panel block whose
        :meth:`SharedArrayRef.panel` is the panel over this matrix.
        Zero-length plain arrays are valid; a panel must be non-empty
        and its labels must match *shape*.
        """
        if self._closed:
            raise PipelineError(f"arena {self._tag!r} is already closed")
        shape = tuple(int(n) for n in shape)
        if any(n < 0 for n in shape):
            raise PipelineError(f"arena array {label!r} has negative shape {shape}")
        meta = b""
        if header is not None:
            times, units = header
            if len(shape) != 2 or 0 in shape:
                raise PipelineError(
                    f"shared panel needs a non-empty matrix, got shape {shape}"
                )
            if len(times) != shape[0] or len(units) != shape[1]:
                raise PipelineError(
                    f"panel labels do not match matrix shape {shape}: "
                    f"{len(times)} times, {len(units)} units"
                )
            header = (tuple(times), tuple(units))
            meta = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        offset = _payload_offset(len(meta))
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        prefix = ARENA_PREFIX if header is None else PANEL_PREFIX
        name = prefix + secrets.token_hex(8)
        shm = shared_memory.SharedMemory(name=name, create=True, size=offset + nbytes)
        _LIVE[name] = shm.size
        shm.buf[:8] = len(meta).to_bytes(8, "little")
        shm.buf[8 : 8 + len(meta)] = meta
        # The parent reads (and fills) through the attach cache too, so
        # a later ref.load() in-process is the same view, not a second
        # mapping of the same block.
        entry = _ATTACHED[name] = _map_block(shm, shape, offset, header)
        self._blocks.append((str(label), shm, SharedArrayRef(name=name, shape=shape)))
        return entry[1]

    def publish_panel(self, panel: Panel, label: str = "panel") -> SharedArrayRef:
        """Copy *panel* into a new panel block and return its reference.

        ``ref.panel()`` in this process is the block-backed panel view.
        """
        matrix = self.allocate(label, panel.matrix.shape, (panel.times, panel.units))
        np.copyto(matrix, panel.matrix)
        return self._blocks[-1][2]

    def ref(self, label: str) -> SharedArrayRef:
        """The picklable reference of the first block labelled *label*."""
        for block_label, _shm, ref in self._blocks:
            if block_label == label:
                return ref
        raise PipelineError(f"arena {self._tag!r} has no array labelled {label!r}")

    @property
    def names(self) -> tuple[str, ...]:
        """Block names still owned by this arena."""
        return tuple(shm.name for _label, shm, _ref in self._blocks)

    def close(self) -> None:
        """Unlink every block (idempotent); live views stay valid.

        Panels and prefactor slabs routinely outlive the arena (a
        block-backed panel is still read after the study that published
        it closes), and numpy views do not register buffer exports, so
        an eager ``SharedMemory.close()`` would silently unmap pages
        under them.  Instead each handle is *defused*: the name is
        unlinked (the ``/dev/shm`` entry disappears — what the leak
        tests assert) and the descriptor closed, while the mapping
        itself stays owned by the views through their
        ``ndarray.base -> mmap`` chain and is unmapped by the garbage
        collector when the last view dies.
        """
        if self._closed:
            return
        self._closed = True
        blocks, self._blocks = self._blocks, []
        for _label, shm, _ref in blocks:
            _LIVE.pop(shm.name, None)
            _ATTACHED.pop(shm.name, None)
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink race
                pass
            _defuse_handle(shm)

    def __enter__(self) -> "SharedFrameArena":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False
