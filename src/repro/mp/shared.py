"""Shared-memory tapes: freeze a compiled trace once, view it anywhere.

A :class:`~repro.ad.compiled.CompiledTape` is already a handful of flat
NumPy arrays, which makes it the perfect unit to ship across process
boundaries *without serialization*: :class:`SharedTape` copies each frozen
column into a :mod:`multiprocessing.shared_memory` segment exactly once,
and every worker process reconstructs zero-copy array views over the same
physical pages.  The handles themselves (:class:`SharedArray`,
:class:`SharedTape`) pickle as ``(segment name, shape, dtype)`` tuples
plus the small object-tape metadata replay needs (guards, folded
constants, labels, output ids) — a few hundred bytes per task submission
instead of megabytes of tape.

Lifecycle rules, which the tests pin down:

* the *creating* process owns its segments: every segment is tracked in a
  module registry and unlinked by an ``atexit`` hook, so even a run that
  never reaches its ``finally`` blocks does not leak ``/dev/shm``
  entries.  ``SharedTape``/``SharedArray`` are also context managers for
  deterministic cleanup.
* *attaching* processes (workers) only ever ``close()`` their mapping —
  they must not unlink segments they do not own.  Python's resource
  tracker would do exactly that on worker exit, so attachments are
  explicitly unregistered from it (or opened with ``track=False`` where
  supported).  A worker dying mid-task therefore cannot destroy the tape
  under its siblings; the OS reclaims the dead worker's mapping and the
  parent's atexit hook remains the single point of unlinking.
"""

from __future__ import annotations

import atexit
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad.compiled import CompiledTape, _AuxNodes
from repro.obs.trace import span as _obs_span

__all__ = ["SharedArray", "SharedTape", "unlink_all", "live_segments"]

# Segments this process created (name -> SharedMemory): unlinked at exit.
_OWNED: dict[str, shared_memory.SharedMemory] = {}
# Segments this process merely attached to (name -> SharedMemory).
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_LOCK = threading.Lock()


def _cleanup() -> None:
    """Close every attachment and unlink every owned segment."""
    with _LOCK:
        attached = list(_ATTACHED.values())
        _ATTACHED.clear()
        owned = list(_OWNED.values())
        _OWNED.clear()
    for shm in attached:
        try:
            shm.close()
        except Exception:
            pass
    for shm in owned:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


atexit.register(_cleanup)


def unlink_all() -> int:
    """Unlink every segment this process owns; returns how many.

    The atexit hook calls this implicitly; explicit calls are for tests
    and long-lived services that recycle tapes.
    """
    with _LOCK:
        n = len(_OWNED)
    _cleanup()
    return n


def live_segments() -> list[str]:
    """Names of the segments this process currently owns (for tests)."""
    with _LOCK:
        return sorted(_OWNED)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment, bypassing the resource tracker.

    The tracker assumes whoever opens a segment owns it and unlinks it at
    process exit — wrong for worker attachments, which must leave the
    parent's segments alone.  Python 3.13+ exposes ``track=False``;
    earlier versions need the explicit unregister.
    """
    with _LOCK:
        shm = _OWNED.get(name)
        if shm is not None:
            return shm
        shm = _ATTACHED.get(name)
        if shm is not None:
            return shm
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - version-dependent signature
        shm = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(
                getattr(shm, "_name", "/" + name), "shared_memory"
            )
        except Exception:
            pass
    with _LOCK:
        existing = _ATTACHED.setdefault(name, shm)
    if existing is not shm:  # lost a race; keep one mapping per process
        shm.close()
        shm = existing
    return shm


def _release(name: str) -> None:
    """Drop this process's claim on ``name`` (unlink if owned)."""
    with _LOCK:
        owned = _OWNED.pop(name, None)
        attached = _ATTACHED.pop(name, None)
    if attached is not None:
        try:
            attached.close()
        except Exception:
            pass
    if owned is not None:
        try:
            owned.close()
        except Exception:
            pass
        try:
            owned.unlink()
        except FileNotFoundError:
            pass


class SharedArray:
    """Picklable handle to one ndarray living in a shared-memory segment.

    The handle is just ``(segment name, shape, dtype, readonly)``;
    :meth:`view` maps the segment (cached per process) and returns a
    zero-copy NumPy view.  ``readonly`` handles hand out non-writable
    views so a worker cannot scribble on a tape its siblings are reading.
    """

    __slots__ = ("name", "shape", "dtype_str", "readonly")

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype_str: str,
        readonly: bool = True,
    ):
        self.name = name
        self.shape = tuple(shape)
        self.dtype_str = dtype_str
        self.readonly = readonly

    # __slots__-only classes pickle cleanly via __getstate__/__setstate__
    # protocol 2+, but be explicit so the contract is obvious (and stable
    # across pickle protocols): a handle is its four fields.
    def __reduce__(self):
        return (SharedArray, (self.name, self.shape, self.dtype_str, self.readonly))

    @classmethod
    def create(cls, array: np.ndarray, *, readonly: bool = True) -> "SharedArray":
        """Copy ``array`` into a fresh owned segment and return its handle."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        with _LOCK:
            _OWNED[shm.name] = shm
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return cls(shm.name, array.shape, array.dtype.str, readonly)

    @classmethod
    def empty(
        cls, shape: tuple[int, ...], dtype: Any = np.float64
    ) -> "SharedArray":
        """A writable, zero-filled owned segment (for result buffers)."""
        dt = np.dtype(dtype)
        size = max(int(np.prod(shape)) * dt.itemsize, 1)
        shm = shared_memory.SharedMemory(create=True, size=size)
        with _LOCK:
            _OWNED[shm.name] = shm
        np.ndarray(shape, dtype=dt, buffer=shm.buf)[...] = 0
        return cls(shm.name, shape, dt.str, readonly=False)

    def view(self) -> np.ndarray:
        """Zero-copy array view over the (possibly remote) segment."""
        shm = _attach(self.name)
        a = np.ndarray(self.shape, dtype=np.dtype(self.dtype_str), buffer=shm.buf)
        if self.readonly:
            a.flags.writeable = False
        return a

    def copy(self) -> np.ndarray:
        """A private writable copy of the segment's contents."""
        shm = _attach(self.name)
        a = np.ndarray(self.shape, dtype=np.dtype(self.dtype_str), buffer=shm.buf)
        return a.copy()

    def close(self) -> None:
        """Drop this process's mapping/ownership of the segment."""
        _release(self.name)

    unlink = close

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "ro" if self.readonly else "rw"
        return f"SharedArray({self.name!r}, {self.shape}, {self.dtype_str}, {mode})"


# The frozen columns a tape ships.
_COLUMNS = (
    "opcodes",
    "value_is_interval",
    "row_ptr",
    "parent_idx",
    "depth",
    "value_lo",
    "value_hi",
    "partial_lo",
    "partial_hi",
)


class SharedTape:
    """A :class:`CompiledTape` frozen into shared memory, picklable by name.

    ``freeze`` copies the tape's structure-of-arrays into owned segments
    once; ``attach`` (typically in a worker, after the handle travelled
    through a pickle) rebuilds a working ``CompiledTape`` over zero-copy
    views.  The small non-array state — op-name table, labels, recorded
    guards, the sparse aux map (folded constants / clip bounds) and the
    analysis ids — rides along in the handle itself.

    A ``SharedTape`` is per-*machine* shared state but the attached
    ``CompiledTape`` objects are per-process (their schedule caches and
    forward plans are ordinary heap objects); see
    :class:`repro.scorpio.trace_cache.CachedTrace` for the cache-level
    contract.
    """

    __slots__ = ("arrays", "op_names", "labels", "guards", "aux", "meta")

    def __init__(
        self,
        arrays: dict[str, SharedArray],
        op_names: Sequence[str],
        labels: Mapping[int, str],
        guards: Sequence[tuple],
        aux: Mapping[int, Any],
        meta: dict[str, Any],
    ):
        self.arrays = arrays
        self.op_names = list(op_names)
        self.labels = dict(labels)
        self.guards = list(guards)
        self.aux = dict(aux)
        self.meta = dict(meta)

    def __reduce__(self):
        return (
            SharedTape,
            (
                self.arrays,
                self.op_names,
                self.labels,
                self.guards,
                self.aux,
                self.meta,
            ),
        )

    @classmethod
    def freeze(cls, ct: CompiledTape, **meta: Any) -> "SharedTape":
        """Copy a compiled tape's columns into owned shared segments.

        ``meta`` is arbitrary picklable context for the consumer (e.g.
        output ids, delta); it travels inside the handle, not in shm.
        """
        arrays = {col: SharedArray.create(getattr(ct, col)) for col in _COLUMNS}
        nodes = ct.tape.nodes
        if isinstance(nodes, _AuxNodes):
            aux = dict(nodes._aux)
        else:
            aux = {
                j: node.aux
                for j, node in enumerate(nodes)
                if node.aux is not None
            }
        return cls(arrays, ct.op_names, ct.labels, ct.tape.guards, aux, meta)

    def attach(self) -> CompiledTape:
        """Rebuild a ``CompiledTape`` over this process's views.

        Every column is a zero-copy read-only view.  That is all the lane
        path needs: :meth:`CompiledTape.forward_lanes` and the reverse
        sweep only read the tape.  The in-place
        :meth:`CompiledTape.forward` writes the value/partial columns, so
        it does not run on an attached tape.
        """
        with _obs_span("mp.shared.attach") as sp:
            sp.set(columns=len(self.arrays))
            return CompiledTape.from_arrays(
                op_names=self.op_names,
                labels=self.labels,
                guards=self.guards,
                aux=self.aux,
                **{col: self.arrays[col].view() for col in _COLUMNS},
            )

    def close(self) -> None:
        """Release every column segment (unlink those this process owns)."""
        for handle in self.arrays.values():
            handle.close()

    unlink = close

    def __enter__(self) -> "SharedTape":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        n = self.arrays["opcodes"].shape[0]
        return f"SharedTape(nodes={n}, segments={len(self.arrays)})"
