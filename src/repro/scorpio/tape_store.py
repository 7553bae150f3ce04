"""Persistent tape store: compiled traces that survive a process restart.

A :class:`~repro.ad.compiled.CompiledTape` is a handful of flat NumPy
arrays plus a little object metadata (op-name table, labels, recorded
guards, folded-constant aux payloads).  :class:`TapeStore` writes exactly
that to disk — one ``.bin`` file of raw contiguous array bytes and one
``.json`` header describing them — keyed by the kernel-identity hash the
:class:`~repro.scorpio.trace_cache.TraceCache` already uses, in the
spirit of ILAC's variant hashing (every variant keyed by a digest of its
identity, so repeated runs resume instead of recompute).

Loading maps the structure columns straight off the file with
``np.memmap`` (read-only, zero-copy until touched) and gives the tape
private writable copies of the four value/partial columns, because the
in-place :meth:`CompiledTape.forward` replay writes those and only those.

The payoff is warm starts: ``TraceCache(store_dir=...)`` (or the
``REPRO_TAPE_DIR`` environment variable via :mod:`repro.serve`) loads a
stored tape on the first request after a restart and serves it as a
*replay* — no re-recording through Python operator overloading, no
object tape, ``X-Repro-Cache: replay`` on a stone-cold service.

Format notes (``STORE_VERSION`` guards all of them):

* the JSON header carries ``repr(key)``, the op-sequence hash, the array
  manifest (dtype/shape/offset/nbytes into the ``.bin``), guards, aux,
  labels and the analysis ids (inputs / intermediates / outputs, delta,
  simplify) — everything :meth:`TraceCache` needs to rebuild a
  :class:`~repro.scorpio.trace_cache.CachedTrace` with no recording;
* floats round-trip exactly through JSON (CPython emits shortest-repr
  floats; ``Infinity``/``NaN`` tokens cover the non-finite lanes), so
  guard thresholds and folded constants reload bit-identical;
* writes are atomic (tmp file + ``os.replace``), ``.bin`` first — the
  header is the commit point, so a torn write is an ordinary miss;
* every load re-derives the op-sequence hash from the mapped arrays and
  refuses the file when it disagrees with the header, so a corrupt or
  half-written blob can never masquerade as a valid trace.

All store errors are soft: ``load`` returns ``None`` and ``save``
returns ``False`` (each counted under ``tape_store.*`` obs metrics); the
cache then records exactly as it would with no store at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Mapping, Sequence

import numpy as np

from repro import __version__ as _REPRO_VERSION
from repro.ad.compiled import CompiledTape, _AuxNodes
from repro.intervals import Interval
from repro.obs import metrics as _obs_metrics

__all__ = ["TapeStore", "STORE_VERSION", "store_key_digest"]

#: Bump when the on-disk layout changes, or when recording would store
#: different bounds; older files become misses.  2: squares are IEEE
#: products, no longer libm ``pow``.
STORE_VERSION = 2

_C_SAVES = _obs_metrics.counter("tape_store.saves")
_C_LOADS = _obs_metrics.counter("tape_store.loads")
_C_MISSES = _obs_metrics.counter("tape_store.misses")
_C_ERRORS = _obs_metrics.counter("tape_store.errors")

# Structure stays a read-only memmap view; value/partial columns get
# private writable copies because CompiledTape.forward mutates them in
# place.
_STRUCTURE_COLS = (
    "opcodes",
    "value_is_interval",
    "row_ptr",
    "parent_idx",
    "depth",
)
_VALUE_COLS = ("value_lo", "value_hi", "partial_lo", "partial_hi")


def store_key_digest(key: Any) -> str:
    """Filename-safe digest of a cache key (hash-keyed kernel identity)."""
    h = hashlib.blake2b(repr(key).encode("utf-8", "replace"), digest_size=12)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Tagged JSON encoding for the non-array metadata.  Guards are tuples of
# (op, left, rhs, outcome) with rhs an Interval or a node index; aux
# payloads are (const, reflected) / (lo, hi) tuples whose const may be an
# Interval.  JSON has neither tuples nor Intervals, so both get explicit
# tags — anything untagged round-trips as itself.
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    if isinstance(value, Interval):
        return {"__iv__": [value.lo, value.hi]}
    if isinstance(value, tuple):
        return {"__t__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__iv__" in value:
            lo, hi = value["__iv__"]
            return Interval(float(lo), float(hi))
        if "__t__" in value:
            return tuple(_decode(v) for v in value["__t__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _compiled_op_hash(
    op_names: Sequence[str],
    opcodes: np.ndarray,
    row_ptr: np.ndarray,
    parent_idx: np.ndarray,
    n_guards: int,
) -> str:
    """The compiled-arrays twin of
    :func:`repro.scorpio.trace_cache.op_sequence_hash` — byte-for-byte
    the same digest over the same trace, derived from the SoA columns
    instead of the object tape.  Used as the load-time integrity check.
    """
    h = hashlib.blake2b(digest_size=16)
    ptr = row_ptr.tolist()
    pidx = parent_idx.tolist()
    for j, code in enumerate(opcodes.tolist()):
        h.update(op_names[code].encode("utf-8", "replace"))
        h.update(b"(")
        for p in pidx[ptr[j] : ptr[j + 1]]:
            h.update(str(p).encode("ascii"))
            h.update(b",")
        h.update(b")")
    h.update(b"|guards:")
    h.update(str(n_guards).encode("ascii"))
    return h.hexdigest()


class TapeStore:
    """Directory of serialized compiled traces, one ``.json``+``.bin`` pair
    per cache key.  All methods are best-effort: I/O problems degrade to
    cache misses, never to exceptions in the caller's replay path.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError:
            # An uncreatable root is a store that always misses and
            # never saves (each attempt counted under tape_store.errors)
            # — the cache degrades to plain recording instead of taking
            # the whole service down over a bad REPRO_TAPE_DIR.
            _C_ERRORS.inc()

    def __repr__(self) -> str:
        return f"TapeStore({self.root!r})"

    def paths_for(self, key: Any) -> tuple[str, str]:
        """``(header_path, blob_path)`` this key serializes to."""
        digest = store_key_digest(key)
        stem = os.path.join(self.root, f"tape-{digest}")
        return stem + ".json", stem + ".bin"

    def entries(self) -> list[str]:
        """Digests of every complete (header present) stored tape."""
        out = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in sorted(names):
            if name.startswith("tape-") and name.endswith(".json"):
                out.append(name[len("tape-") : -len(".json")])
        return out

    def has(self, key: Any) -> bool:
        return os.path.exists(self.paths_for(key)[0])

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(self, key: Any, trace: Any) -> bool:
        """Serialize a :class:`CachedTrace`'s compiled tape; False on error.

        The caller is expected to hold the trace's replay lock (the
        value columns are read while serializing), as :class:`TraceCache`
        does.
        """
        try:
            self._save(key, trace)
        except Exception:
            _C_ERRORS.inc()
            return False
        _C_SAVES.inc()
        return True

    def _save(self, key: Any, trace: Any) -> None:
        ct: CompiledTape = trace.ct
        header_path, blob_path = self.paths_for(key)
        arrays: dict[str, np.ndarray] = {}
        for col in _STRUCTURE_COLS + _VALUE_COLS:
            arrays[col] = np.ascontiguousarray(getattr(ct, col))
        manifest: dict[str, dict[str, Any]] = {}
        offset = 0
        for col, arr in arrays.items():
            manifest[col] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
            offset += int(arr.nbytes)
        nodes = ct.tape.nodes
        if isinstance(nodes, _AuxNodes):
            aux = dict(nodes._aux)
        else:
            aux = {
                j: node.aux
                for j, node in enumerate(nodes)
                if node.aux is not None
            }
        header = {
            "store_version": STORE_VERSION,
            "repro_version": _REPRO_VERSION,
            "key": repr(key),
            "op_hash": trace.op_hash,
            "op_names": list(ct.op_names),
            "labels": {str(i): lab for i, lab in ct.labels.items()},
            "guards": [_encode(g) for g in ct.tape.guards],
            "aux": {str(i): _encode(v) for i, v in aux.items()},
            "input_ids": list(trace.input_ids),
            "intermediate_ids": list(trace.intermediate_ids),
            "output_ids": list(trace.output_ids),
            "delta": trace.delta,
            "simplify": bool(trace.simplify),
            "arrays": manifest,
            "total_bytes": offset,
        }
        # .bin first, header last: the header is the commit point, so a
        # crash between the two renames leaves a harmless orphan blob.
        fd, tmp_blob = tempfile.mkstemp(dir=self.root, suffix=".bin.tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                for arr in arrays.values():
                    f.write(arr.tobytes())
            os.replace(tmp_blob, blob_path)
        except BaseException:
            try:
                os.unlink(tmp_blob)
            except OSError:
                pass
            raise
        fd, tmp_header = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(header, f, indent=1)
            os.replace(tmp_header, header_path)
        except BaseException:
            try:
                os.unlink(tmp_header)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, key: Any) -> "Any | None":
        """Rebuild the stored :class:`CachedTrace` for ``key``, or None.

        Missing, version-mismatched, truncated or corrupt files are all
        plain misses (counted apart from parse/IO errors); a digest
        mismatch against the header's op hash rejects the file outright.
        """
        header_path, blob_path = self.paths_for(key)
        if not os.path.exists(header_path):
            _C_MISSES.inc()
            return None
        try:
            trace = self._load(header_path, blob_path)
        except Exception:
            _C_ERRORS.inc()
            return None
        if trace is None:
            _C_MISSES.inc()
        else:
            _C_LOADS.inc()
        return trace

    def _load(self, header_path: str, blob_path: str) -> "Any | None":
        from .trace_cache import CachedTrace

        with open(header_path, "r", encoding="utf-8") as f:
            header = json.load(f)
        if header.get("store_version") != STORE_VERSION:
            return None
        manifest = header["arrays"]
        try:
            blob_size = os.path.getsize(blob_path)
        except OSError:
            return None
        if blob_size < int(header["total_bytes"]):
            return None
        cols: dict[str, np.ndarray] = {}
        for col in _STRUCTURE_COLS + _VALUE_COLS:
            spec = manifest[col]
            mm = np.memmap(
                blob_path,
                dtype=np.dtype(spec["dtype"]),
                mode="r",
                offset=int(spec["offset"]),
                shape=tuple(spec["shape"]),
            )
            # Structure columns stay lazily-paged read-only maps; value
            # columns must be private and writable for in-place forward.
            cols[col] = np.array(mm) if col in _VALUE_COLS else mm
        op_names = list(header["op_names"])
        op_hash = _compiled_op_hash(
            op_names,
            cols["opcodes"],
            cols["row_ptr"],
            cols["parent_idx"],
            len(header["guards"]),
        )
        if op_hash != header["op_hash"]:
            return None
        ct = CompiledTape.from_arrays(
            opcodes=cols["opcodes"],
            op_names=op_names,
            value_lo=cols["value_lo"],
            value_hi=cols["value_hi"],
            value_is_interval=cols["value_is_interval"],
            row_ptr=cols["row_ptr"],
            parent_idx=cols["parent_idx"],
            partial_lo=cols["partial_lo"],
            partial_hi=cols["partial_hi"],
            depth=cols["depth"],
            labels={int(i): lab for i, lab in header["labels"].items()},
            guards=[_decode(g) for g in header["guards"]],
            aux={int(i): _decode(v) for i, v in header["aux"].items()},
        )
        return CachedTrace.from_compiled(
            ct,
            input_ids=[int(i) for i in header["input_ids"]],
            intermediate_ids=[int(i) for i in header["intermediate_ids"]],
            output_ids=[int(i) for i in header["output_ids"]],
            delta=float(header["delta"]),
            simplify=bool(header["simplify"]),
            op_hash=header["op_hash"],
        )
