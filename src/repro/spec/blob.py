"""Content-addressed blob store: zero-copy ndarray transport.

Model state dicts and calibration batches dominate every wire payload,
and they never change over the life of a search — yet the inline codec
(:func:`repro.spec.serde.encode_array`) re-base64s them into every
payload and every worker re-decodes them per session.  A
:class:`BlobStore` replaces that with *content addressing*: each array
is keyed by :func:`blob_digest` (sha256 over dtype + shape + raw
little-endian bytes), stored once, and referenced from wire payloads as
``{"blob": "<digest>"}``.  Transports then move each distinct tensor at
most once:

* **Local process pools** export the store as
  :mod:`multiprocessing.shared_memory` segments
  (:meth:`BlobStore.export_shm`); workers attach the same physical
  pages (:meth:`BlobStore.attach_shm`) — the state dict crosses the
  pool boundary zero-copy instead of as per-worker base64.
* **Remote workers** keep a server-level store (optionally backed by a
  memory-mapped on-disk cache via ``cache_dir``) that persists across
  client sessions; a warm fleet answers ``{"blob": digest}`` refs from
  its cache and only fetches genuinely new tensors through the
  ``blob_get``/``blob_put`` frames of :mod:`repro.serve.remote`.

Dedup accounting goes to the ``blob`` cache of the ambient perf
registry (:func:`repro.perf.get_perf`): a :meth:`~BlobStore.put` of an
already-known digest is a *hit* — that array will never be shipped
inline again — and a first-seen digest is a *miss*.

>>> import numpy as np
>>> from repro.spec.blob import BlobStore, blob_digest
>>> store = BlobStore()
>>> a = np.arange(6, dtype=np.float32).reshape(2, 3)
>>> digest = store.put(a)
>>> digest == blob_digest(a)
True
>>> store.put(a.copy()) == digest  # content-addressed: equal bytes dedupe
True
>>> np.array_equal(store.get(digest), a)
True
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "BlobStore",
    "account_transport",
    "attach_transport_table",
    "blob_digest",
    "blob_transport_table",
    "get_blob_store",
    "reset_blob_store",
]


def _canonical(array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian view/copy of ``array`` — the exact
    bytes :func:`repro.spec.serde.encode_array` would ship.  0-d arrays
    keep their shape (``ascontiguousarray`` would promote them to
    ``(1,)``, colliding a scalar with a 1-element vector)."""
    array = np.asarray(array)
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    return array.astype(array.dtype.newbyteorder("<"), copy=False)


def blob_digest(array: np.ndarray) -> str:
    """Content hash of an ndarray: sha256 over dtype + shape + raw bytes.

    The digest covers the little-endian canonical form, so two arrays
    hash equal exactly when :func:`repro.spec.serde.encode_array` would
    emit identical payloads for them — equal content, equal dtype, equal
    shape — regardless of byte order or memory layout on this host.

    >>> import numpy as np
    >>> a = np.arange(4, dtype=np.float64)
    >>> blob_digest(a) == blob_digest(a.copy())
    True
    >>> blob_digest(a) == blob_digest(a.astype(np.float32))
    False
    """
    arr = _canonical(array)
    h = hashlib.sha256()
    h.update(arr.dtype.str.encode("ascii"))
    h.update(repr(tuple(arr.shape)).encode("ascii"))
    h.update(arr.data if arr.flags["C_CONTIGUOUS"] else arr.tobytes())
    return h.hexdigest()


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _quiet_shm(seg):
    """Make ``seg.close()`` tolerate live buffer exports.

    ``SharedMemory.__del__`` calls ``close()``, which raises
    ``BufferError`` while numpy views of the mapping are still alive —
    typically a worker's calibration batch at interpreter shutdown,
    printed as an "Exception ignored" traceback.  The mapping is
    reclaimed by the OS at process exit and the exporter owns the
    unlink, so the failure is harmless; swallow it.
    """
    real_close = seg.close

    def close():
        try:
            real_close()
        except BufferError:
            pass

    seg.close = close
    return seg


class BlobStore:
    """Digest-keyed ndarray store with shared-memory and disk backends.

    In-memory entries are read-only views — a blob's bytes must never
    change under its digest, so consumers that need a mutable tensor
    copy on their side (``load_state_dict`` already copies).  ``perf``
    optionally pins a private :class:`repro.perf.PerfRegistry`; by
    default stats go to the ambient process registry under ``blob``.

    ``cache_dir`` adds a content-addressed on-disk cache: every stored
    blob is written once as ``<digest>.bin`` (+ a dtype/shape sidecar),
    and lookups of unknown digests memory-map those files read-only —
    a restarted remote worker rehydrates its blobs without any network
    traffic.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 perf=None) -> None:
        self._entries: dict[str, np.ndarray] = {}
        #: shm segments owned (exported) by this store: digest → handle
        self._exported: dict = {}
        #: shm segments attached (worker side): digest → handle
        self._attached: dict = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._perf = perf

    def _registry(self):
        if self._perf is not None:
            return self._perf
        from ..perf import get_perf

        return get_perf()

    def _stats(self):
        return self._registry().cache("blob")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries or self._on_disk(digest)

    def digests(self) -> list[str]:
        """Digests resident in memory (sorted, for deterministic wire
        messages)."""
        return sorted(self._entries)

    # -- core map ---------------------------------------------------------
    def put(self, array: np.ndarray) -> str:
        """Store ``array`` under its content digest; returns the digest.

        A known digest is a dedupe *hit* (the bytes will never ship
        inline again); a new one is a *miss* and takes a reference to
        the canonical form of ``array`` — callers must not mutate it
        afterwards (search weights and calibration batches are frozen,
        which is what makes content addressing sound here).
        """
        arr = _canonical(array)
        digest = blob_digest(arr)
        if digest in self._entries:
            self._stats().hit()
            return digest
        self._stats().miss()
        self._entries[digest] = _readonly(arr)
        self._write_disk(digest, arr)
        return digest

    def get(self, digest: str) -> np.ndarray:
        """Read-only array for ``digest``; falls back to the on-disk
        cache (memory-mapped) and raises ``KeyError`` when the blob is
        known nowhere — remote workers catch that and fetch-on-miss."""
        entry = self._entries.get(digest)
        if entry is not None:
            return entry
        entry = self._read_disk(digest)
        if entry is not None:
            self._stats().hit()  # warm disk cache: the fetch was saved
            self._entries[digest] = entry
            return entry
        raise KeyError(
            f"blob {digest!r} is in neither the in-memory store nor the "
            f"disk cache ({self.cache_dir}); fetch it from the peer that "
            "published the reference"
        )

    def clear(self) -> None:
        """Forget every in-memory entry (shared-memory handles and the
        on-disk cache are untouched).  To the fetch-on-miss path this is
        what an evicted or freshly restarted cache looks like: the next
        :meth:`get` of a cleared digest raises ``KeyError`` unless the
        disk cache can rehydrate it."""
        self._entries.clear()

    def missing(self, digests) -> list[str]:
        """The subset of ``digests`` this store cannot serve (order
        preserved, duplicates dropped)."""
        out, seen = [], set()
        for digest in digests:
            if digest not in seen and digest not in self:
                seen.add(digest)
                out.append(digest)
        return out

    # -- on-disk cache ----------------------------------------------------
    def _disk_paths(self, digest: str) -> tuple[Path, Path]:
        return (
            self.cache_dir / f"{digest}.bin",
            self.cache_dir / f"{digest}.json",
        )

    def _on_disk(self, digest: str) -> bool:
        if self.cache_dir is None:
            return False
        bin_path, meta_path = self._disk_paths(digest)
        return bin_path.exists() and meta_path.exists()

    def _write_disk(self, digest: str, arr: np.ndarray) -> None:
        if self.cache_dir is None or self._on_disk(digest):
            return
        bin_path, meta_path = self._disk_paths(digest)
        # write-then-rename: a concurrent reader never sees a torn blob
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(arr.data if arr.flags["C_CONTIGUOUS"] else arr.tobytes())
        os.replace(tmp, bin_path)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump({"dtype": arr.dtype.str, "shape": list(arr.shape)}, fh)
        os.replace(tmp, meta_path)

    def _read_disk(self, digest: str) -> np.ndarray | None:
        if not self._on_disk(digest):
            return None
        bin_path, meta_path = self._disk_paths(digest)
        meta = json.loads(meta_path.read_text())
        shape = tuple(meta["shape"])
        dtype = np.dtype(meta["dtype"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count == 0:
            return _readonly(np.empty(shape, dtype=dtype))
        mapped = np.memmap(bin_path, dtype=dtype, mode="r", shape=shape)
        return _readonly(np.asarray(mapped))

    # -- shared-memory transport ------------------------------------------
    def export_shm(self) -> dict[str, dict]:
        """Publish every in-memory blob as a shared-memory segment.

        Returns the plain-JSON attach table ``{digest: {"shm": name,
        "dtype": str, "shape": [...]}}`` a worker process feeds to
        :meth:`attach_shm`.  Segments stay owned by this store — call
        :meth:`close` (parent side, after the pool is done) to unlink
        them.  Raises ``OSError`` where POSIX shared memory is
        unavailable; callers fall back to inline payloads.

        Bytes copied into *newly created* segments are charged to the
        ``transport.bytes_sent`` counter — the one-time physical cost of
        publishing each blob.  A warm store re-exports for free (the
        segments already exist), which is exactly the drop a warm-fleet
        re-run must show.
        """
        from multiprocessing import shared_memory

        table: dict[str, dict] = {}
        created = 0
        for digest in self.digests():
            arr = self._entries[digest]
            seg = self._exported.get(digest)
            if seg is None:
                seg = _quiet_shm(shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                ))
                if arr.nbytes:
                    np.frombuffer(
                        seg.buf, dtype=arr.dtype, count=arr.size
                    ).reshape(arr.shape)[...] = arr
                self._exported[digest] = seg
                created += arr.nbytes
            table[digest] = {
                "shm": seg.name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            }
        if created:
            self._registry().counter("transport.bytes_sent").inc(created)
        return table

    def attach_shm(self, table: dict[str, dict]) -> "BlobStore":
        """Attach the segments of an :meth:`export_shm` table (worker
        side).  The mapped arrays are registered read-only and
        zero-copy: every worker shares the exporter's physical pages."""
        from multiprocessing import shared_memory

        for digest, meta in table.items():
            if digest in self._entries:
                continue
            seg = _quiet_shm(shared_memory.SharedMemory(name=meta["shm"]))
            shape = tuple(meta["shape"])
            dtype = np.dtype(meta["dtype"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if count == 0:
                self._entries[digest] = _readonly(
                    np.empty(shape, dtype=dtype)
                )
                seg.close()
                continue
            arr = np.frombuffer(seg.buf, dtype=dtype, count=count)
            self._entries[digest] = _readonly(arr.reshape(shape))
            self._attached[digest] = seg
        return self

    def close(self) -> None:
        """Release shared-memory segments: attached ones are closed,
        exported ones closed *and* unlinked (the exporting process owns
        the segment lifetime).  In-memory and on-disk entries remain."""
        # drop numpy views over shm buffers first: SharedMemory.close()
        # refuses while exported pointers exist
        for digest in list(self._attached) + list(self._exported):
            self._entries.pop(digest, None)
        attached, self._attached = self._attached, {}
        for seg in attached.values():
            try:
                seg.close()
            except (OSError, BufferError):
                pass
        exported, self._exported = self._exported, {}
        for seg in exported.values():
            try:
                seg.close()
            except (OSError, BufferError):
                pass
            try:
                seg.unlink()  # even if close failed: the name must go
            except (OSError, FileNotFoundError):
                pass

    def __enter__(self) -> "BlobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- transport tables ------------------------------------------------------
def blob_transport_table(store: BlobStore, digests=None) -> dict:
    """Publish ``store`` (or only its ``digests``) for process-pool
    workers.

    Preferred form is ``{"shm": <attach table>}`` — zero-copy shared
    memory.  Where POSIX shared memory is unavailable the fallback is
    ``{"inline": {digest: encoded array}}``: each distinct tensor ships
    once per worker instead of once per payload, so content addressing
    still dedupes, just not zero-copy.
    """
    resident = store.digests()
    wanted = resident if digests is None else sorted(
        set(digests).intersection(resident)
    )
    try:
        table = store.export_shm()
        return {"shm": {digest: table[digest] for digest in wanted}}
    except OSError:
        from .serde import encode_array

        return {
            "inline": {d: encode_array(store.get(d)) for d in wanted}
        }


def attach_transport_table(table: dict, perf=None,
                           store: BlobStore | None = None) -> BlobStore:
    """Worker-side inverse of :func:`blob_transport_table`: a store
    serving every digest the table carries (``store``, when given,
    gains the digests it lacks)."""
    if store is None:
        store = BlobStore(perf=perf)
    if "shm" in table:
        store.attach_shm(table["shm"])
    inline = table.get("inline")
    if inline:
        from .serde import decode_array

        for payload in inline.values():
            store.put(decode_array(payload))
    return store


def account_transport(perf, payload, table, workers: int) -> None:
    """Record ``transport.bytes_sent`` / ``transport.bytes_saved`` for
    shipping ``payload`` (a wire dict) plus a blob transport table to
    ``workers`` pool workers.

    *sent* is the JSON actually serialized per worker; *saved* is the
    base64 volume the blob refs displaced (every ref occurrence that
    would have been inlined), minus whatever the inline-fallback table
    still had to carry.
    """
    sent = len(json.dumps(payload, separators=(",", ":")))
    if table:
        sent += len(json.dumps(table, separators=(",", ":")))
    perf.counter("transport.bytes_sent").inc(sent * workers)
    saved = _ref_occurrence_bytes(payload) * workers
    if table and "inline" in table:
        saved -= sum(
            len(p.get("data", "")) for p in table["inline"].values()
        ) * workers
    perf.counter("transport.bytes_saved").inc(max(0, saved))


def _ref_occurrence_bytes(node) -> int:
    """Total inline base64 bytes every blob-ref *occurrence* in a wire
    payload stands for (unlike ``collect_blob_refs``, duplicates count
    every time — that duplication is exactly the dedupe win)."""
    from .serde import inline_nbytes

    if isinstance(node, dict):
        if node.get("__ndarray__") and "blob" in node:
            return inline_nbytes(node)
        return sum(_ref_occurrence_bytes(v) for v in node.values())
    if isinstance(node, list):
        return sum(_ref_occurrence_bytes(v) for v in node)
    return 0


#: process-global store used by transports that do not pin their own
_GLOBAL: BlobStore | None = None
_ATEXIT_REGISTERED = False


def _close_global() -> None:
    if _GLOBAL is not None:
        _GLOBAL.close()


def _fresh_global() -> BlobStore:
    # unlink any exported shm segments at interpreter exit so the
    # multiprocessing resource tracker has nothing to complain about
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_close_global)
        _ATEXIT_REGISTERED = True
    return BlobStore()


def get_blob_store() -> BlobStore:
    """The process-global :class:`BlobStore` (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = _fresh_global()
    return _GLOBAL


def reset_blob_store() -> BlobStore:
    """Drop the process-global store (start of a measurement window);
    any shared-memory segments it exported are released."""
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.close()
    _GLOBAL = _fresh_global()
    return _GLOBAL
