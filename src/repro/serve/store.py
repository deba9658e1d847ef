"""Durable job state for the search daemon: journal + result store.

Two small persistence primitives sit under
:class:`repro.serve.server.SearchServer`:

* :class:`Journal` — an append-only JSONL log of job lifecycle records
  (``submitted`` / ``running`` / ``done`` / ``failed`` / ``cancelled``).
  Appends are flushed and fsynced, so a crash can tear at most the
  record being written; :meth:`Journal.replay` recovers every complete
  record and drops an unterminated tail line instead of failing.
  :meth:`Journal.rewrite` (compaction) replaces the whole file with the
  write-then-rename pattern of :class:`repro.spec.blob.BlobStore`, so a
  reader never sees a half-compacted journal.
* :class:`ResultStore` — finished search records keyed by
  :meth:`repro.spec.SearchSpec.digest`.  This generalizes
  ``run_search.py --cache-dir`` into the service's memoization tier:
  the digest ignores the executor, so a cached serial result satisfies
  a remote re-run of the same spec.  The digest does not cover the
  host's numerics, so every record carries the numerics fingerprint of
  the process that wrote it, and a record whose fingerprint differs
  from this process's (or that has none) is a miss: the search re-runs
  rather than replay bits this host would not produce.  Every store is
  atomic (``mkstemp`` + ``os.replace``), fixing the latent non-atomic
  cache write ``run_search.py`` used to do — a crash mid-write can no
  longer leave a corrupt entry the daemon would later trust.

>>> import os, tempfile
>>> root = tempfile.mkdtemp()
>>> journal = Journal(os.path.join(root, "journal.jsonl"))
>>> _ = journal.append("submitted", "job-a", digest="d" * 8)
>>> _ = journal.append("running", "job-a")
>>> [rec["op"] for rec in journal.replay()]
['submitted', 'running']
>>> with open(journal.path, "ab") as fh:    # crash tears the tail...
...     _ = fh.write(b'{"v": 1, "op": "do')
>>> [rec["op"] for rec in journal.replay()]  # ...complete records survive
['submitted', 'running']
>>> journal.close()
>>> from repro.parallel._fingerprint import numerics_fingerprint
>>> store = ResultStore(os.path.join(root, "results"))
>>> store.load("0" * 64) is None
True
>>> here = numerics_fingerprint()
>>> _ = store.store("0" * 64, {"fitness": -1.25, "fingerprint": here})
>>> store.load("0" * 64)["fitness"]
-1.25
>>> _ = store.store("1" * 64, {"fitness": -1.25})  # no fingerprint
>>> store.load("1" * 64) is None
True
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

from ..parallel._fingerprint import numerics_fingerprint
from ..perf import get_perf

__all__ = ["JOURNAL_OPS", "Journal", "ResultStore", "result_record"]

#: journal record format version (stamped into every record)
JOURNAL_VERSION = 1

#: the job lifecycle operations a journal record may carry
JOURNAL_OPS = ("submitted", "running", "done", "failed", "cancelled")


class Journal:
    """Append-only JSONL job-lifecycle log with torn-tail recovery.

    One record per line; every append is flushed and fsynced before it
    returns, so the only record a crash can damage is the one being
    written — and that damage is confined to the file's final line.
    ``replay()`` therefore parses complete lines strictly (mid-file
    corruption raises, naming the line) but tolerates an unterminated
    tail, counting it in the ``journal.torn_tails`` perf counter.
    """

    def __init__(self, path, perf=None) -> None:
        self.path = Path(path)
        self.perf = perf if perf is not None else get_perf()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None

    # -- writing ---------------------------------------------------------
    def append(self, op: str, job: str, **fields) -> dict:
        """Durably append one lifecycle record; returns the record."""
        if op not in JOURNAL_OPS:
            raise ValueError(
                f"unknown journal op {op!r}; choose from {JOURNAL_OPS}"
            )
        record = {"v": JOURNAL_VERSION, "op": op, "job": str(job), **fields}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        fh = self._handle()
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        self.perf.counter("journal.appends").inc()
        return record

    def _handle(self):
        if self._fh is None:
            # a crash between the tail bytes and their newline leaves an
            # unterminated last line — an incomplete append that replay()
            # would drop.  Truncate it off before appending: merely
            # newline-terminating it would promote the torn record to a
            # complete-but-corrupt mid-file line a later replay() rejects.
            if self.path.exists() and self.path.stat().st_size:
                with open(self.path, "rb") as fh:
                    data = fh.read()
                if not data.endswith(b"\n"):
                    keep = data.rfind(b"\n") + 1
                    with open(self.path, "r+b") as fh:
                        fh.truncate(keep)
                    self.perf.counter("journal.torn_tails").inc()
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def close(self) -> None:
        if self._fh is not None:
            with contextlib.suppress(OSError):
                self._fh.close()
            self._fh = None

    # -- reading ---------------------------------------------------------
    def replay(self) -> list[dict]:
        """Every complete record, in append order.

        An unparsable *final* line is a torn tail from a crash
        mid-append: it is dropped (all complete records are still
        returned).  An unparsable line anywhere else is real corruption
        and raises ``ValueError`` naming the line.
        """
        if not self.path.exists():
            return []
        lines = self.path.read_bytes().split(b"\n")
        records: list[dict] = []
        for idx, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                if idx == len(lines) - 1:
                    # unterminated tail: the append a crash interrupted
                    self.perf.counter("journal.torn_tails").inc()
                    break
                raise ValueError(
                    f"{self.path}: corrupt journal record on line "
                    f"{idx + 1}: {exc}"
                ) from exc
            records.append(record)
        return records

    # -- compaction ------------------------------------------------------
    def rewrite(self, records) -> None:
        """Atomically replace the journal's contents (write-then-rename,
        the blob-store idiom): a concurrent reader sees either the old
        journal or the new one, never a torn mixture."""
        self.close()
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(
                        record, sort_keys=True, separators=(",", ":")
                    ) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def compact(self) -> int:
        """Collapse each job to its ``submitted`` record plus its latest
        terminal record (if any), dropping ``running`` marks and
        superseded history.  Returns the number of records dropped.
        Interrupted jobs (``running`` without a terminal record) keep
        only ``submitted`` — exactly the state that re-queues them on
        the next replay."""
        records = self.replay()
        submitted: dict[str, dict] = {}
        terminal: dict[str, dict] = {}
        order: list[str] = []
        for record in records:
            job = record.get("job")
            op = record.get("op")
            if op == "submitted":
                if job not in submitted:
                    order.append(job)
                submitted[job] = record
            elif op in ("done", "failed", "cancelled"):
                terminal[job] = record
        kept: list[dict] = []
        for job in order:
            kept.append(submitted[job])
            if job in terminal:
                kept.append(terminal[job])
        self.rewrite(kept)
        return len(records) - len(kept)


class ResultStore:
    """Finished-search records keyed by ``SearchSpec.digest()``.

    Each record is one pretty-printed JSON file named by its digest.
    Writes are atomic (``mkstemp`` in the store directory +
    ``os.replace``), so a crash mid-write can never leave a torn file
    where the digest promises a complete record.  Corrupt or foreign
    files, and records whose ``fingerprint`` is not this process's
    :func:`~repro.parallel._fingerprint.numerics_fingerprint`, read as
    misses, never as errors.  Hits and misses are accounted in the
    ``serve.results`` cache stats.
    """

    def __init__(self, root, perf=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.perf = perf if perf is not None else get_perf()

    def path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def read(self, digest: str) -> dict | None:
        """The stored record for ``digest``, or ``None`` when there is
        none this process may use: a missing, corrupt or non-object
        file, or a record written under other numerics.  Counts
        nothing; :meth:`load` is the counted cache lookup."""
        try:
            record = json.loads(self.path(digest).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or (
            record.get("fingerprint") != numerics_fingerprint()
        ):
            return None
        return record

    def load(self, digest: str) -> dict | None:
        """:meth:`read` as a cache lookup: every ``None`` counts as a
        ``serve.results`` miss, every record as a hit."""
        record = self.read(digest)
        stats = self.perf.cache("serve.results")
        if record is None:
            stats.miss()
        else:
            stats.hit()
        return record

    def store(self, digest: str, record: dict) -> Path:
        """Atomically persist ``record`` under ``digest``; returns the
        final path.  The temp file is removed if the write fails."""
        path = self.path(digest)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


def result_record(spec, result, wall: float | None = None) -> dict:
    """The canonical JSON record for one finished search spec — what
    ``run_search.py`` prints/caches and what the daemon's
    :class:`ResultStore` serves, stamped with this process's numerics
    fingerprint.  The executor token (a shared secret) is scrubbed:
    records get committed and uploaded as CI artifacts."""
    payload = spec.to_dict()
    if payload.get("executor") and payload["executor"].get("token"):
        payload["executor"]["token"] = None
    return {
        "spec": payload,
        "digest": spec.digest(),
        "fingerprint": numerics_fingerprint(),
        "wall_s": wall,
        "fitness": result.fitness,
        "mean_weight_bits": result.mean_weight_bits,
        "mean_act_bits": result.mean_act_bits,
        "model_size_mb": result.model_size_mb(),
        "evaluations": result.evaluations,
        "solution": [
            [p.n, p.es, p.rs, p.sf] for p in result.solution.layer_params
        ],
    }
