"""JSON wire codec for the :mod:`repro.serve` pool boundary.

The shared process pool used to ship pickled
:class:`~repro.parallel.EvaluatorSpec` objects to its workers.  This
module replaces that with a *wire payload*: a plain-JSON dict (only
dicts, lists, strings, numbers, bools, ``None``) from which any worker
— in this process, another process, or, eventually, another host — can
reconstruct a byte-identical evaluator.  ``json.dumps(payload)`` always
succeeds, which is the property that lets the payload cross a socket
where a pickle should not (``tests/serve/test_wire.py`` asserts the
round trip).

Two payload kinds:

* ``"search"`` — the job was submitted as a declarative
  :class:`~repro.spec.SearchSpec`; the payload carries the spec's dict
  form plus the calibration statistics, and the worker resolves the
  model and calibration batch through the component registries.
* ``"evaluator"`` — a legacy job around live objects; the calibration
  batch and model state travel as bitwise-exact encoded arrays
  (:func:`repro.spec.serde.encode_array`), and the model architecture
  travels *by name*: an importable builder callable or the model's
  importable class, resolved with :func:`decode_callable` worker-side.

A live model instance is named on the wire by, in order of preference:
its ``wire_builder`` tag — a ``(module, qualname)`` pair naming the
importable zero-arg builder that produced it, stamped by
:func:`repro.models.zoo.get_model` and the registry loaders — or its
class, when that class is importable and zero-arg constructible.
Instances that satisfy neither (a closure-defined class, a class whose
constructor needs arguments) are rejected at encode time, in the
submitting process, with a message pointing at the registry/builder
alternatives.

**Framing.**  The remote transport (:mod:`repro.serve.remote`) carries
these payloads over TCP as *frames*: a 4-byte big-endian length prefix,
a 4-byte CRC32 of the body, then that many bytes of UTF-8 JSON.  The
checksum turns silent corruption into a loud, connection-scoped
:class:`FrameCorruptionError` — the pool demotes the offending worker
and requeues its chunks instead of feeding a flipped bit into a search.
:func:`frame_message` and :class:`FrameDecoder` are the pure
encode/decode pair (the decoder is incremental, so arbitrary TCP
segmentation cannot split a message), and :func:`read_frame` reads one
frame from a stream.  The handshake and task messages themselves are
built by the ``*_message`` constructors below, so both ends of the
socket agree on one schema:

>>> decoder = FrameDecoder()
>>> decoder.feed(frame_message({"type": "ping", "t": 1}))
[{'type': 'ping', 't': 1}]
>>> payload = frame_message({"type": "pong", "t": 2})
>>> [msg for b in payload for msg in decoder.feed(bytes([b]))]
[{'type': 'pong', 't': 2}]
"""

from __future__ import annotations

import hmac
import importlib
import inspect
import json
import struct
import zlib

import numpy as np

from ..numerics import LPParams
from ..parallel.evaluator import EvaluatorSpec
from ..quant.engine import FitnessConfig
from ..quant.params import QuantSolution
from ..quant.quantizer import LayerStats
from .serde import (
    config_from_dict,
    decode_array,
    decode_state,
    encode_array,
    encode_state,
)
from .spec import _DEFAULT_OBJECTIVE, SearchSpec

__all__ = [
    "WIRE_VERSION",
    "PROTOCOL_VERSION",
    "FINGERPRINT_MISMATCH",
    "MAX_FRAME_BYTES",
    "FrameCorruptionError",
    "FrameTooLargeError",
    "FrameDecoder",
    "frame_message",
    "read_frame",
    "encode_callable",
    "decode_callable",
    "encode_stats",
    "decode_stats",
    "encode_solution",
    "decode_solution",
    "encode_job",
    "decode_job",
    "collect_blob_refs",
    "hello_message",
    "welcome_message",
    "error_message",
    "job_message",
    "release_message",
    "task_message",
    "result_message",
    "blob_get_message",
    "blob_put_message",
    "draining_message",
    "SERVER_OPS",
    "submit_message",
    "status_message",
    "result_get_message",
    "cancel_message",
    "list_jobs_message",
    "subscribe_message",
    "reply_message",
    "event_message",
    "metrics_message",
    "fleet_status_message",
    "subscribe_metrics_message",
]

#: wire-format version stamped into every job payload and handshake
WIRE_VERSION = 1

#: remote-transport protocol version: the frame layout plus the message
#: schema both ends must share.  Bumped whenever either changes (v2
#: added CRC32 frame checksums and the draining frame, v3 the numerics
#: fingerprint in ``hello`` and ``welcome``, v4 the release frame); a
#: client and a worker built at different versions refuse each other
#: at handshake time with a message naming both numbers, instead of
#: failing mid-search on an undecodable frame.
PROTOCOL_VERSION = 4

#: ``reason`` of the handshake refusal between peers whose numerics
#: fingerprints differ (:mod:`repro.parallel._fingerprint`): their
#: search results would not be bitwise equal
FINGERPRINT_MISMATCH = "fingerprint_mismatch"

#: refuse frames larger than this (a corrupt length prefix must not
#: make a worker allocate gigabytes); large models override per call
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: 4-byte big-endian body length + 4-byte CRC32 of the body
_FRAME_HEADER = struct.Struct(">II")


class FrameCorruptionError(ValueError):
    """A frame's body failed its CRC32 checksum.

    A subclass of ``ValueError`` so every existing drop-the-connection
    handler still fires; the remote pool additionally catches it
    specifically to count ``fault.checksum_rejects`` and demote the
    worker cleanly.
    """


class FrameTooLargeError(FrameCorruptionError):
    """A frame's length prefix exceeds the receiver's ``max_bytes``.

    A subclass of :class:`FrameCorruptionError` (and therefore
    ``ValueError``): every drop-the-connection handler still fires, but
    callers that care — e.g. a server deciding whether to advise a
    bigger frame limit instead of suspecting stream corruption — can
    distinguish an oversized frame from a failed checksum.
    """


def _check_length(length: int, max_bytes: int) -> None:
    if length > max_bytes:
        raise FrameTooLargeError(
            f"frame length {length} exceeds the {max_bytes}-byte limit"
        )


def _check_crc(body: bytes, expected: int) -> None:
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != expected:
        raise FrameCorruptionError(
            f"frame checksum mismatch (got {actual:#010x}, frame "
            f"declared {expected:#010x}): corrupt stream"
        )


# -- framing -------------------------------------------------------------
def frame_message(message: dict, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One JSON message → one length-prefixed, CRC32-protected frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise ValueError(
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte limit"
        )
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


class FrameDecoder:
    """Incremental inverse of :func:`frame_message`.

    Feed it byte chunks in any segmentation (TCP guarantees order, not
    boundaries); it returns every completely received message, keeping
    partial frames buffered.  A length prefix above ``max_bytes``
    raises :class:`FrameTooLargeError`, a body that is not a JSON
    object ``ValueError``, a checksum mismatch
    :class:`FrameCorruptionError` — the caller drops the connection
    rather than resynchronize a corrupt stream.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _FRAME_HEADER.size:
                return messages
            length, crc = _FRAME_HEADER.unpack_from(self._buffer)
            _check_length(length, self.max_bytes)
            end = _FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_FRAME_HEADER.size:end])
            del self._buffer[:end]
            _check_crc(body, crc)
            message = json.loads(body.decode("utf-8"))
            if not isinstance(message, dict):
                raise ValueError(
                    f"frame body must be a JSON object, got "
                    f"{type(message).__name__}"
                )
            messages.append(message)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


def read_frame(stream, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read exactly one frame from a binary stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    ``ValueError`` on a truncated frame or a non-object body,
    :class:`FrameTooLargeError` on an oversized length prefix, and
    :class:`FrameCorruptionError` on a checksum mismatch (the stream is
    unrecoverable in every case).
    """
    header = stream.read(_FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise ValueError("truncated frame header")
    length, crc = _FRAME_HEADER.unpack(header)
    _check_length(length, max_bytes)
    body = stream.read(length)
    if len(body) < length:
        raise ValueError("truncated frame body")
    _check_crc(body, crc)
    message = json.loads(body.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- protocol messages ---------------------------------------------------
def hello_message(token: str | None = None,
                  fingerprint: str | None = None) -> dict:
    """Client → worker handshake opener (protocol/payload versions,
    auth token and the client's numerics fingerprint).  Both versions
    ride the frame so a mismatched build is refused here, with a
    message naming the two versions, instead of failing later on an
    unknown frame; a worker whose numerics differ refuses the same way
    (:data:`FINGERPRINT_MISMATCH`)."""
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "version": WIRE_VERSION,
        "token": token,
        "fingerprint": fingerprint,
    }


#: the refusal a hello frame with the wrong auth token gets
_BAD_TOKEN = "bad auth token"


def hello_refusal(message: dict | None, token: str | None,
                  role: str) -> str | None:
    """Why a ``role`` ("worker" or "server") expecting ``token`` refuses
    the handshake opener ``message``, or ``None`` to accept it: the
    frame type, the protocol and wire versions, then the token."""
    if message is None or message.get("type") != "hello":
        return "expected hello frame"
    if message.get("protocol") != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: client speaks "
            f"{message.get('protocol')!r}, {role} speaks "
            f"{PROTOCOL_VERSION}; upgrade the older build"
        )
    if message.get("version") != WIRE_VERSION:
        return (
            f"unsupported wire version {message.get('version')!r} "
            f"({role} speaks {WIRE_VERSION})"
        )
    sent = message.get("token")
    if token is not None and not (
        isinstance(sent, str) and hmac.compare_digest(sent, token)
    ):
        return _BAD_TOKEN
    return None


def welcome_message(capacity: int = 1,
                    fingerprint: str | None = None) -> dict:
    """Worker → client handshake acceptance (advertised capacity and
    the worker's numerics fingerprint)."""
    return {
        "type": "welcome",
        "protocol": PROTOCOL_VERSION,
        "version": WIRE_VERSION,
        "capacity": int(capacity),
        "fingerprint": fingerprint,
    }


def draining_message() -> dict:
    """Worker → client: this worker is draining (SIGTERM) — it will
    finish the chunks already accepted, then close; send it nothing
    new."""
    return {"type": "draining"}


def error_message(error: str, reason: str | None = None) -> dict:
    """Either direction: a fatal, connection-scoped error; ``reason``
    names a refusal the peer acts on (:data:`FINGERPRINT_MISMATCH`)."""
    message = {"type": "error", "error": str(error)}
    if reason is not None:
        message["reason"] = reason
    return message


def job_message(job: str, payload: dict) -> dict:
    """Client → worker job registration (an :func:`encode_job` payload)."""
    return {"type": "job", "job": job, "payload": payload}


def release_message(job: str) -> dict:
    """Client → worker: ``job`` is finished.  The worker drops its
    replica and payload once every task of the job sent before this
    frame has been evaluated."""
    return {"type": "release", "job": job}


def task_message(task: int, job: str, seq: int, chunk: int,
                 solutions) -> dict:
    """Client → worker chunk submission (solutions wire-encoded)."""
    return {
        "type": "task",
        "task": int(task),
        "job": job,
        "seq": int(seq),
        "chunk": int(chunk),
        "solutions": [encode_solution(sol) for sol in solutions],
    }


def result_message(task: int, job: str, seq: int, chunk: int, fits,
                   perf_delta, elapsed: float,
                   error: str | None = None) -> dict:
    """Worker → client chunk outcome (mirrors
    :class:`repro.serve.ChunkResult` field for field)."""
    return {
        "type": "result",
        "task": int(task),
        "job": job,
        "seq": int(seq),
        "chunk": int(chunk),
        "fits": fits,
        "perf_delta": perf_delta,
        "elapsed": float(elapsed),
        "error": error,
    }


def blob_get_message(digests, cached=()) -> dict:
    """Worker → client blob reconciliation (the ``BLOB_GET`` frame).

    Sent once per registered job whose payload carries blob references:
    ``digests`` lists the blobs the worker is missing and needs pushed,
    ``cached`` the ones its store already holds — the acknowledgement
    the client's ``transport.bytes_saved`` counter keys off.
    """
    return {
        "type": "blob_get",
        "digests": sorted(digests),
        "cached": sorted(cached),
    }


def blob_put_message(digest: str, payload: dict) -> dict:
    """Client → worker blob delivery (the ``BLOB_PUT`` frame): one
    content digest plus the inline encoded array it names
    (:func:`repro.spec.serde.encode_array`)."""
    return {"type": "blob_put", "digest": str(digest), "payload": payload}


# -- search-service frames (SearchServer <-> SearchClient) ----------------
#: the request operations a search daemon answers; anything else gets
#: an ``ok=false`` reply (the session survives — see
#: :mod:`repro.serve.server`)
SERVER_OPS = (
    "submit", "status", "result", "cancel", "list_jobs", "subscribe",
    "fleet_status", "subscribe_metrics",
)


def submit_message(spec: dict, priority: int = 0,
                   job: str | None = None, req: int = 0) -> dict:
    """Client → server: queue one search (``spec`` is a
    :meth:`repro.spec.SearchSpec.to_dict` payload).  Higher ``priority``
    runs earlier; ``job`` proposes a job name (the server's reply names
    the job authoritatively — an identical spec dedupes onto the
    existing job)."""
    return {
        "type": "submit",
        "spec": spec,
        "priority": int(priority),
        "job": job,
        "req": int(req),
    }


def status_message(job: str, req: int = 0) -> dict:
    """Client → server: one job's current lifecycle state."""
    return {"type": "status", "job": str(job), "req": int(req)}


def result_get_message(job: str, req: int = 0) -> dict:
    """Client → server: fetch a finished job's result record (the
    ``result`` op; named ``result_get_message`` because
    :func:`result_message` is the worker transport's chunk-result
    frame)."""
    return {"type": "result", "job": str(job), "req": int(req)}


def cancel_message(job: str, req: int = 0) -> dict:
    """Client → server: cancel a queued job now, or a running job at
    its next batch boundary."""
    return {"type": "cancel", "job": str(job), "req": int(req)}


def list_jobs_message(req: int = 0) -> dict:
    """Client → server: summarize every job the daemon knows."""
    return {"type": "list_jobs", "req": int(req)}


def subscribe_message(job: str, req: int = 0) -> dict:
    """Client → server: stream one job's progress/state events until it
    reaches a terminal state (the reply snapshots the current state; a
    job already terminal streams nothing)."""
    return {"type": "subscribe", "job": str(job), "req": int(req)}


def reply_message(req, payload: dict | None = None,
                  error: str | None = None) -> dict:
    """Server → client: the answer to one request, correlated by the
    request's ``req`` id.  ``ok`` is true iff ``error`` is ``None``;
    ``payload`` fields ride at the top level."""
    message = {"type": "reply", "req": req, "ok": error is None}
    if error is not None:
        message["error"] = str(error)
    if payload:
        message.update(payload)
    return message


def event_message(job: str, kind: str, data: dict,
                  final: bool = False) -> dict:
    """Server → client: one subscription event — ``kind`` is
    ``progress`` (a completed candidate batch: generation, evaluation
    counts, best fitness, perf-counter deltas) or ``state`` (a
    lifecycle transition).  ``final`` marks the job's terminal event;
    the stream ends after it."""
    return {
        "type": "event",
        "job": str(job),
        "event": str(kind),
        "final": bool(final),
        "data": data,
    }


# -- live-telemetry frames (repro.obs) ------------------------------------
def metrics_message(source: str, seq: int, t: float,
                    delta: dict | None = None,
                    gauges: dict | None = None,
                    workers: list | None = None,
                    status: dict | None = None) -> dict:
    """One telemetry sample: a :func:`repro.perf.diff_snapshots`
    perf-counter delta since the previous sample, plus point-in-time
    gauges (queue depth, session count, heartbeat latency...).

    Workers push these upstream to the pool; the daemon broadcasts a
    merged fleet-wide sample (``workers`` lists the per-worker samples
    folded in, ``status`` carries scheduler/job state) to every
    ``subscribe_metrics`` session.  Never a request — like
    :func:`event_message` it carries no ``req`` — and strictly passive:
    dropping every metrics frame changes no search result.
    """
    message = {
        "type": "metrics",
        "source": str(source),
        "seq": int(seq),
        "t": float(t),
        "delta": delta if delta is not None else {},
        "gauges": gauges if gauges is not None else {},
    }
    if workers is not None:
        message["workers"] = workers
    if status is not None:
        message["status"] = status
    return message


def fleet_status_message(req: int = 0) -> dict:
    """Client → server: one-shot fleet snapshot — membership, per-job
    scheduler state, queue depths, and the latest telemetry sample per
    source (the ``fleet_status`` op; ``status`` is the per-job op)."""
    return {"type": "fleet_status", "req": int(req)}


def subscribe_metrics_message(req: int = 0) -> dict:
    """Client → server: stream merged fleet telemetry samples
    (:func:`metrics_message` frames) until the session closes.  The
    reply says whether emission is enabled and at what interval."""
    return {"type": "subscribe_metrics", "req": int(req)}


# -- candidate solutions -------------------------------------------------
def encode_solution(solution: QuantSolution) -> list:
    """:class:`~repro.quant.QuantSolution` → ``[[n, es, rs, sf], ...]``.

    Ints are JSON-exact and the float scale factor survives via
    shortest-repr, so the round trip is bitwise-faithful — remote
    workers score exactly the candidate the engine generated.
    """
    return [
        [int(p.n), int(p.es), int(p.rs), float(p.sf)]
        for p in solution.layer_params
    ]


def decode_solution(rows) -> QuantSolution:
    """Inverse of :func:`encode_solution` (no clamping: the rows are an
    already-valid solution, not a mutated Δ vector)."""
    return QuantSolution(
        tuple(
            LPParams(n=int(n), es=int(es), rs=int(rs), sf=float(sf))
            for n, es, rs, sf in rows
        )
    )


# -- callables by name ---------------------------------------------------
def encode_callable(fn) -> dict:
    """Name an importable callable (``{"module", "qualname"}``).

    Round-trip verified: the encoded reference must resolve back to the
    exact same object, so a stale or shadowed name fails at encode time
    (in the submitting process, with context) rather than in a worker.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ValueError(
            f"{fn!r} cannot be named on the wire (module={module!r}, "
            f"qualname={qualname!r}); use a module-level builder "
            "callable or register the model in the spec registry "
            "(repro.spec.registry.register('model', name, loader))"
        )
    if decode_callable({"module": module, "qualname": qualname}) is not fn:
        raise ValueError(
            f"{module}.{qualname} does not resolve back to {fn!r}; "
            "wire references must be importable by name"
        )
    return {"module": module, "qualname": qualname}


def decode_callable(payload: dict):
    """Inverse of :func:`encode_callable` (plain getattr walk)."""
    obj = importlib.import_module(payload["module"])
    for part in payload["qualname"].split("."):
        obj = getattr(obj, part)
    return obj


def _encode_model_instance(model, probe_input=None) -> dict:
    """Name a live model instance on the wire.

    Prefers the instance's ``wire_builder`` tag (the importable zero-arg
    builder that produced it — trained zoo checkpoints and the registry
    loaders stamp it); otherwise the instance's class, which must then
    be zero-arg constructible so the worker can rebuild the
    architecture before loading the state dict.

    The class path is *verified*, not assumed: a probe instance is
    rebuilt here exactly as the worker will rebuild it, the state dict
    is loaded, and (given ``probe_input``) one forward pass must match
    the original bit for bit.  This catches the silent failure mode
    where a behavior-affecting but shape-preserving constructor
    argument (one ``load_state_dict`` cannot restore) would make
    workers score a functionally different model.
    """
    tag = getattr(model, "wire_builder", None)
    if tag is not None:
        module, qualname = tag
        payload = {"module": str(module), "qualname": str(qualname)}
        decode_callable(payload)  # stale tags fail here, with context
        return {"builder": payload}
    cls = type(model)
    try:
        required = [
            p.name
            for p in inspect.signature(cls).parameters.values()
            if p.default is inspect.Parameter.empty
            and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
    except (TypeError, ValueError):
        required = []
    if required:
        raise ValueError(
            f"{cls.__module__}.{cls.__qualname__} requires constructor "
            f"argument(s) {required}, so a worker cannot rebuild this "
            "model from its class name; submit a registered model name "
            "(repro.spec.SearchSpec), a module-level builder callable, "
            "or a model carrying a wire_builder tag"
        )
    probe = cls()
    try:
        probe.load_state_dict(model.state_dict())
    except KeyError as exc:  # cls() built a different architecture
        raise ValueError(
            f"{cls.__module__}.{cls.__qualname__}() does not rebuild this "
            f"instance's parameters ({exc.args[0]}); submit a registered "
            "model name, a module-level builder callable, or a model "
            "carrying a wire_builder tag"
        ) from exc
    if probe_input is not None:
        probe.eval()
        # compare in eval mode (a train-mode BN forward would mutate the
        # submitted model's running statistics); restore the caller's
        # mode afterwards
        was_training = bool(getattr(model, "training", False))
        if was_training:
            model.eval()
        try:
            reference = model(probe_input)
        finally:
            if was_training:
                model.train()
        if not np.array_equal(probe(probe_input), reference):
            raise ValueError(
                f"{cls.__module__}.{cls.__qualname__}() + load_state_dict "
                "does not reproduce this instance (a constructor argument "
                "the state dict cannot restore?); submit a registered "
                "model name, a module-level builder callable, or a model "
                "carrying a wire_builder tag"
            )
    return {"model_class": encode_callable(cls)}


# -- calibration statistics ----------------------------------------------
def encode_stats(stats: LayerStats) -> dict:
    """:class:`~repro.quant.LayerStats` → plain JSON (names, counts,
    log-centres — floats survive JSON exactly via shortest-repr)."""
    return {
        "names": list(stats.names),
        "param_counts": [int(n) for n in stats.param_counts],
        "weight_log_centers": [float(c) for c in stats.weight_log_centers],
        "act_log_centers": [float(c) for c in stats.act_log_centers],
    }


def decode_stats(payload: dict) -> LayerStats:
    """Inverse of :func:`encode_stats`."""
    return LayerStats(
        names=list(payload["names"]),
        param_counts=[int(n) for n in payload["param_counts"]],
        weight_log_centers=[float(c) for c in payload["weight_log_centers"]],
        act_log_centers=[float(c) for c in payload["act_log_centers"]],
    )


# -- whole jobs ----------------------------------------------------------
def encode_job(spec: EvaluatorSpec, search: SearchSpec | None = None,
               blobs=None) -> dict:
    """One pool job → plain-JSON wire payload.

    ``search`` (when the job was submitted declaratively and is
    serializable) selects the compact ``"search"`` payload; otherwise
    the live objects in ``spec`` are encoded field by field.

    ``blobs`` (a :class:`repro.spec.blob.BlobStore`) switches the
    calibration batch and state-dict arrays from inline base64 to
    content-addressed ``{"blob": "<digest>"}`` references — transports
    with a blob channel (shared-memory process pools, the remote
    ``blob_get``/``blob_put`` frames) ship each distinct tensor once
    per fleet instead of once per payload.  Without a store the payload
    is fully self-contained, as before.
    """
    stats = None if spec.stats is None else encode_stats(spec.stats)
    if search is not None and search.serializable:
        return {
            "version": WIRE_VERSION,
            "kind": "search",
            "search": search.to_dict(),
            "stats": stats,
        }
    if spec.builder is not None:
        model = {"builder": encode_callable(spec.builder)}
        state = spec.state
    else:
        model = _encode_model_instance(spec.model, spec.images[:1])
        # the builder/class rebuilds the architecture; the state dict
        # restores every parameter and buffer bit for bit
        # (load_state_dict demands an exact key/shape match, so an
        # architecture the rebuild cannot reproduce fails loudly in
        # the worker).  A spec's own state dict is what its replica
        # loads, so it wins over the instance's current weights, which
        # another job sharing the instance may have overwritten
        state = (
            spec.model.state_dict() if spec.state is None else spec.state
        )
    return {
        "version": WIRE_VERSION,
        "kind": "evaluator",
        "images": encode_array(spec.images, blobs=blobs),
        "model": model,
        "state": None if state is None else encode_state(state, blobs=blobs),
        "config": None if spec.config is None else spec.config.to_dict(),
        "objective": spec.objective,
        "act_mode": spec.act_mode,
        "stats": stats,
    }


def collect_blob_refs(payload) -> dict[str, dict]:
    """Every ``{"blob": digest}`` array reference reachable in a wire
    payload, as ``digest → encoded-array payload`` (first occurrence
    wins; the dtype/shape metadata is identical for equal digests).

    Transports use this to reconcile stores before the first task: the
    worker diffs the refs against its cache and answers with one
    ``blob_get`` frame, the client sizes its ``transport.bytes_saved``
    win off the refs a warm worker already held.
    """
    refs: dict[str, dict] = {}

    def walk(node) -> None:
        if isinstance(node, dict):
            if node.get("__ndarray__") and "blob" in node:
                refs.setdefault(node["blob"], node)
                return
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(payload)
    return refs


def decode_job(payload: dict, blobs=None, fetch=None) -> EvaluatorSpec:
    """Wire payload → a fresh :class:`~repro.parallel.EvaluatorSpec`.

    The worker-side inverse of :func:`encode_job`; everything is
    reconstructed from names and encoded arrays, no pickles involved.
    ``blobs``/``fetch`` resolve content-addressed array references the
    same way :func:`repro.spec.serde.decode_array` does; a payload with
    no blob refs never needs either.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"wire payload must be a dict, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported wire payload version {version!r} "
            f"(supported: {WIRE_VERSION})"
        )
    kind = payload.get("kind")
    stats = (
        None if payload.get("stats") is None
        else decode_stats(payload["stats"])
    )
    if kind == "search":
        search = SearchSpec.from_dict(payload["search"])
        return EvaluatorSpec(
            images=search.build_calib(),
            model=search.build_model(),
            config=search.fitness,
            objective=(
                None
                if search.objective == _DEFAULT_OBJECTIVE
                else search.objective
            ),
            act_mode=search.act_sf_mode,
            stats=stats,
        )
    if kind == "evaluator":
        model = payload["model"]
        if "builder" in model:
            builder = decode_callable(model["builder"])
        else:
            builder = decode_callable(model["model_class"])
        return EvaluatorSpec(
            images=decode_array(payload["images"], blobs=blobs, fetch=fetch),
            builder=builder,
            state=(
                None
                if payload.get("state") is None
                else decode_state(payload["state"], blobs=blobs, fetch=fetch)
            ),
            config=(
                None
                if payload.get("config") is None
                else config_from_dict(FitnessConfig, payload["config"])
            ),
            objective=payload.get("objective"),
            act_mode=payload.get("act_mode"),
            stats=stats,
        )
    raise ValueError(f"unknown wire payload kind {kind!r}")
