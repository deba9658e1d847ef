"""The serve pool's JSON wire protocol.

Acceptance criterion from the SearchSpec redesign: the pool protocol
carries no pickled evaluator objects — workers reconstruct evaluators
from JSON-serializable payloads.  Asserted here by round-tripping the
actual wire payloads through ``json.dumps``/``loads`` and running the
reconstructed replicas against the originals, bitwise.
"""

import io
import json
import queue

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import EvaluatorSpec, ExecutorConfig
from repro.quant import FitnessConfig, collect_layer_stats, lpq_quantize
from repro.serve import SearchScheduler
from repro.serve.pool import SharedProcessPool, encode_pool_wires, make_shared_pool
from repro.spec import CalibSpec, SearchSpec
from repro.spec.wire import (
    SERVER_OPS,
    WIRE_VERSION,
    FrameCorruptionError,
    FrameDecoder,
    FrameTooLargeError,
    cancel_message,
    decode_callable,
    decode_job,
    decode_stats,
    encode_callable,
    encode_job,
    encode_stats,
    event_message,
    fleet_status_message,
    frame_message,
    list_jobs_message,
    metrics_message,
    read_frame,
    reply_message,
    result_get_message,
    status_message,
    submit_message,
    subscribe_message,
    subscribe_metrics_message,
)

from .conftest import SEARCH
from .servemodels import ServeBNCNN, build_serve_cnn

SPEC = SearchSpec(
    model="tiny:resnet", calib=CalibSpec(batch=4, seed=3), config=SEARCH
)


def json_roundtrip(payload):
    text = json.dumps(payload)  # must not raise: plain JSON only
    return json.loads(text)


class TestCallableWire:
    def test_roundtrip_function_and_class(self):
        for obj in (build_serve_cnn, ServeBNCNN):
            assert decode_callable(json_roundtrip(encode_callable(obj))) is obj

    def test_lambda_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="registry"):
            encode_callable(lambda: None)

    def test_local_class_rejected(self):
        class Local:
            pass

        with pytest.raises(ValueError, match="cannot be named"):
            encode_callable(Local)


class TestJobWire:
    def test_search_payload_roundtrips_and_rebuilds(self, serve_setup):
        _, _, images = serve_setup
        stats = collect_layer_stats(SPEC.build_model(), SPEC.build_calib())
        espec = EvaluatorSpec(
            images=SPEC.build_calib(), model=SPEC.build_model(), stats=stats
        )
        payload = json_roundtrip(encode_job(espec, SPEC))
        assert payload["kind"] == "search" and payload["version"] == WIRE_VERSION
        rebuilt = decode_job(payload)
        ref = lpq_quantize(spec=SPEC)
        assert rebuilt.build().evaluate(ref.solution) == ref.fitness

    def test_evaluator_payload_live_model_roundtrips(self, serve_setup):
        cnn, _, images = serve_setup
        stats = collect_layer_stats(cnn, images)
        espec = EvaluatorSpec(
            images=images, model=cnn, stats=stats,
            config=FitnessConfig(lam=0.15),
        )
        payload = json_roundtrip(encode_job(espec))
        assert payload["kind"] == "evaluator"
        rebuilt = decode_job(payload)
        # the architecture travels by class name, the weights as encoded
        # arrays; the rebuilt replica must score candidates bitwise-equal
        solution = lpq_quantize(
            cnn, images, config=SEARCH, fitness_config=FitnessConfig(lam=0.15)
        ).solution
        assert rebuilt.build().evaluate(solution) == espec.build(
            copy_model=True
        ).evaluate(solution)

    def test_wire_builder_tagged_instance_ships_by_builder_ref(self):
        """Zoo/bench instances carry a ``wire_builder`` tag, so live
        trained models (whose classes need constructor args) still
        cross the process-pool wire — architecture by builder name,
        weights as the live state dict."""
        from repro.spec import registry

        model = registry.resolve("model", "bench:resnet")()
        assert model.wire_builder == (
            "repro.perf.bench", "bench_resnet"
        )
        images = SPEC.build_calib()
        stats = collect_layer_stats(model, images)
        espec = EvaluatorSpec(images=images, model=model, stats=stats)
        payload = json_roundtrip(encode_job(espec))
        assert "builder" in payload["model"]
        rebuilt = decode_job(payload)
        solution = lpq_quantize(model, images, config=SEARCH).solution
        assert rebuilt.build().evaluate(solution) == espec.build(
            copy_model=True
        ).evaluate(solution)

    def test_shape_preserving_ctor_divergence_rejected(self):
        """A zero-arg-constructible class whose instance was built with
        a behavior-affecting (but shape-preserving) constructor argument
        must be rejected at encode time — the probe rebuild catches the
        functional divergence a worker would otherwise score silently."""
        from .servemodels import NegatingMLP

        model = NegatingMLP(negate=True)
        model.eval()
        images = np.random.default_rng(0).normal(
            size=(2, 3, 4, 4)
        ).astype(np.float32)
        espec = EvaluatorSpec(images=images, model=model)
        with pytest.raises(ValueError, match="does not reproduce"):
            encode_job(espec)
        # a train-mode model must not dodge the probe (the comparison
        # switches to eval and restores the caller's mode)
        trainmode = NegatingMLP(negate=True)
        assert trainmode.training
        with pytest.raises(ValueError, match="does not reproduce"):
            encode_job(EvaluatorSpec(images=images, model=trainmode))
        assert trainmode.training
        # the default-constructed twin encodes fine
        ok = NegatingMLP()
        ok.eval()
        payload = json_roundtrip(
            encode_job(EvaluatorSpec(images=images, model=ok))
        )
        assert "model_class" in payload["model"]

    def test_ctor_arg_class_rejected_at_encode_time(self):
        """An untagged instance whose class needs constructor arguments
        must fail in the submitting process with guidance — not as a
        worker-side TypeError."""
        from repro.models import resnet18_mini

        model = resnet18_mini()  # ResNet requires block/layers/widths
        model.eval()
        espec = EvaluatorSpec(
            images=np.zeros((1, 3, 8, 8), dtype=np.float32), model=model
        )
        with pytest.raises(ValueError, match="constructor argument"):
            encode_job(espec)

    def test_stats_roundtrip_exact(self, serve_setup):
        cnn, _, images = serve_setup
        stats = collect_layer_stats(cnn, images)
        back = decode_stats(json_roundtrip(encode_stats(stats)))
        assert back.names == stats.names
        assert back.param_counts == stats.param_counts
        assert back.weight_log_centers == stats.weight_log_centers
        assert back.act_log_centers == stats.act_log_centers

    def test_bad_payloads_raise(self):
        with pytest.raises(ValueError, match="version"):
            decode_job({"kind": "search"})
        with pytest.raises(ValueError, match="kind"):
            decode_job({"version": WIRE_VERSION, "kind": "sorcery"})
        with pytest.raises(ValueError, match="dict"):
            decode_job([1])


class TestPoolProtocolIsJson:
    def test_process_pool_wires_survive_json(self, serve_setup):
        """The exact payload handed to process workers is plain JSON."""
        cnn, _, images = serve_setup
        scheduler = SearchScheduler(
            executor=ExecutorConfig("process", workers=2)
        )
        scheduler.submit("live", cnn, images, config=SEARCH)
        scheduler.submit("declarative", spec=SPEC)
        jobs = {
            name: st.spec for name, st in scheduler._jobs.items()
        }
        wires = encode_pool_wires(
            jobs,
            {"declarative": scheduler._jobs["declarative"].search},
        )
        assert json_roundtrip(wires) == wires
        assert wires["declarative"]["kind"] == "search"
        assert wires["live"]["kind"] == "evaluator"

    def test_shared_process_pool_exposes_json_wires(self, serve_setup):
        cnn, _, images = serve_setup
        stats = collect_layer_stats(cnn, images)
        espec = EvaluatorSpec(images=images, model=cnn, stats=stats)
        results: queue.SimpleQueue = queue.SimpleQueue()
        pool = make_shared_pool(
            {"job": espec}, ExecutorConfig("process", workers=1), results
        )
        try:
            assert isinstance(pool, SharedProcessPool)
            assert json_roundtrip(pool.wires) == pool.wires
        finally:
            pool.close()

    def test_unnameable_job_fails_with_job_name(self, serve_setup):
        _, _, images = serve_setup

        class Unnameable(ServeBNCNN):
            pass

        model = Unnameable()
        model.eval()
        stats = collect_layer_stats(model, images)
        espec = EvaluatorSpec(images=images, model=model, stats=stats)
        with pytest.raises(ValueError, match="'doomed'"):
            encode_pool_wires({"doomed": espec})

    def test_sequential_instance_is_a_value_error(self, serve_setup):
        """``Sequential()`` rebuilds empty from its class name, so the
        state dict cannot load.  Encoding refuses with a ValueError
        (not load_state_dict's KeyError).  The process pool takes the
        pickled-spec route, so a search and a scheduler job both run
        bitwise equal to serial; the JSON-only wire of the remote pool
        names the job it refuses."""
        from repro import nn

        _, _, images = serve_setup
        nn.seed(33)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, bias=False),
            nn.BatchNorm2d(4), nn.ReLU(),
            nn.GlobalAvgPool(), nn.Linear(4, 4)).eval()
        with pytest.raises(ValueError, match="does not rebuild"):
            encode_job(EvaluatorSpec(images=images, model=model))
        serial = lpq_quantize(model, images, config=SEARCH)
        process = lpq_quantize(
            model, images, config=SEARCH,
            executor=ExecutorConfig("process", workers=2),
        )
        assert process.solution == serial.solution
        assert process.fitness == serial.fitness
        assert process.history.best_fitness == serial.history.best_fitness
        assert process.evaluations == serial.evaluations
        scheduler = SearchScheduler(ExecutorConfig("process", workers=2))
        handle = scheduler.submit("seq", model, images, config=SEARCH)
        scheduler.run()
        job = handle.result()
        assert job.solution == serial.solution
        assert job.fitness == serial.fitness
        assert job.history.best_fitness == serial.history.best_fitness
        assert job.evaluations == serial.evaluations
        with pytest.raises(ValueError, match="job 'seq' cannot cross"):
            encode_pool_wires({"seq": EvaluatorSpec(images=images,
                                                    model=model)})


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_payloads = st.dictionaries(st.text(max_size=8), _scalars, max_size=4)
_jobs = st.text(min_size=1, max_size=12)
_reqs = st.integers(0, 2**31)

#: every client↔server frame kind the daemon protocol added, built
#: through the real constructors with arbitrary field values
server_frames = st.one_of(
    st.builds(submit_message, spec=_payloads,
              priority=st.integers(-9, 9),
              job=st.one_of(st.none(), _jobs), req=_reqs),
    st.builds(status_message, job=_jobs, req=_reqs),
    st.builds(result_get_message, job=_jobs, req=_reqs),
    st.builds(cancel_message, job=_jobs, req=_reqs),
    st.builds(list_jobs_message, req=_reqs),
    st.builds(subscribe_message, job=_jobs, req=_reqs),
    st.builds(reply_message, req=_reqs,
              payload=st.one_of(st.none(), _payloads)),
    st.builds(reply_message, req=_reqs,
              error=st.text(min_size=1, max_size=30)),
    st.builds(event_message, job=_jobs,
              kind=st.sampled_from(["progress", "state"]),
              data=_payloads, final=st.booleans()),
    st.builds(fleet_status_message, req=_reqs),
    st.builds(subscribe_metrics_message, req=_reqs),
    st.builds(metrics_message, source=_jobs, seq=_reqs,
              t=st.floats(0, 2**40, allow_nan=False),
              delta=st.one_of(st.none(), _payloads),
              gauges=st.one_of(st.none(), _payloads),
              workers=st.one_of(
                  st.none(), st.lists(_payloads, max_size=3)
              ),
              status=st.one_of(st.none(), _payloads)),
)


class TestServerFrameWire:
    """The daemon's frame kinds ride the existing framing unchanged:
    any mix of them survives any byte segmentation of the stream."""

    @given(frames=st.lists(server_frames, min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_frame_mix_survives_any_segmentation(self, frames, data):
        stream = b"".join(frame_message(f) for f in frames)
        decoder = FrameDecoder()
        decoded = []
        pos = 0
        while pos < len(stream):
            step = data.draw(
                st.integers(1, len(stream) - pos), label="segment"
            )
            decoded.extend(decoder.feed(stream[pos:pos + step]))
            pos += step
        assert decoded == frames
        assert decoder.pending_bytes == 0

    @given(frame=server_frames)
    @settings(max_examples=60, deadline=None)
    def test_every_frame_is_plain_json(self, frame):
        assert json_roundtrip(frame) == frame

    def test_request_ops_match_the_registry(self):
        """Each request constructor stamps a type the server dispatches
        on — the ``type`` values and ``SERVER_OPS`` must stay in sync."""
        requests = {
            submit_message({})["type"],
            status_message("j")["type"],
            result_get_message("j")["type"],
            cancel_message("j")["type"],
            list_jobs_message()["type"],
            subscribe_message("j")["type"],
            fleet_status_message()["type"],
            subscribe_metrics_message()["type"],
        }
        assert requests == set(SERVER_OPS)

    def test_metrics_frame_is_a_push_not_a_request(self):
        """``metrics`` frames are server→client pushes like ``event``:
        no ``req`` correlation id, never a dispatchable op."""
        frame = metrics_message("worker:h:1", 7, 12.5,
                                delta={"counters": {"x": 1}})
        assert frame["type"] == "metrics"
        assert "req" not in frame
        assert frame["type"] not in SERVER_OPS
        assert frame["delta"] == {"counters": {"x": 1}}
        # optional fleet fields only appear when supplied
        assert "workers" not in frame and "status" not in frame
        merged = metrics_message("server:h:2", 0, 1.0,
                                 workers=[], status={"queue_depth": 0})
        assert merged["workers"] == [] and merged["status"] == {
            "queue_depth": 0
        }

    def test_reply_ok_tracks_error(self):
        ok = reply_message(3, {"state": "queued"})
        assert ok["ok"] and ok["req"] == 3 and ok["state"] == "queued"
        bad = reply_message(4, error="boom")
        assert not bad["ok"] and bad["error"] == "boom"

    def test_event_final_flag(self):
        event = event_message("j", "state", {"state": "done"}, final=True)
        assert event["final"] and event["event"] == "state"
        assert not event_message("j", "progress", {})["final"]


class TestFrameTooLarge:
    """Oversized frames raise the dedicated FrameCorruptionError
    subclass, so callers can tell a too-small ``max_bytes`` from a
    corrupt stream."""

    def test_decoder_raises_dedicated_subclass(self):
        frame = frame_message({"type": "ping", "pad": "x" * 64})
        with pytest.raises(FrameTooLargeError, match="16-byte limit"):
            FrameDecoder(max_bytes=16).feed(frame)

    def test_read_frame_raises_dedicated_subclass(self):
        frame = frame_message({"type": "ping", "pad": "x" * 64})
        with pytest.raises(FrameTooLargeError):
            read_frame(io.BytesIO(frame), max_bytes=16)

    def test_oversize_refused_from_header_alone(self):
        # the length prefix is enough: no body bytes are ever buffered
        frame = frame_message({"pad": "x" * 64})
        with pytest.raises(FrameTooLargeError):
            FrameDecoder(max_bytes=16).feed(frame[:8])

    def test_is_a_corruption_error_for_existing_handlers(self):
        assert issubclass(FrameTooLargeError, FrameCorruptionError)
        assert issubclass(FrameTooLargeError, ValueError)

    def test_frame_at_the_limit_still_decodes(self):
        message = {"type": "ping"}
        frame = frame_message(message)
        body_len = len(frame) - 8  # 4-byte length + 4-byte CRC header
        assert FrameDecoder(max_bytes=body_len).feed(frame) == [message]


class TestSpecSubmissionEndToEnd:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None),
        ("process", 2),
    ])
    def test_spec_job_bitwise_equals_standalone(self, backend, workers):
        ref = lpq_quantize(spec=SPEC)
        executor = (
            None if backend == "serial"
            else ExecutorConfig(backend, workers=workers)
        )
        scheduler = SearchScheduler(executor=executor)
        handle = scheduler.submit("tiny", spec=SPEC)
        results = scheduler.run()
        assert handle.done
        got = results["tiny"]
        assert got.solution == ref.solution
        assert got.fitness == ref.fitness
        assert got.history.best_fitness == ref.history.best_fitness
        assert got.act_params == ref.act_params

    def test_submit_spec_conflicts_raise(self, serve_setup):
        cnn, _, images = serve_setup
        scheduler = SearchScheduler()
        with pytest.raises(ValueError, match="conflicting"):
            scheduler.submit("bad", cnn, spec=SPEC)
        with pytest.raises(TypeError, match="SearchSpec"):
            scheduler.submit("bad", spec={"model": "tiny:resnet"})

    def test_lpq_quantize_many_spec_fleet_conflicts(self):
        from repro.serve import lpq_quantize_many

        with pytest.raises(ValueError, match="conflicting"):
            lpq_quantize_many([SPEC], calib_images=np.zeros((1, 3, 8, 8)))

    def test_lpq_quantize_many_rejects_mixed_fleet(self, serve_setup):
        cnn, _, images = serve_setup
        from repro.serve import lpq_quantize_many

        with pytest.raises(ValueError, match="cannot mix"):
            lpq_quantize_many([SPEC, cnn], images)
        with pytest.raises(ValueError, match="cannot mix"):
            lpq_quantize_many({"a": SPEC, "b": cnn}, images)
