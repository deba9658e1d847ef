"""``lpq_quantize`` is a one-job ``SearchScheduler`` run.

A search scores candidates through the scheduler and its shared pools
only, whatever the call style or backend.  These tests pin the parts
of that path a single search depends on:

* the serial pool scores the caller's own model instance and copies a
  model only when a replica could not own it; a process worker keeps
  that rule for the specs it unpickles, and a wire payload carries the
  job's own state dict, and no job's state dict is loaded into the
  caller's instance;
* a failure inside a search reaches the caller as the job handle's
  ``RuntimeError``, worker traceback included, on every backend;
* no search path builds a ``PopulationEvaluator`` or an executor.
"""

import dataclasses

import pytest

from repro import nn
from repro.models.tiny import tiny_mlp
from repro.parallel import ExecutorConfig
from repro.quant import LPQConfig, lpq_quantize
from repro.serve import SearchScheduler
from repro.serve.remote import local_worker_fleet
from repro.spec import CalibSpec, SearchSpec

from .._bits import assert_bits_equal
from .conftest import SEARCH
from .servemodels import ServeBNCNN, ServeMLP, build_failing_cnn

#: ids of the instances ``IdProbeMLP.forward`` ran on
SEEN: list[int] = []


class IdProbeMLP(ServeMLP):
    """Records which instance each forward runs on."""

    def forward(self, x):
        SEEN.append(id(self))
        return super().forward(x)


def _same(got, ref):
    return (
        got.solution == ref.solution
        and got.fitness == ref.fitness
        and got.history.best_fitness == ref.history.best_fitness
        and got.evaluations == ref.evaluations
    )


class TestSerialCopyRule:
    def test_serial_search_scores_the_callers_instance(self, serve_setup):
        """No copy: every forward, calibration and candidate scoring
        alike, runs on the model the caller passed."""
        _, _, images = serve_setup
        nn.seed(41)
        model = IdProbeMLP().eval()
        SEEN.clear()
        lpq_quantize(model, images, config=SEARCH)
        assert len(SEEN) > 2  # stats, reference pass, candidates
        assert set(SEEN) == {id(model)}

    @pytest.mark.parametrize("late", [False, True],
                             ids=["together", "late-join"])
    def test_jobs_sharing_one_instance_match_standalone(
        self, serve_setup, late
    ):
        """Two jobs load different state dicts into one model instance.
        Each replica owns a copy, so each job is bitwise its standalone
        search — also when the second job joins the running scheduler
        after the first one's replica exists."""
        _, _, images = serve_setup
        states = {}
        for name, seed in (("a", 51), ("b", 52)):
            nn.seed(seed)
            states[name] = ServeBNCNN().state_dict()
        refs = {}
        for name, state in states.items():
            model = ServeBNCNN().eval()
            model.load_state_dict(state)
            refs[name] = lpq_quantize(model, images, config=SEARCH)

        shared = ServeBNCNN().eval()
        handles = {}

        def submit(name):
            handles[name] = scheduler.submit(
                name, shared, images, state=states[name], config=SEARCH
            )

        def on_batch(name, info):
            if late and "b" not in handles:
                submit("b")

        scheduler = SearchScheduler(on_batch=on_batch)
        submit("a")
        if not late:
            submit("b")
        scheduler.run()
        for name, ref in refs.items():
            assert _same(handles[name].result(), ref), name


def _shared_sequential():
    """A model the wire codec rejects (``nn.Sequential()`` cannot
    rebuild it), so a process pool ships its pickled spec."""
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, bias=False), nn.BatchNorm2d(6),
        nn.ReLU(), nn.GlobalAvgPool(), nn.Linear(6, 8),
    )


#: a budget whose standalone searches improve on their first
#: population, so a replica scoring the wrong weights changes the result
SHARED = dataclasses.replace(SEARCH, population=4, passes=2, cycles=2)


class TestProcessCopyRule:
    @pytest.mark.parametrize("build", [_shared_sequential, ServeBNCNN],
                             ids=["pickled", "wire"])
    def test_jobs_sharing_one_instance_match_standalone(
        self, serve_setup, build
    ):
        """Two jobs share one model instance and load different state
        dicts into it on a one-worker process pool.  Each job is bitwise
        its standalone search, whether the job travels as its pickled
        spec or as a wire payload."""
        _, _, images = serve_setup
        states, refs = {}, {}
        for name, seed in (("a", 51), ("b", 52)):
            nn.seed(seed)
            states[name] = build().state_dict()
            model = build().eval()
            model.load_state_dict(states[name])
            refs[name] = lpq_quantize(model, images, config=SHARED)
        assert refs["a"].fitness < refs["a"].history.best_fitness[0]

        shared = build().eval()
        scheduler = SearchScheduler(
            executor=ExecutorConfig("process", workers=1)
        )
        handles = {
            name: scheduler.submit(name, shared, images, state=state,
                                   config=SHARED)
            for name, state in states.items()
        }
        scheduler.run()
        for name, ref in refs.items():
            got = handles[name].result()
            assert _same(got, ref), name
            assert got.history == ref.history, name


class TestCallersInstance:
    @pytest.mark.parametrize("executor", [
        None, ExecutorConfig("process", workers=1),
    ], ids=["serial", "process"])
    def test_job_states_never_load_into_the_callers_instance(
        self, serve_setup, executor
    ):
        """Two jobs bring their own state dicts for one model instance.
        Neither is loaded into the caller's instance: after ``run()``
        its weights are bitwise the ones it had before."""
        _, _, images = serve_setup
        states = {}
        for name, seed in (("a", 51), ("b", 52)):
            nn.seed(seed)
            states[name] = _shared_sequential().state_dict()
        nn.seed(50)
        shared = _shared_sequential().eval()
        before = shared.state_dict()
        scheduler = SearchScheduler(executor=executor)
        for name, state in states.items():
            scheduler.submit(name, shared, images, state=state,
                             config=SEARCH)
        scheduler.run()
        after = shared.state_dict()
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert_bits_equal(after[key], value)


class TestSearchFailure:
    @pytest.mark.parametrize("executor", [
        None, ExecutorConfig("process", workers=2),
    ], ids=["serial", "process"])
    def test_failure_raises_runtime_error_with_traceback(
        self, serve_setup, executor
    ):
        """The model calibrates fine and raises in the first candidate's
        training-mode forward; the caller gets the job's RuntimeError."""
        _, _, images = serve_setup
        with pytest.raises(RuntimeError) as info:
            lpq_quantize(build_failing_cnn(), images, config=SEARCH,
                         executor=executor)
        message = str(info.value)
        assert "search job 'lpq_quantize' failed" in message
        assert "Traceback" in message
        assert "injected failure: training-mode forward" in message

    def test_empty_population_fails_the_job(self):
        """A population below 2 cannot run a GA step (Step 2 pairs the
        best two), so its config is refused where it is built, before
        any job exists: directly, through ``dataclasses.replace`` and
        from a spec's JSON form."""
        for population in (0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                dataclasses.replace(SEARCH, population=population)
            with pytest.raises(ValueError, match="at least 2"):
                SearchSpec.from_dict({
                    "model": "tiny:mlp",
                    "config": {**SEARCH.to_dict(), "population": population},
                })


CONFIG =LPQConfig(population=3, passes=1, cycles=1, block_size=2,
                   diversity_parents=2, hw_widths=(4, 8), seed=13)
CALIB = CalibSpec(batch=4, seed=3)


def _refuse(*args, **kwargs):
    raise AssertionError("a search built the retired executor path")


class TestNoExecutorPath:
    def test_searches_never_build_an_executor(self, monkeypatch):
        """With ``PopulationEvaluator`` and ``make_executor`` raising,
        both call styles run on every backend and the bench's search
        legs still run, each bitwise equal to the serial search."""
        import repro.parallel
        import repro.parallel.evaluator
        import repro.parallel.executor
        from repro.perf import bench

        spec = SearchSpec(model="tiny:mlp", calib=CALIB, config=CONFIG)
        ref = lpq_quantize(spec=spec)
        monkeypatch.setattr(
            repro.parallel.evaluator.PopulationEvaluator, "__init__", _refuse
        )
        for module in (repro.parallel, repro.parallel.executor):
            monkeypatch.setattr(module, "make_executor", _refuse)

        with local_worker_fleet(2) as addresses:
            for executor in (
                None,
                ExecutorConfig("process", workers=2),
                ExecutorConfig("remote", addresses=addresses),
            ):
                by_spec = lpq_quantize(
                    spec=dataclasses.replace(spec, executor=executor)
                )
                legacy = lpq_quantize(tiny_mlp(), CALIB.build(),
                                      config=CONFIG, executor=executor)
                assert _same(by_spec, ref)
                assert _same(legacy, ref)

        legs = [
            bench._run_search_backend("resnet", backend, 2, 4, CONFIG, 0)
            for backend in ("serial", "process", "remote")
        ]
        assert [leg["workers"] for leg in legs] == [1, 2, 2]
        histories = {tuple(leg["history"]) for leg in legs}
        assert len(histories) == 1
        multi = bench._multi_job_section(("resnet",), "process", 2, 4,
                                         CONFIG, 0)
        assert multi["identical"]
