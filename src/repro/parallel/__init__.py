"""Parallel population evaluation for the LPQ genetic search.

The GA's Step-3 diversity children are embarrassingly parallel: each
candidate evaluation is independent given a frozen model and calibration
batch.  This package fans population slices out across worker replicas:

* :class:`EvaluatorSpec` — picklable recipe (model source, calibration
  state, config) that every worker builds its private evaluator from;
* :class:`PopulationEvaluator` — the batched evaluator the GA engine
  talks to: memo-dedupes candidates, fans the rest out, returns results
  in submission order;
* :class:`ExecutorConfig` + ``serial`` / ``process`` / ``remote``
  executors — interchangeable backends with deterministic ordering and
  perf-snapshot merging (worker cache hit-rates stay truthful).  The
  process backend runs the same worker body as the scheduler's shared
  process pool; the remote backend fans out to TCP workers
  (:mod:`repro.serve.remote`) addressed by ``host:port``.

The hard guarantee mirrors the incremental engine's: every backend
produces bitwise-identical fitness values and search trajectories.
:func:`repro.quant.lpq_quantize` itself runs this evaluator, on the
serial backend unless told otherwise.

::

    from repro.parallel import EvaluatorSpec, ExecutorConfig, PopulationEvaluator
    spec = EvaluatorSpec(images=calib, model=model, stats=stats)
    with PopulationEvaluator(spec, ExecutorConfig("process", 4)) as ev:
        engine = LPQEngine(ev, stats.weight_log_centers, config)
        solution, fitness = engine.run()
"""

from .evaluator import EvaluatorReplica, EvaluatorSpec, PopulationEvaluator
from .executor import (
    BACKENDS,
    ExecutorConfig,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    parse_address,
    parse_address_list,
)

__all__ = [
    "BACKENDS",
    "EvaluatorReplica",
    "EvaluatorSpec",
    "ExecutorConfig",
    "PopulationEvaluator",
    "ProcessExecutor",
    "SerialExecutor",
    "make_executor",
    "parse_address",
    "parse_address_list",
]
