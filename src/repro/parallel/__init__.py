"""Parallel population evaluation for the LPQ genetic search.

The GA's Step-3 diversity children are embarrassingly parallel: each
candidate evaluation is independent given a frozen model and calibration
batch.  This package holds what fans population slices out across
worker replicas:

* :class:`EvaluatorSpec` — picklable recipe (model source, calibration
  state, config) that every worker builds its private evaluator from;
* :class:`ExecutorConfig` — the ``serial`` / ``process`` / ``remote``
  backend selection, and the process-worker body the shared pools of
  :mod:`repro.serve.pool` run;
* :class:`PopulationEvaluator` over ``serial`` / ``process`` /
  ``remote`` executors — a batched evaluator with its own memo and
  deterministic ordering.  No search runs on it any more:
  :func:`repro.quant.lpq_quantize` is a one-job
  :class:`repro.serve.SearchScheduler`, so the scheduler's pools are
  the one evaluation path.

The hard guarantee mirrors the incremental engine's: every backend
produces bitwise-identical fitness values and search trajectories.

::

    from repro.parallel import ExecutorConfig
    from repro.quant import lpq_quantize
    result = lpq_quantize(model, calib, config=config,
                          executor=ExecutorConfig("process", 4))
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
