"""LPQ's block-wise genetic search (paper Section 4, Steps 1-4).

The four steps:

1. **Candidate initialization** — K random Δ vectors, sf sampled in a
   small ball around each layer's weight-distribution centre.
2. **Re-generation** — the two fittest candidates parent a child; only a
   *block* of B consecutive layers is regenerated (Eqs. 2-5), all other
   layers copy the best parent.
3. **Diversity-promoting selection** — five random parents are each
   crossed with the Step-2 child; the best of those diverse children also
   enters the population, fighting premature convergence.
4. **Evaluation & population update** — fitness of all children computed,
   population extended, ranking by fitness.

The loop runs P passes over all blocks with C cycles per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..numerics import LPParams
from ..perf import get_perf
from .params import QuantSolution, clamp_lp_params, random_solution

__all__ = ["LPQConfig", "LPQEngine", "SearchHistory"]


@dataclass(frozen=True)
class LPQConfig:
    """Search hyper-parameters.  Paper defaults: K=20, P=10, C=4, B=4
    (CNNs) or one attention block (ViTs); five diversity parents.

    ``hw_widths`` restricts n to LPA-packable widths (Section 5.1
    constrains the LPQ search space of n to integer powers of 2 for
    hardware execution).  ``diversity``/``blockwise`` are ablation
    switches for the Step-3 and block-regeneration design choices.
    """

    population: int = 20  # K
    passes: int = 10  # P
    cycles: int = 4  # C
    block_size: int = 4  # B
    diversity_parents: int = 5
    hw_widths: tuple[int, ...] | None = (2, 4, 8)
    diversity: bool = True
    blockwise: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        # Step 2 pairs the best candidate with the runner-up, so a
        # smaller population cannot run a single GA step
        if self.population < 2:
            raise ValueError(
                f"population must be at least 2, got {self.population}"
            )

    def to_dict(self) -> dict:
        """Plain-JSON dict form (used by :class:`repro.spec.SearchSpec`)."""
        from ..spec.serde import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LPQConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        from ..spec.serde import config_from_dict

        return config_from_dict(cls, data)


@dataclass
class SearchHistory:
    """Best fitness and solution after every population update."""

    best_fitness: list[float] = field(default_factory=list)
    mean_bits: list[float] = field(default_factory=list)

    def record(self, fitness: float, solution: QuantSolution) -> None:
        self.best_fitness.append(fitness)
        self.mean_bits.append(solution.mean_weight_bits())


def _rand_int_between(rng: np.random.Generator, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] (inclusive), tolerating lo > hi."""
    if lo > hi:
        lo, hi = hi, lo
    return int(rng.integers(lo, hi + 1))


class LPQEngine:
    """Runs the genetic search against a fitness evaluator.

    ``evaluator(solution)`` must return a scalar (lower = fitter); see
    :class:`repro.quant.fitness.FitnessEvaluator`.  ``evaluator`` may be
    ``None`` when the engine is driven externally through
    :meth:`work_units` (the :class:`repro.serve.SearchScheduler` path),
    where candidate batches are yielded to the caller and fitness lists
    are sent back instead of being computed in-engine.

    Candidate *generation* (all engine RNG draws) is split from
    population *commit* — :meth:`propose_initial`/:meth:`commit_initial`
    and :meth:`propose_step`/:meth:`commit_step` — so a batch can be
    evaluated anywhere (in-process, thread pool, shared multi-job
    process pool) without changing the draw order.  :meth:`run`,
    :meth:`initialize`, and :meth:`step` compose exactly those pieces,
    so an externally driven search is bitwise-identical to a standalone
    one.

    A quick self-contained run against a toy fitness (mean weight bits,
    so the search just minimises precision):

    >>> from repro.quant import LPQConfig, LPQEngine
    >>> config = LPQConfig(population=4, passes=1, cycles=1,
    ...                    hw_widths=(2, 4, 8), seed=7)
    >>> engine = LPQEngine(lambda s: s.mean_weight_bits(),
    ...                    [0.0, 0.0, 0.0], config)
    >>> solution, fitness = engine.run()
    >>> len(solution)
    3
    >>> fitness == min(fit for _, fit in engine.population)
    True
    """

    def __init__(
        self,
        evaluator,
        layer_log_centers: list[float],
        config: LPQConfig | None = None,
        perf=None,
    ) -> None:
        self.evaluator = evaluator
        self.centers = list(layer_log_centers)
        self.config = config or LPQConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.num_layers = len(self.centers)
        self.population: list[tuple[QuantSolution, float]] = []
        self.history = SearchHistory()
        self.perf = perf if perf is not None else get_perf()

    # -- evaluation -----------------------------------------------------
    def _evaluate_batch(self, solutions: list[QuantSolution]) -> list[float]:
        """Score a batch of candidates, results in submission order.

        Evaluators exposing ``evaluate_many`` (the incremental
        evaluators) receive the whole batch at once; plain callables are
        scored one candidate at a time.  Either way the returned order
        matches the submitted order.  Searches that fan a batch out
        across workers drive the engine through :meth:`work_units`
        instead (:class:`repro.serve.SearchScheduler`).
        """
        if self.evaluator is None:
            raise RuntimeError(
                "engine has no evaluator: drive it through work_units() "
                "(e.g. via repro.serve.SearchScheduler) or construct it "
                "with an evaluator"
            )
        evaluate_many = getattr(self.evaluator, "evaluate_many", None)
        if evaluate_many is not None:
            fits = list(evaluate_many(solutions))
            if len(fits) != len(solutions):
                raise ValueError(
                    f"evaluate_many returned {len(fits)} results for "
                    f"{len(solutions)} candidates"
                )
            return fits
        return [self.evaluator(sol) for sol in solutions]

    # -- Step 1 ---------------------------------------------------------
    def propose_initial(self) -> list[QuantSolution]:
        """Generate the K Step-1 candidates (all RNG, no evaluation).

        The candidates are independent given the frozen model, so a
        scheduler may split the returned batch into chunks and evaluate
        them concurrently — ordering of the *results* is all that
        matters for determinism, not ordering of the evaluations.
        """
        return [
            random_solution(
                self.rng, self.num_layers, self.centers, self.config.hw_widths
            )
            for _ in range(self.config.population)
        ]

    def commit_initial(
        self, solutions: list[QuantSolution], fits: list[float]
    ) -> None:
        """Install the scored Step-1 population (fits in proposal order)."""
        if len(fits) != len(solutions):
            raise ValueError(
                f"{len(fits)} fitness values for {len(solutions)} candidates"
            )
        self.population = list(zip(solutions, fits))
        self.perf.counter("lpq.candidates").inc(len(solutions))
        self._rank()
        best_sol, best_fit = self.population[0]
        self.history.record(best_fit, best_sol)

    def initialize(self) -> None:
        """Sample K candidates and pre-compute their fitness.

        All candidates are generated up front (the evaluator draws no
        engine RNG, so the draw order is unchanged) and scored as one
        batch.
        """
        with self.perf.timer("lpq.initialize").time():
            sols = self.propose_initial()
            fits = self._evaluate_batch(sols)
        self.commit_initial(sols, fits)

    def _rank(self) -> None:
        self.population.sort(key=lambda item: item[1])

    # -- Step 2 ---------------------------------------------------------
    def _regenerate_layer(
        self, p1: LPParams, p2: LPParams, center: float
    ) -> LPParams:
        """Child layer parameters from two parents (Eqs. 2-5).

        min/max±1 ranges for the dynamic-range fields (n, es), mean-based
        for the shape fields (rs, sf); sf gets a small uniform perturbation
        (the paper's η(−10⁻³, 10⁻³) ball — the '10³' in Eq. 5 is read as a
        typo for 10⁻³, consistent with Step 1).
        """
        rng = self.rng
        n = _rand_int_between(rng, min(p1.n, p2.n) - 1, max(p1.n, p2.n) + 1)
        es = _rand_int_between(rng, min(p1.es, p2.es) - 1, max(p1.es, p2.es) + 1)
        rs = _rand_int_between(rng, 0, int(np.ceil((p1.rs + p2.rs) / 2.0)) + 1)
        sf = (p1.sf + p2.sf) / 2.0 + float(rng.uniform(-1e-3, 1e-3))
        return clamp_lp_params(n, es, rs, sf, self.config.hw_widths)

    def _make_child(
        self, p1: QuantSolution, p2: QuantSolution, block: range
    ) -> QuantSolution:
        """Regenerate `block` from both parents, copy the rest from p1."""
        params = list(p1.layer_params)
        for i in block:
            params[i] = self._regenerate_layer(p1[i], p2[i], self.centers[i])
        return QuantSolution(tuple(params))

    def _blocks(self) -> list[range]:
        b = self.config.block_size if self.config.blockwise else self.num_layers
        return [
            range(start, min(start + b, self.num_layers))
            for start in range(0, self.num_layers, b)
        ]

    # -- Steps 2-4 for one block ----------------------------------------
    def propose_step(self, block: range) -> list[QuantSolution]:
        """Generate one GA step's candidates: the Step-2 child first,
        then the Step-3 diversity children (all RNG, no evaluation).

        Generation order (and hence the RNG draw order) is identical to
        the historical serial step — candidates were always generated
        before any evaluation ran — so trajectories are independent of
        where (or in what order) the batch is eventually scored.
        """
        best, second = self.population[0][0], self.population[1][0]
        child = self._make_child(best, second, block)

        # Step 3: diversity-promoting selection
        diverse: list[QuantSolution] = []
        if self.config.diversity:
            for _ in range(self.config.diversity_parents):
                random_parent = random_solution(
                    self.rng, self.num_layers, self.centers,
                    self.config.hw_widths,
                )
                diverse.append(self._make_child(child, random_parent, block))
        return [child] + diverse

    def commit_step(
        self, candidates: list[QuantSolution], fits: list[float]
    ) -> None:
        """Step 4: population update from a scored :meth:`propose_step`
        batch (fits in proposal order: child first, then diversity)."""
        if len(fits) != len(candidates):
            raise ValueError(
                f"{len(fits)} fitness values for {len(candidates)} candidates"
            )
        child, diverse = candidates[0], candidates[1:]
        self.population.append((child, fits[0]))
        if diverse:
            scored = list(zip(diverse, fits[1:]))
            scored.sort(key=lambda item: item[1])
            self.population.append(scored[0])
        self.perf.counter("lpq.candidates").inc(len(candidates))
        self._rank()
        # bound population growth: keep the K fittest
        del self.population[self.config.population :]
        self.history.record(self.population[0][1], self.population[0][0])

    def step(self, block: range) -> None:
        """One batched GA step: generate the Step-2 child and all
        diversity children up front, then score them as one batch."""
        with self.perf.timer("lpq.step").time():
            cands = self.propose_step(block)
            fits = self._evaluate_batch(cands)
            self.commit_step(cands, fits)

    # -- full search ------------------------------------------------------
    def run(self) -> tuple[QuantSolution, float]:
        """P passes × blocks × C cycles; returns (best solution, fitness)."""
        with self.perf.timer("lpq.run").time():
            if not self.population:
                self.initialize()
            for _ in range(self.config.passes):
                for block in self._blocks():
                    for _ in range(self.config.cycles):
                        self.step(block)
        return self.population[0]

    # -- externally driven search ----------------------------------------
    def work_units(self):
        """Coroutine exposing the search as submittable candidate batches.

        Yields each batch of candidates the search wants scored (the
        Step-1 population first, then one batch per GA step) and expects
        the fitness list — in the yielded order — to be sent back::

            gen = engine.work_units()
            batch = next(gen)
            while True:
                try:
                    batch = gen.send([evaluate(s) for s in batch])
                except StopIteration:
                    break
            best_solution, best_fitness = engine.population[0]

        All engine RNG is drawn at generation time in exactly the order
        :meth:`run` draws it, so a driver may evaluate a batch anywhere
        — split into chunks across a shared worker pool, interleaved
        with batches from other searches — and the trajectory stays
        bitwise-identical to a standalone :meth:`run`.  This is the seam
        :class:`repro.serve.SearchScheduler` multiplexes many searches
        through one executor with.  The ``lpq.*`` timers span the same
        work as in :meth:`run`, waiting for the driver included.
        """
        with self.perf.timer("lpq.run").time():
            if not self.population:
                with self.perf.timer("lpq.initialize").time():
                    sols = self.propose_initial()
                    fits = yield sols
                self.commit_initial(sols, fits)
            for _ in range(self.config.passes):
                for block in self._blocks():
                    for _ in range(self.config.cycles):
                        with self.perf.timer("lpq.step").time():
                            cands = self.propose_step(block)
                            fits = yield cands
                            self.commit_step(cands, fits)
