"""The shared ensemble runner every analysis path funnels through.

Calibration, OAT sensitivity, regional sensitivity and GLUE all reduce
to the same primitive — "evaluate this model for each of these parameter
sets" — and before this module each of them re-ran the model from
scratch.  :class:`EnsembleRunner` is that primitive made shared: one
``simulate`` callable, one content-addressed
:class:`~repro.perf.runcache.RunCache`, and an opt-in
``concurrent.futures`` parallel backend whose output is merged back in
input order so parallel and serial runs are bit-identical.

``simulate`` must be a pure function of its parameter dict (every model
binding in :mod:`repro.hydrology` is); deterministic *failures* are as
cacheable as results, so a parameter draw that blows the model up is
captured as a :class:`RunFailure` once and never re-raised from compute.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.perf.runcache import RunCache

#: Exception families a model evaluation may deterministically raise for
#: a bad parameter draw — information (a non-behavioural region), not an
#: error.  Matches the calibrator's historical tolerance.
CAPTURED_ERRORS = (ValueError, ArithmeticError)

#: The evaluation backends ``EnsembleRunner`` can select between.
BACKENDS = ("scalar", "vector", "process-pool")


def _eval_batch_chunk(batch: Callable[[Sequence[Dict[str, float]]], list],
                      capture_errors: bool,
                      chunk: Sequence[Dict[str, float]]) -> List[Any]:
    """Evaluate one chunk through a batch callable.

    Module-level (not a closure) so the process-pool backend can pickle
    it.  With ``capture_errors``, a deterministic failure anywhere in
    the chunk triggers an item-by-item retry so one bad draw yields one
    :class:`RunFailure` instead of poisoning its whole chunk — the same
    per-item semantics as the scalar backend.
    """
    if not capture_errors:
        return list(batch(chunk))
    try:
        return list(batch(chunk))
    except CAPTURED_ERRORS:
        out: List[Any] = []
        for params in chunk:
            try:
                out.append(batch([params])[0])
            except CAPTURED_ERRORS as err:
                out.append(RunFailure.of(err))
        return out


@dataclass(frozen=True)
class RunFailure:
    """A deterministic simulation failure, captured and cacheable."""

    error_type: str
    message: str

    @classmethod
    def of(cls, error: BaseException) -> "RunFailure":
        """Wrap an exception."""
        return cls(error_type=type(error).__name__, message=str(error))


class EnsembleRunner:
    """Runs one model over many parameter sets, cached and optionally
    parallel.

    ``model_id`` and ``forcing`` scope the cache keys (same scheme as
    the workflow stage cache: model id + canonical parameters + forcing
    digest), so one :class:`RunCache` can safely back many runners.
    ``workers > 1`` enables a thread-pool backend; results are merged in
    input order, so the output sequence is identical to a serial run.
    ``sim`` (optional) attaches spans/events to that simulator's
    observability hub so cache behaviour shows up in traces.
    ``scheduler`` (optional, requires ``sim``) is a
    :class:`~repro.sched.router.ShardedRouter`; each batch is then
    scoped as a BATCH-class submission on the scheduling plane, so
    sweeps share the substrate — and its accounting — with portal
    sessions and workflow stages.  Results are unchanged either way.

    ``backend`` selects how cache misses are computed — ``"scalar"``
    (per-set ``simulate`` calls, threaded when ``workers > 1``),
    ``"vector"`` (all misses in one call to ``batch``, e.g. the SoA
    TOPMODEL kernel), or ``"process-pool"`` (misses chunked into
    ``chunk_size``-set slices, in input order, across a
    ``ProcessPoolExecutor`` of ``workers`` processes; chunk results are
    merged in chunk order, so output order is deterministic).  Cache
    keys never include the backend, so a warm cache populated by one
    backend serves every other.  ``batch`` must map a sequence of
    parameter dicts to a list of results in input order; when it is
    ``None`` — or advertises ``vectorized = False`` (NumPy missing) —
    the runner quietly falls back to the scalar backend.
    """

    def __init__(self, simulate: Callable[[Dict[str, float]], Any],
                 model_id: str = "model", forcing: str = "",
                 cache: Optional[RunCache] = None,
                 workers: int = 1, sim=None, scheduler=None,
                 backend: str = "scalar",
                 batch: Optional[Callable[[Sequence[Dict[str, float]]],
                                          list]] = None,
                 chunk_size: int = 64):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.simulate = simulate
        self.model_id = model_id
        self.forcing = forcing
        self.cache = cache
        self.workers = workers
        self.sim = sim
        self.scheduler = scheduler if sim is not None else None
        self.backend = backend
        self.batch = batch
        self.chunk_size = chunk_size
        self.backend_runs = {name: 0 for name in BACKENDS}
        self.chunks_dispatched = 0

    def resolve_backend(self) -> str:
        """The backend ``run_many`` will actually use.

        Falls back to ``"scalar"`` when no batch callable is bound or
        the callable advertises that vectorization is unavailable
        (``vectorized = False``, e.g. ``TopmodelEnsemble`` without
        NumPy), so selecting ``backend="vector"`` is always safe.
        """
        if self.backend == "scalar" or self.batch is None:
            return "scalar"
        # ``batch`` is typically a bound method (TopmodelEnsemble.batch)
        # whose ``vectorized`` flag lives on the instance behind it
        owner = getattr(self.batch, "__self__", None)
        flag = getattr(self.batch, "vectorized",
                       getattr(owner, "vectorized", True))
        if not flag:
            return "scalar"
        return self.backend

    # -- single evaluation --------------------------------------------------

    def key_of(self, parameters: Dict[str, float]) -> str:
        """The content-addressed cache key of one parameter set."""
        return RunCache.key_of(self.model_id, parameters, self.forcing)

    def run_one(self, parameters: Dict[str, float],
                capture_errors: bool = False) -> Any:
        """Evaluate one parameter set, consulting the cache.

        With ``capture_errors``, deterministic model failures come back
        as :class:`RunFailure` values (and are cached as such) instead
        of raising — a cache hit on a failure therefore reproduces the
        failure without re-running the model.
        """
        if self.cache is None:
            return self._evaluate(parameters, capture_errors)
        key = self.key_of(parameters)
        found, value = self.cache.lookup(key)
        if found:
            if isinstance(value, RunFailure) and not capture_errors:
                raise ValueError(
                    f"cached run failed: {value.error_type}: {value.message}")
            return value
        value = self._evaluate(parameters, capture_errors)
        self.cache.store(key, value)
        return value

    # -- batch evaluation ---------------------------------------------------

    def run_many(self, parameter_sets: Sequence[Dict[str, float]],
                 capture_errors: bool = False) -> List[Any]:
        """Evaluate a batch; output order always matches input order.

        The serial and parallel backends return bit-identical sequences:
        the thread pool only reorders *computation*, never results, and
        cache stores happen in first-occurrence order.
        """
        from contextlib import ExitStack
        span = None
        backend = self.resolve_backend()
        with ExitStack() as scope:
            if self.scheduler is not None:
                scope.enter_context(self.scheduler.batch_submission(
                    self.model_id, len(parameter_sets), self.workers))
            if self.sim is not None:
                from repro.obs.hub import obs_of
                hub = obs_of(self.sim)
                hits_before = self.cache.hits if self.cache else 0
                span = hub.tracer.start_span(
                    f"ensemble.run {self.model_id}", kind="perf",
                    attributes={"runs": len(parameter_sets),
                                "workers": self.workers,
                                "backend": backend})
            try:
                if backend != "scalar":
                    results = self._run_batched(parameter_sets,
                                                capture_errors, backend)
                elif self.workers == 1 or len(parameter_sets) < 2:
                    results = [self.run_one(p, capture_errors)
                               for p in parameter_sets]
                else:
                    results = self._run_parallel(parameter_sets,
                                                 capture_errors)
            finally:
                if span is not None:
                    if self.cache is not None:
                        span.set_attribute(
                            "cache_hits", self.cache.hits - hits_before)
                    span.finish()
                    hub.events.emit("perf.ensemble.batch",
                                    model=self.model_id,
                                    runs=len(parameter_sets),
                                    workers=self.workers,
                                    backend=backend)
        return results

    def _run_parallel(self, parameter_sets: Sequence[Dict[str, float]],
                      capture_errors: bool) -> List[Any]:
        if self.cache is None:
            # no cache: evaluate everything concurrently, merge by index
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(
                    lambda p: self._evaluate(p, capture_errors),
                    parameter_sets))
        # resolve hits up front; compute each unique miss exactly once
        keys = [self.key_of(p) for p in parameter_sets]
        resolved: Dict[str, Any] = {}
        seen = set()
        miss_keys: List[str] = []
        miss_params: List[Dict[str, float]] = []
        for key, params in zip(keys, parameter_sets):
            if key in seen:
                continue
            seen.add(key)
            found, value = self.cache.lookup(key)
            if found:
                resolved[key] = value
            else:
                miss_keys.append(key)
                miss_params.append(params)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            computed = list(pool.map(
                lambda p: self._evaluate(p, capture_errors), miss_params))
        # store in first-occurrence order: the deterministic merge
        for key, value in zip(miss_keys, computed):
            self.cache.store(key, value)
            resolved[key] = value
        out = []
        for key in keys:
            value = resolved[key]
            if isinstance(value, RunFailure) and not capture_errors:
                raise ValueError(
                    f"cached run failed: {value.error_type}: {value.message}")
            out.append(value)
        return out

    def _run_batched(self, parameter_sets: Sequence[Dict[str, float]],
                     capture_errors: bool, backend: str) -> List[Any]:
        """Vector / process-pool evaluation with the same cache
        discipline as ``_run_parallel``: hits resolved up front, each
        unique miss computed exactly once, stores in first-occurrence
        order, outputs merged back to input order."""
        if self.cache is None:
            resolved = None
            miss_keys: List[str] = []
            miss_params = list(parameter_sets)
        else:
            keys = [self.key_of(p) for p in parameter_sets]
            resolved = {}
            seen = set()
            miss_keys = []
            miss_params = []
            for key, params in zip(keys, parameter_sets):
                if key in seen:
                    continue
                seen.add(key)
                found, value = self.cache.lookup(key)
                if found:
                    resolved[key] = value
                else:
                    miss_keys.append(key)
                    miss_params.append(params)

        computed = self._compute_batch(miss_params, capture_errors,
                                       backend)
        self.backend_runs[backend] += len(miss_params)

        if resolved is None:
            out = computed
        else:
            for key, value in zip(miss_keys, computed):
                self.cache.store(key, value)
                resolved[key] = value
            out = [resolved[key] for key in keys]
        for value in out:
            if isinstance(value, RunFailure) and not capture_errors:
                raise ValueError(
                    f"cached run failed: {value.error_type}: "
                    f"{value.message}")
        return out

    def _compute_batch(self, miss_params: Sequence[Dict[str, float]],
                       capture_errors: bool, backend: str) -> List[Any]:
        if not miss_params:
            return []
        if backend == "vector":
            self.chunks_dispatched += 1
            return _eval_batch_chunk(self.batch, capture_errors,
                                     miss_params)
        # process-pool: fixed-size chunks in input order; pool.map
        # preserves submission order, so the merged result — and, by
        # the kernel's chunk invariance, every bit of it — matches the
        # single-batch vector backend
        chunks = [list(miss_params[i:i + self.chunk_size])
                  for i in range(0, len(miss_params), self.chunk_size)]
        self.chunks_dispatched += len(chunks)
        evaluate = partial(_eval_batch_chunk, self.batch, capture_errors)
        if len(chunks) == 1:
            return evaluate(chunks[0])
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            computed: List[Any] = []
            for chunk_result in pool.map(evaluate, chunks):
                computed.extend(chunk_result)
        return computed

    def _evaluate(self, parameters: Dict[str, float],
                  capture_errors: bool) -> Any:
        self.backend_runs["scalar"] += 1
        if not capture_errors:
            return self.simulate(parameters)
        try:
            return self.simulate(parameters)
        except CAPTURED_ERRORS as err:
            return RunFailure.of(err)

    def stats(self) -> Dict[str, float]:
        """Cache stats plus per-backend evaluation counters.

        The ``runs{backend=…}`` keys count model evaluations actually
        computed by each backend (cache hits excluded), matching the
        label style of the telemetry plane so
        :meth:`~repro.obs.telemetry.TelemetryPlane.watch_ensemble_runner`
        can scrape them directly.
        """
        if self.cache is None:
            stats = {"hits": 0, "misses": 0, "evictions": 0,
                     "entries": 0, "hit_rate": 0.0}
        else:
            stats = self.cache.stats()
        for name in BACKENDS:
            stats[f"runs{{backend={name}}}"] = self.backend_runs[name]
        stats["chunks_dispatched"] = self.chunks_dispatched
        stats["chunk_size"] = self.chunk_size
        stats["pool_workers"] = (
            self.workers if self.backend == "process-pool" else 0)
        return stats
