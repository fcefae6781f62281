"""Shared experiment plumbing: dataset/model preparation and multi-seed runs.

Every job of a hardware-knob sweep trains the same few victims: the knobs
change the crossbar, never the weights.  :func:`prepare_dataset` and
:meth:`~repro.experiments.scenario.ScenarioSpec.build_victim` therefore sit
behind a one-entry, per-thread memo: the last dataset and the last victim
trained on it.  A new dataset key drops both before the next dataset is
generated, so at most one of each is alive per thread, and
:func:`~repro.experiments.base.execute_jobs` runs jobs grouped by victim so
the one entry hits.  Memoised arrays are read-only: a job that writes into
a shared dataset or weight matrix fails instead of corrupting the next job.

Multi-seed sweeps are embarrassingly parallel — every run receives an
independent, deterministically derived seed — so :class:`ParallelRunner` can
execute them on a :mod:`concurrent.futures` worker pool (processes by
default) without changing any result: the derived seeds, the per-run RNG
streams and the order results are assembled in are identical to the serial
path.  Figure/table sweeps therefore scale with cores simply by passing a
runner to :func:`run_multi_seed` (or to ``run_figure5``).
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets import Dataset, load_dataset
from repro.experiments.config import ExperimentScale
from repro.nn.network import SingleLayerNetwork
from repro.nn.trainer import train_single_layer
from repro.utils.results import RunResult, SweepResult
from repro.utils.rng import seeds_for_runs


@dataclass
class TrainedModel:
    """A victim model together with its dataset and training diagnostics."""

    network: SingleLayerNetwork
    dataset: Dataset
    output: str
    test_accuracy: float
    train_accuracy: float

    @property
    def n_features(self) -> int:
        """Input dimensionality."""
        return self.dataset.n_features


#: The calling thread's last dataset and victim (see the module docstring).
_memo = threading.local()


def clear_victim_memo() -> None:
    """Forget the calling thread's memoised dataset and victim."""
    _memo.__dict__.clear()


def _freeze(*arrays) -> None:
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


def prepare_dataset(
    name: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> Dataset:
    """Generate one dataset at the requested scale (memoised, read-only).

    Repeating the last call on this thread returns the same object; any
    other key frees the held dataset and victim before generating anew.
    """
    if not isinstance(random_state, numbers.Integral):
        return load_dataset(
            name, n_train=scale.n_train, n_test=scale.n_test, random_state=random_state
        )
    key = (name, scale.n_train, scale.n_test, int(random_state))
    if getattr(_memo, "dataset_key", None) == key:
        return _memo.dataset
    clear_victim_memo()
    dataset = load_dataset(
        name, n_train=scale.n_train, n_test=scale.n_test, random_state=random_state
    )
    _freeze(
        dataset.train_inputs,
        dataset.train_targets,
        dataset.test_inputs,
        dataset.test_targets,
    )
    _memo.dataset_key, _memo.dataset = key, dataset
    return dataset


def memoised_victim(
    key: Optional[Hashable], dataset: Dataset, train: Callable[[], "TrainedModel"]
) -> "TrainedModel":
    """The thread's victim for ``key`` on ``dataset``, training it on a miss.

    Only a ``dataset`` that *is* the memoised :func:`prepare_dataset` result
    takes part; a caller-supplied one (or a ``None`` key) is trained on and
    never memoised.
    """
    if key is None or dataset is not getattr(_memo, "dataset", None):
        return train()
    if getattr(_memo, "victim_key", None) == key:
        return _memo.victim
    _memo.victim_key = _memo.victim = None
    model = train()
    for layer in model.network.layers:
        _freeze(layer.weights, layer.bias)
    _memo.victim_key, _memo.victim = key, model
    return model


def prepare_model(
    dataset: Dataset,
    output: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> TrainedModel:
    """Train the paper's single-layer victim model on a dataset."""
    network, trainer = train_single_layer(
        dataset,
        output=output,
        epochs=scale.train_epochs,
        random_state=random_state,
    )
    _, test_accuracy = trainer.evaluate(dataset.test_inputs, dataset.test_targets)
    _, train_accuracy = trainer.evaluate(dataset.train_inputs, dataset.train_targets)
    return TrainedModel(
        network=network,
        dataset=dataset,
        output=output,
        test_accuracy=test_accuracy,
        train_accuracy=train_accuracy,
    )


def _call_star(payload: Tuple[Callable, tuple]):
    """Top-level helper so worker invocations survive process-pool pickling."""
    fn, args = payload
    return fn(*args)


class ParallelRunner:
    """Executes independent seed-runs on a :mod:`concurrent.futures` pool.

    Parameters
    ----------
    mode:
        ``"process"`` (default) uses a :class:`ProcessPoolExecutor`,
        ``"thread"`` a :class:`ThreadPoolExecutor`, and ``"serial"`` opts out
        of parallelism entirely (useful for debugging and for callables that
        cannot be pickled).
    max_workers:
        Worker-pool size; ``None`` uses the executor default (CPU count).

    Determinism: the runner only distributes calls whose seeds were derived
    up front, and collects results in submission order, so a parallel sweep
    is bit-identical to its serial counterpart.  Process mode falls back to
    serial execution (with a warning) when the callable or a representative
    (first) argument tuple cannot be pickled — e.g. closures over local
    state.  The probe is O(1) in the sweep size, so a heterogeneous
    ``args_list`` whose *later* entries are unpicklable is the caller's
    responsibility and surfaces as an error from the pool.

    Scheduling: process mode submits jobs in **chunks** — one contiguous
    block per worker — instead of one pickled round-trip per job.  Sweep
    jobs are short (tens of milliseconds) and numerous, so per-job IPC
    dominated the pool's wall clock (measured ~1.5x *slower* than serial for
    51 short jobs on a small machine); chunking amortises the pickling and
    queue traffic over ``len(jobs) / n_workers`` calls while preserving
    result order.  The pool is also never wider than the job list.
    """

    VALID_MODES = ("process", "thread", "serial")

    def __init__(self, *, mode: str = "process", max_workers: Optional[int] = None):
        mode = str(mode).lower()
        if mode not in self.VALID_MODES:
            raise ValueError(f"mode must be one of {self.VALID_MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers

    # ------------------------------------------------------------------ api

    def map(self, fn: Callable, args_list: Sequence[tuple]) -> List:
        """Apply ``fn(*args)`` to every argument tuple, preserving order."""
        args_list = [tuple(args) for args in args_list]
        mode = self.mode
        if mode == "process" and not self._picklable(fn, args_list):
            warnings.warn(
                "ParallelRunner: callable or arguments are not picklable; "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            mode = "serial"
        if mode == "serial" or len(args_list) <= 1:
            return [fn(*args) for args in args_list]
        executor_cls = (
            ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
        )
        workers = self.resolve_workers(len(args_list))
        payloads = [(fn, args) for args in args_list]
        map_kwargs = {}
        if mode == "process":
            map_kwargs["chunksize"] = self.chunksize(len(args_list))
        with executor_cls(max_workers=workers) as executor:
            return list(executor.map(_call_star, payloads, **map_kwargs))

    def resolve_workers(self, n_jobs: int) -> int:
        """The actual pool width for ``n_jobs`` (never wider than the jobs)."""
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, n_jobs))

    def chunksize(self, n_jobs: int) -> int:
        """Process-mode chunk size: one contiguous block per worker."""
        return max(1, math.ceil(n_jobs / self.resolve_workers(n_jobs)))

    def run_multi_seed(
        self,
        name: str,
        run_fn: Callable[[int, int], RunResult],
        *,
        n_runs: int,
        base_seed: Optional[int] = 0,
    ) -> SweepResult:
        """Parallel drop-in for :func:`run_multi_seed` (same results, ordered)."""
        return run_multi_seed(
            name, run_fn, n_runs=n_runs, base_seed=base_seed, runner=self
        )

    @staticmethod
    def _picklable(fn: Callable, args_list: Sequence[tuple]) -> bool:
        """Probe process-pool compatibility cheaply.

        Only ``fn`` and a single representative argument tuple are pickled —
        serialising the whole ``args_list`` would cost O(total payload) per
        sweep just to answer a yes/no question, and every job of a sweep
        shares the same callable and argument types.
        """
        sample = args_list[0] if args_list else ()
        try:
            pickle.dumps((fn, sample))
        except Exception:
            return False
        return True


def run_multi_seed(
    name: str,
    run_fn: Callable[[int, int], RunResult],
    *,
    n_runs: int,
    base_seed: Optional[int] = 0,
    runner: Optional[ParallelRunner] = None,
) -> SweepResult:
    """Run ``run_fn(run_index, seed)`` for ``n_runs`` independent seeds.

    The derived seeds are deterministic in ``base_seed`` so the whole sweep is
    reproducible, while every run receives an independent stream.  Passing a
    :class:`ParallelRunner` executes the runs on a worker pool; results are
    assembled in run order either way, so the sweep is identical to a serial
    one.
    """
    sweep = SweepResult(name=name, metadata={"n_runs": n_runs, "base_seed": base_seed})
    seeds: List[int] = seeds_for_runs(base_seed, n_runs)
    if runner is None:
        results = [run_fn(run_index, seed) for run_index, seed in enumerate(seeds)]
    else:
        results = runner.map(run_fn, list(enumerate(seeds)))
    for run_index, (seed, result) in enumerate(zip(seeds, results)):
        result.metadata.setdefault("seed", seed)
        result.metadata.setdefault("run_index", run_index)
        sweep.add(result)
    return sweep
