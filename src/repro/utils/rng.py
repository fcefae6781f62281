"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  :func:`as_rng` normalises all of
those to a ``Generator`` so components never share hidden global state, and
:func:`spawn_rngs` derives independent child generators for multi-run
experiments so that runs are reproducible individually and collectively.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

#: The union of things accepted wherever a random source is required.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(random_state)
    raise TypeError(
        "random_state must be None, int, SeedSequence or Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators.

    The derivation is deterministic given ``random_state``: calling this twice
    with the same seed yields identical child streams, which is what the
    multi-seed experiment runner relies on.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.Generator):
        # Use the generator itself to produce child seeds deterministically
        # with respect to its current state.
        seeds = random_state.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(seed)) for seed in seeds]
    seq = (
        random_state
        if isinstance(random_state, np.random.SeedSequence)
        else np.random.SeedSequence(random_state)
    )
    return [np.random.default_rng(child) for child in seq.spawn(count)]


#: Mask folding arbitrary Python ints into the non-negative range
#: :class:`numpy.random.SeedSequence` accepts as one entropy word.
_UINT64_MASK = (1 << 64) - 1


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """splitmix64 finaliser (the standard xoshiro seeding mixer), plain ints.

    Deliberately implemented on Python integers: the service derives seeds
    per request for typically one-row inputs, where int arithmetic is an
    order of magnitude faster than numpy uint64 scalar ops.
    """
    x = (x + _SPLITMIX_GAMMA) & _UINT64_MASK
    x ^= x >> 30
    x = (x * _SPLITMIX_MUL1) & _UINT64_MASK
    x ^= x >> 27
    x = (x * _SPLITMIX_MUL2) & _UINT64_MASK
    x ^= x >> 31
    return x


def mix_base_seed(base_seed: int) -> int:
    """The ``base_seed`` half of the request-seed chain, mixed once.

    A service mixes its base seed once and passes the result to
    :func:`request_row_seeds` for every request.
    """
    return _splitmix64(int(base_seed) & _UINT64_MASK)


def request_row_seeds(base_mix: int, request_id: int, n_rows: int) -> List[int]:
    """Per-row seeds of one request as Python ints (see :func:`derive_request_seeds`).

    ``base_mix`` is :func:`mix_base_seed` of the service's base seed.
    """
    root = _splitmix64(base_mix ^ (int(request_id) & _UINT64_MASK))
    return [
        _splitmix64((root + _SPLITMIX_GAMMA * row) & _UINT64_MASK)
        for row in range(1, n_rows + 1)
    ]


def derive_request_seeds(
    base_seed: int, request_id: int, n_rows: int
) -> np.ndarray:
    """Per-row noise seeds for one service request, derived deterministically.

    The async query service assigns every submitted request a sequence number
    and derives one ``uint64`` seed per input row from ``(base_seed,
    request_id)``.  Each row's seed depends only on those two values — never
    on how the request is later batched — which is what makes a coalesced
    response bit-identical to the same request measured alone: every noise
    draw along the measurement path is keyed on the row's seed via
    :func:`sample_stream`.

    The derivation is a counter-mode splitmix64 chain rather than a
    :class:`~numpy.random.SeedSequence`, whose construction alone costs
    more than this whole call; the mixer is the standard xoshiro seeding
    finaliser, so distinct ``(base_seed, request_id, row)`` triples map to
    statistically independent seeds.  This function is the reference, not
    the hot path: one call costs microseconds, not nanoseconds (4–7 µs for a
    one-row request on a 2-core x86 box with Python 3.11, about a third of
    it building the ``uint64`` array).  The service therefore keeps each
    request's seeds as Python ints (:func:`mix_base_seed` once per service,
    :func:`request_row_seeds` per request) and assembles one ``uint64``
    array per tick; those values equal this function's.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    return np.array(
        request_row_seeds(mix_base_seed(base_seed), request_id, n_rows),
        dtype=np.uint64,
    )


def sample_stream(seed: int, *path: int) -> np.random.Generator:
    """An independent generator for one (seed, consumer-path) pair.

    ``path`` identifies the consumer — e.g. ``(domain, tile, channel)`` — so
    distinct noise sources never share a stream even when they share the
    per-row ``seed``.  The derivation is stateless: the same arguments always
    yield the same stream, regardless of call order or batch shape.
    """
    entropy = [int(seed) & _UINT64_MASK]
    entropy.extend(int(part) & _UINT64_MASK for part in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def seeded_noise_factors(seeds, *path: int, std: float) -> np.ndarray:
    """Per-row multiplicative noise factors ``1 + N(0, std)``, one per seed.

    The counter-based sampler of the seeded measurement path: row ``i``'s
    factor is drawn from the stateless :func:`sample_stream` keyed on
    ``(seeds[i], *path)``, so the realizations are a pure function of the
    per-row seeds, independent of batch composition and call order.
    """
    return np.array(
        [1.0 + sample_stream(int(seed), *path).normal(0.0, std) for seed in seeds]
    )


def seeds_for_runs(base_seed: Optional[int], n_runs: int) -> list[int]:
    """Produce a list of integer seeds, one per independent run.

    Unlike :func:`spawn_rngs` this returns plain integers, which are easier to
    record in result metadata and to replay individually.
    """
    if n_runs < 0:
        raise ValueError(f"n_runs must be non-negative, got {n_runs}")
    seq = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n_runs)]
