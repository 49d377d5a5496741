"""Deterministic random-stream derivation and replica-parallel execution.

Every random quantity in the package is drawn from a stream derived from
(master seed, module id, replica index, ...) via numpy's SeedSequence
spawn-key mechanism.  Replicas therefore never share state, and any
partition of the replica range across workers reproduces the serial
result bit for bit.

``replica_rows`` is the replica loop of every cascade, disorder and
Gibbs estimator: a build from the replica's seed, then a read of one
row.  Only ``pd_process`` keeps chunk functions of its own: they refill
at most three n_max-point buffers allocated once per chunk, one
replica's points at a time, and allocate nothing of n_max points per
replica; the elementwise work beyond those buffers runs in fixed blocks.

The tree samplers in ``cascade`` take one stream per tree level.
``STREAM_VERSION`` names that layout and goes into every report:
version 1 was one stream per (level, parent) node, version 2 is one
stream per level.
"""

from __future__ import annotations

import os

import numpy as np

# Stable stream identifiers, one per consumer of randomness.  Values are
# part of the reproducibility contract: changing them changes all outputs.
MODULE_PD = 1
MODULE_CASCADE = 2
MODULE_FIELDS = 3
MODULE_MARKS = 4
MODULE_SK = 5
MODULE_INTERP = 6
MODULE_COUPLED = 7

# A change that moves sampled numbers on purpose bumps it.
STREAM_VERSION = 2

WORKERS_ENV = "CASCADELAB_WORKERS"

# Fixed chunking of the replica range.  Streams are keyed by replica
# index, not by chunk, so results do not depend on the partition; the
# chunk size is still a constant, not a function of the worker count.
CHUNK_SIZE = 256


def stream_key(seed) -> tuple:
    """A seed as a stream-key prefix: an int n becomes (n,), a tuple stays."""
    return (seed,) if isinstance(seed, int) else tuple(seed)


def derive_word(master: int, *key: int) -> int:
    """The first uint64 word of SeedSequence(master, spawn_key=key)'s state."""
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1, np.uint64)[0])


def derive_rng(master: int, *key: int) -> np.random.Generator:
    """Return the generator for stream (master, *key).

    Streams with distinct keys are statistically independent; the same
    (master, key) always yields the same stream.  Tree levels take
    ``derive_rng(*stream_key(seed), module, level)``, where ``seed`` is
    an int or a (master, operation..., replica) tuple.  ``master`` is an
    integer or a sequence of them; each key word is an integer.
    """
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=key))


def worker_count() -> int:
    """Worker count from the environment; affects speed only, never results."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _chunks(n: int):
    for start in range(0, n, CHUNK_SIZE):
        yield start, min(start + CHUNK_SIZE, n)


def replica_rows(args, master, start, stop):
    """``read(build(seed))`` for each replica's seed, one row per replica.

    ``args`` is ``(key, build, read)``: replica ``rep`` is built from the
    seed ``(master, *key, rep)``.  ``build`` is a ``partial`` of a builder
    that lacks only the seed, and ``read`` a module-level function or a
    ``partial`` of one, so the chunk pickles for the process pool.
    """
    key, build, read = args
    rows = [read(build((master, *key, rep))) for rep in range(start, stop)]
    return np.array(rows, dtype=float)


def run_replicas(chunk_fn, args: tuple, master: int, n_replicas: int) -> np.ndarray:
    """Evaluate ``chunk_fn(args, master, start, stop)`` over the replica range.

    ``chunk_fn`` must be a module-level function returning an ndarray whose
    leading dimension is ``stop - start``.  Chunks are concatenated in index
    order, so the result is independent of how chunks are scheduled.
    """
    spans = list(_chunks(n_replicas))
    workers = worker_count()
    if workers > 1 and len(spans) > 1:
        # Imported here, so that serial runs never load the pool's modules.
        from concurrent.futures import ProcessPoolExecutor

        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = [pool.submit(chunk_fn, args, master, a, b) for a, b in spans]
        except (OSError, ValueError):
            # Pool start-up can fail in restricted environments; the serial
            # path produces identical results.  Errors raised by a chunk
            # are not caught: they surface from ``result()`` below.
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        else:
            with pool:
                parts = [f.result() for f in futures]
            return np.concatenate(parts, axis=0)
    parts = [chunk_fn(args, master, a, b) for a, b in spans]
    return np.concatenate(parts, axis=0)
