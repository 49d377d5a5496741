"""Deterministic random-stream derivation and replica-parallel execution.

Every random quantity in the package is drawn from a stream derived from
(master seed, module id, replica index, ...) via numpy's SeedSequence
spawn-key mechanism.  Replicas therefore never share state, and any
partition of the replica range across workers reproduces the serial
result bit for bit.

``derive_rng`` computes SeedSequence's hash itself (numpy NEP 19, after
O'Neill 2014, *PCG*).  Key words enter the pool one at a time, after the
master fills it, so the pool for a key extends that of its prefix.
Sibling tree nodes share every key word but the last, and a memoized
prefix pool leaves each stream to pay only for its last word and the
output hash.  ``derive_node_rngs`` runs that same hash over a uint64
array of last words, one row per node, so all nodes of a tree take one
hash pass; ``derive_rng`` serves single streams.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stable stream identifiers, one per consumer of randomness.  Values are
# part of the reproducibility contract: changing them changes all outputs.
MODULE_PD = 1
MODULE_CASCADE = 2
MODULE_FIELDS = 3
MODULE_MARKS = 4
MODULE_SK = 5
MODULE_INTERP = 6
MODULE_COUPLED = 7

WORKERS_ENV = "CASCADELAB_WORKERS"

# Fixed chunking of the replica range.  Streams are keyed by replica
# index, not by chunk, so results do not depend on the partition; the
# chunk size is still a constant, not a function of the worker count.
CHUNK_SIZE = 256


def stream_key(seed) -> tuple:
    """A seed as a stream-key prefix: an int n becomes (n,), a tuple stays."""
    return (seed,) if isinstance(seed, int) else tuple(seed)


# SeedSequence's constants: pool size in 32-bit words, the hash
# multipliers of the mixing (A) and output (B) passes, the mix
# multipliers and the xor-shift.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16

# Prefix pools held at once; a tree level's siblings need one entry.
PREFIX_CACHE_SIZE = 256


def _words(n) -> list:
    """An integer as SeedSequence reads it: little-endian uint32 words."""
    if type(n) is int and 0 <= n <= _MASK32:  # the common one-word key
        return [n]
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"seed must be integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _entropy_words(master) -> tuple:
    """A master that is not an int, read as SeedSequence reads its entropy:
    the words of each integer of a (nested) sequence, in order."""
    if isinstance(master, (list, tuple, range, np.ndarray)):
        return tuple(word for item in master for word in _entropy_words(item))
    return tuple(_words(master))


def _hashmix(value: int, const: int):
    """SeedSequence's hashmix: the hashed word and the next hash constant."""
    next_const = const * _MULT_A & _MASK32
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> _XSHIFT, next_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _absorb(pool: tuple, const: int, words) -> tuple:
    """Mix each word into every pool word, in order, as SeedSequence does
    with the entropy beyond the pool size.

    ``_hashmix`` and ``_mix`` are written out here: every stream runs
    this loop at least once.
    """
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            next_const = const * _MULT_A & _MASK32
            value = (word ^ const) * next_const & _MASK32
            const = next_const
            result = (_MIX_L * pool[i] - _MIX_R * (value ^ value >> _XSHIFT)) & _MASK32
            pool[i] = result ^ result >> _XSHIFT
    return tuple(pool), const


@lru_cache(maxsize=PREFIX_CACHE_SIZE, typed=True)
def _prefix_pool(master, *prefix) -> tuple:
    """(pool, hash constant) after mixing ``master`` and the key ``prefix``.

    ``master`` is an int or a tuple of its words.  ``typed`` keeps 1.0
    from reading the entry of 1, so a non-integer key word always reaches
    ``_words`` and raises.
    """
    if prefix:
        return _absorb(*_prefix_pool(master, *prefix[:-1]), _words(prefix[-1]))
    words = list(master) if isinstance(master, tuple) else _words(master)
    # Zero-pad the master to the pool size: key words are then mixed in
    # after the pool is filled (numpy >= 1.19, gh-16539), which is what lets
    # a prefix's pool be memoized.  SeedSequence skips the padding when the
    # key is empty but hashes 0 into the unfilled words, which is the same.
    words += [0] * (_POOL_SIZE - len(words))
    pool = []
    const = _INIT_A
    for word in words[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    return _absorb(tuple(pool), const, words[_POOL_SIZE:])


def _cache_master(master):
    """``master`` as ``_prefix_pool`` caches it: an int, or its words.

    A tuple master holding 1.0 must not read the entry of one holding 1.
    """
    return master if type(master) is int else _entropy_words(master)


def _pool(master, key: tuple) -> tuple:
    """The pool of SeedSequence(master, spawn_key=key)."""
    master = _cache_master(master)
    if not key:
        return _prefix_pool(master)[0]
    return _absorb(*_prefix_pool(master, *key[:-1]), _words(key[-1]))[0]


def _output_constants() -> tuple:
    """SeedSequence's output-hash constants, one (xor, multiplier) pair per
    uint32 word, grouped as the low and high halves of each uint64 word."""
    halves = []
    const = _INIT_B
    for _ in range(2 * _POOL_SIZE):
        next_const = const * _MULT_B & _MASK32
        halves.append((const, next_const))
        const = next_const
    return tuple(halves[j] + halves[j + 1] for j in range(0, len(halves), 2))


_OUTPUT = _output_constants()


def _state_words(pool: tuple, n: int) -> list:
    """generate_state(n, np.uint64) of the SeedSequence with this pool, n <= 4.

    The output hash reads the pool words in cycle; each uint64 word is two
    hashed words, low half first.
    """
    words = []
    for j in range(n):
        x_lo, m_lo, x_hi, m_hi = _OUTPUT[j]
        lo = (pool[2 * j % _POOL_SIZE] ^ x_lo) * m_lo & _MASK32
        hi = (pool[(2 * j + 1) % _POOL_SIZE] ^ x_hi) * m_hi & _MASK32
        words.append((lo ^ lo >> _XSHIFT) | (hi ^ hi >> _XSHIFT) << 32)
    return words


class _StreamState(ISeedSequence):
    """A stream's four seed words, handed to PCG64 in place of a SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a derived stream holds exactly 4 uint64 seed words")
        return self.words


def derive_word(master: int, *key: int) -> int:
    """The first uint64 word of SeedSequence(master, spawn_key=key)'s state."""
    return _state_words(_pool(master, key), 1)[0]


def derive_rng(master: int, *key: int) -> np.random.Generator:
    """Return the generator for stream (master, *key).

    Streams with distinct keys are statistically independent; the same
    (master, key) always yields the same stream.  Tree nodes take
    ``derive_rng(*stream_key(seed), module, level, parent)``, where
    ``seed`` is an int or a (master, operation..., replica) tuple.  The
    generator's state is that of
    ``default_rng(SeedSequence(master, spawn_key=key))``, bit for bit.
    ``master`` is an integer or a sequence of them; each key word is an
    integer.  A negative or non-integer word raises ValueError or
    TypeError, as SeedSequence does.
    """
    words = np.array(_state_words(_pool(master, key), 4), dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(_StreamState(words)))


def derive_node_rngs(master, blocks) -> list:
    """The generators of a tree's nodes, from one hash pass over their keys.

    ``blocks`` holds (prefix, count) pairs, one per tree level; block i
    gives the list ``[derive_rng(master, *prefix_i, j) for j < count_i]``,
    bit for bit.  Each row starts from its prefix's memoized pool and
    absorbs its parent index j as uint64 array arithmetic, which keeps the
    low 32 bits that the hash reads; rows whose prefixes hold equally many
    words share the hash-constant chain, so a tree whose level keys have
    one length takes a single pass.  A parent index is one key word
    (j < 2^32).
    """
    master = _cache_master(master)
    starts = [_prefix_pool(master, *prefix) for prefix, _ in blocks]
    counts = [count for _, count in blocks]
    pools = np.repeat(np.array([pool for pool, _ in starts], dtype=np.uint64), counts, axis=0)
    parents = np.concatenate([np.arange(count, dtype=np.uint64) for count in counts])
    states = np.empty_like(pools)
    for const in {const for _, const in starts}:
        rows = np.repeat([c == const for _, c in starts], counts)
        pool, _ = _absorb(tuple(pools[rows].T), const, [parents[rows]])
        states[rows] = np.stack(_state_words(pool, 4), axis=1)
    rngs = [np.random.Generator(np.random.PCG64(_StreamState(words))) for words in states]
    ends = np.cumsum(counts).tolist()
    return [rngs[end - count:end] for count, end in zip(counts, ends)]


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


def run_replicas(chunk_fn, args: tuple, master: int, n_replicas: int) -> np.ndarray:
    """Evaluate ``chunk_fn(args, master, start, stop)`` over the replica range.

    ``chunk_fn`` must be a module-level function returning an ndarray whose
    leading dimension is ``stop - start``.  Chunks are concatenated in index
    order, so the result is independent of how chunks are scheduled.
    """
    spans = list(_chunks(n_replicas))
    workers = worker_count()
    if workers > 1 and len(spans) > 1:
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
