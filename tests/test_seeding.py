"""Reproducibility: stream derivation and worker-independent chunking."""

import os
import pickle
import random

import numpy as np
import pytest

from cascadelab.seeding import (
    CHUNK_SIZE,
    MODULE_CASCADE,
    MODULE_FIELDS,
    PREFIX_CACHE_SIZE,
    _prefix_pool,
    derive_node_rngs,
    derive_rng,
    derive_word,
    run_replicas,
    stream_key,
    worker_count,
)


def test_derive_rng_reproducible():
    a = derive_rng(7, 3, 1).standard_normal(5)
    b = derive_rng(7, 3, 1).standard_normal(5)
    assert np.array_equal(a, b)


def test_derive_rng_distinct_keys_differ():
    a = derive_rng(7, 3, 1).standard_normal(5)
    b = derive_rng(7, 3, 2).standard_normal(5)
    c = derive_rng(8, 3, 1).standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tree_streams_match_spawn_key_layout():
    # Oracle: the per-node stream as the tree samplers used to spell it,
    # SeedSequence(base[0], spawn_key=base[1:] + (module,) + key).
    for seed in (9, (9,), (1729, 4, 17), (3, 6, 1, 250)):
        base = stream_key(seed)
        for module, key in ((MODULE_CASCADE, (1, 0)), (MODULE_FIELDS, (2, 37))):
            old = np.random.default_rng(
                np.random.SeedSequence(base[0], spawn_key=tuple(base[1:]) + (module,) + key)
            )
            new = derive_rng(*base, module, *key)
            assert np.array_equal(new.standard_normal(8), old.standard_normal(8))
    assert stream_key(9) == (9,) and stream_key([1, 2]) == (1, 2)


def _oracle(master, *key):
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=key))


def _assert_same_stream(master, *key):
    new, old = derive_rng(master, *key), _oracle(master, *key)
    assert new.bit_generator.state == old.bit_generator.state, (master, key)
    assert np.array_equal(new.standard_normal(4), old.standard_normal(4)), (master, key)
    assert np.array_equal(new.integers(0, 2**63, 3), old.integers(0, 2**63, 3))


MASTERS = (0, 1729, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128, 2**130)


def test_derive_rng_matches_seedsequence_on_random_keys():
    rng = random.Random(20070)
    for _ in range(600):
        master = rng.choice(MASTERS + (rng.getrandbits(rng.randint(1, 140)),))
        key = tuple(
            rng.choice((0, 1, 7, rng.getrandbits(rng.randint(1, 40))))
            for _ in range(rng.randint(0, 6))
        )
        _assert_same_stream(master, *key)


SEQUENCE_MASTERS = ((101, 0), [3, 2**40], range(3), np.array([1, 2], dtype=np.uint32),
                    ((1, 2), 3), (), (2**130, np.int64(7)))


@pytest.mark.parametrize("master", MASTERS + SEQUENCE_MASTERS)
def test_derive_rng_matches_seedsequence_on_wide_and_numpy_words(master):
    _assert_same_stream(master)
    for key in (
        (1 << 20,),
        (6, 1 << 20, 3),
        (2**32, 5),
        (3, 2**40 + 5, 2**64, 0),
        (np.int64(6), np.uint32(2), np.uint64(2**63 + 1)),
        (np.int64(0), 4, np.int8(1)),
    ):
        _assert_same_stream(master, *key)
    assert derive_word(master, 2) == int(
        np.random.SeedSequence(master, spawn_key=(2,)).generate_state(1, np.uint64)[0]
    )


def test_derive_rng_same_after_prefix_cache_overflow():
    a, b = (1729, 6, 2, 11, 3, 1), (1729, 7, 2, 11, 3, 1)
    first_a = derive_rng(*a).bit_generator.state
    first_b = derive_rng(*b).bit_generator.state
    for parent in range(PREFIX_CACHE_SIZE + 10):  # evicts every prefix of a
        derive_rng(99, 3, parent, 0)
    info = _prefix_pool.cache_info()
    assert info.currsize <= PREFIX_CACHE_SIZE
    assert derive_rng(*a).bit_generator.state == first_a == _oracle(*a).bit_generator.state
    assert _prefix_pool.cache_info().misses > info.misses  # a's prefixes were rebuilt
    assert derive_rng(*b).bit_generator.state == first_b == _oracle(*b).bit_generator.state
    assert first_a != first_b


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize(
    "args",
    [(-1,), (7, -1), (7, 1, -2), (7, 1.0), (7, 1.0, 2), (7, 1, 2.5), (7, np.float64(3.0), 1),
     (1.5, 2), (-3, 2), ((1.0, 2), 5), ([1, -2], 5)],
)
def test_bad_words_raise_like_seedsequence(args):
    # Cache the integer prefixes that 1.0, 3.0 and (1.0, 2) compare equal to.
    for prefix in ((7, 1, 2), (7, 3, 1), ((1, 2), 5)):
        derive_rng(*prefix)
    expected = _raised(_oracle, *args)
    assert expected in (TypeError, ValueError)
    with pytest.raises(expected):
        derive_rng(*args)


def _assert_same_node_streams(master, blocks):
    got = derive_node_rngs(master, blocks)
    assert [len(rngs) for rngs in got] == [count for _, count in blocks]
    for (prefix, _), rngs in zip(blocks, got):
        for j, rng in enumerate(rngs):
            old = _oracle(master, *prefix, j)
            assert rng.bit_generator.state == old.bit_generator.state, (master, prefix, j)
            assert np.array_equal(rng.standard_normal(3), old.standard_normal(3))


def test_node_streams_match_seedsequence_on_random_prefixes():
    # Prefix lengths and word widths vary within one call, so rows with
    # different hash-constant chains meet in one call too.
    rng = random.Random(20071)
    for _ in range(60):
        master = rng.choice(MASTERS + ((101, 0), (2**130, 5), rng.getrandbits(140)))
        blocks = [
            (
                tuple(
                    rng.choice((0, 3, rng.getrandbits(rng.randint(1, 70))))
                    for _ in range(rng.randint(0, 5))
                ),
                rng.choice((0, 1, 2, 7)),
            )
            for _ in range(rng.randint(1, 4))
        ]
        _assert_same_node_streams(master, blocks)


@pytest.mark.parametrize("master", (1729, 2**128 + 5, (3, 2**40), (1, 2)))
def test_node_streams_of_a_tree_match_seedsequence(master):
    for counts in ((1,), (2,), (200,), (1, 40, 3)):
        blocks = [((6, 2, 11, MODULE_FIELDS, level), count) for level, count in enumerate(counts)]
        _assert_same_node_streams(master, blocks)
    # numpy-integer prefix words, and an empty block between two others
    blocks = [((np.int64(6), np.uint32(2)), 3), ((np.uint64(2**63 + 1),), 0), ((np.int8(1), 4), 2)]
    _assert_same_node_streams(master, blocks)


def test_node_streams_same_after_prefix_cache_overflow():
    blocks = [((6, 2, MODULE_CASCADE, 1), 1), ((6, 2, MODULE_CASCADE, 2), 5)]
    first = [[r.bit_generator.state for r in rngs] for rngs in derive_node_rngs(1729, blocks)]
    for parent in range(PREFIX_CACHE_SIZE + 10):  # evicts both prefixes
        derive_rng(99, 3, parent, 0)
    misses = _prefix_pool.cache_info().misses
    again = [[r.bit_generator.state for r in rngs] for rngs in derive_node_rngs(1729, blocks)]
    assert _prefix_pool.cache_info().misses > misses
    assert again == first
    _assert_same_node_streams(1729, blocks)


@pytest.mark.parametrize(
    "args",
    [(-1, ()), (7, (-1,)), (7, (1, -2)), (7, (1.0,)), (7, (1.0, 2)), (7, (1, 2.5)),
     (7, (np.float64(3.0),)), (1.5, (2,)), ((1.0, 2), (5,)), ([1, -2], (5,))],
)
def test_node_streams_bad_words_raise_like_derive_rng(args):
    master, prefix = args
    for cached in ((7, 1, 2), (7, 3), ((1, 2), 5)):
        derive_rng(*cached, 0)
    expected = _raised(derive_rng, master, *prefix, 0)
    assert expected in (TypeError, ValueError)
    with pytest.raises(expected):
        derive_node_rngs(master, [((), 2), (prefix, 3)])


def test_derived_stream_pickles_and_holds_only_its_seed():
    rng = derive_rng(1729, 6, 3)
    rng.standard_normal(5)
    copy = pickle.loads(pickle.dumps(rng))
    assert np.array_equal(copy.standard_normal(6), rng.standard_normal(6))
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(2, np.uint32)


def _chunk(args, master, start, stop):
    offset = args[0]
    out = np.empty(stop - start)
    for rep in range(start, stop):
        out[rep - start] = derive_rng(master, 9, rep).normal() + offset
    return out


def test_run_replicas_matches_direct_loop():
    n = CHUNK_SIZE + 37  # force more than one chunk
    got = run_replicas(_chunk, (1.5,), 11, n)
    want = np.array([derive_rng(11, 9, rep).normal() + 1.5 for rep in range(n)])
    assert np.array_equal(got, want)


def test_worker_count_never_changes_results():
    n = CHUNK_SIZE * 2 + 5
    old = os.environ.get("CASCADELAB_WORKERS")
    try:
        os.environ["CASCADELAB_WORKERS"] = "1"
        serial = run_replicas(_chunk, (0.0,), 23, n)
        os.environ["CASCADELAB_WORKERS"] = "3"
        assert worker_count() == 3
        parallel = run_replicas(_chunk, (0.0,), 23, n)
    finally:
        if old is None:
            os.environ.pop("CASCADELAB_WORKERS", None)
        else:
            os.environ["CASCADELAB_WORKERS"] = old
    assert np.array_equal(serial, parallel)


def test_worker_count_parsing():
    old = os.environ.get("CASCADELAB_WORKERS")
    try:
        os.environ["CASCADELAB_WORKERS"] = "not-a-number"
        assert worker_count() == 1
        os.environ["CASCADELAB_WORKERS"] = "0"
        assert worker_count() == 1
    finally:
        if old is None:
            os.environ.pop("CASCADELAB_WORKERS", None)
        else:
            os.environ["CASCADELAB_WORKERS"] = old


def _fails_in_workers(args, master, start, stop):
    if os.getpid() != args[0]:
        raise ValueError("chunk failed in a worker")
    return np.zeros(stop - start)


def test_worker_errors_propagate(monkeypatch):
    # A worker's exception must surface, not trigger a silent serial rerun
    # (which here would succeed, because the parent never raises).
    monkeypatch.setenv("CASCADELAB_WORKERS", "2")
    with pytest.raises(ValueError, match="in a worker"):
        run_replicas(_fails_in_workers, (os.getpid(),), 5, CHUNK_SIZE + 1)
