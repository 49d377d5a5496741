"""Reproducibility: stream derivation and worker-independent chunking."""

import os

import numpy as np
import pytest

from cascadelab.seeding import (
    CHUNK_SIZE,
    MODULE_CASCADE,
    MODULE_FIELDS,
    derive_rng,
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
