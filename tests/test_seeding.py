"""Reproducibility: stream derivation and worker-independent chunking."""

import os
import pickle
from functools import partial

import numpy as np
import pytest

from cascadelab.cascade import (
    attach_fields,
    build_cascade,
    field_covariance,
    log_partition_identity,
    overlap_mass,
    sample_marks,
    tilted_average,
    weight_tilt_invariance,
)
from cascadelab.functionals import PairFunctional, PathFunctional
from cascadelab.mixture import RSBParams, make_mixture, sk_mixture
from cascadelab.recursion import QuadratureSpec
from cascadelab.sk_model import exact_free_energy, hamiltonian_covariance
from cascadelab.seeding import (
    CHUNK_SIZE,
    MODULE_CASCADE,
    MODULE_FIELDS,
    MODULE_MARKS,
    derive_rng,
    derive_word,
    replica_rows,
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
    # Oracle: a tree level's stream spelled as
    # SeedSequence(base[0], spawn_key=base[1:] + (module, level)).
    for seed in (9, (9,), (1729, 4, 17), (3, 6, 1, 250)):
        base = stream_key(seed)
        for module, key in ((MODULE_CASCADE, (1,)), (MODULE_FIELDS, (2,))):
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
    expected = _raised(_oracle, *args)
    assert expected in (TypeError, ValueError)
    with pytest.raises(expected):
        derive_rng(*args)


RSB2 = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))


@pytest.mark.parametrize("master", (1729, 2**128 + 5, (3, 2**40), (1, 2)))
def test_node_streams_of_a_tree_match_seedsequence(master):
    # Every node of a level reads the one stream (seed, module, level):
    # the cascade, marks and field columns of a b = 3, k = 2 tree against
    # SeedSequence, for wide and sequence masters.
    b, N, seed = 3, 2, (master, 6, 2, 11)
    casc = build_cascade(RSB2, b, seed)
    marks = sample_marks(b, 2, (1.0, 1.0), seed)
    fields = attach_fields(b, sk_mixture(0.5), RSB2, N, seed)
    stds = fields.column_stds
    root = _oracle(*seed, MODULE_FIELDS, 0).standard_normal(N)
    want = np.tile(stds[0] * root, (b * b, 1))
    for level in (1, 2):
        m, parents = RSB2.m[level], b ** (level - 1)
        gaps = _oracle(*seed, MODULE_CASCADE, level).standard_exponential((parents, b))
        points = (m * np.cumsum(gaps, axis=1)) ** (-1.0 / m)
        assert np.array_equal(casc.levels[level - 1].reshape(-1, b), points)
        normals = _oracle(*seed, MODULE_MARKS, level).standard_normal((parents, b))
        assert np.array_equal(marks[level - 1].reshape(-1, b), normals)
        columns = _oracle(*seed, MODULE_FIELDS, level).standard_normal((b * parents, N))
        want += np.repeat(stds[level] * columns, b ** (2 - level), axis=0)
    assert np.array_equal(fields.all_fields(), want)


@pytest.mark.parametrize(
    "args",
    [(-1, ()), (7, (-1,)), (7, (1, -2)), (7, (1.0,)), (7, (1.0, 2)), (7, (1, 2.5)),
     (7, (np.float64(3.0),)), (1.5, (2,)), ((1.0, 2), (5,)), ([1, -2], (5,))],
)
def test_node_streams_bad_words_raise_like_derive_rng(args):
    # The tree samplers raise for a bad seed word as its level stream does.
    master, prefix = args
    seed = (master, *prefix)
    expected = _raised(derive_rng, master, *prefix, MODULE_CASCADE, 1)
    assert expected in (TypeError, ValueError)
    with pytest.raises(expected):
        build_cascade(RSB2, 2, seed)
    with pytest.raises(expected):
        sample_marks(2, 2, (1.0, 1.0), seed)
    with pytest.raises(expected):
        attach_fields(2, sk_mixture(0.5), RSB2, 1, seed).all_fields()


def test_derived_stream_pickles_and_holds_only_its_seed():
    rng = derive_rng(1729, 6, 3)
    rng.standard_normal(5)
    copy = pickle.loads(pickle.dumps(rng))
    assert np.array_equal(copy.standard_normal(6), rng.standard_normal(6))
    seed_seq = rng.bit_generator.seed_seq
    assert (seed_seq.entropy, seed_seq.spawn_key) == (1729, (6, 3))


def _chunk(args, master, start, stop):
    offset = args[0]
    out = np.empty(stop - start)
    for rep in range(start, stop):
        out[rep - start] = derive_rng(master, 9, rep).normal() + offset
    return out


def _stream(seed):
    return derive_rng(*seed)


def _shifted_normal(offset, rng):
    return rng.normal() + offset


def _loops(offset):
    """The same replica loop, hand-written and as ``replica_rows``."""
    return [
        (_chunk, (offset,)),
        (replica_rows, ((9,), _stream, partial(_shifted_normal, offset))),
    ]


def test_run_replicas_matches_direct_loop():
    n = CHUNK_SIZE + 37  # force more than one chunk
    want = np.array([derive_rng(11, 9, rep).normal() + 1.5 for rep in range(n)])
    for chunk_fn, args in _loops(1.5):
        assert np.array_equal(run_replicas(chunk_fn, args, 11, n), want), chunk_fn


def test_worker_count_never_changes_results():
    n = CHUNK_SIZE * 2 + 5
    old = os.environ.get("CASCADELAB_WORKERS")
    try:
        for chunk_fn, args in _loops(0.0):
            os.environ["CASCADELAB_WORKERS"] = "1"
            serial = run_replicas(chunk_fn, args, 23, n)
            os.environ["CASCADELAB_WORKERS"] = "3"
            assert worker_count() == 3
            parallel = run_replicas(chunk_fn, args, 23, n)
            assert np.array_equal(serial, parallel), chunk_fn
    finally:
        if old is None:
            os.environ.pop("CASCADELAB_WORKERS", None)
        else:
            os.environ["CASCADELAB_WORKERS"] = old


_RSB = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
_QUAD = QuadratureSpec(nodes_per_level=12, convergence_check=False)
_X = PathFunctional("linear", coeffs=(0.5, 0.4))
_Y = PathFunctional("quadratic", coeffs=(0.3, 0.2))
_MIX = make_mixture([(2, 0.8), (4, 0.3)])

# Each estimator at 300 replicas, two chunks of the replica range.
_ESTIMATORS = {
    "overlap_mass": lambda: overlap_mass(_RSB, 4, 300, 5),
    "log_partition_identity": lambda: log_partition_identity(_RSB, 4, _X, (0.5, 0.5), 300, 5, _QUAD),
    "tilted_average": lambda: tilted_average(_RSB, 4, _X, _Y, (0.5, 0.5), 300, 5, _QUAD),
    "tilted_average_restricted": lambda: tilted_average(
        _RSB, 4, _X, PairFunctional("pair_sum", _X), (0.5, 0.5), 300, 5, _QUAD, restricted_r=1
    ),
    "weight_tilt_invariance": lambda: weight_tilt_invariance(_RSB, 4, _X, (0.5, 0.5), "pair_sum", 300, 5),
    "field_covariance": lambda: field_covariance(_RSB, _MIX, 2, 4, (0, 1), (0, 2), 0, 0, 300, 5),
    "hamiltonian_covariance": lambda: hamiltonian_covariance(3, _MIX, (1, -1, 1), (1, 1, -1), 300, 5),
    "exact_free_energy": lambda: exact_free_energy(3, _MIX, 0.3, 300, 5),
}


@pytest.mark.parametrize("name", list(_ESTIMATORS))
def test_estimators_same_at_one_and_two_workers(name, monkeypatch):
    assert 300 > CHUNK_SIZE
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("CASCADELAB_WORKERS", workers)
        out[workers] = _ESTIMATORS[name]()
    assert out["1"] == out["2"]


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
