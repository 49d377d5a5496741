import os

import pytest

# The suite is sized for a single core; the replica chunking makes worker
# count irrelevant to results, so pin it for predictable runtimes.
os.environ.setdefault("CASCADELAB_WORKERS", "1")


@pytest.fixture
def coupled_joint():
    """pi * p1 * p2 of a coupled system, checked to sum to one.

    The package holds the coupled measure as its factors and never forms
    their (2^N, 2^N, b^k) product; tests that read it build it here.
    """

    def joint(system):
        gamma = system.pi * system.p1[:, None, :] * system.p2[None, :, :]
        assert abs(float(gamma.sum()) - 1.0) < 1e-10
        return gamma

    return joint
