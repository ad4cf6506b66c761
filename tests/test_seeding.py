"""Seed derivation and the vectorized uniform draws of a range stream."""
import numpy as np
import pytest

from qteleport.seeding import derive_seed


def _pcg64(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", [0, 1, 2024, derive_seed(7, "teleport", 2048)])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 3 * 4096])
def test_uniforms_match_scalar_random_calls(seed, n):
    """The pipeline draws a range's uniforms as one (bits, 3) PCG64 block;
    `teleport_bit` makes three scalar `random()` calls per bit. Both must
    walk the same stream, value for value, and leave it in the same state."""
    vector, scalar = _pcg64(seed), _pcg64(seed)
    draws = vector.random((n, 3))
    assert draws.ravel().tolist() == [scalar.random() for _ in range(3 * n)]
    assert vector.bit_generator.state == scalar.bit_generator.state
    assert vector.random() == scalar.random()


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(5, "teleport", 0) == derive_seed(5, "teleport", 0)
    assert derive_seed(5, "teleport", 0) != derive_seed(5, "teleport", 2048)
    assert derive_seed(5, "teleport", 0) != derive_seed(6, "teleport", 0)
    assert 0 <= derive_seed(5, "sample") < 2**63
