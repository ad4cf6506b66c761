"""Seed derivation and the vectorized uniform draws."""
import random

import pytest

from qteleport.seeding import derive_seed, uniforms


@pytest.mark.parametrize("seed", [0, 1, 2024, derive_seed(7, "teleport", 2048)])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 3 * 4096])
def test_uniforms_match_scalar_random_calls(seed, n):
    vector, scalar = random.Random(seed), random.Random(seed)
    draws = uniforms(vector, n)
    assert draws.tolist() == [scalar.random() for _ in range(n)]
    assert vector.getstate() == scalar.getstate()
    assert vector.random() == scalar.random()


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(5, "teleport", 0) == derive_seed(5, "teleport", 0)
    assert derive_seed(5, "teleport", 0) != derive_seed(5, "teleport", 2048)
    assert derive_seed(5, "teleport", 0) != derive_seed(6, "teleport", 0)
    assert 0 <= derive_seed(5, "sample") < 2**63
