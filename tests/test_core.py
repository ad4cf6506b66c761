"""Engine tests: state construction, gates, measurement, reset, reduction.

Expected amplitude vectors are built by hand from the ket expansions
(indices placed directly), never through the operations under test.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qteleport.core import (
    GATE_H,
    GATE_I,
    GATE_X,
    GATE_Z,
    GATES,
    MAX_QUBITS,
    DensityMatrix2,
    Gate1Q,
    PureQubit,
    StateVector,
    apply_1q,
    apply_cnot,
    drop_qubit,
    dump_state,
    fidelity,
    ket_from_bloch,
    make_cbs,
    measure_qubit,
    project_qubit,
    reduced_density,
    reset_qubit,
    tensor,
)
from qteleport.protocols import NoisyEprParams

S = 1 / math.sqrt(2)


def ket(n, entries):
    """Hand-built state: {index: amplitude} placed into a 2^n vector."""
    amps = np.zeros(1 << n, dtype=complex)
    for idx, amp in entries.items():
        amps[idx] = amp
    return amps


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------- make_cbs


def test_cbs_single_qubit():
    assert np.array_equal(make_cbs([0]).amps, [1, 0])
    assert np.array_equal(make_cbs([1]).amps, [0, 1])


def test_cbs_101_lands_at_index_5():
    # 1*4 + 0*2 + 1*1
    assert np.array_equal(make_cbs([1, 0, 1]).amps, ket(3, {5: 1}))


def test_cbs_rejects_empty_and_bad_bits():
    with pytest.raises(ValueError):
        make_cbs([])
    with pytest.raises(ValueError):
        make_cbs([0, 2])


# ---------------------------------------------------------- ket_from_bloch


def test_bloch_poles():
    north = ket_from_bloch(0.0, 1.234)
    assert abs(north.alpha - 1) < 1e-12 and abs(north.beta) < 1e-12
    south = ket_from_bloch(math.pi, 0.0)
    assert abs(south.alpha) < 1e-12 and abs(south.beta - 1) < 1e-12


def test_bloch_equator_is_plus_state():
    q = ket_from_bloch(math.pi / 2, 0.0)
    assert abs(q.alpha - S) < 1e-12 and abs(q.beta - S) < 1e-12


def test_bloch_rejects_out_of_range():
    with pytest.raises(ValueError):
        ket_from_bloch(-0.1, 0.0)
    with pytest.raises(ValueError):
        ket_from_bloch(1.0, 2 * math.pi)


# ------------------------------------------------------------------ tensor


def test_tensor_of_zeros():
    out = tensor(make_cbs([0]), make_cbs([0]))
    assert np.array_equal(out.amps, [1, 0, 0, 0])


def test_tensor_payload_then_pair():
    psi = StateVector([0.6, 0.8])
    phi_plus = StateVector([S, 0, 0, S])
    expected = ket(3, {0: 0.6 * S, 3: 0.6 * S, 4: 0.8 * S, 7: 0.8 * S})
    assert np.allclose(tensor(psi, phi_plus).amps, expected, atol=1e-12)


def test_tensor_pair_then_payload():
    psi = StateVector([0.6, 0.8])
    phi_plus = StateVector([S, 0, 0, S])
    expected = ket(3, {0: 0.6 * S, 1: 0.8 * S, 6: 0.6 * S, 7: 0.8 * S})
    assert np.allclose(tensor(phi_plus, psi).amps, expected, atol=1e-12)


def test_tensor_overflow():
    big = make_cbs([0] * (MAX_QUBITS - 1))
    with pytest.raises(ValueError):
        tensor(big, make_cbs([0, 0]))


# -------------------------------------------------------------- apply_1q


def test_hadamard_on_zero():
    out = apply_1q(make_cbs([0]), GATE_H, 0)
    assert np.allclose(out.amps, [S, S], atol=1e-12)


def test_hadamard_on_pair_second_qubit():
    phi_plus = StateVector([S, 0, 0, S])
    out = apply_1q(phi_plus, GATE_H, 1)
    assert np.allclose(out.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_hadamard_on_entangled_register_front_qubit():
    # CNOT-stage state for payload (0.6, 0.8), then H on the payload wire.
    state = StateVector(ket(3, {0: 0.6 * S, 3: 0.6 * S, 6: 0.8 * S, 5: 0.8 * S}))
    expected = ket(
        3,
        {0: 0.3, 4: 0.3, 3: 0.3, 7: 0.3, 2: 0.4, 6: -0.4, 1: 0.4, 5: -0.4},
    )
    assert np.allclose(apply_1q(state, GATE_H, 0).amps, expected, atol=1e-12)


def test_apply_1q_bad_index():
    with pytest.raises(ValueError):
        apply_1q(make_cbs([0]), GATE_H, 1)


# -------------------------------------------------------------- apply_cnot


def test_cnot_on_basis_states():
    assert np.array_equal(apply_cnot(make_cbs([0, 0]), 0, 1).amps, ket(2, {0: 1}))
    assert np.array_equal(apply_cnot(make_cbs([1, 0]), 0, 1).amps, ket(2, {3: 1}))


def test_cnot_on_three_qubit_superposition():
    state = StateVector(ket(3, {0: 0.6 * S, 3: 0.6 * S, 4: 0.8 * S, 7: 0.8 * S}))
    expected = ket(3, {0: 0.6 * S, 3: 0.6 * S, 6: 0.8 * S, 5: 0.8 * S})
    assert np.allclose(apply_cnot(state, 0, 1).amps, expected, atol=1e-12)


def test_cnot_rejects_equal_wires():
    with pytest.raises(ValueError):
        apply_cnot(make_cbs([0, 0]), 1, 1)


# ----------------------------------------------------------- measurement


def test_measure_deterministic_zero():
    rng = random.Random(5)
    for _ in range(20):
        bit, post = measure_qubit(make_cbs([0]), 0, rng)
        assert bit == 0
        assert np.array_equal(post.amps, [1, 0])


def test_measure_statistics_on_balanced_pair():
    rng = random.Random(20240601)
    phi_plus = StateVector([S, 0, 0, S])
    zeros = 0
    for _ in range(10_000):
        bit, post = measure_qubit(phi_plus, 0, rng)
        if bit == 0:
            zeros += 1
            assert np.allclose(post.amps, ket(2, {0: 1}), atol=1e-12)
        else:
            assert np.allclose(post.amps, ket(2, {3: 1}), atol=1e-12)
    assert 4800 <= zeros <= 5200


def test_measure_branch_probabilities_are_quarters():
    # Post-Hadamard protocol state: every joint (q0, q1) outcome has weight 1/4.
    state = StateVector(
        ket(3, {0: 0.3, 4: 0.3, 3: 0.3, 7: 0.3, 2: 0.4, 6: -0.4, 1: 0.4, 5: -0.4})
    )
    t = np.asarray(state.amps).reshape(2, 2, 2)
    for m0 in (0, 1):
        for m1 in (0, 1):
            prob = float(np.sum(np.abs(t[m0, m1, :]) ** 2))
            assert abs(prob - 0.25) < 1e-12


def test_measure_rejects_corrupt_state():
    bad = StateVector([1.0, 0.0])
    bad.amps[0] *= 1e-12
    with pytest.raises(ValueError):
        measure_qubit(bad, 0, random.Random(0))


def test_measure_seed_determinism():
    phi_plus = StateVector([S, 0, 0, S])
    run1 = [measure_qubit(phi_plus, 0, random.Random(99))[0] for _ in range(1)]
    run2 = [measure_qubit(phi_plus, 0, random.Random(99))[0] for _ in range(1)]
    assert run1 == run2


# ----------------------------------------------------------------- reset


def test_reset_one_to_zero():
    out = reset_qubit(make_cbs([1]), 0, random.Random(0))
    assert np.array_equal(out.amps, [1, 0])


def test_reset_blocks_plus_and_zero_wires():
    psi = StateVector([0.6, 0.8])
    state = tensor(tensor(StateVector([S, S]), make_cbs([0])), psi)
    rng = random.Random(11)
    state = reset_qubit(state, 0, rng)
    state = reset_qubit(state, 1, rng)
    expected = ket(3, {0: 0.6, 1: 0.8})
    assert np.allclose(state.amps, expected, atol=1e-12)


@pytest.mark.parametrize("a", [0.6, 0.8, 0.95, 1.0])
def test_reset_collapses_imbalanced_branch_factor(a):
    b = math.sqrt(1 - a * a)
    psi = StateVector([0.6, 0.8])
    pair = StateVector(ket(2, {0: a, 2: b}))  # a|00> + b|10>
    state = tensor(pair, psi)
    for seed in range(8):
        rng = random.Random(seed)
        out = reset_qubit(reset_qubit(state, 0, rng), 1, rng)
        assert np.allclose(out.amps, ket(3, {0: 0.6, 1: 0.8}), atol=1e-12)


def test_reset_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(25):
        state = random_state(rng, 3)
        r = random.Random(7)
        once = reset_qubit(state, 1, r)
        twice = reset_qubit(once, 1, r)
        assert np.allclose(once.amps, twice.amps, atol=1e-12)


def test_drop_qubit_removes_a_basis_qubit_and_refuses_others():
    a, b = StateVector([0.6, 0.8]), StateVector([S, -S])
    state = tensor(tensor(a, make_cbs([1])), b)
    assert np.allclose(drop_qubit(state, 1, 1).amps, tensor(a, b).amps, atol=1e-15)
    for qubit, value in ((1, 0), (0, 0), (0, 1), (2, 1)):  # not in |value>
        with pytest.raises(ValueError):
            drop_qubit(state, qubit, value)
    with pytest.raises(ValueError):
        drop_qubit(state, 3, 0)
    with pytest.raises(ValueError):
        drop_qubit(make_cbs([0]), 0, 0)  # nothing would be left


# -------------------------------------------------------- reduced density


def test_reduced_density_basis_state():
    rho = reduced_density(make_cbs([0, 1]), 1)
    assert np.allclose(rho.mat, [[0, 0], [0, 1]], atol=1e-12)


def test_reduced_density_of_pair_is_maximally_mixed():
    phi_plus = StateVector([S, 0, 0, S])
    rho = reduced_density(phi_plus, 0)
    assert np.allclose(rho.mat, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_product_state():
    psi = PureQubit(0.6, 0.8)
    state = tensor(make_cbs([0]), psi.as_state())
    rho = reduced_density(state, 1)
    assert np.allclose(rho.mat, psi.projector(), atol=1e-12)


# --------------------------------------------------------------- fidelity


def test_fidelity_pure_match():
    psi = PureQubit(0.6, 0.8)
    assert abs(fidelity(psi, DensityMatrix2(psi.projector())) - 1.0) < 1e-12


def test_fidelity_against_maximally_mixed():
    assert abs(fidelity(PureQubit(1, 0), DensityMatrix2(np.eye(2) / 2)) - 0.5) < 1e-12


def test_fidelity_after_phase_flip():
    psi = PureQubit(0.6, 0.8)
    flipped = PureQubit(0.6, -0.8)
    f = fidelity(psi, DensityMatrix2(flipped.projector()))
    assert abs(f - 0.0784) < 1e-12  # (0.36 - 0.64)^2


# ----------------------------------------------------- gate-level algebra


def test_pauli_and_hadamard_square_to_identity():
    rng = np.random.default_rng(12)
    for gate in (GATE_H, GATE_X, GATE_Z, GATE_I):
        state = random_state(rng, 3)
        out = apply_1q(apply_1q(state, gate, 1), gate, 1)
        assert np.max(np.abs(np.asarray(out.amps) - state.amps)) < 1e-12


def test_cnot_squares_to_identity():
    rng = np.random.default_rng(13)
    state = random_state(rng, 3)
    out = apply_cnot(apply_cnot(state, 0, 2), 0, 2)
    assert np.max(np.abs(np.asarray(out.amps) - state.amps)) < 1e-12


def test_gate_commutes_with_tensor_on_first_factor():
    rng = np.random.default_rng(14)
    a = random_state(rng, 1)
    b = random_state(rng, 2)
    left = apply_1q(tensor(a, b), GATE_H, 0)
    right = tensor(apply_1q(a, GATE_H, 0), b)
    assert np.max(np.abs(np.asarray(left.amps) - right.amps)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    moves=st.lists(st.tuples(st.sampled_from("IHXZC"), st.integers(0, 4)), max_size=12),
)
def test_norm_preserved_by_random_circuits(seed, n, moves):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    gates = {"I": GATE_I, "H": GATE_H, "X": GATE_X, "Z": GATE_Z}
    for name, q in moves:
        q %= n
        if name == "C":
            if n == 1:
                continue
            state = apply_cnot(state, q, (q + 1) % n)
        else:
            state = apply_1q(state, gates[name], q)
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


_OPS = st.tuples(
    st.sampled_from(["gate", "cnot", "tensor", "measure", "reset", "project"]),
    st.integers(0, 4),
    st.integers(0, 3),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), moves=st.lists(_OPS, max_size=12))
def test_op_results_pass_the_public_check(seed, n, moves):
    """Ops return their results without re-checking them, so every result
    must be a state the public constructor accepts."""
    rng = np.random.default_rng(seed)
    draws = random.Random(seed)
    gates = list(GATES.values())
    state = random_state(rng, n)
    for op, q, k in moves:
        q %= state.n
        if op == "gate":
            state = apply_1q(state, gates[k], q)
        elif op == "cnot" and state.n > 1:
            state = apply_cnot(state, q, (q + 1 + k % (state.n - 1)) % state.n)
        elif op == "tensor" and state.n < 5:
            other = random_state(rng, 1 + k % (5 - state.n))
            state = tensor(state, other) if k % 2 else tensor(other, state)
        elif op == "measure":
            _, state = measure_qubit(state, q, draws)
        elif op == "reset":
            state = reset_qubit(state, q, draws)
        elif op == "project":
            p1 = float(np.sum(np.abs(np.asarray(state.amps).reshape(1 << q, 2, -1)[:, 1, :]) ** 2))
            outcome = k % 2 if min(p1, 1.0 - p1) > 1e-9 else int(p1 > 0.5)
            state = project_qubit(state, q, outcome)
        amps = np.asarray(state.amps)
        assert amps.shape == (1 << state.n,) and 1 <= state.n <= 5
        assert np.all(np.isfinite(amps.view(np.float64)))
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
        StateVector(amps)


def test_project_qubit_collapses_and_renormalizes():
    phi_plus = StateVector([S, 0, 0, S])
    assert np.allclose(project_qubit(phi_plus, 0, 1).amps, ket(2, {3: 1}), atol=1e-15)
    assert np.allclose(project_qubit(phi_plus, 1, 0).amps, ket(2, {0: 1}), atol=1e-15)
    with pytest.raises(ValueError):
        project_qubit(make_cbs([0, 1]), 1, 0)  # zero-norm branch
    with pytest.raises(ValueError):
        project_qubit(phi_plus, 0, 2)
    with pytest.raises(ValueError):
        project_qubit(phi_plus, 2, 0)


# --------------------------------------------------- conventions and dump


def test_payload_pair_expansion_occupies_indices_0_3_4_7():
    psi = StateVector([0.6, 0.8])
    state = tensor(psi, StateVector([S, 0, 0, S]))
    nonzero = set(np.nonzero(np.abs(state.amps) > 1e-12)[0].tolist())
    assert nonzero == {0, 3, 4, 7}


def test_dump_golden_cbs():
    expected = (
        "0\t000\t0\t0\n"
        "1\t001\t0\t0\n"
        "2\t010\t0\t0\n"
        "3\t011\t0\t0\n"
        "4\t100\t0\t0\n"
        "5\t101\t1\t0\n"
        "6\t110\t0\t0\n"
        "7\t111\t0\t0\n"
    )
    assert dump_state(make_cbs([1, 0, 1])) == expected


def test_dump_golden_balanced_pair():
    expected = (
        "0\t00\t0.70710678118654746\t0\n"
        "1\t01\t0\t0\n"
        "2\t10\t0\t0\n"
        "3\t11\t0.70710678118654746\t0\n"
    )
    assert dump_state(StateVector([S, 0, 0, S])) == expected


def test_statevector_rejects_nonfinite():
    with pytest.raises(ValueError):
        StateVector([float("nan"), 0.0])


_ENTRY_POINTS = {
    "PureQubit": lambda x: PureQubit(x, 0.0),
    "NoisyEprParams": lambda x: NoisyEprParams(x, 0.0),
    "DensityMatrix2": lambda x: DensityMatrix2([[x, 0], [0, 0]]),
    "Gate1Q": lambda x: Gate1Q("N", [[x, 0], [0, 1]]),
}


@pytest.mark.parametrize("value", [float("nan"), complex(0, float("nan")), float("inf")],
                         ids=["nan", "imag-nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_nonfinite(entry, value):
    """A comparison with NaN is False, so a check written as `error > tol`
    lets NaN through; every public constructor must refuse it."""
    with pytest.raises(ValueError):
        _ENTRY_POINTS[entry](value)


@pytest.mark.parametrize(
    "mat",
    [[[0.5, 0.1], [0.2, 0.5]], [[0.5 + 0.1j, 0], [0, 0.5]], [[0.6, 0], [0, 0.6]],
     [[1.2, 0], [0, -0.2]], [[0.5, 0.6], [0.6, 0.5]], [[1, 0, 0, 0]], [[1, 0], [0]]],
    ids=["asymmetric", "complex-diagonal", "trace", "negative-diagonal", "negative-eigenvalue",
         "flat", "ragged"],
)
def test_density_matrix_rejects_what_is_not_a_state(mat):
    with pytest.raises(ValueError):
        DensityMatrix2(mat)


@settings(max_examples=200, deadline=None)
@given(d=st.floats(-0.5, 1.5), re=st.floats(-1, 1), im=st.floats(-1, 1))
def test_density_matrix_eigenvalue_check_matches_eigvalsh(d, re, im):
    """The closed-form smaller eigenvalue accepts exactly the unit-trace
    Hermitian matrices that numpy's eigvalsh finds positive semidefinite."""
    mat = [[d, complex(re, -im)], [complex(re, im), 1.0 - d]]
    smaller = np.linalg.eigvalsh(np.array(mat)).min()
    assume(abs(smaller + 1e-9) > 1e-12)  # too close to the bound to call
    try:
        DensityMatrix2(mat)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (smaller >= -1e-9)


@pytest.mark.parametrize(
    "mat", [[[1, 0], [0, 1.1]], [[1, 1], [0, 1]], [[0.6, 0.8], [0.8, 0.6]], [[1, 0]]],
    ids=["long-row", "shear", "rows-not-orthogonal", "one-row"],
)
def test_gate_rejects_a_non_unitary_matrix(mat):
    with pytest.raises(ValueError):
        Gate1Q("N", mat)
    Gate1Q("R", [[0.6, 0.8], [0.8, -0.6]])  # a reflection is unitary


def test_statevector_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector([0.5, 0.5])
