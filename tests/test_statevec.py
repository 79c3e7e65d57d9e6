import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsshare import statevec
from qsshare.bell import (
    BELL_LABELS,
    BellLabel,
    PauliCorrection,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
)

SQRT_HALF = 1 / math.sqrt(2)


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return statevec.StateVector(n, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# Pair preparation.

@pytest.mark.parametrize(
    "label,expected",
    [
        (PHI_PLUS, [SQRT_HALF, 0, 0, SQRT_HALF]),
        (PSI_PLUS, [0, SQRT_HALF, SQRT_HALF, 0]),
        (PHI_MINUS, [SQRT_HALF, 0, 0, -SQRT_HALF]),
        (PSI_MINUS, [0, SQRT_HALF, -SQRT_HALF, 0]),
    ],
)
def test_prepare_bell_amplitudes(label, expected):
    np.testing.assert_allclose(
        statevec.prepare_bell(label).amplitudes, np.array(expected, dtype=complex), atol=1e-15
    )


@pytest.mark.parametrize("label", BELL_LABELS)
def test_prepare_bell_normalised(label):
    amps = statevec.prepare_bell(label).amplitudes
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-15


def test_prepare_bell_on_requires_zeroed_qubits():
    state = statevec.computational_state([1, 0])
    with pytest.raises(ValueError, match="must start in"):
        statevec.prepare_bell_on(state, 0, 1, PHI_PLUS)


# ---------------------------------------------------------------------------
# Pauli application.

def test_pauli_identity_leaves_state_alone():
    rng = np.random.default_rng(7)
    state = random_state(3, rng)
    out = statevec.apply_pauli(state, 1, PauliCorrection(0, 0))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_pauli_bit_flip():
    out = statevec.apply_pauli(statevec.single_qubit(1, 0), 0, PauliCorrection(0, 1))
    np.testing.assert_allclose(out.amplitudes, [0, 1])


def test_pauli_phase_flip():
    plus = statevec.single_qubit(SQRT_HALF, SQRT_HALF)
    out = statevec.apply_pauli(plus, 0, PauliCorrection(1, 0))
    np.testing.assert_allclose(out.amplitudes, [SQRT_HALF, -SQRT_HALF])


def test_pauli_out_of_range_qubit():
    with pytest.raises(IndexError):
        statevec.apply_pauli(statevec.zero_state(2), 2, PauliCorrection(0, 1))


def test_a_label_is_never_a_qubit_index():
    # A label is an int, its code, but it names a pair or a Pauli, not a qubit.
    state = statevec.zero_state(3)
    for value in (*BELL_LABELS, *(PauliCorrection(z, x) for z in (0, 1) for x in (0, 1))):
        for gate in (
            lambda: statevec.apply_pauli(state, value, PSI_PLUS),
            lambda: statevec.apply_hadamard(state, value),
            lambda: statevec.apply_cnot(state, value, 2),
            lambda: statevec.prepare_bell_on(state, 2, value, PHI_PLUS),
            lambda: statevec.project_computational(state, value, 0),
        ):
            with pytest.raises(IndexError):
                gate()


def test_pauli_does_not_mutate_input():
    state = statevec.prepare_bell(PHI_PLUS)
    before = state.amplitudes.copy()
    statevec.apply_pauli(state, 0, PauliCorrection(1, 1))
    np.testing.assert_array_equal(state.amplitudes, before)


# ---------------------------------------------------------------------------
# Bell measurement.

@pytest.mark.parametrize("label", BELL_LABELS)
def test_bell_measure_eigenstate_is_deterministic(label):
    rng = np.random.default_rng(0)
    outcome, post = statevec.bell_measure(statevec.prepare_bell(label), 0, 1, rng)
    assert outcome == label
    assert statevec.states_equal(post, statevec.prepare_bell(label))


def test_bell_outcomes_on_product_zero_state():
    # <Phi+-|00> = 1/sqrt(2) and <Psi+-|00> = 0, so the two Phi outcomes
    # split the probability and the Psi outcomes never occur.
    joint = statevec.joint_distribution(statevec.computational_state([0, 0]), [(0, 1)])
    probs = dict(zip(BELL_LABELS, joint.tolist()))
    assert abs(probs[PHI_PLUS] - 0.5) < 1e-12
    assert abs(probs[PHI_MINUS] - 0.5) < 1e-12
    assert probs[PSI_PLUS] == 0.0
    assert probs[PSI_MINUS] == 0.0


SWAP_PARTNERS = {
    BellLabel(0, 0): PSI_MINUS,
    BellLabel(0, 1): PHI_MINUS,
    BellLabel(1, 0): PSI_PLUS,
    BellLabel(1, 1): PHI_PLUS,
}


def test_bell_measure_cross_halves_swaps_entanglement():
    # Measuring the inner halves of Phi+ (x) Psi- gives each outcome with
    # probability 1/4 and leaves the outer qubits in the partner pair state.
    state = statevec.tensor(statevec.prepare_bell(PHI_PLUS), statevec.prepare_bell(PSI_MINUS))
    for outcome, partner in SWAP_PARTNERS.items():
        prob, post = statevec.bell_project(state, 1, 2, outcome)
        assert abs(prob - 0.25) < 1e-12
        candidate = statevec.zero_state(4)
        candidate = statevec.prepare_bell_on(candidate, 1, 2, outcome)
        candidate = statevec.prepare_bell_on(candidate, 0, 3, partner)
        assert statevec.fidelity(post, candidate) >= 1 - 1e-12


def test_bell_measure_rejects_equal_qubits():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        statevec.bell_measure(statevec.zero_state(2), 1, 1, rng)


def test_bell_collapse_is_idempotent():
    state = statevec.tensor(statevec.prepare_bell(PSI_PLUS), statevec.prepare_bell(PHI_MINUS))
    for seed in range(40):
        rng = np.random.default_rng(seed)
        first, post = statevec.bell_measure(state, 1, 2, rng)
        again, _ = statevec.bell_measure(post, 1, 2, rng)
        assert first == again


def test_bell_rotation_is_unitary():
    # The basis change used by bell_measure followed by its inverse is the
    # identity; composed from the public gates.
    rng = np.random.default_rng(3)
    state = random_state(4, rng)
    rotated = statevec.apply_hadamard(statevec.apply_cnot(state, 1, 3), 1)
    back = statevec.apply_cnot(statevec.apply_hadamard(rotated, 1), 1, 3)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# Computational measurement.

def test_measure_one_state():
    rng = np.random.default_rng(0)
    bit, post = statevec.measure_computational(statevec.single_qubit(0, 1), 0, rng)
    assert bit == 1
    np.testing.assert_allclose(post.amplitudes, [0, 1])


def test_measure_flipped_zero_state():
    rng = np.random.default_rng(0)
    flipped = statevec.apply_pauli(statevec.single_qubit(1, 0), 0, PauliCorrection(0, 1))
    bit, _ = statevec.measure_computational(flipped, 0, rng)
    assert bit == 1


def test_measure_uniform_superposition():
    plus = statevec.single_qubit(SQRT_HALF, SQRT_HALF)
    p0, _ = statevec.project_computational(plus, 0, 0)
    p1, _ = statevec.project_computational(plus, 0, 1)
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
    counts = [0, 0]
    for seed in range(400):
        bit, _ = statevec.measure_computational(plus, 0, np.random.default_rng(seed))
        counts[bit] += 1
    assert 140 < counts[1] < 260  # 200 +- >4 sigma


def test_measure_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(IndexError):
        statevec.measure_computational(statevec.zero_state(2), 5, rng)


# ---------------------------------------------------------------------------
# Reduced density matrices.

def loop_partial_trace(state, keep):
    """Independent partial trace by explicit index loops."""
    n = state.n_qubits
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dim = 2 ** len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            bits_i = [(i >> (n - 1 - q)) & 1 for q in range(n)]
            bits_j = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if any(bits_i[q] != bits_j[q] for q in traced):
                continue
            row = sum(bits_i[q] << (len(keep) - 1 - k) for k, q in enumerate(keep))
            col = sum(bits_j[q] << (len(keep) - 1 - k) for k, q in enumerate(keep))
            rho[row, col] += state.amplitudes[i] * np.conj(state.amplitudes[j])
    return rho


@pytest.mark.parametrize("label", BELL_LABELS)
@pytest.mark.parametrize("qubit", [0, 1])
def test_pair_marginals_are_maximally_mixed(label, qubit):
    rho = statevec.reduced_density(statevec.prepare_bell(label), [qubit])
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_product_state_marginal_is_projector():
    rng = np.random.default_rng(5)
    state = statevec.tensor(statevec.single_qubit(1, 0), random_state(2, rng))
    rho = statevec.reduced_density(state, [0])
    np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)


def test_reduced_density_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = random_state(3, rng)
        for keep in ([0], [2], [0, 2], [1, 2]):
            got = statevec.reduced_density(state, keep)
            np.testing.assert_allclose(got.entries, loop_partial_trace(state, keep), atol=1e-12)


def test_reduced_density_rejects_empty_keep():
    with pytest.raises(ValueError):
        statevec.reduced_density(statevec.zero_state(2), [])


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        statevec.DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        statevec.DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        statevec.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_impossible_outcomes_project_to_nothing():
    prob, post = statevec.bell_project(statevec.computational_state([0, 0]), 0, 1, PSI_PLUS)
    assert prob == 0.0 and post is None
    prob, post = statevec.project_computational(statevec.single_qubit(1, 0), 0, 1)
    assert prob == 0.0 and post is None
    with pytest.raises(ValueError):
        statevec.project_computational(statevec.single_qubit(1, 0), 0, 2)


# ---------------------------------------------------------------------------
# Fidelity, trace distance, extraction.

def test_fidelity_examples():
    rng = np.random.default_rng(2)
    psi = random_state(2, rng)
    assert abs(statevec.fidelity(psi, psi) - 1.0) < 1e-12
    zero, one = statevec.single_qubit(1, 0), statevec.single_qubit(0, 1)
    assert statevec.fidelity(zero, one) == 0.0
    plus = statevec.single_qubit(SQRT_HALF, SQRT_HALF)
    assert abs(statevec.fidelity(zero, plus) - 0.5) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        statevec.fidelity(statevec.zero_state(1), statevec.zero_state(2))


def test_trace_distance_extremes():
    mixed = statevec.DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert statevec.trace_distance(mixed, mixed) == 0.0
    two_zeros = statevec.tensor(statevec.single_qubit(1, 0), statevec.single_qubit(1, 0))
    pure = statevec.reduced_density(two_zeros, [0])
    assert abs(statevec.trace_distance(pure, mixed) - 0.5) < 1e-12


def test_extract_pure_qubit():
    rng = np.random.default_rng(9)
    qubit = random_state(1, rng)
    state = statevec.tensor(statevec.prepare_bell(PHI_PLUS), qubit)
    extracted = statevec.extract_pure_qubit(state, 2)
    assert statevec.fidelity(extracted, qubit) >= 1 - 1e-12
    with pytest.raises(ValueError, match="entangled"):
        statevec.extract_pure_qubit(statevec.prepare_bell(PHI_PLUS), 0)


# ---------------------------------------------------------------------------
# Register validation.

def test_register_size_limits():
    with pytest.raises(ValueError):
        statevec.zero_state(7)
    with pytest.raises(ValueError):
        statevec.StateVector(2, [1, 0, 0])
    with pytest.raises(ValueError, match="normalised"):
        statevec.StateVector(1, [1, 1])
    with pytest.raises(ValueError, match="finite"):
        statevec.StateVector(1, [np.nan, 0])


def test_constructor_copies_the_callers_array():
    amps = np.array([1, 0], dtype=complex)
    state = statevec.StateVector(1, amps)
    amps[:] = [0, 1]
    assert state.amplitudes.tolist() == [1, 0]
    state.amplitudes[0] = 0.6
    assert amps.tolist() == [0, 1]


@pytest.mark.parametrize("bad", [complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf)])
def test_constructor_refuses_a_non_finite_imaginary_part(bad):
    # The real parts are finite and the norm check alone would not name the fault.
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        statevec.StateVector(1, [1, bad])


def test_constructor_flattens_strided_and_2d_input():
    grid = np.array([[SQRT_HALF, 7.0], [SQRT_HALF * 1j, 7.0]])
    column = grid[:, 0]
    assert not column.flags.c_contiguous
    state = statevec.StateVector(1, column)
    assert state.amplitudes.shape == (2,) and state.amplitudes.tolist() == [SQRT_HALF, SQRT_HALF * 1j]
    # A 2-D input is read in row-major order, whatever its memory layout.
    for square in ([[0.6, 0.8], [0, 0]], np.asfortranarray([[0.6, 0.8], [0, 0]])):
        assert statevec.StateVector(2, square).amplitudes.tolist() == [0.6, 0.8, 0, 0]


def test_unnormalised_message_is_unchanged():
    with pytest.raises(ValueError) as raised:
        statevec.StateVector(1, [1, 1])
    assert str(raised.value) == "state is not normalised: |amplitudes|^2 = 2.0"


def test_register_size_is_read_as_an_int():
    # A bool or numpy int is stored as its int, so the register's gates run;
    # a float is refused with the size message, not kept.
    for n_qubits, size in [(np.int64(2), 4), (True, 2)]:
        state = statevec.StateVector(n_qubits, [1] + [0] * (size - 1))
        assert type(state.n_qubits) is int and state.n_qubits == int(n_qubits)
        assert statevec.apply_hadamard(state, 0).n_qubits == state.n_qubits
    for n_qubits in (2.0, np.float64(1), "2"):
        with pytest.raises(ValueError, match=f"register must hold 1..6 qubits, got {n_qubits}"):
            statevec.StateVector(n_qubits, [1, 0, 0, 0])


def test_zero_state_reads_its_size_as_an_int():
    # As in StateVector: a bool is kept as its int, a float is refused.
    state = statevec.zero_state(True)
    assert type(state.n_qubits) is int and state.n_qubits == 1
    with pytest.raises(ValueError, match="register must hold 1..6 qubits, got 2.0"):
        statevec.zero_state(2.0)


def test_computational_state_reads_its_bits_as_ints():
    state = statevec.computational_state([True, np.int64(0)])
    assert state.amplitudes.tolist() == [0, 0, 1, 0]
    for bits in ([1.0], [0, np.float64(0)], ["1"]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            statevec.computational_state(bits)


@pytest.mark.parametrize("bits, n", [([], 0), ([0] * 7, 7)])
def test_computational_state_respects_register_size(bits, n):
    # The same bound and message as zero_state.
    with pytest.raises(ValueError) as caught:
        statevec.computational_state(bits)
    with pytest.raises(ValueError) as expected:
        statevec.zero_state(n)
    assert str(caught.value) == str(expected.value) == f"register must hold 1..6 qubits, got {n}"


def test_tensor_respects_register_cap():
    with pytest.raises(ValueError):
        statevec.tensor(statevec.zero_state(4), statevec.zero_state(3))


# ---------------------------------------------------------------------------
# Invariants (property style).

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_gates_preserve_norm(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    for _ in range(4):
        q = int(rng.integers(n))
        state = statevec.apply_hadamard(state, q)
        state = statevec.apply_pauli(state, q, PauliCorrection(int(rng.integers(2)), int(rng.integers(2))))
        if n > 1:
            other = (q + 1 + int(rng.integers(n - 1))) % n
            state = statevec.apply_cnot(state, q, other)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_bell_outcome_probabilities_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    q1 = int(rng.integers(n))
    q2 = (q1 + 1 + int(rng.integers(n - 1))) % n
    total = statevec.joint_distribution(state, [(q1, q2)]).sum()
    assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# The gates against their slice-and-assign formulas.

def reference_pauli(amps, n, q, corr):
    view = amps.reshape((1 << q, 2, 1 << (n - q - 1)))
    out = np.empty_like(view)
    if corr.x:
        out[:, 0, :] = view[:, 1, :]
        out[:, 1, :] = view[:, 0, :]
    else:
        out[:] = view
    if corr.z:
        out[:, 1, :] *= -1.0
    return out.reshape(-1)


def reference_hadamard(amps, n, q):
    view = amps.reshape((1 << q, 2, 1 << (n - q - 1)))
    out = np.empty_like(view)
    lo, hi = view[:, 0, :], view[:, 1, :]
    out[:, 0, :] = (lo + hi) * SQRT_HALF
    out[:, 1, :] = (lo - hi) * SQRT_HALF
    return out.reshape(-1)


def reference_cnot(amps, n, control, target):
    q_lo, q_hi = min(control, target), max(control, target)
    view = amps.reshape(
        (1 << q_lo, 2, 1 << (q_hi - q_lo - 1), 2, 1 << (n - q_hi - 1))
    ).copy()
    if control == q_lo:
        swapped = view[:, 1, :, ::-1, :]
        view[:, 1, :, :, :] = swapped.copy()
    else:
        swapped = view[:, ::-1, :, 1, :]
        view[:, :, :, 1, :] = swapped.copy()
    return view.reshape(-1)


def gate_inputs():
    # Seeded states of 1..6 qubits with some amplitudes zero.  Signed zeros
    # are where complex arithmetic can differ in the sign of a zero, so the
    # last state of each size also has zero real or imaginary parts, and
    # parts of either sign.
    rng = np.random.default_rng(2024)
    for n in range(1, statevec.MAX_QUBITS + 1):
        for trial in range(4):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps[1:][rng.random(2**n - 1) < 0.3] = 0.0
            parts = amps.view(np.float64)
            if trial == 3:
                parts[2:][rng.random(parts.size - 2) < 0.3] = 0.0
            parts /= np.linalg.norm(parts)
            if trial == 3:
                parts[rng.random(parts.size) < 0.5] *= -1.0
                assert np.signbit(parts[parts == 0.0]).any()
            yield statevec.StateVector._wrap(n, amps)


def assert_same_gate(state, before, got, want):
    assert got.amplitudes.tobytes() == want.tobytes()
    assert not np.shares_memory(got.amplitudes, state.amplitudes)
    assert state.amplitudes.tobytes() == before


def test_gates_equal_their_slice_and_assign_formulas_byte_for_byte():
    for state in gate_inputs():
        n, before = state.n_qubits, state.amplitudes.tobytes()
        for q in range(n):
            for corr in (*BELL_LABELS, *(PauliCorrection(z, x) for z in (0, 1) for x in (0, 1))):
                want = reference_pauli(state.amplitudes, n, q, corr)
                assert_same_gate(state, before, statevec.apply_pauli(state, q, corr), want)
            want = reference_hadamard(state.amplitudes, n, q)
            assert_same_gate(state, before, statevec.apply_hadamard(state, q), want)
            for target in range(n):
                if target != q:
                    want = reference_cnot(state.amplitudes, n, q, target)
                    assert_same_gate(state, before, statevec.apply_cnot(state, q, target), want)


# ---------------------------------------------------------------------------
# Stacks of registers.

def stacked_gate_inputs():
    # Each size's gate inputs as one stack of four registers, and as a 2 x 2
    # stack of stacks whose flattened order is theirs again.
    by_size = {}
    for state in gate_inputs():
        by_size.setdefault(state.n_qubits, []).append(state)
    for states in by_size.values():
        yield states, statevec.stack(states)
        yield states, statevec.stack([statevec.stack(states[0::2]), statevec.stack(states[1::2])])


def assert_acts_per_register(states, stacked, func, *args):
    # ``func`` on the stack gives, register by register and byte for byte,
    # what it gives on each register alone, and leaves the stack as it was.
    before = stacked.amplitudes.tobytes()
    got, wants = func(stacked, *args), [func(state, *args) for state in states]
    if isinstance(got, statevec.StateVector):
        assert got.n_qubits == stacked.n_qubits
        got, wants = got.amplitudes, [want.amplitudes for want in wants]
    assert got.shape == stacked.amplitudes.shape[:-1] + wants[0].shape
    for row, want in zip(got.reshape((len(states),) + wants[0].shape), wants, strict=True):
        assert row.tobytes() == want.tobytes()
    assert stacked.amplitudes.tobytes() == before


def with_pair_zeroed(state, q1, q2):
    # ``state`` projected onto |0> on qubits q1 and q2, renormalised.
    n = state.n_qubits
    index = np.arange(2**n)
    amps = state.amplitudes.copy()
    amps[((index >> (n - 1 - q1)) | (index >> (n - 1 - q2))) & 1 == 1] = 0.0
    return statevec.StateVector._wrap(n, amps / np.linalg.norm(amps))


def test_stack_places_each_register_on_its_new_axis():
    states = [random_state(3, np.random.default_rng(seed)) for seed in range(4)]
    flat = statevec.stack(states)
    nested = statevec.stack([statevec.stack(states[:2]), statevec.stack(states[2:])])
    assert flat.n_qubits == nested.n_qubits == 3
    assert flat.amplitudes.shape == (4, 8) and nested.amplitudes.shape == (2, 2, 8)
    for i, state in enumerate(states):
        assert flat.amplitudes[i].tobytes() == state.amplitudes.tobytes()
        assert nested.amplitudes[i % 2, i // 2].tobytes() == state.amplitudes.tobytes()
    with pytest.raises(ValueError, match="one size"):
        statevec.stack([states[0], random_state(2, np.random.default_rng(4))])


def test_gates_act_on_each_register_of_a_stack_byte_for_byte():
    corrections = (*BELL_LABELS, *(PauliCorrection(z, x) for z in (0, 1) for x in (0, 1)))
    for states, stacked in stacked_gate_inputs():
        n = stacked.n_qubits
        for q in range(n):
            for corr in corrections:
                assert_acts_per_register(states, stacked, statevec.apply_pauli, q, corr)
            assert_acts_per_register(states, stacked, statevec.apply_hadamard, q)
            for target in range(n):
                if target != q:
                    assert_acts_per_register(states, stacked, statevec.apply_cnot, q, target)


def test_joint_distribution_puts_the_stack_axes_first_byte_for_byte():
    for states, stacked in stacked_gate_inputs():
        n = stacked.n_qubits
        measurements = [[(q1, q2)] for q1 in range(n) for q2 in range(n) if q1 != q2]
        if n >= 4:
            measurements += [[(1, 2), (0, 3)], [(0, 3), (1, 2)]]
        for pairs in measurements:
            assert_acts_per_register(states, stacked, statevec.joint_distribution, pairs)


def test_prepare_bell_on_acts_on_each_register_of_a_stack_byte_for_byte():
    for states, _ in stacked_gate_inputs():
        n = states[0].n_qubits
        for q1 in range(n):
            for q2 in range(n):
                if q1 == q2:
                    continue
                zeroed = [with_pair_zeroed(state, q1, q2) for state in states]
                stacked = statevec.stack(zeroed)
                for label in BELL_LABELS:
                    assert_acts_per_register(zeroed, stacked, statevec.prepare_bell_on, q1, q2, label)
                for i in range(len(zeroed)):
                    # One register with a pair qubit in |1> fails the stack.
                    flipped = statevec.apply_pauli(zeroed[i], q2, PauliCorrection(0, 1))
                    mixed = statevec.stack(zeroed[:i] + [flipped] + zeroed[i + 1:])
                    with pytest.raises(ValueError, match="must start in"):
                        statevec.prepare_bell_on(mixed, q1, q2, PHI_PLUS)


def test_a_code_array_applies_one_pauli_per_register_byte_for_byte():
    # A code array over the stack axes gives each register, byte for byte,
    # what its own code gives it alone; so does a pair prepared by codes.
    rng = np.random.default_rng(17)
    for states, stacked in stacked_gate_inputs():
        for _ in range(4):
            codes = rng.integers(0, 4, size=stacked.amplitudes.shape[:-1])
            for q in range(stacked.n_qubits):
                got = statevec.apply_pauli(stacked, q, codes).amplitudes.reshape(len(states), -1)
                for row, state, code in zip(got, states, codes.reshape(-1).tolist(), strict=True):
                    assert row.tobytes() == statevec.apply_pauli(state, q, code).amplitudes.tobytes()
    zeros = statevec.stack([statevec.stack([statevec.zero_state(4)] * 4)] * 4)
    codes = np.arange(4)
    cases = statevec.prepare_bell_on(statevec.prepare_bell_on(zeros, 0, 1, codes[:, None]), 2, 3, codes)
    for a, b in product(BELL_LABELS, repeat=2):
        want = statevec.prepare_bell_on(statevec.prepare_bell_on(statevec.zero_state(4), 0, 1, a), 2, 3, b)
        assert cases.amplitudes[a, b].tobytes() == want.amplitudes.tobytes()


def test_a_code_array_must_fit_the_stack_and_hold_codes():
    # A single code is held to 0..3 as an array is: a bool or float is not
    # a code, and no other int is read as a Pauli.
    for code in (4, -1, 2**70, True, np.bool_(True), 1.0, np.int64(4), np.uint8(7)):
        with pytest.raises(ValueError, match=r"Pauli codes must be 0\.\.3"):
            statevec.apply_pauli(statevec.zero_state(2), 0, code)
        with pytest.raises(ValueError, match=r"Pauli codes must be 0\.\.3"):
            statevec.prepare_bell(code)
    stacked = statevec.stack([statevec.zero_state(2)] * 4)
    for codes in (np.array([0, 1, 2, 4]), np.array([0, -1, 2, 3]), np.array([0, 7, 2, 3], dtype=np.uint8),
                  np.array([False, True, False, True]), np.arange(4.0)):
        with pytest.raises(ValueError, match=r"Pauli codes must be 0\.\.3"):
            statevec.apply_pauli(stacked, 0, codes)
    for codes in (np.arange(3), np.zeros((2, 4), dtype=int)):
        with pytest.raises(ValueError):
            statevec.apply_pauli(stacked, 0, codes)
