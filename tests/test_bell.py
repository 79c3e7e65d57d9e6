import copy
import json
import math
import pickle
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest

from qsshare import bell, statevec
from qsshare.bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    BellLabel,
    CORRECTION_I,
    CORRECTION_X,
    PauliCorrection,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    SWAP_REFERENCE,
    TELEPORT_REFERENCE,
    decode_classical,
    end_to_end_correction,
    infer_remote_bsm,
    swap_result,
    teleport_correction,
)
from qsshare.protocol import (
    NO_ATTACK,
    Transcript,
    make_rng,
    run_qss22,
    run_splitting_22,
    splitting_branch,
)


def random_qubit(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return statevec.single_qubit(*(amps / np.linalg.norm(amps)))


# ---------------------------------------------------------------------------
# Label plumbing.

def test_label_bit_validation():
    with pytest.raises(ValueError):
        BellLabel(2, 0)
    with pytest.raises(ValueError):
        BellLabel(0, -1)
    with pytest.raises(ValueError):
        PauliCorrection(1, 3)
    with pytest.raises(ValueError):
        BellLabel.from_bits("012")


@pytest.mark.parametrize("cls", [BellLabel, PauliCorrection])
def test_label_bits_are_read_as_ints(cls):
    # A bool or numpy int is stored as its int, so the label renders, hashes
    # and orders like the canonical one; a float is refused, not kept.
    for z, x in [(True, 1), (np.int64(1), np.uint8(0)), (False, np.int32(1))]:
        label = cls(z, x)
        assert type(label.z) is int and type(label.x) is int
        assert label == cls(int(z), int(x)) and label.bits == f"{int(z)}{int(x)}"
    for z, x in [(1.0, 0), (0, 1.0), (np.float64(0), 0), ("1", 0)]:
        with pytest.raises(ValueError, match=rf"bits must be 0 or 1, got \({z}, {x}\)"):
            cls(z, x)


def test_label_round_trips():
    for label in BELL_LABELS:
        assert BellLabel.from_bits(label.bits) == label
    assert [label.symbol for label in BELL_LABELS] == ["Φ+", "Ψ+", "Φ-", "Ψ-"]
    assert [c.symbol for c in bell.PAULI_CORRECTIONS] == ["I", "X", "Z", "ZX"]


def test_conversions_hand_out_the_canonical_constants():
    # Outcomes are labels, and ``^`` and ``from_bits`` return the canonical
    # instance of the left operand's type.
    assert BSM_OUTCOMES is BELL_LABELS
    for i, label in enumerate(BELL_LABELS):
        z, x = divmod(i, 2)
        assert (label.z, label.x) == (z, x)
        assert BellLabel.from_bits(label.bits) is label
        assert BellLabel(z, x) ^ PHI_PLUS is label
        assert PHI_PLUS ^ BellLabel(z, x) is label
        assert label ^ label is PHI_PLUS
        assert CORRECTION_I ^ label is bell.PAULI_CORRECTIONS[i]
        assert bell.PAULI_CORRECTIONS[i] ^ PHI_PLUS is bell.PAULI_CORRECTIONS[i]
    assert BellLabel(0, 0) != CORRECTION_I


EVERY_TWO_BITS = BELL_LABELS + bell.PAULI_CORRECTIONS


@pytest.mark.parametrize("value", EVERY_TWO_BITS, ids=repr)
def test_a_value_is_its_code(value):
    # A label or correction is the int 2*z + x, so it indexes the canonical
    # tuples and serialises as that int, and it renders as a bit pair.
    code = 2 * value.z + value.x
    assert int(value) == code and type(int(value)) is int
    canonical = BELL_LABELS if type(value) is BellLabel else bell.PAULI_CORRECTIONS
    assert canonical[value] is value and BELL_LABELS[value] is BELL_LABELS[code]
    assert repr(value) == f"{type(value).__name__}(z={value.z}, x={value.x})"
    assert json.dumps(value) == str(code) and bool(value) == (code != 0)
    assert hash(value) == hash(code)


@pytest.mark.parametrize("value", EVERY_TWO_BITS, ids=repr)
def test_a_value_survives_pickle_and_copies_as_itself(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value
    assert copy.deepcopy(value) is value and copy.copy(value) is value
    assert copy.deepcopy({value: [value]}) == {value: [value]}


def test_values_equal_only_their_own_type_and_code():
    # Equality is a pair of bits of one type, as it was: a Bell label is not
    # the correction or the plain int of its code, though all three hash
    # alike, so a dict keyed by one kind never answers for another.
    for label, corr in zip(BELL_LABELS, bell.PAULI_CORRECTIONS):
        code = int(label)
        assert label != corr and label != code and code != label and not label == code
        assert label == BellLabel(label.z, label.x) and corr == PauliCorrection(corr.z, corr.x)
        assert code not in BELL_LABELS and corr not in BELL_LABELS and label not in bell.PAULI_CORRECTIONS
        assert {label: "label"}.get(corr) is None and {code: "code"}.get(label) is None
        assert label != float(code) and label != np.int64(code) and label != Fraction(code)


def test_comparison_with_a_value_that_is_not_a_number_is_its_call():
    # A label leaves ``==`` with an array or a wildcard to the other operand.
    codes = np.arange(4)
    for value in EVERY_TWO_BITS:
        assert value == mock.ANY and not value != mock.ANY
        assert (value == codes).tolist() == [c == int(value) for c in range(4)]
        assert (value != codes).tolist() == [c != int(value) for c in range(4)]
        assert value != "00" and value != None  # noqa: E711


def test_xor_keeps_the_left_type_and_leaves_arrays_to_numpy():
    # ``^`` with any int gives the canonical value of the left operand's
    # type; with an int array it defers, so numpy XORs the code in.
    for a, b in product(EVERY_TWO_BITS, repeat=2):
        assert a ^ b is type(a)._CANONICAL[int(a) ^ int(b)]
        assert a ^ int(b) is a ^ b and type(int(b) ^ a) is int
    codes = np.arange(4)
    for value in EVERY_TWO_BITS:
        assert (value ^ codes).tolist() == (codes ^ value).tolist() == [int(value) ^ c for c in range(4)]
    with pytest.raises(TypeError):
        PSI_PLUS ^ 1.0


@pytest.mark.parametrize("value", EVERY_TWO_BITS, ids=repr)
def test_a_value_is_never_read_as_a_bit(value):
    # A label passes operator.index, but where a bit is expected it is
    # refused as a float is, even Φ+ and I, whose codes are 0.
    assert bell._bit(value) is None
    with pytest.raises(ValueError, match="cipher bit must be 0 or 1"):
        decode_classical(value, CORRECTION_X)
    for cls in (BellLabel, PauliCorrection):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            cls(value, 0)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            cls(0, value)
    with pytest.raises(TypeError):
        run_qss22(value, 7)
    with pytest.raises(TypeError):
        run_splitting_22(value, PHI_PLUS, PHI_PLUS, make_rng(7), Transcript(7, "qss22"), NO_ATTACK)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        statevec.computational_state([value])


def test_correction_composition_is_xor():
    for a, b in product(bell.PAULI_CORRECTIONS, repeat=2):
        composed = a ^ b
        assert (composed.z, composed.x) == (a.z ^ b.z, a.x ^ b.x)
        assert composed in bell.PAULI_CORRECTIONS


# ---------------------------------------------------------------------------
# Teleportation corrections.

def test_generated_teleport_table_matches_reference():
    assert bell.diff_teleport_table(bell.generate_teleport_table()) == []


def _bits(value):
    return value.bits


@pytest.mark.parametrize("channel, outcome", list(TELEPORT_REFERENCE), ids=_bits)
def test_teleport_xor_matches_both_tables(channel, outcome):
    want = TELEPORT_REFERENCE[channel, outcome]
    assert bell.generate_teleport_table()[channel, outcome] is want
    assert teleport_correction(channel, outcome) is want
    assert (want.z, want.x) == (channel.z ^ outcome.z, channel.x ^ outcome.x)


def test_teleport_reference_spot_checks():
    assert teleport_correction(PHI_MINUS, BellLabel(1, 1)) == CORRECTION_X
    assert teleport_correction(PHI_PLUS, BellLabel(0, 0)) == CORRECTION_I


def test_teleport_oracle_round_trip():
    # For all 16 (channel, outcome) cases, teleporting a random qubit and
    # applying the correction restores the input.
    rng = np.random.default_rng(42)
    qubits = [random_qubit(rng) for _ in range(100)]
    for channel in BELL_LABELS:
        for outcome in BSM_OUTCOMES:
            correction = teleport_correction(channel, outcome)
            for probe in qubits:
                state = statevec.tensor(probe, statevec.prepare_bell(channel))
                prob, post = statevec.bell_project(state, 0, 1, outcome)
                assert abs(prob - 0.25) < 1e-12
                received = statevec.extract_pure_qubit(post, 2)
                recovered = statevec.apply_pauli(received, 0, correction)
                assert statevec.fidelity(recovered, probe) >= 1 - 1e-12


# ---------------------------------------------------------------------------
# Swapping outcomes.

def test_generated_swap_table_matches_reference():
    assert bell.diff_swap_table(bell.generate_swap_table()) == []


@pytest.mark.parametrize("pair_a, pair_b, outcome", list(SWAP_REFERENCE), ids=_bits)
def test_swap_xor_matches_both_tables(pair_a, pair_b, outcome):
    want = SWAP_REFERENCE[pair_a, pair_b, outcome]
    assert bell.generate_swap_table()[pair_a, pair_b, outcome] is want
    assert swap_result(pair_a, pair_b, outcome) is want
    assert infer_remote_bsm(pair_a, pair_b, want) is outcome
    assert want == BellLabel(
        pair_a.z ^ pair_b.z ^ outcome.z, pair_a.x ^ pair_b.x ^ outcome.x
    )


def test_swap_reference_spot_checks():
    assert swap_result(PHI_PLUS, PSI_MINUS, BellLabel(0, 0)) == PSI_MINUS
    assert swap_result(PHI_PLUS, PSI_MINUS, BellLabel(0, 1)) == PHI_MINUS
    assert swap_result(PHI_PLUS, PSI_MINUS, BellLabel(1, 0)) == PSI_PLUS
    assert swap_result(PHI_PLUS, PSI_MINUS, BellLabel(1, 1)) == PHI_PLUS


def test_swap_is_bijective_in_outcome():
    for pair_a, pair_b in product(BELL_LABELS, repeat=2):
        images = {swap_result(pair_a, pair_b, outcome) for outcome in BSM_OUTCOMES}
        assert images == set(BELL_LABELS)


def test_infer_remote_bsm_inverts_swap():
    for pair_a, pair_b in product(BELL_LABELS, repeat=2):
        for outcome in BSM_OUTCOMES:
            observed = swap_result(pair_a, pair_b, outcome)
            assert infer_remote_bsm(pair_a, pair_b, observed) == outcome


def test_infer_identity_row():
    assert infer_remote_bsm(PHI_PLUS, PHI_PLUS, BellLabel(0, 0)) == BellLabel(0, 0)
    # Observing Phi- over the (Phi+, Psi-) pairs means the remote outcome
    # mapped onto Phi-, i.e. Psi+.
    assert infer_remote_bsm(PHI_PLUS, PSI_MINUS, PHI_MINUS) == PSI_PLUS


# ---------------------------------------------------------------------------
# The oracle tables catch a broken simulator.

def _pair_bits_swapped(monkeypatch):
    real = statevec.prepare_bell_on

    def faulty(state, q_first, q_second, label):
        # A code or an array of codes, its two bits exchanged.
        return real(state, q_first, q_second, (label & 1) << 1 | label >> 1)

    monkeypatch.setattr(statevec, "prepare_bell_on", faulty)


def _rotation_cnot_reversed(monkeypatch):
    # The pair rotation and its inverse, each with the CNOT's control and
    # target exchanged.
    def rotate_from(state, q1, q2):
        return statevec.apply_hadamard(statevec.apply_cnot(state, q2, q1), q1)

    def rotate_to(state, q1, q2):
        return statevec.apply_cnot(statevec.apply_hadamard(state, q1), q2, q1)

    monkeypatch.setattr(statevec, "_rotate_from_pair_basis", rotate_from)
    monkeypatch.setattr(statevec, "_rotate_to_pair_basis", rotate_to)


def _pauli_drops_z(monkeypatch):
    real = statevec.apply_pauli

    def faulty(state, q, corr):
        return real(state, q, corr & 1)

    monkeypatch.setattr(statevec, "apply_pauli", faulty)


def _hadamard_drops_its_half(monkeypatch):
    real = statevec.apply_hadamard

    def faulty(state, q):
        return statevec.StateVector._wrap(state.n_qubits, real(state, q).amplitudes * math.sqrt(2.0))

    monkeypatch.setattr(statevec, "apply_hadamard", faulty)


def _pair_left_as_product(monkeypatch):
    def faulty(state, q_first, q_second, label):
        return statevec.apply_pauli(statevec.apply_hadamard(state, q_first), q_first, label)

    monkeypatch.setattr(statevec, "prepare_bell_on", faulty)


def _outcome_rows_copy_the_first(monkeypatch):
    real = statevec.joint_distribution

    def faulty(state, pairs):
        joint = real(state, pairs)
        joint[..., 1:, :] = joint[..., :1, :]
        return joint

    monkeypatch.setattr(statevec, "joint_distribution", faulty)


@pytest.fixture
def cold_tables():
    tables = (bell.generate_teleport_table, bell.generate_swap_table)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


@pytest.mark.parametrize("fault", [_pair_bits_swapped, _rotation_cnot_reversed, _pauli_drops_z])
def test_oracle_tables_expose_simulator_faults(fault, monkeypatch, cold_tables):
    # Each fault either trips one of the generators' own checks or leaves
    # rows that disagree with the reference: verify-tables cannot pass on it.
    fault(monkeypatch)
    generators = (
        (bell.generate_teleport_table, bell.diff_teleport_table),
        (bell.generate_swap_table, bell.diff_swap_table),
    )
    for generate, diff in generators:
        try:
            table = generate()
        except AssertionError:
            continue
        assert diff(table), generate.__name__


@pytest.mark.parametrize(
    "fault, message",
    [
        (_hadamard_drops_its_half, r"^swap of pairs \(00, 00\): outcome 00 had probability 4\.0, expected 1/4$"),
        (_pair_left_as_product, r"^swap of pairs \(00, 00\): outcome 00 matched 0 pair states$"),
        (_outcome_rows_copy_the_first, r"^swap of pairs \(00, 00\): the outcomes are not a bijection$"),
    ],
)
def test_each_sweep_check_trips_on_its_fault(fault, message, monkeypatch, cold_tables):
    # The sweep's own checks, each tripped by one fault of the simulator:
    # outcome probabilities of 1/4, one surviving pair per outcome, and a
    # bijection from outcomes to surviving pairs.
    fault(monkeypatch)
    for generate in (bell.generate_swap_table, bell.generate_teleport_table):
        with pytest.raises(AssertionError, match=message):
            generate()


def test_one_simulator_sweep_fills_both_oracle_tables(monkeypatch, cold_tables):
    # Pair a and pair b are each prepared by one call over the (4, 4) stack
    # of all 16 (a, b) cases, and the cases are read off one joint
    # distribution; the teleport table reads the sweep's Φ+ rows.
    calls = {"joint_distribution": 0, "prepare_bell_on": 0}
    for name in calls:
        real = getattr(statevec, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(statevec, name, counted)
    teleport = bell.generate_teleport_table()
    swap = bell.generate_swap_table()
    assert calls == {"joint_distribution": 1, "prepare_bell_on": 2}
    assert len(teleport) == 16
    for (channel, outcome), corr in teleport.items():
        pair = swap[(PHI_PLUS, channel, outcome)]
        assert corr is bell.PAULI_CORRECTIONS[BELL_LABELS.index(pair)]


# ---------------------------------------------------------------------------
# End-to-end correction.

def test_end_to_end_is_the_composition():
    for pair1, pair2 in product(BELL_LABELS, repeat=2):
        for swap in BSM_OUTCOMES:
            for tele in BSM_OUTCOMES:
                expected = teleport_correction(swap_result(pair1, pair2, swap), tele)
                assert end_to_end_correction(pair1, pair2, swap, tele) == expected


def test_end_to_end_identity_chain():
    assert end_to_end_correction(PHI_PLUS, PHI_PLUS, BellLabel(0, 0), BellLabel(0, 0)) == CORRECTION_I


def test_end_to_end_composed_spot_check():
    # Swapping (Phi+, Psi-) on outcome 01 leaves a Phi- channel, and
    # teleporting over Phi- with outcome 11 needs the X correction.
    got = end_to_end_correction(PHI_PLUS, PSI_MINUS, BellLabel(0, 1), BellLabel(1, 1))
    assert got == CORRECTION_X


def test_end_to_end_against_full_register_oracle():
    # All 256 classical-piece combinations, checked on the 5-qubit splitting
    # circuit with a generic probe (sensitive to both Pauli exponents).
    probe = statevec.single_qubit(0.6, 0.8j)
    for pair1, pair2 in product(BELL_LABELS, repeat=2):
        for swap in BSM_OUTCOMES:
            for tele in BSM_OUTCOMES:
                prob, received = splitting_branch(probe, pair1, pair2, swap, tele)
                assert abs(prob - 1 / 16) < 1e-12
                correction = end_to_end_correction(pair1, pair2, swap, tele)
                expected = statevec.apply_pauli(probe, 0, correction)
                assert statevec.fidelity(received, expected) >= 1 - 1e-12


# ---------------------------------------------------------------------------
# Classical decoding.

def test_decode_classical_examples():
    assert decode_classical(0, CORRECTION_I) == 0
    assert decode_classical(0, CORRECTION_X) == 1
    assert decode_classical(1, bell.CORRECTION_Z) == 1
    # A float is refused, not truncated; a bool or numpy int is its int.
    for bit in (2, 1.0, 0.0, 0.5, "1"):
        with pytest.raises(ValueError, match="cipher bit must be 0 or 1"):
            decode_classical(bit, CORRECTION_X)
    for bit in (True, np.int64(1), np.uint8(1)):
        decoded = decode_classical(bit, CORRECTION_X)
        assert decoded == 0 and type(decoded) is int


def test_phase_flip_does_not_move_a_measured_bit():
    rng = np.random.default_rng(0)
    one = statevec.single_qubit(0, 1)
    flipped = statevec.apply_pauli(one, 0, bell.CORRECTION_Z)
    bit, _ = statevec.measure_computational(flipped, 0, rng)
    assert bit == 1


# ---------------------------------------------------------------------------
# Piece necessity.

PIECE_DOMAINS = (BELL_LABELS, BELL_LABELS, BSM_OUTCOMES, BSM_OUTCOMES)


def test_no_proper_subset_determines_the_parity_exponent():
    # For every proper subset of the four pieces and every assignment of the
    # known ones, the X exponent still takes both values over the unknowns.
    for mask in range(15):  # every proper subset of 4 pieces
        known = [i for i in range(4) if mask >> i & 1]
        unknown = [i for i in range(4) if not mask >> i & 1]
        for known_values in product(*(PIECE_DOMAINS[i] for i in known)):
            seen = set()
            for unknown_values in product(*(PIECE_DOMAINS[i] for i in unknown)):
                values = [None] * 4
                for i, v in zip(known, known_values):
                    values[i] = v
                for i, v in zip(unknown, unknown_values):
                    values[i] = v
                seen.add(end_to_end_correction(*values).x)
            assert seen == {0, 1}


def test_reference_tables_are_complete():
    assert len(TELEPORT_REFERENCE) == 16
    assert len(SWAP_REFERENCE) == 64
