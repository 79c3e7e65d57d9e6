import json
import re
from itertools import product

import numpy as np
import pytest

from qsshare import statevec
from qsshare.bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    BellLabel,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    end_to_end_correction,
    infer_remote_bsm,
)
from qsshare.protocol import (
    DEFAULT_AUTH_PAIRS,
    NO_ATTACK,
    RECEIVER_1,
    RECEIVER_2,
    RECEIVER_3,
    RECEIVER_4,
    RECEIVER_5,
    SENDER,
    AttackModel,
    Event,
    IncompleteSharesError,
    SenderRecords,
    ShareSet22,
    ShareSet55,
    _TranscriptBuilder,
    make_rng,
    prepare_splitting_register,
    prepare_token_register,
    reconstruct22,
    reconstruct55,
    run_auth_tokens,
    run_qss22,
    run_qss55,
    run_splitting_22,
    splitting_branch,
    validate_transcript,
    verify_authentication,
)
from test_exact_branches import random_qubits


def enumerate_honest():
    for secret in (0, 1):
        probe = statevec.computational_state([secret])
        for pair1, pair2 in product(BELL_LABELS, repeat=2):
            for swap in BSM_OUTCOMES:
                for tele in BSM_OUTCOMES:
                    prob, qubit = splitting_branch(probe, pair1, pair2, swap, tele)
                    cipher = int(abs(qubit.amplitudes[1]) ** 2 > 0.5)
                    yield secret, pair1, pair2, swap, tele, prob, cipher


# ---------------------------------------------------------------------------
# Authentication-token phase.

def test_default_pair_configuration():
    assert DEFAULT_AUTH_PAIRS[RECEIVER_1] == (PHI_PLUS, PHI_MINUS)
    assert DEFAULT_AUTH_PAIRS[RECEIVER_2] == (PSI_PLUS, PSI_MINUS)


@pytest.mark.parametrize("pairs", [DEFAULT_AUTH_PAIRS[RECEIVER_1], DEFAULT_AUTH_PAIRS[RECEIVER_2]])
def test_token_round_agrees_for_every_outcome(pairs):
    # Postselect each of the receiver's four outcomes; the sender's own
    # measurement is then deterministic and the inferred code matches.
    pair_a, pair_b = pairs
    state = prepare_token_register(pair_a, pair_b)
    for code in BELL_LABELS:
        p_code, after = statevec.bell_project(state, 1, 2, code)
        assert abs(p_code - 0.25) < 1e-12
        seen = [
            observed
            for observed in BELL_LABELS
            if statevec.bell_project(after, 0, 3, observed)[0] > 1e-12
        ]
        assert len(seen) == 1
        assert infer_remote_bsm(pair_a, pair_b, seen[0]) == code


def test_run_auth_tokens_honest_records_match():
    for seed in range(50):
        result = run_auth_tokens(make_rng(seed), _TranscriptBuilder(seed, "qss22"), NO_ATTACK)
        assert result.records == result.codes


def test_token_outcomes_are_uniform():
    counts = {label: 0 for label in BELL_LABELS}
    trials = 10000
    for seed in range(trials):
        result = run_auth_tokens(make_rng(seed), _TranscriptBuilder(seed, "qss22"), NO_ATTACK)
        counts[result.codes[RECEIVER_1]] += 1
    # each outcome has probability 1/4; allow 3 sigma
    sigma = (trials * 0.25 * 0.75) ** 0.5
    for label, count in counts.items():
        assert abs(count - trials / 4) < 3 * sigma, (label.bits, count)


# ---------------------------------------------------------------------------
# Splitting phase.

def test_identity_chain_gives_plain_bit():
    probe = statevec.computational_state([0])
    prob, qubit = splitting_branch(probe, PHI_PLUS, PHI_PLUS, BellLabel(0, 0), BellLabel(0, 0))
    assert abs(prob - 1 / 16) < 1e-12
    assert statevec.fidelity(qubit, statevec.single_qubit(1, 0)) >= 1 - 1e-12


def test_documented_splitting_example():
    # secret 1 over pairs (Phi+, Psi-) with swap outcome 01 and teleport
    # outcome 11: the end-to-end encoding is X, so the measured bit is 0.
    probe = statevec.computational_state([1])
    _, qubit = splitting_branch(probe, PHI_PLUS, PSI_MINUS, BellLabel(0, 1), BellLabel(1, 1))
    assert statevec.fidelity(qubit, statevec.single_qubit(1, 0)) >= 1 - 1e-12


def test_exhaustive_decode_recovers_secret():
    seen = 0
    for secret, pair1, pair2, swap, tele, prob, cipher in enumerate_honest():
        assert abs(prob - 1 / 16) < 1e-12
        decoded = cipher ^ end_to_end_correction(pair1, pair2, swap, tele).x
        assert decoded == secret
        seen += 1
    assert seen == 512


def test_measurement_order_is_irrelevant():
    # The swap and teleport measurements act on disjoint qubits; projecting
    # the teleport pair first gives identical branch probabilities and
    # cipher bits on all 512 cases.
    seen = 0
    for secret, pair1, pair2, swap, tele, prob, cipher in enumerate_honest():
        state = prepare_splitting_register(statevec.computational_state([secret]), pair1, pair2)
        p_tele, state = statevec.bell_project(state, 0, 1, tele)
        p_swap, state = statevec.bell_project(state, 2, 3, swap)
        assert abs(p_tele * p_swap - prob) < 1e-12
        qubit = statevec.extract_pure_qubit(state, 4)
        assert int(abs(qubit.amplitudes[1]) ** 2 > 0.5) == cipher
        seen += 1
    assert seen == 512


# ---------------------------------------------------------------------------
# Authentication decision.

def test_honest_tokens_always_accepted():
    for secret, pair1, pair2, swap, tele, _, cipher in enumerate_honest():
        records = SenderRecords(pair1, pair2, tele, secret)
        token_r1 = (swap.z ^ pair1.z, swap.x ^ pair1.x)
        token_r2 = cipher ^ pair2.z ^ pair2.x
        assert verify_authentication(records, token_r1, token_r2)


def test_flipped_cipher_token_always_rejected():
    for secret, pair1, pair2, swap, tele, _, cipher in enumerate_honest():
        records = SenderRecords(pair1, pair2, tele, secret)
        token_r1 = (swap.z ^ pair1.z, swap.x ^ pair1.x)
        token_r2 = cipher ^ pair2.z ^ pair2.x ^ 1
        assert not verify_authentication(records, token_r1, token_r2)


def test_swap_token_lies():
    # A lie on the parity bit is always caught; a phase-only lie never is.
    for secret, pair1, pair2, swap, tele, _, cipher in enumerate_honest():
        records = SenderRecords(pair1, pair2, tele, secret)
        token_r2 = cipher ^ pair2.z ^ pair2.x
        honest = (swap.z ^ pair1.z, swap.x ^ pair1.x)
        assert not verify_authentication(records, (honest[0], honest[1] ^ 1), token_r2)
        assert verify_authentication(records, (honest[0] ^ 1, honest[1]), token_r2)


@pytest.mark.parametrize("token_r1", [(0, 2), (2, 0), (-1, 0)])
def test_swap_token_must_be_two_bits(token_r1):
    records = SenderRecords(PHI_PLUS, PHI_PLUS, BellLabel(0, 0), 0)
    with pytest.raises(ValueError, match="outcome bits must be 0 or 1"):
        verify_authentication(records, token_r1, 0)


@pytest.mark.parametrize("token_r2", [2, -1])
def test_cipher_token_must_be_a_bit(token_r2):
    records = SenderRecords(PHI_PLUS, PHI_PLUS, BellLabel(0, 0), 0)
    with pytest.raises(ValueError, match="cipher token must be 0 or 1"):
        verify_authentication(records, (0, 0), token_r2)


# ---------------------------------------------------------------------------
# Full (2,2) runs.

@pytest.mark.parametrize("secret", [0, 1])
@pytest.mark.parametrize("seed", [1, 7, 2**40 + 3])
def test_run_qss22_honest(secret, seed):
    transcript = run_qss22(secret, seed)
    validate_transcript(transcript)
    assert transcript.outcome == "accepted"
    assert transcript.reconstructed == secret
    assert reconstruct22(transcript.shares) == secret


def test_run_qss22_is_deterministic():
    a = run_qss22(1, 123456789)
    b = run_qss22(1, 123456789)
    assert a.to_jsonl() == b.to_jsonl()
    c = run_qss22(1, 123456790)
    assert a.to_jsonl() != c.to_jsonl()


@pytest.mark.parametrize(
    "secret, bit", [(True, 1), (False, 0), (np.int64(1), 1), (np.uint8(0), 0), (1.0, None)], ids=repr
)
def test_run_qss22_reads_an_integer_secret_as_its_bit(secret, bit):
    # A bool or numpy integer runs exactly as the Python int it indexes as;
    # a float is refused, not truncated, by the run and its splitting phase.
    for spec in ("none", "token-flip", "r1-lie:11", "intercept-resend-bell:split-r1"):
        attack = AttackModel.from_spec(spec)
        if bit is None:
            with pytest.raises(TypeError):
                run_qss22(secret, 7, attack)
            with pytest.raises(TypeError):
                run_splitting_22(
                    secret, PHI_PLUS, PHI_PLUS, make_rng(7), _TranscriptBuilder(7, "qss22"), attack
                )
        else:
            assert run_qss22(secret, 7, attack).to_jsonl() == run_qss22(bit, 7, attack).to_jsonl()


def test_rejected_run_never_publishes_sender_result():
    transcript = run_qss22(0, 5, AttackModel.from_spec("token-flip"))
    assert transcript.outcome == "rejected"
    assert transcript.shares is None and transcript.reconstructed is None
    assert all(event.sender != SENDER for event in transcript.public_messages())
    validate_transcript(transcript)


def test_transcript_jsonl_shape():
    transcript = run_qss22(1, 9)
    lines = transcript.to_jsonl().splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "qss-transcript/1", "scheme": "qss22", "seed": 9}
    footer = json.loads(lines[-1])
    assert footer["outcome"] == "accepted"
    assert footer["reconstructed"] == "1"
    for line in lines[1:-1]:
        event = json.loads(line)
        assert set(event) == {"index", "phase", "kind", "from", "to", "payload", "basis", "result"}


def test_channel_discipline_is_enforced():
    transcript = run_qss22(0, 3)
    validate_transcript(transcript)
    tampered = run_qss22(0, 3)
    classical = [e for e in tampered.events if e.kind == "classical-public"]
    classical[0].payload = "quantum payload"
    with pytest.raises(ValueError, match="bit string"):
        validate_transcript(tampered)
    tampered = run_qss22(0, 3)
    quantum = [e for e in tampered.events if e.kind == "quantum-send"]
    quantum[0].payload = "01"
    with pytest.raises(ValueError, match="wire name"):
        validate_transcript(tampered)


def _tampered(event_kind, **fields):
    """An honest transcript whose first event of ``event_kind`` has ``fields`` set."""
    transcript = run_qss22(0, 3)
    event = next(e for e in transcript.events if e.kind == event_kind)
    for name, value in fields.items():
        setattr(event, name, value)
    return transcript, event.index


def test_validator_rejects_a_misnumbered_event():
    transcript = run_qss22(0, 3)
    transcript.events[3].index = 7
    with pytest.raises(ValueError, match=re.escape("event 3 carries index 7")):
        validate_transcript(transcript)


@pytest.mark.parametrize("payload", ["", None, "012", "2"])
def test_validator_rejects_non_bit_classical_payloads(payload):
    transcript, i = _tampered("classical-public", payload=payload)
    message = f"classical event {i} payload {payload!r} is not a 1-2 bit string"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


@pytest.mark.parametrize("endpoint", ["sender", "recipient"])
def test_validator_rejects_unknown_classical_endpoints(endpoint):
    transcript, i = _tampered("classical-public", **{endpoint: "Eve"})
    message = f"classical event {i} has unknown endpoints"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


@pytest.mark.parametrize("payload", ["", "1"])
def test_validator_rejects_quantum_sends_without_a_wire_name(payload):
    transcript, i = _tampered("quantum-send", payload=payload)
    message = f"quantum send {i} must carry a wire name, got {payload!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


@pytest.mark.parametrize("fields", [{"basis": "bell"}, {"result": "01"}])
def test_validator_rejects_quantum_sends_with_measurement_fields(fields):
    transcript, i = _tampered("quantum-send", **fields)
    message = f"quantum send {i} carries measurement fields"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


def test_validator_rejects_an_unknown_measurement_basis():
    transcript, i = _tampered("measurement", basis="diagonal")
    message = f"measurement {i} has basis 'diagonal'"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


@pytest.mark.parametrize("result", ["", "000"])
def test_validator_rejects_malformed_measurement_results(result):
    transcript, i = _tampered("measurement", result=result)
    message = f"measurement {i} result {result!r} malformed"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


def test_validator_rejects_an_unknown_event_kind():
    transcript, _ = _tampered("quantum-send", kind="teleport")
    with pytest.raises(ValueError, match=re.escape("unknown event kind 'teleport'")):
        validate_transcript(transcript)


def test_validator_rejects_a_sender_message_in_a_rejected_run():
    transcript = run_qss22(0, 5, AttackModel.from_spec("token-flip"))
    assert transcript.outcome == "rejected"
    i = len(transcript.events)
    transcript.events.append(
        Event(i, "authentication", "classical-public", SENDER, RECEIVER_1, "01")
    )
    message = f"rejected run published a sender message (event {i})"
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_transcript(transcript)


def test_run_qss22_input_validation():
    with pytest.raises(ValueError):
        run_qss22(2, 0)
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(2**64)


@pytest.mark.parametrize("seed", [1.5, 3.9, 1.0])
def test_runs_refuse_a_non_integer_seed(seed):
    # Truncated, 1.5 would draw seed 1's coins under a header that says 1.5.
    message = re.escape(f"seed must be an unsigned 64-bit integer, got {seed}")
    with pytest.raises(ValueError, match=message):
        run_qss22(1, seed)
    with pytest.raises(ValueError, match=message):
        run_qss55((0.6, 0.8j), seed)


def test_numpy_integer_seeds_key_the_same_generator():
    assert make_rng(np.uint64(7)).random() == make_rng(7).random()


@pytest.mark.parametrize(
    "seed, key", [(np.uint64(5), 5), (np.int64(3), 3), (True, 1), (np.uint64(2**64 - 1), 2**64 - 1)]
)
def test_integer_seeds_of_any_type_write_the_same_transcript(seed, key):
    # The header records the key the generator used, a Python int, so a
    # numpy integer serialises and a bool does not print as true.
    assert run_qss22(0, seed).to_jsonl() == run_qss22(0, key).to_jsonl()
    qubit = (0.6, 0.8j)
    assert run_qss55(qubit, seed)[0].to_jsonl() == run_qss55(qubit, key)[0].to_jsonl()
    assert json.loads(run_qss22(1, seed).to_jsonl().splitlines()[0])["seed"] == key


# ---------------------------------------------------------------------------
# Reconstruction contracts.

def test_reconstruct22_trivial_case():
    shares = ShareSet22(PHI_PLUS, BellLabel(0, 0), 1, PHI_PLUS, BellLabel(0, 0))
    assert reconstruct22(shares) == 1


def test_reconstruct22_requires_every_share():
    complete = ShareSet22(PHI_PLUS, BellLabel(0, 0), 1, PHI_PLUS, BellLabel(0, 0))
    for missing in ("pair1_label", "swap_bsm", "cipher_bit", "pair2_label", "teleport_bsm"):
        shares = ShareSet22(**{**complete.__dict__, missing: None})
        with pytest.raises(IncompleteSharesError):
            reconstruct22(shares)


def test_reconstruct55_identity_case():
    qubit = statevec.single_qubit(0.6, 0.8j)
    shares = ShareSet55(BellLabel(0, 0), qubit, PHI_PLUS, PHI_PLUS, BellLabel(0, 0))
    assert statevec.fidelity(reconstruct55(shares), qubit) >= 1 - 1e-12


def test_reconstruct55_requires_every_share():
    qubit = statevec.single_qubit(1, 0)
    complete = ShareSet55(BellLabel(0, 0), qubit, PHI_PLUS, PHI_PLUS, BellLabel(0, 0))
    for missing in ("swap_bsm", "encrypted_qubit", "pair1_label", "pair2_label", "teleport_bsm"):
        shares = ShareSet55(**{**complete.__dict__, missing: None})
        with pytest.raises(IncompleteSharesError):
            reconstruct55(shares)


# ---------------------------------------------------------------------------
# Full (5,5) runs.

def test_qss55_round_trip_on_random_qubits():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = amps / np.linalg.norm(amps)
        transcript, shares = run_qss55((amps[0], amps[1]), seed=trial)
        validate_transcript(transcript)
        recovered = reconstruct55(shares)
        assert statevec.fidelity(recovered, statevec.single_qubit(*amps)) >= 1 - 1e-12
        assert transcript.reconstruction_fidelity >= 1 - 1e-12


@pytest.mark.parametrize("seed", [609, *range(20)])
def test_qss55_runs_secrets_just_inside_the_norm_tolerance(seed):
    # Squared norm off by 2e-13, inside statevec.NORM_TOL: the run must
    # accept the secret and reconstruct it.
    secret = (0.9999999999999, 0)
    transcript, shares = run_qss55(secret, seed)
    assert transcript.reconstruction_fidelity >= 1 - 1e-12
    assert statevec.fidelity(reconstruct55(shares), statevec.single_qubit(*secret)) >= 1 - 1e-12


def test_qss55_piece_assignment():
    transcript, shares = run_qss55((0.6, 0.8j), seed=5)
    private = {e.recipient: e.payload for e in transcript.events if e.kind == "classical-private"}
    assert private[RECEIVER_3] == shares.pair1_label.bits
    assert private[RECEIVER_4] == shares.pair2_label.bits
    assert private[RECEIVER_5] == shares.teleport_bsm.bits
    quantum = [e.recipient for e in transcript.events if e.kind == "quantum-send"]
    assert quantum == [RECEIVER_1, RECEIVER_1, RECEIVER_2]
    assert shares.encrypted_qubit.n_qubits == 1
    assert shares.swap_bsm in BSM_OUTCOMES


def test_frame_qubit_is_the_postselected_qubit():
    # R2's qubit as run_qss55 takes it, the secret under the end-to-end
    # Pauli, against the postselected register: every pair code and every
    # (swap, teleport) outcome.
    for secret in random_qubits(3, 1955):
        for pair1, pair2, swap, tele in product(BELL_LABELS, repeat=4):
            _, postselected = splitting_branch(secret, pair1, pair2, swap, tele)
            correction = end_to_end_correction(pair1, pair2, swap, tele)
            frame = statevec.apply_pauli(secret, 0, correction)
            assert statevec.fidelity(frame, postselected) >= 1 - 1e-12


def test_qss55_qubit_is_the_secret_under_a_pauli():
    # Its moduli are the secret's, swapped when the correction has an X, bit
    # for bit; and it is the postselected qubit of the run's own pieces.
    for seed, secret in enumerate(random_qubits(200, 55)):
        _, shares = run_qss55(tuple(secret.amplitudes), seed)
        pieces = (shares.pair1_label, shares.pair2_label, shares.swap_bsm, shares.teleport_bsm)
        moduli = np.abs(secret.amplitudes)
        if end_to_end_correction(*pieces).x:
            moduli = moduli[::-1]
        assert np.abs(shares.encrypted_qubit.amplitudes).tobytes() == moduli.tobytes()
        _, postselected = splitting_branch(secret, *pieces)
        assert statevec.fidelity(shares.encrypted_qubit, postselected) >= 1 - 1e-12


def test_qss55_rejects_unnormalised_secret():
    with pytest.raises(ValueError):
        run_qss55((0.9, 0.9), seed=0)


def test_qss55_is_deterministic():
    a, _ = run_qss55((0.6, 0.8j), seed=11)
    b, _ = run_qss55((0.6, 0.8j), seed=11)
    assert a.to_jsonl() == b.to_jsonl()


# ---------------------------------------------------------------------------
# Attack model plumbing.

def test_attack_spec_round_trips():
    for spec in (
        "token-flip",
        "r1-lie:01",
        "r1-lie:10",
        "intercept-resend-computational:split-r2",
        "intercept-resend-bell:split-r1",
        "entangle-ancilla:split-r2",
    ):
        assert AttackModel.from_spec(spec).spec_string == spec
    assert AttackModel.from_spec("intercept-resend-computational").target == "split-r2"
    assert AttackModel.from_spec("intercept-resend-bell").target == "split-r1"
    # A delta given as a list is stored as a tuple, so the model hashes.
    listed = AttackModel("r1-lie", delta=[0, 1])
    assert listed.delta == (0, 1)
    assert listed == AttackModel.from_spec("r1-lie:01")
    assert hash(listed) == hash(AttackModel.from_spec("r1-lie:01"))
    # Any integer bits are stored as two Python ints, so the spec (also the
    # transcript footer's) prints bits.
    for delta in ((True, False), (np.int64(1), np.uint8(0))):
        typed = AttackModel("r1-lie", delta=delta)
        assert typed.spec_string == "r1-lie:10"
        assert typed == AttackModel.from_spec("r1-lie:10")
        assert all(type(bit) is int for bit in typed.delta)


@pytest.mark.parametrize(
    "spec", ["token-flip:", "none:", "intercept-resend-bell:", "r1-lie:", " entangle-ancilla: "]
)
def test_attack_spec_with_nothing_after_its_colon_is_rejected(spec):
    # Without the check these parsed as the kind alone, or with its default
    # target.
    with pytest.raises(ValueError, match=re.escape(f"attack spec {spec!r} has nothing after its ':'")):
        AttackModel.from_spec(spec)


def test_attack_validation():
    with pytest.raises(ValueError):
        AttackModel.from_spec("laser")
    with pytest.raises(ValueError):
        AttackModel.from_spec("r1-lie")
    with pytest.raises(ValueError):
        AttackModel.from_spec("r1-lie:2")
    with pytest.raises(TypeError):
        AttackModel("r1-lie", delta=(1.0, 0))
    with pytest.raises(ValueError):
        AttackModel.from_spec("intercept-resend-bell:split-r2")
    with pytest.raises(ValueError):
        AttackModel.from_spec("token-flip:split-r2")


def test_r1_lie_parity_component_detected():
    for seed in range(16):
        transcript = run_qss22(seed % 2, seed, AttackModel.from_spec("r1-lie:01"))
        assert transcript.outcome == "rejected"
        transcript = run_qss22(seed % 2, seed, AttackModel.from_spec("r1-lie:10"))
        assert transcript.outcome == "accepted"
