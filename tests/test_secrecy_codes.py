"""The secrecy side of the exact pass on 2-bit codes.

Adversary views, the encrypted qubit's mixedness and the token rounds are
read off int codes: views are rank tests on an honest run's int columns
at its basis branches, mixedness twirls the secret's Bloch vector by the Pauli
corrections the unknown pieces XOR-convolve into, and the two token rounds
share one enumeration when their steps agree.  These tests hold each to
the per-case loop it replaced, which is kept here as the reference.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from qsshare import protocol, security, statevec
from qsshare.bell import BELL_LABELS, end_to_end_correction
from qsshare.protocol import RECEIVER_1, RECEIVER_2, AttackModel, mask_tokens, sent_tokens
from qsshare.security import PIECES, VIEW_NAMES, SecrecyReport
import conftest
from conftest import SPECS, branch_table
from test_exact_branches import TOKEN_TARGETS, every_attack, every_branch, symbolic_passes, token_branches


# ---------------------------------------------------------------------------
# Views.

def reference_view_values(view, case):
    # Everything the named view sees in one run, as HonestCase fields.
    token_r1, token_r2 = case.masked_tokens
    public_full = (token_r1, token_r2, case.teleport_bsm)
    if view == "r1-alone":
        return (case.pair1, case.swap_bsm) + public_full
    if view == "r2-alone":
        return (case.pair2, case.cipher_bit, token_r2, case.teleport_bsm)
    if view == "public-only":
        return public_full
    if view == "all-shares":
        return (case.pair1, case.swap_bsm, case.pair2, case.cipher_bit, case.teleport_bsm)
    if view == "r2-with-r1-token":
        return (case.pair2, case.cipher_bit) + public_full
    raise ValueError(f"unknown view {view!r}; known views: {', '.join(VIEW_NAMES)}")


def reference_report(view, values, secrets):
    # The per-case dict count and the Shannon sum over it, which any view
    # has: the sum over view values v and secrets s of
    # p(v, s) log2(p(v, s) / (p(v) p(s))), with p(s) = 1/2.
    counts = {}
    for value, secret in zip(values, secrets):
        counts.setdefault(value, [0, 0])[secret] += 1
    total = len(values)
    information = 0.0
    for c0, c1 in counts.values():
        for c in (c0, c1):
            if c:
                information += (c / total) * math.log2(2 * c / (c0 + c1))
    advantage = Fraction(sum(max(c0, c1) for c0, c1 in counts.values()), total) - Fraction(1, 2)
    return SecrecyReport(view, information, float(advantage), total, True)


@pytest.mark.parametrize("view", VIEW_NAMES)
def test_views_match_the_per_case_dict_count(view):
    cases = security.enumerate_honest_cases()
    values = [reference_view_values(view, case) for case in cases]
    expected = reference_report(view, values, [case.secret for case in cases])
    assert security.mutual_information_22(view) == expected


def test_honest_columns_are_the_honest_cases():
    # An honest run's columns at its 512 branches, in index order.
    columns = every_branch(protocol.NO_ATTACK)
    assert all(len(column) == 512 for column in columns.values())
    rows = [
        (
            case.secret, case.pair1, case.pair2, case.swap_bsm, case.teleport_bsm,
            case.cipher_bit, *case.masked_tokens,
        )
        for case in security.enumerate_honest_cases()
    ]
    names = ("secret", "pair1", "pair2", "swap", "tele", "cipher", "token_r1", "token_r2")
    labels = {"pair1", "pair2", "swap", "tele", "token_r1"}
    coded = zip(*(columns[name].tolist() for name in names))
    assert [
        tuple(BELL_LABELS[value] if name in labels else value for name, value in zip(names, row))
        for row in coded
    ] == rows


def test_honest_cases_hold_the_canonical_labels_in_product_order():
    # Case i is (secret, pair1, pair2, swap, teleport) = i in mixed radix
    # (2, 4, 4, 4, 4), each label the canonical instance of its code.
    cases = security.enumerate_honest_cases()
    assert len(cases) == 512
    for index, case in enumerate(cases):
        secret, *codes = (int(i) for i in np.unravel_index(index, (2, 4, 4, 4, 4)))
        assert type(case) is security.HonestCase
        assert type(case.secret) is int and case.secret == secret
        assert type(case.cipher_bit) is int and case.cipher_bit in (0, 1)
        labels = (case.pair1, case.pair2, case.swap_bsm, case.teleport_bsm)
        assert all(label is BELL_LABELS[code] for label, code in zip(labels, codes))


HONEST = protocol.splitting_steps(protocol.NO_ATTACK, True)


def duplicate_outcomes(linear_map):
    # The second coin flips nothing, so every input's branches come in
    # pairs that repeat their (swap, teleport) outcomes.
    first, _, *rest = linear_map.coins
    return linear_map._replace(coins=(first, 0, *rest))


def drop_branch(linear_map):
    # The last coin is never drawn: half the branches.
    return linear_map._replace(coins=linear_map.coins[:-1])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (duplicate_outcomes, "cipher qubit not collapsed"),
        (drop_branch, "256 honest branches, expected 512"),
    ],
)
def test_honest_columns_check_the_honest_branches(corrupt, message, monkeypatch):
    # Only the splitting map is corrupted: the run's token rounds read
    # their own maps.  The run reads them through protocol's name.
    real = protocol._linear_map
    corrupted = corrupt(real("splitting", HONEST))
    monkeypatch.setattr(
        protocol, "_linear_map", lambda phase, steps: corrupted if phase == "splitting" else real(phase, steps)
    )
    security.enumerate_honest_cases.cache_clear()
    with pytest.raises(AssertionError) as raised:
        security.enumerate_honest_cases()
    assert str(raised.value) == message


def test_honest_columns_hold_equal_shares_by_construction(monkeypatch):
    # The symbolic pass draws d fair coins, so each input's 2^d branches of
    # the honest map are distinct, one equal share each.  The statevec
    # reference keeps the run-time check: with one honest branch at twice
    # its share it refuses the register, while the honest columns, which
    # read the symbolic map, stay the 512 cases.  The double weight is
    # patched into the conftest enumerator, which branch_table reads.
    linear_map = protocol._linear_map("splitting", HONEST)
    assert len(linear_map.coins) == 4
    for index in range(32):
        word = protocol._xor_columns(linear_map.inputs, index)
        assert len({word ^ protocol._xor_columns(linear_map.coins, i) for i in range(16)}) == 16
    cases = security.enumerate_honest_cases()
    real = conftest.enumerate_steps

    def double_weight(state, steps):
        branches = real(state, steps)
        if steps == HONEST:
            p, outcomes = branches[5]
            branches[5] = 2 * p, outcomes
        return branches

    monkeypatch.setattr(conftest, "enumerate_steps", double_weight)
    protocol._linear_map.cache_clear()
    security.enumerate_honest_cases.cache_clear()
    message = r"^branch weights (1/16, ){5}1/8(, 1/16){10} are not 2\^d equal shares$"
    register = protocol.prepare_splitting_register(
        statevec.computational_state([0]), BELL_LABELS[0], BELL_LABELS[0]
    )
    with pytest.raises(AssertionError, match=message):
        branch_table(register, HONEST)
    assert security.enumerate_honest_cases() == cases
    assert all(len(column) == 512 for column in every_branch(protocol.NO_ATTACK).values())


def test_unknown_view_message_is_unchanged():
    with pytest.raises(ValueError) as raised:
        security.mutual_information_22("r3-alone")
    with pytest.raises(ValueError) as expected:
        reference_view_values("r3-alone", security.enumerate_honest_cases()[0])
    assert str(raised.value) == str(expected.value)


def test_unknown_view_is_refused_before_any_map_is_built():
    # A cold ``analyze --view nope`` raises without a symbolic splitting pass.
    protocol._linear_map.cache_clear()
    with pytest.raises(ValueError) as raised:
        security.mutual_information_22("nope")
    assert protocol._linear_map.cache_info().misses == 0
    with pytest.raises(ValueError) as expected:
        reference_view_values("nope", security.enumerate_honest_cases()[0])
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Mixedness.

def reference_mixedness(known=None, secret_amplitudes=security._PROBE_QUBIT):
    # The 4^k loop: one encrypted qubit per assignment of the unknown pieces.
    known = dict(known or {})
    unknown = [p for p in PIECES if p not in known]
    if set(known) - set(PIECES):
        raise ValueError(f"unknown piece names: {sorted(set(known) - set(PIECES))}")
    for name, value in known.items():
        if value not in BELL_LABELS:
            raise ValueError(f"piece {name} must be one of the four 2-bit codes, got {value!r}")
    secret = statevec.single_qubit(*secret_amplitudes)
    accumulated = np.zeros((2, 2), dtype=complex)
    count = 0
    for assignment in product(BELL_LABELS, repeat=len(unknown)):
        pieces = dict(known)
        pieces.update(zip(unknown, assignment))
        correction = end_to_end_correction(*(pieces[p] for p in PIECES))
        encrypted = statevec.apply_pauli(secret, 0, correction)
        accumulated += np.outer(encrypted.amplitudes, encrypted.amplitudes.conj())
        count += 1
    return statevec.trace_distance(accumulated / count, np.eye(2, dtype=complex) / 2)


def random_qubit(rng):
    amplitudes = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes))
    return tuple(a / norm for a in amplitudes)


@pytest.mark.parametrize("size", range(len(PIECES) + 1))
def test_mixedness_matches_the_4k_loop(size):
    rng = random.Random(size)
    secrets = [security._PROBE_QUBIT] + [random_qubit(rng) for _ in range(3)]
    for names in combinations(PIECES, size):
        for _ in range(3):
            known = {name: rng.choice(BELL_LABELS) for name in names}
            for secret in secrets:
                expected = reference_mixedness(known, secret)
                assert abs(security.encrypted_qubit_mixedness_55(known, secret) - expected) <= 1e-15


def test_mixedness_is_exactly_zero_with_any_piece_unknown():
    # The twirl's weighted sign sums are integers that cancel, so no
    # tolerance: the 4^k loop leaves float residues here.  With all four
    # pieces known the qubit is pure and only rounding separates the two.
    rng = random.Random(21)
    secrets = [security._PROBE_QUBIT] + [random_qubit(rng) for _ in range(200)]
    for secret in secrets:
        for size in range(len(PIECES)):
            for names in combinations(PIECES, size):
                known = {name: rng.choice(BELL_LABELS) for name in names}
                assert security.encrypted_qubit_mixedness_55(known, secret) == 0.0, (known, secret)
        known = {name: rng.choice(BELL_LABELS) for name in PIECES}
        expected = reference_mixedness(known, secret)
        assert abs(security.encrypted_qubit_mixedness_55(known, secret) - expected) <= 1e-15


@pytest.mark.parametrize(
    "known",
    [{"pair3": BELL_LABELS[0]}, {"pair1": "00"}, {"pair2": (0, 0)}, {"swap-bsm": 1}],
)
def test_mixedness_validation_messages_are_unchanged(known):
    with pytest.raises(ValueError) as raised:
        security.encrypted_qubit_mixedness_55(known)
    with pytest.raises(ValueError) as expected:
        reference_mixedness(known)
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Token rounds.

def test_token_rounds_with_equal_steps_have_equal_branches():
    attacks = every_attack()
    shared = [
        attack
        for attack in attacks
        if protocol.token_steps("auth-r1", attack) == protocol.token_steps("auth-r2", attack)
    ]
    assert (len(attacks), len(shared)) == (14, 10)
    for attack in shared:
        r1 = token_branches(RECEIVER_1, attack)
        r2 = token_branches(RECEIVER_2, attack)
        assert sorted(r1) == sorted(r2), attack


def test_rates_read_each_round_off_the_token_rows_a_run_draws():
    # The run's columns hold every token round's (code, record) branches,
    # read off its step list's map at the run's pairs: they are the round's
    # statevec branches on its own pairs.  A round's branches are the run's
    # branches where only its own coins vary.
    for attack in every_attack():
        width1, width2, splitting = (len(linear_map.coins) for linear_map in protocol._run_maps(attack))
        run = every_branch(attack)
        for receiver, names, width, shift in (
            (RECEIVER_1, ("pair1", "record1"), width1, width2 + splitting),
            (RECEIVER_2, ("pair2", "record2"), width2, splitting),
        ):
            branches = np.arange(1 << width) << shift
            code, record = (run[name][branches].tolist() for name in names)
            share = Fraction(1, len(code))
            rows = [(share, BELL_LABELS[c], BELL_LABELS[r]) for c, r in zip(code, record)]
            assert sorted(rows) == sorted(token_branches(receiver, attack)), attack


def test_sent_token_codes_are_sent_tokens():
    # mask_tokens on int arrays of codes is the label call on all 128
    # inputs, and the run's token columns are sent_tokens on every branch of
    # every attack model.
    inputs = np.indices((4, 4, 4, 2)).reshape(4, -1)
    masked = np.stack(mask_tokens(*inputs))
    assert masked.shape == (2, 128)
    for (code1, code2, swap, cipher), (token_r1, token_r2) in zip(inputs.T.tolist(), masked.T.tolist()):
        labels = BELL_LABELS[code1], BELL_LABELS[code2], BELL_LABELS[swap]
        assert (BELL_LABELS[token_r1], token_r2) == mask_tokens(*labels, cipher)
    names = ("pair1", "pair2", "swap", "cipher", "token_r1", "token_r2")
    for attack in every_attack():
        run = every_branch(attack)
        columns = [run[name].tolist() for name in names]
        for code1, code2, swap, cipher, token_r1, token_r2 in zip(*columns):
            labels = BELL_LABELS[code1], BELL_LABELS[code2], BELL_LABELS[swap]
            assert (BELL_LABELS[token_r1], token_r2) == sent_tokens(*labels, cipher, attack), attack
    assert any(attack.spec_string == "r1-lie:00" for attack in every_attack())


def test_a_cold_rate_pass_makes_one_symbolic_pass_per_step_list(monkeypatch):
    calls = symbolic_passes(monkeypatch)
    security._splitting_branches.cache_clear()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    token_rounds = [steps for phase, steps in calls if phase == "token"]
    assert len(token_rounds) == len(set(token_rounds)) == 3
    assert all(any(step.name == "code" for step in steps) for steps in token_rounds)
    assert len(calls) - len(token_rounds) == 5  # one per splitting step list
