"""The exact branch sets behind the secrecy and detection-rate claims.

``protocol`` writes each phase once as a step list, and one symbolic
stabilizer pass per step list builds its branch table for all of the
phase's inputs, each input bit a sign symbol of that pass: the 32
(secret, pair1, pair2) inputs of the splitting phase and the 16
(pair_a, pair_b) inputs of a token round.
Every seeded run indexes that table, and the exact analysis reads it.  The
statevec enumerator is the independent reference.  These tests pin the
enumerator's splitting and token-phase branches, per attack spec, to a walk
written here that projects one outcome label at a time; check the table
draws against a plain-register Born sampler written here and against the
enumerator on every step list; check each input's rows of the stacked
tables against the branch table of that input's own register, on the
attack step lists and on random ones; check the (5,5) run's draw and its
Pauli-frame cipher qubit against that sampler on qubit secrets; check
every coin sequence of a full run against the exact detection rate; check
the integer-coded detection rate against a per-branch loop written here
and its acceptance table against the rule it tabulates; check that every
input moves the all-zero input's rows by the flips its pieces predict, on
every step list; count the symbolic passes a process makes; check the
dyadic snap that turns the enumerator's Born probabilities into
rationals; and check that a cold exact pass keeps no state beyond the
package's lru caches.
"""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsshare import protocol, security, statevec
from qsshare.bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    PHI_PLUS,
    end_to_end_correction,
    infer_remote_bsm,
)
from qsshare.protocol import NO_ATTACK, AttackModel
from conftest import branch_table, equal_shares

# The 13 attack specs of the README table.
SPECS = (
    "none",
    "token-flip",
    "r1-lie:01",
    "r1-lie:11",
    "r1-lie:10",
    "intercept-resend-computational:auth-r1",
    "intercept-resend-computational:auth-r2",
    "intercept-resend-computational:split-r1",
    "intercept-resend-computational:split-r2",
    "intercept-resend-bell:auth-r1",
    "intercept-resend-bell:auth-r2",
    "intercept-resend-bell:split-r1",
    "entangle-ancilla:split-r2",
)

# The attack spec behind each eavesdropper measurement the reference walks
# below insert: None is the honest splitting phase.
SPLITTING_SPECS = {
    None: "none",
    "comp-r1": "intercept-resend-computational:split-r1",
    "comp-r2": "intercept-resend-computational:split-r2",
    "bell-r1": "intercept-resend-bell:split-r1",
    "ancilla-r2": "entangle-ancilla:split-r2",
}
TOKEN_SPECS = {"computational": "intercept-resend-computational", "bell": "intercept-resend-bell"}
TOKEN_TARGETS = {protocol.RECEIVER_1: "auth-r1", protocol.RECEIVER_2: "auth-r2"}


def snap(probability):
    # Every conditional probability of these circuits is a multiple of 1/64.
    fraction = Fraction(round(probability * 64), 64)
    assert abs(probability - float(fraction)) < 1e-12
    return fraction


def walk(state, steps):
    """Every (probability, outcomes) of the measurements in ``steps``, one
    projection per outcome label, in the order the labels are listed."""
    if not steps:
        yield Fraction(1), ()
        return
    step, rest = steps[0], steps[1:]
    if step[0] == "bell":
        projections = [
            (label, statevec.bell_project(state, step[1], step[2], label)) for label in BELL_LABELS
        ]
    else:
        projections = [
            (bit, statevec.project_computational(state, step[1], bit)) for bit in (0, 1)
        ]
    for outcome, (p, after) in projections:
        if after is None:
            continue
        for p_rest, outcomes in walk(after, rest):
            yield snap(p) * p_rest, (outcome,) + outcomes


def reference_splitting(secret, pair1, pair2, intercept):
    secret_state = statevec.computational_state([secret])
    state = protocol.prepare_splitting_register(secret_state, pair1, pair2)
    eve = {
        None: [],
        "comp-r1": [("z", 2), ("z", 3)],
        "comp-r2": [("z", 4)],
        "bell-r1": [("bell", 2, 3)],
        "ancilla-r2": [],
    }[intercept]
    if intercept == "ancilla-r2":
        state = statevec.apply_cnot(statevec.tensor(state, statevec.zero_state(1)), 4, 5)
    branches = []
    for p, outcomes in walk(state, eve + [("bell", 2, 3), ("bell", 0, 1), ("z", 4)]):
        swap, tele, cipher = outcomes[-3:]
        if p:
            branches.append((p, swap, tele, cipher))
    return tuple(branches)


def reference_token_phase(pair_a, pair_b, intercept):
    state = protocol.prepare_token_register(pair_a, pair_b)
    eve = {"computational": [("z", 1), ("z", 2)], "bell": [("bell", 1, 2)]}[intercept]
    branches = []
    for p, outcomes in walk(state, eve + [("bell", 1, 2), ("bell", 0, 3)]):
        code, observed = outcomes[-2:]
        if p:
            record = infer_remote_bsm(pair_a, pair_b, observed)
            branches.append((p, code, record))
    return tuple(branches)


@pytest.mark.parametrize("intercept", SPLITTING_SPECS)
def test_splitting_branches_match_per_label_walk(intercept):
    steps = protocol.splitting_steps(AttackModel.from_spec(SPLITTING_SPECS[intercept]), True)
    for secret, pair1, pair2 in product((0, 1), BELL_LABELS, BELL_LABELS):
        branches = protocol.splitting_branches(secret, pair1, pair2, steps)
        assert branches == reference_splitting(secret, pair1, pair2, intercept)
        assert all(type(p) is Fraction for p, *_ in branches)
        assert sum(p for p, *_ in branches) == Fraction(1)


@pytest.mark.parametrize("receiver", [protocol.RECEIVER_1, protocol.RECEIVER_2])
@pytest.mark.parametrize("intercept", TOKEN_SPECS)
def test_token_phase_branches_match_per_label_walk(receiver, intercept):
    attack = AttackModel.from_spec(f"{TOKEN_SPECS[intercept]}:{TOKEN_TARGETS[receiver]}")
    pair_a, pair_b = protocol.DEFAULT_AUTH_PAIRS[receiver]
    branches = tuple(protocol.token_branches(receiver, attack))
    assert branches == reference_token_phase(pair_a, pair_b, intercept)
    assert all(type(p) is Fraction for p, *_ in branches)
    assert sum(p for p, *_ in branches) == Fraction(1)


def test_honest_cases_follow_the_splitting_branches():
    cases = security.enumerate_honest_cases()
    expected = list(product((0, 1), BELL_LABELS, BELL_LABELS, BSM_OUTCOMES, BSM_OUTCOMES))
    assert [(c.secret, c.pair1, c.pair2, c.swap_bsm, c.teleport_bsm) for c in cases] == expected
    honest = protocol.splitting_steps(NO_ATTACK, True)
    for case in cases:
        branches = protocol.splitting_branches(case.secret, case.pair1, case.pair2, honest)
        assert (Fraction(1, 16), case.swap_bsm, case.teleport_bsm, case.cipher_bit) in branches


# ---------------------------------------------------------------------------
# The sampler against the enumerator.

class OutOfCoins(Exception):
    pass


class ScriptedCoins:
    """Generator stand-in that answers a script of fair coins: 0.25 reads
    as 1 and 0.75 as 0 against a Born probability of one half."""

    def __init__(self, script):
        self.script = iter(script)

    def random(self):
        for coin in self.script:
            return coin
        raise OutOfCoins


def coin_sequences(run):
    """``run(rng)``'s result for every script of fair coins it can read,
    keyed by the script."""
    results = {}
    pending = [()]
    while pending:
        script = pending.pop()
        try:
            results[script] = run(ScriptedCoins(script))
        except OutOfCoins:
            pending += [script + (0.25,), script + (0.75,)]
    return results


def weighted(sequences):
    """Each set of outcomes, weighted 2^-coins by the fair coins drawn."""
    leaves = {}
    for script, results in sequences.items():
        leaf = frozenset(results.items())
        leaves[leaf] = leaves.get(leaf, 0) + Fraction(1, 2 ** len(script))
    return leaves


def sample_steps(state, steps, rng):
    """Runs ``steps`` on the plain register ``state``, drawing each outcome
    with statevec's Born sampler; returns the outcomes by name and the
    final state."""
    outcomes = []
    for kind, qubits, _ in steps:
        if kind == "bell":
            outcome, state = statevec.bell_measure(state, *qubits, rng)
        elif kind == "z":
            outcome, state = statevec.measure_computational(state, *qubits, rng)
        else:
            state = protocol._attach_ancilla(state)
            continue
        outcomes.append(outcome)
    return protocol._named(steps, tuple(outcomes)), state


def enumerated(state, steps):
    branches = protocol._enumerate_steps(state, steps)
    leaves = {frozenset(protocol._named(steps, outcomes).items()): p for p, outcomes in branches}
    assert len(leaves) == len(branches)
    return leaves


def assert_readers_agree(state, steps, draw):
    drawn = coin_sequences(draw)
    sampled = coin_sequences(lambda rng: sample_steps(state, steps, rng)[0])
    # The same coins, in the same order, lead both to the same outcomes.
    assert drawn == sampled
    assert weighted(drawn) == enumerated(state, steps)


def test_sampler_and_enumerator_agree_on_every_step_list():
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    token_lists = {protocol.token_steps(t, a) for a in attacks for t in ("auth-r1", "auth-r2")}
    splitting_lists = {protocol.splitting_steps(a, True) for a in attacks}
    assert (len(token_lists), len(splitting_lists)) == (3, 5)
    for steps, (pair_a, pair_b) in product(token_lists, product(BELL_LABELS, repeat=2)):
        assert_readers_agree(
            protocol.prepare_token_register(pair_a, pair_b),
            steps,
            lambda rng: protocol._draw_named("token", steps, (pair_a, pair_b), rng),
        )
    for steps, secret, pair1, pair2 in product(splitting_lists, (0, 1), BELL_LABELS, BELL_LABELS):
        assert_readers_agree(
            splitting_register(secret, pair1, pair2),
            steps,
            lambda rng: protocol._draw_named("splitting", steps, (secret, pair1, pair2), rng),
        )


def random_qubits(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        amplitudes = rng.normal(size=2) + 1j * rng.normal(size=2)
        yield statevec.single_qubit(*amplitudes / np.linalg.norm(amplitudes))


def test_swap_and_teleport_outcomes_are_uniform_for_any_qubit_secret():
    # Why the (5,5) run may draw from the table of secret 0: the joint outcome
    # distribution does not depend on the secret.
    rng = np.random.default_rng(16)
    for secret in random_qubits(240, 1995):
        pair1, pair2 = (BELL_LABELS[i] for i in rng.integers(4, size=2))
        state = protocol.prepare_splitting_register(secret, pair1, pair2)
        joint = statevec.joint_distribution(state, [(2, 3), (0, 1)])
        assert np.abs(joint - 1 / 16).max() < 1e-12


def stacked_rows(phase, steps, inputs):
    """The input's rows of the phase's stacked table, by name, read through
    the run's draw: row i is what the coins of i's bits, most significant
    first, draw."""
    count = protocol._stacked_branches(phase, steps).shape[-2]
    coins = count.bit_length() - 1
    return [
        protocol._draw_named(
            phase,
            steps,
            inputs,
            ScriptedCoins(0.25 if i >> k & 1 else 0.75 for k in reversed(range(coins))),
        )
        for i in range(count)
    ]


def test_every_pair_has_the_reference_no_cipher_table():
    # Why the (5,5) run may index the table at secret bit 0 whatever its
    # qubit: without the cipher step, every input's rows are the same 16
    # (swap, teleport) rows in the same order, each input's own register's
    # branch table.
    steps = protocol.splitting_steps(NO_ATTACK, False)
    table = protocol._stacked_branches("splitting", steps)
    assert table.shape == (2, 4, 4, 16, 2)
    assert (table == table[0, 0, 0]).all()
    for inputs in product((0, 1), BELL_LABELS, BELL_LABELS):
        expected = branch_table(splitting_register(*inputs), steps)
        assert stacked_rows("splitting", steps, inputs) == list(expected)


def test_qss55_draw_and_postselection_match_the_sampler():
    # Every coin sequence leads the run's draw from the splitting table at
    # its pair codes and the Born sampler on the run's own register to the
    # same outcomes, and the run's Pauli-frame qubit is the sampler's R2
    # qubit up to global phase.
    steps = protocol.splitting_steps(NO_ATTACK, False)
    secrets = list(random_qubits(3, 1993))
    for (pair1, pair2), secret in product(product(BELL_LABELS, repeat=2), secrets):
        state = protocol.prepare_splitting_register(secret, pair1, pair2)

        def drawn(rng):
            results = protocol._draw_named("splitting", steps, (0, pair1, pair2), rng)
            correction = end_to_end_correction(pair1, pair2, results["swap"], results["tele"])
            return dict(results), statevec.apply_pauli(secret, 0, correction)

        def sampled(rng):
            results, after = sample_steps(state, steps, rng)
            return results, statevec.extract_pure_qubit(after, 4)

        draws, samples = coin_sequences(drawn), coin_sequences(sampled)
        assert len(draws) == 16 and all(len(script) == 4 for script in draws)
        assert draws.keys() == samples.keys()
        for script, (results, qubit) in draws.items():
            assert results == samples[script][0]
            assert statevec.fidelity(qubit, samples[script][1]) >= 1 - 1e-12


@pytest.mark.parametrize("spec", SPECS)
def test_every_coin_sequence_of_a_run_sums_to_the_exact_rate(spec, monkeypatch):
    # The run's acceptance glue as well as its phases: each scripted run is
    # one leaf of the whole run, weighted 2^-coins.
    attack = AttackModel.from_spec(spec)
    rejected = Fraction(0)
    for secret in (0, 1):

        def run(rng):
            monkeypatch.setattr(protocol, "make_rng", lambda seed: rng)
            return protocol.run_qss22(secret, 0, attack).outcome

        for script, outcome in coin_sequences(run).items():
            if outcome == "rejected":
                rejected += Fraction(1, 2 ** len(script))
    assert rejected / 2 == security.exact_detection_rate(attack)


# ---------------------------------------------------------------------------
# The integer-coded detection rate against the per-branch loop.

def reference_detection_rate(attack):
    """The detection rate summed branch by branch: every (R1 token branch,
    R2 token branch, secret, splitting branch) decided by
    ``verify_authentication`` and weighted by its ``Fraction``."""
    token_r1 = protocol.token_branches(protocol.RECEIVER_1, attack)
    token_r2 = protocol.token_branches(protocol.RECEIVER_2, attack)
    steps = protocol.splitting_steps(attack, True)
    total = Fraction(0)
    for (p1, code1, record1), (p2, code2, record2) in product(token_r1, token_r2):
        for secret in (0, 1):
            rejected = 0
            splitting = protocol.splitting_branches(secret, record1, record2, steps)
            for p, swap, tele, cipher in splitting:
                sent_r1, sent_r2 = protocol.sent_tokens(code1, code2, swap, cipher, attack)
                records = protocol.SenderRecords(record1, record2, tele, secret)
                if not protocol.verify_authentication(records, (sent_r1.z, sent_r1.x), sent_r2):
                    rejected += p
            total += p1 * p2 * rejected
    return total / 2


@pytest.mark.parametrize("spec", SPECS + ("r1-lie:00",))
def test_exact_rate_equals_the_per_branch_loop_cold_and_warm(spec):
    attack = AttackModel.from_spec(spec)
    expected = reference_detection_rate(attack)
    security._splitting_branches.cache_clear()
    cold = security.exact_detection_rate(attack)
    warm = security.exact_detection_rate(attack)
    assert type(cold) is type(warm) is Fraction
    assert cold == warm == expected


def test_stacked_splitting_branches_match_the_enumerator():
    # Each input's rows of the stacked table, the eavesdropper's outcomes
    # included, are the branch table of the input's own register, row for
    # row and in order: 320 tables, 10 step lists by 32 inputs.
    attacks = [AttackModel.from_spec(spec) for spec in SPECS + ("r1-lie:00",)]
    lists = {protocol.splitting_steps(a, cipher) for a in attacks for cipher in (True, False)}
    assert len(lists) == 10
    for steps in lists:
        table = protocol._stacked_branches("splitting", steps)
        measured = sum(step.kind != "ancilla" for step in steps)
        assert table.shape == (2, 4, 4, table.shape[3], measured)
        assert table.dtype == np.int64 and not table.flags.writeable
        for inputs in product((0, 1), BELL_LABELS, BELL_LABELS):
            expected = branch_table(splitting_register(*inputs), steps)
            assert stacked_rows("splitting", steps, inputs) == list(expected)


def token_step_lists():
    lists = {
        protocol.token_steps(target, AttackModel.from_spec(spec))
        for spec in SPECS
        for target in TOKEN_TARGETS.values()
    }
    assert len(lists) == 3
    return lists


def test_stacked_token_branches_match_the_enumerator():
    # Each (pair_a, pair_b)'s rows of the stacked token table, the
    # eavesdropper's outcomes included, are the branch table of that pair's
    # own register, row for row and in order: 48 tables, 3 step lists by 16
    # pairs.
    for steps in token_step_lists():
        table = protocol._stacked_branches("token", steps)
        measured = sum(step.kind != "ancilla" for step in steps)
        assert table.shape == (4, 4, table.shape[2], measured)
        assert table.dtype == np.int64 and not table.flags.writeable
        for inputs in product(BELL_LABELS, repeat=2):
            expected = branch_table(protocol.prepare_token_register(*inputs), steps)
            assert stacked_rows("token", steps, inputs) == list(expected)


def every_attack():
    """Every valid attack model: each kind with each target it allows and,
    for r1-lie, each delta."""
    for kind, target, delta in product(
        protocol.ATTACK_KINDS,
        (None,) + protocol.QUANTUM_SEND_TARGETS,
        (None,) + tuple(product((0, 1), repeat=2)),
    ):
        try:
            yield AttackModel(kind, target, delta)
        except ValueError:
            pass


def splitting_register(secret, pair1, pair2):
    return protocol.prepare_splitting_register(
        statevec.computational_state([secret]), pair1, pair2
    )


def assert_rows_move_by(phase, steps, register, inputs, flips):
    """The input's rows of the stacked table are the all-zero input's rows,
    each measurement XORed with its flip in ``flips`` (by step name; any
    other step reads as at zero), and the 2^d equally likely branches of
    the statevec enumerator on the input's own register, as row sets."""
    table = protocol._stacked_branches(phase, steps)
    names = [step.name for step in steps if step.kind != "ancilla"]
    moved = np.array([protocol._code(flips.get(name, 0)) for name in names])
    rows = sorted(map(tuple, table[tuple(map(protocol._code, inputs))].tolist()))
    assert rows == sorted(map(tuple, (table[(0,) * len(inputs)] ^ moved).tolist()))
    enumerated = [tuple(map(protocol._code, outcomes)) for outcomes in equal_shares(register, steps)]
    assert rows == sorted(enumerated)


def test_pauli_frame_matches_the_enumerator_on_every_step_list():
    # A computational secret s and each pair's label are sign symbols of the
    # one pass; on every step list they move the outcomes of (0, Φ+, Φ+) as
    # the pieces' Pauli frame predicts: swap by Φ+, teleport by s ^ pair1
    # (s as X), and the cipher bit by pair2's x bit, as does an
    # eavesdropper's reading of the cipher qubit or of its ancilla copy.
    lists = {protocol.splitting_steps(attack, True) for attack in every_attack()}
    assert lists == {protocol.splitting_steps(AttackModel.from_spec(s), True) for s in SPECS}
    assert len(lists) == 5
    for spec, secret, pair1, pair2 in product(
        SPLITTING_SPECS.values(), (0, 1), BELL_LABELS, BELL_LABELS
    ):
        steps = protocol.splitting_steps(AttackModel.from_spec(spec), True)
        flips = {"swap": PHI_PLUS, "tele": BELL_LABELS[secret] ^ pair1, "cipher": pair2.x}
        flips["eve"] = pair2.x if spec.endswith("split-r2") else 0
        register = splitting_register(secret, pair1, pair2)
        assert_rows_move_by("splitting", steps, register, (secret, pair1, pair2), flips)


def test_token_frame_flips_only_the_observed_outcome():
    # On the token register the pairs' symbols sign only generators on
    # qubits 0 and 3, which only the sender's measurement reads: it moves by
    # pair_a ^ pair_b, and the receiver's code and every intercept outcome
    # read as on (Φ+, Φ+).  exact_detection_rate relies on this.
    targets = TOKEN_TARGETS.values()
    lists = {protocol.token_steps(target, attack) for attack in every_attack() for target in targets}
    assert lists == token_step_lists()
    for steps, (pair_a, pair_b) in product(lists, product(BELL_LABELS, repeat=2)):
        register = protocol.prepare_token_register(pair_a, pair_b)
        assert_rows_move_by("token", steps, register, (pair_a, pair_b), {"observed": pair_a ^ pair_b})


# ---------------------------------------------------------------------------
# The symbolic pass against the statevec enumerator.

# Each phase's register at given inputs, and its inputs in table order.
PHASE_INPUTS = {
    "token": (protocol.prepare_token_register, (BELL_LABELS, BELL_LABELS)),
    "splitting": (splitting_register, ((0, 1), BELL_LABELS, BELL_LABELS)),
}


@st.composite
def step_lists(draw):
    """A phase and a step list on its reference register: ``z`` and
    ``bell`` steps on any qubits, pairs repeated and overlapping, and on the
    splitting register (whose qubit 4 the ancilla's CNOT reads) with or
    without a leading ancilla step."""
    phase = draw(st.sampled_from(tuple(PHASE_INPUTS)))
    ancilla = phase == "splitting" and draw(st.booleans())
    qubit = st.integers(0, 5 if ancilla else 3 if phase == "token" else 4)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
    steps = [protocol.Step("ancilla")] if ancilla else []
    kinds = draw(st.lists(st.sampled_from(("z", "bell")), min_size=1, max_size=6))
    for i, kind in enumerate(kinds):
        qubits = draw(pair) if kind == "bell" else (draw(qubit),)
        steps.append(protocol.Step(kind, qubits, f"m{i}"))
    return phase, tuple(steps)


@settings(max_examples=60)
@given(step_lists())
def test_symbolic_tables_match_the_enumerator_on_random_step_lists(case):
    # Every input's rows of the symbolic table are the statevec branch table
    # of that input's own register, row for row and in order.
    phase, steps = case
    register, inputs = PHASE_INPUTS[phase]
    for values in product(*inputs):
        assert stacked_rows(phase, steps, values) == list(branch_table(register(*values), steps))


def symbolic_passes(monkeypatch):
    """The (phase, steps) of every symbolic pass from here on; the statevec
    enumerator raises if anything calls it."""
    calls = []
    real = protocol._coin_parities

    def counted(phase, steps):
        calls.append((phase, steps))
        return real(phase, steps)

    def forbidden(*args):
        raise AssertionError("a branch table enumerated a register")

    monkeypatch.setattr(protocol, "_coin_parities", counted)
    monkeypatch.setattr(protocol, "_enumerate_steps", forbidden)
    return calls


def test_stacked_branches_make_one_symbolic_pass_per_step_list(monkeypatch):
    calls = symbolic_passes(monkeypatch)
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    lists = {("splitting", protocol.splitting_steps(attack, True)) for attack in attacks}
    lists |= {("token", steps) for steps in token_step_lists()}
    protocol._stacked_branches.cache_clear()
    for phase, steps in lists:
        calls.clear()
        protocol._stacked_branches(phase, steps)
        assert calls == [(phase, steps)]


def test_runs_and_exact_rates_pass_six_splitting_step_lists(monkeypatch):
    # In one process, qss22 runs under the 13 specs with either secret, a
    # qss55 run and the 13 exact rates read one splitting table per step
    # list, so they make one symbolic pass each: the 5 step lists that
    # measure the cipher qubit and qss55's, which does not.
    calls = symbolic_passes(monkeypatch)
    for module in (protocol, security):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack, secret in product(attacks, (0, 1)):
        protocol.run_qss22(secret, 7, attack)
    protocol.run_qss55((0.6, 0.8j), 7)
    for attack in attacks:
        security.exact_detection_rate(attack)
    splitting = [steps for phase, steps in calls if phase == "splitting"]
    assert len(splitting) == len(set(splitting)) == 6
    assert sum(not any(step.name == "cipher" for step in steps) for steps in splitting) == 1
    assert security._splitting_branches is protocol._stacked_branches


def test_cold_rates_pass_three_token_step_lists_and_runs_none(monkeypatch):
    # The 13 exact rates read one stacked token table per token step list,
    # so a cold pass makes one symbolic token pass each and prepares no
    # token register; qss22 runs under the same specs then read those
    # tables and make no pass.
    calls = symbolic_passes(monkeypatch)
    prepared = []
    monkeypatch.setattr(protocol, "prepare_token_register", lambda *pairs: prepared.append(pairs))
    protocol._stacked_branches.cache_clear()
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack in attacks:
        security.exact_detection_rate(attack)
    token = [steps for phase, steps in calls if phase == "token"]
    assert len(token) == len(set(token)) == 3
    assert set(token) == token_step_lists()
    for attack, seed in product(attacks, range(20)):
        protocol.run_qss22(seed % 2, seed, attack)
    assert len([phase for phase, _ in calls if phase == "token"]) == 3
    assert prepared == []


def test_accept_table_is_the_sender_rule():
    accept = security._ACCEPT
    assert accept.shape == (4, 4, 4, 2, 4, 2) and accept.dtype == bool
    for index in product(range(4), range(4), range(4), (0, 1), range(4), (0, 1)):
        record1, record2, tele, secret, token_r1, token_r2 = index
        records = protocol.SenderRecords(
            BELL_LABELS[record1], BELL_LABELS[record2], BELL_LABELS[tele], secret
        )
        token = (BELL_LABELS[token_r1].z, BELL_LABELS[token_r1].x)
        assert accept[index] == protocol.verify_authentication(records, token, token_r2)


def test_acceptance_does_not_depend_on_the_r1_record():
    # Unmasking R1's token and the end-to-end correction each XOR R1's
    # stored code in once, so it cancels: R1's code reaches the check only
    # through R1's own token.  R2's stored code does not cancel.
    accept = security._ACCEPT
    assert (accept == accept[:1]).all()
    assert not (accept == accept[:, :1]).all()


def test_exact_rates_make_no_verify_authentication_call(monkeypatch):
    calls = []
    real = protocol.verify_authentication

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(protocol, "verify_authentication", counted)
    monkeypatch.setattr(security, "verify_authentication", counted)
    security._splitting_branches.cache_clear()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    assert calls == []


def test_security_leaves_the_circuits_to_protocol():
    source = inspect.getsource(security)
    for name in ("prepare_splitting_register", "project_computational", "bell_project"):
        assert name not in source


# ---------------------------------------------------------------------------
# Dyadic snap.

@pytest.mark.parametrize("probability", [1 / 3, 0.25 + 1e-9])
def test_dyadic_snap_rejects_off_grid_probabilities(probability):
    with pytest.raises(AssertionError):
        protocol._dyadic(probability, 5)


@pytest.mark.parametrize("probability", [0.25 - 1e-15, 0.25, 0.25 + 1e-15])
def test_dyadic_snap_accepts_float_residue(probability):
    assert protocol._dyadic(probability, 5) == Fraction(1, 4)


def test_no_limit_denominator_in_security():
    assert "limit_denominator" not in inspect.getsource(security)
    assert "limit_denominator" not in inspect.getsource(protocol)


# ---------------------------------------------------------------------------
# Cold passes.

COLD_PASSES = """
from qsshare import bell, security, statevec
from qsshare.protocol import AttackModel

SPECS = {specs!r}
CACHES = (
    bell.generate_teleport_table,
    bell.generate_swap_table,
    security.enumerate_honest_cases,
    security._splitting_branches,
)
calls = 0
real = statevec.apply_hadamard

def counted(state, q):
    global calls
    calls += 1
    return real(state, q)

statevec.apply_hadamard = counted
counts = []
for _ in range(2):
    calls = 0
    for cache in CACHES:
        cache.cache_clear()
    bell.diff_teleport_table(bell.generate_teleport_table())
    bell.diff_swap_table(bell.generate_swap_table())
    for view in security.VIEW_NAMES:
        security.mutual_information_22(view)
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    security.encrypted_qubit_mixedness_55()
    counts.append(calls)
print(*counts)
"""


def test_cold_exact_passes_keep_no_state_beyond_the_lru_caches():
    # A fresh interpreter, so that nothing an earlier test ran is warm.
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", COLD_PASSES.format(specs=SPECS)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    first, second = map(int, result.stdout.split())
    assert first == second > 0
