"""The exact branch sets behind the secrecy and detection-rate claims.

``protocol`` writes each phase once as a step list, and one symbolic
stabilizer pass per step list gives its linear map over GF(2) for all of
the phase's inputs, each input bit a sign symbol of that pass: the 32
(secret, pair1, pair2) inputs of the splitting phase and the 16
(pair_a, pair_b) inputs of a token round.  Every seeded run draws from
that map, and the exact analysis reads it.  The statevec enumerator of
``conftest`` is the independent reference, and the sorted table expansion
the maps replaced (``conftest.stacked_table``) a second one.  These tests
pin each input's branches of the splitting and token-phase maps, per
intercept, to the enumerator run on step lists written here by hand; check
the map draws against a plain-register Born sampler written here and
against the enumerator on every step list; check each input's branches,
read through the run's draw, against the branch table of that input's own
register and against the table expansion, on the attack step lists and on
random ones; check the (5,5) run's draw and its Pauli-frame cipher qubit
against that sampler on qubit secrets; check every coin sequence of a full
run against the exact detection rate; check the run's int columns and the
detection rate read off them against a per-branch loop written here, and
the acceptance table against the rule it tabulates; check that every input
moves the all-zero input's branches by the flips its pieces predict, on
every step list; count the symbolic passes a process makes; check that no
module of the package snaps a float to a rational; and check that a cold
exact pass keeps no state beyond the package's lru caches.
"""

import inspect
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsshare
from qsshare import protocol, security, stabilizer, statevec
from qsshare.bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    PHI_PLUS,
    end_to_end_correction,
    infer_remote_bsm,
)
from qsshare.protocol import NO_ATTACK, AttackModel, Step
from conftest import (
    SPECS,
    attach_ancilla,
    branch_table,
    enumerate_steps,
    equal_shares,
    named,
    run_fresh,
    stacked_table,
)

# The attack spec behind each eavesdropper intercept: None is the honest
# splitting phase.
SPLITTING_SPECS = {
    None: "none",
    "comp-r1": "intercept-resend-computational:split-r1",
    "comp-r2": "intercept-resend-computational:split-r2",
    "bell-r1": "intercept-resend-bell:split-r1",
    "ancilla-r2": "entangle-ancilla:split-r2",
}
TOKEN_SPECS = {"computational": "intercept-resend-computational", "bell": "intercept-resend-bell"}
TOKEN_TARGETS = {protocol.RECEIVER_1: "auth-r1", protocol.RECEIVER_2: "auth-r2"}


# Each intercept's splitting steps and token-round intercept, written here
# by hand on the phase's register, not read off protocol's step lists.
SWAP, TELE, CIPHER = Step("bell", (2, 3), "swap"), Step("bell", (0, 1), "tele"), Step("z", (4,), "cipher")
CODE, OBSERVED = Step("bell", (1, 2), "code"), Step("bell", (0, 3), "observed")
HAND_SPLITTING_STEPS = {
    None: (SWAP, TELE, CIPHER),
    "comp-r1": (Step("z", (2,), "eve"), Step("z", (3,), "eve"), SWAP, TELE, CIPHER),
    "comp-r2": (Step("z", (4,), "eve"), SWAP, TELE, CIPHER),
    "bell-r1": (Step("bell", (2, 3), "eve"), SWAP, TELE, CIPHER),
    "ancilla-r2": (Step("ancilla"), SWAP, TELE, CIPHER, Step("z", (5,), "eve")),
}
HAND_TOKEN_INTERCEPTS = {
    "computational": (Step("z", (1,), "eve"), Step("z", (2,), "eve")),
    "bell": (Step("bell", (1, 2), "eve"),),
}


def positions(steps, *names):
    # Where the outcome of each named step sits among the measurements.
    measured = [step.name for step in steps if step.kind != "ancilla"]
    return [measured.index(name) for name in names]


def splitting_branches(secret, pair1, pair2, steps):
    """Every (probability, swap, teleport, cipher) branch of the splitting
    ``steps`` (cipher measured) on the input's own register, by the statevec
    enumerator."""
    swap, tele, cipher = positions(steps, "swap", "tele", "cipher")
    return tuple(
        (p, outcomes[swap], outcomes[tele], outcomes[cipher])
        for p, outcomes in enumerate_steps(splitting_register(secret, pair1, pair2), steps)
    )


def token_branches(receiver, attack):
    """Every (probability, receiver's code, sender's record) branch of the
    receiver's token round on the default pairs under the attack, by the
    statevec enumerator on that pair's own register."""
    pair_a, pair_b = protocol.DEFAULT_AUTH_PAIRS[receiver]
    steps = protocol.token_steps(TOKEN_TARGETS[receiver], attack)
    code, observed = positions(steps, "code", "observed")
    return [
        (p, outcomes[code], infer_remote_bsm(pair_a, pair_b, outcomes[observed]))
        for p, outcomes in enumerate_steps(protocol.prepare_token_register(pair_a, pair_b), steps)
    ]


@pytest.mark.parametrize("intercept", SPLITTING_SPECS)
def test_splitting_branches_match_per_label_walk(intercept):
    # Each input's branches of the intercept's splitting map, in draw order,
    # are the equally likely branches, sorted by bits, of the steps written
    # above on that input's own register, each outcome projected one label
    # at a time.
    steps = protocol.splitting_steps(AttackModel.from_spec(SPLITTING_SPECS[intercept]))
    for inputs in product((0, 1), BELL_LABELS, BELL_LABELS):
        expected = branch_table(splitting_register(*inputs), HAND_SPLITTING_STEPS[intercept])
        assert drawn_rows("splitting", steps, inputs) == list(expected)


@pytest.mark.parametrize("receiver", [protocol.RECEIVER_1, protocol.RECEIVER_2])
@pytest.mark.parametrize("intercept", TOKEN_SPECS)
def test_token_phase_branches_match_per_label_walk(receiver, intercept):
    # The same for each (pair_a, pair_b)'s branches of the intercepted
    # round's token map: the intercept written above, then the receiver's
    # and the sender's Bell measurements.
    target = TOKEN_TARGETS[receiver]
    steps = protocol.token_steps(target, AttackModel.from_spec(f"{TOKEN_SPECS[intercept]}:{target}"))
    hand = HAND_TOKEN_INTERCEPTS[intercept] + (CODE, OBSERVED)
    for inputs in product(BELL_LABELS, repeat=2):
        expected = branch_table(protocol.prepare_token_register(*inputs), hand)
        assert drawn_rows("token", steps, inputs) == list(expected)


def test_honest_cases_follow_the_splitting_branches():
    cases = security.enumerate_honest_cases()
    expected = list(product((0, 1), BELL_LABELS, BELL_LABELS, BSM_OUTCOMES, BSM_OUTCOMES))
    assert [(c.secret, c.pair1, c.pair2, c.swap_bsm, c.teleport_bsm) for c in cases] == expected
    honest = protocol.splitting_steps(NO_ATTACK)
    for case in cases:
        branches = splitting_branches(case.secret, case.pair1, case.pair2, honest)
        assert (Fraction(1, 16), case.swap_bsm, case.teleport_bsm, case.cipher_bit) in branches


# ---------------------------------------------------------------------------
# The sampler against the enumerator.

class OutOfCoins(Exception):
    pass


# The two raw words a script holds: a coin of a run's draw is 1 for a word
# below 2^63, and the uniform numpy makes of a word, (w >> 11) * 2^-53, is
# 0.25 for ONE and 0.75 for ZERO against a Born probability of one half.
ONE, ZERO = 1 << 62, 3 << 62


class ScriptedCoins:
    """``protocol.make_rng`` stand-in that answers a script of raw words:
    ``random_raw(d)`` reads the next d words as a run's draw does, and
    ``random()`` the next word as numpy's uniform, as statevec's Born
    sampler does.  Reading past the script's end raises OutOfCoins."""

    def __init__(self, script):
        self.script = list(script)
        self.read = 0

    def random_raw(self, size):
        if self.read + size > len(self.script):
            raise OutOfCoins
        self.read += size
        return np.array(self.script[self.read - size : self.read], dtype=np.uint64)

    def random(self):
        return (int(self.random_raw(1)[0]) >> 11) * 2.0**-53


def coin_sequences(run):
    """``run(rng)``'s result for every script of words it can read, keyed
    by the script."""
    results = {}
    pending = [()]
    while pending:
        script = pending.pop()
        try:
            results[script] = run(ScriptedCoins(script))
        except OutOfCoins:
            pending += [script + (ONE,), script + (ZERO,)]
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
            state = attach_ancilla(state)
            continue
        outcomes.append(outcome)
    return named(steps, tuple(outcomes)), state


def enumerated(state, steps):
    branches = enumerate_steps(state, steps)
    leaves = {frozenset(named(steps, outcomes).items()): p for p, outcomes in branches}
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
    splitting_lists = {protocol.splitting_steps(a) for a in attacks}
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
    # Why the (5,5) run may draw from the map at secret 0: the joint outcome
    # distribution does not depend on the secret.
    rng = np.random.default_rng(16)
    for secret in random_qubits(240, 1995):
        pair1, pair2 = (BELL_LABELS[i] for i in rng.integers(4, size=2))
        state = protocol.prepare_splitting_register(secret, pair1, pair2)
        joint = statevec.joint_distribution(state, [(2, 3), (0, 1)])
        assert np.abs(joint - 1 / 16).max() < 1e-12


def scripts(coins):
    """The raw-word script of each of the 2^coins branch indices: branch i's
    coins are i's bits, most significant first."""
    return [[ONE if i >> k & 1 else ZERO for k in reversed(range(coins))] for i in range(1 << coins)]


def drawn_rows(phase, steps, inputs):
    """The input's branches of the phase's map, by name, read through the
    run's draw: branch i is what the coins of i's bits, most significant
    first, draw."""
    coins = len(stabilizer.linear_map(phase, steps).coins)
    return [protocol._draw_named(phase, steps, inputs, ScriptedCoins(script)) for script in scripts(coins)]


# The honest splitting steps, and the same without R2's measurement of the
# cipher qubit, which a (5,5) run leaves unmeasured: the reference for
# that run's draw.
HONEST_SPLITTING = protocol.splitting_steps(NO_ATTACK)
NO_CIPHER = HONEST_SPLITTING[:-1]


def without_cipher(results):
    return {name: value for name, value in results.items() if name != "cipher"}


def test_qss55_swap_and_teleport_are_the_cipher_maps():
    # Why the (5,5) run may draw from the honest map at secret bit 0 and
    # drop the cipher bit, whatever its qubit: the cipher bit draws no
    # coin, so every column of the honest map is the no-cipher map's
    # shifted left past the cipher bit, and no input moves the swap or
    # teleport outcome.  So every input's branches, cipher dropped, are the
    # same 16 (swap, teleport) pairs in the same order, each input's own
    # register's branch table without the cipher step.
    assert HONEST_SPLITTING[-1].name == "cipher"
    honest, no_cipher = (stabilizer.linear_map("splitting", steps) for steps in (HONEST_SPLITTING, NO_CIPHER))
    assert (len(no_cipher.coins), dict(no_cipher.fields)) == (4, {"swap": (2, 2), "tele": (0, 2)})
    assert no_cipher.inputs == (0,) * 5
    assert [column >> 1 for column in honest.inputs + honest.coins] == list(no_cipher.inputs + no_cipher.coins)
    for inputs in product((0, 1), BELL_LABELS, BELL_LABELS):
        expected = branch_table(splitting_register(*inputs), NO_CIPHER)
        drawn = drawn_rows("splitting", HONEST_SPLITTING, (0, *inputs[1:]))
        assert list(map(without_cipher, drawn)) == list(expected)


def test_qss55_draw_and_postselection_match_the_sampler():
    # Every coin sequence leads the run's draw from the honest splitting
    # map at its pair codes, cipher bit dropped, and the Born sampler
    # without the cipher step on the run's own register to the same
    # outcomes, and the run's Pauli-frame qubit is the sampler's R2 qubit
    # up to global phase.
    secrets = list(random_qubits(3, 1993))
    for (pair1, pair2), secret in product(product(BELL_LABELS, repeat=2), secrets):
        state = protocol.prepare_splitting_register(secret, pair1, pair2)

        def drawn(rng):
            results = protocol._draw_named("splitting", HONEST_SPLITTING, (0, pair1, pair2), rng)
            correction = end_to_end_correction(pair1, pair2, results["swap"], results["tele"])
            return without_cipher(results), statevec.apply_pauli(secret, 0, correction)

        def sampled(rng):
            results, after = sample_steps(state, NO_CIPHER, rng)
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
# The run's int columns and the detection rate against the per-branch loop.

def reference_run_branches(attack):
    """Every (probability, row) branch of a run under the attack, one (R1
    token branch, R2 token branch, secret, splitting branch) at a time: the
    row is the secret, the receivers' codes, the sender's records, the
    splitting outcomes and the tokens as the sender receives them
    (``sent_tokens``), as labels and bits."""
    token_r1 = token_branches(protocol.RECEIVER_1, attack)
    token_r2 = token_branches(protocol.RECEIVER_2, attack)
    steps = protocol.splitting_steps(attack)
    for (p1, code1, record1), (p2, code2, record2) in product(token_r1, token_r2):
        for secret in (0, 1):
            for p, swap, tele, cipher in splitting_branches(secret, record1, record2, steps):
                sent_r1, sent_r2 = protocol.sent_tokens(code1, code2, swap, cipher, attack)
                row = (secret, code1, code2, record1, record2, swap, tele, cipher, sent_r1, sent_r2)
                yield p1 * p2 * p / 2, row


def reference_detection_rate(attack):
    """The detection rate summed branch by branch: every branch of
    :func:`reference_run_branches` decided by ``verify_authentication`` and
    weighted by its ``Fraction``."""
    total = Fraction(0)
    for p, (secret, _, _, record1, record2, _, tele, _, sent_r1, sent_r2) in reference_run_branches(attack):
        records = protocol.SenderRecords(record1, record2, tele, secret)
        if not protocol.verify_authentication(records, (sent_r1.z, sent_r1.x), sent_r2):
            total += p
    return total


# The columns of a run (security._basis, every_branch), in
# reference_run_branches' row order, and those that hold 2-bit codes.
RUN_COLUMNS = (
    "secret", "pair1", "pair2", "record1", "record2", "swap", "tele", "cipher", "token_r1", "token_r2"
)
LABEL_COLUMNS = {"pair1", "pair2", "record1", "record2", "swap", "tele", "token_r1"}


def test_run_columns_are_the_per_branch_rows():
    # Every attack model's flat columns at every branch are the rows of the
    # per-branch loop, each an equal share, as multisets.
    for attack in every_attack():
        run = every_branch(attack)
        columns = [run[name].tolist() for name in RUN_COLUMNS]
        rows = Counter(
            tuple(BELL_LABELS[v] if name in LABEL_COLUMNS else v for name, v in zip(RUN_COLUMNS, row))
            for row in zip(*columns)
        )
        branches = list(reference_run_branches(attack))
        assert {p for p, _ in branches} == {Fraction(1, len(branches))}, attack
        assert rows == Counter(row for _, row in branches), attack


@pytest.mark.parametrize("spec", SPECS + ("r1-lie:00",))
def test_exact_rate_equals_the_per_branch_loop_cold_and_warm(spec):
    attack = AttackModel.from_spec(spec)
    expected = reference_detection_rate(attack)
    security._splitting_branches.cache_clear()
    cold = security.exact_detection_rate(attack)
    warm = security.exact_detection_rate(attack)
    assert type(cold) is type(warm) is Fraction
    assert cold == warm == expected


def assert_map_shape(phase, steps, inputs):
    """The map has a column per input bit and per coin, one int each, and
    a (shift, width) per step name that tiles the word from its top bit
    down, in step order."""
    linear_map = stabilizer.linear_map(phase, steps)
    assert type(linear_map.inputs) is type(linear_map.coins) is tuple
    assert len(linear_map.inputs) == inputs
    assert all(type(column) is int for column in linear_map.inputs + linear_map.coins)
    names = list(dict.fromkeys(step.name for step in steps if step.kind != "ancilla"))
    assert list(linear_map.fields) == names
    bits = sum(2 if step.kind == "bell" else 1 for step in steps if step.kind != "ancilla")
    for shift, width in linear_map.fields.values():
        bits -= width
        assert shift == bits
    assert bits == 0
    with pytest.raises(TypeError):
        linear_map.fields["swap"] = (0, 2)


def test_stacked_splitting_branches_match_the_enumerator():
    # Each input's branches of the splitting map, read through the run's
    # draw, the eavesdropper's outcomes included, are the branch table of
    # the input's own register, row for row and in order: 160 tables, 5
    # step lists by 32 inputs.
    attacks = [AttackModel.from_spec(spec) for spec in SPECS + ("r1-lie:00",)]
    lists = {protocol.splitting_steps(a) for a in attacks}
    assert len(lists) == 5
    for steps in lists:
        assert_map_shape("splitting", steps, 5)
        for inputs in product((0, 1), BELL_LABELS, BELL_LABELS):
            expected = branch_table(splitting_register(*inputs), steps)
            assert drawn_rows("splitting", steps, inputs) == list(expected)


def token_step_lists():
    lists = {
        protocol.token_steps(target, AttackModel.from_spec(spec))
        for spec in SPECS
        for target in TOKEN_TARGETS.values()
    }
    assert len(lists) == 3
    return lists


def test_stacked_token_branches_match_the_enumerator():
    # Each (pair_a, pair_b)'s branches of the token map, read through the
    # run's draw, the eavesdropper's outcomes included, are the branch table
    # of that pair's own register, row for row and in order: 48 tables, 3
    # step lists by 16 pairs.
    for steps in token_step_lists():
        assert_map_shape("token", steps, 4)
        for inputs in product(BELL_LABELS, repeat=2):
            expected = branch_table(protocol.prepare_token_register(*inputs), steps)
            assert drawn_rows("token", steps, inputs) == list(expected)


def every_step_list():
    """Every (phase, steps) a run under a model of :func:`every_attack`
    draws from: both token rounds and the splitting phase."""
    lists = set()
    for attack in every_attack():
        lists |= {("token", protocol.token_steps(target, attack)) for target in TOKEN_TARGETS.values()}
        lists.add(("splitting", protocol.splitting_steps(attack)))
    return lists


def drawn_words(phase, steps, inputs):
    """The input's branches of the phase's map as the sorted table holds
    them, read through the run's draw: each outcome a code or a bit, in step
    order, at branch i the coins of i's bits, most significant first."""
    linear_map = stabilizer.linear_map(phase, steps)
    word = stabilizer.xor_columns(linear_map.inputs, protocol._input_index(inputs))
    widths = [2 if step.kind == "bell" else 1 for step in steps if step.kind != "ancilla"]
    shifts = [sum(widths[i + 1 :]) for i in range(len(widths))]
    rows = []
    for script in scripts(len(linear_map.coins)):
        drawn = protocol._draw(word, linear_map.coins, ScriptedCoins(script))
        rows.append([drawn >> shift & (1 << width) - 1 for shift, width in zip(shifts, widths)])
    return rows


def test_maps_draw_the_rows_of_the_sorted_table_expansion():
    # The sorted table expansion of the symbolic pass that the maps replaced
    # is their reference: every input's branches, drawn through the run's
    # draw from the map, are its rows, row for row, on every step list of
    # every attack model.
    lists = every_step_list()
    assert len(lists) == 8
    for phase, steps in lists:
        table = stacked_table(phase, steps)
        for index in np.ndindex(*table.shape[:-2]):
            assert drawn_words(phase, steps, index) == table[index].tolist(), (phase, steps, index)


def test_each_coin_pivot_is_read_by_its_coin_alone():
    # Why the maps need no elimination: the outcome bit that draws a coin
    # reads that coin alone, so each coin column's top bit is set in no
    # other column, input or coin, and the coins sorted by it are already
    # in reduced echelon form, in draw order.
    for phase, steps in every_step_list():
        linear_map = stabilizer.linear_map(phase, steps)
        columns = linear_map.inputs + linear_map.coins
        assert list(linear_map.coins) == sorted(linear_map.coins, reverse=True)
        for coin in linear_map.coins:
            pivot = 1 << coin.bit_length() - 1
            assert [column for column in columns if column & pivot] == [coin], (phase, steps)


def every_attack():
    """Every valid attack model once, in first-seen order: each kind with
    each target it allows and, for r1-lie, each delta.  A kind whose target
    defaults is the same model with or without the target named."""
    models = {}
    for kind, target, delta in product(
        protocol.ATTACK_KINDS,
        (None,) + protocol.QUANTUM_SEND_TARGETS,
        (None,) + tuple(product((0, 1), repeat=2)),
    ):
        try:
            models.setdefault(AttackModel(kind, target, delta))
        except ValueError:
            pass
    return list(models)


def every_branch(attack):
    """The run's int columns (``security._basis``'s names) at every one of
    its 2^(1 + coins) branches, in index order: the secret, then the coins
    in draw order, the first most significant (``protocol._draw``).

    An evaluation apart from the package's, which composes the run once at
    its basis branches and expands that over every branch: each phase's
    map is evaluated at its inputs and coins over every index at once.
    Each token round reads its map at the run's pairs, with the record
    inferred from the observed outcome, and the splitting phase reads its
    map at the secret and both records."""
    maps = protocol._run_maps(attack)
    widths = [len(linear_map.coins) for linear_map in maps]
    shift = sum(widths)
    branches = np.arange(2 << shift)
    secret, coins = branches >> shift, []
    for width in widths:
        shift -= width
        coins.append(branches >> shift & (1 << width) - 1)
    rounds = []
    for receiver, token_map, coin in zip(protocol._TOKEN_TARGETS, maps, coins):
        pairs = tuple(map(int, protocol.DEFAULT_AUTH_PAIRS[receiver]))
        word = stabilizer.xor_columns(token_map.inputs, protocol._input_index(pairs))
        word ^= stabilizer.xor_columns(token_map.coins, coin)
        code, observed = (stabilizer.field(word, token_map.fields[name]) for name in ("code", "observed"))
        rounds.append((code, infer_remote_bsm(*pairs, observed)))
    (pair1, record1), (pair2, record2) = rounds
    splitting = maps[2]
    word = stabilizer.xor_columns(splitting.inputs, 16 * secret + 4 * record1 + record2)
    word ^= stabilizer.xor_columns(splitting.coins, coins[2])
    swap, tele, cipher = (stabilizer.field(word, splitting.fields[name]) for name in ("swap", "tele", "cipher"))
    # The tokens the sender receives: mask_tokens on the code columns, XOR
    # the attack's fixed alteration.
    token_r1, token_r2 = protocol.mask_tokens(pair1, pair2, swap, cipher)
    alter_r1, alter_r2 = protocol.sent_tokens(PHI_PLUS, PHI_PLUS, PHI_PLUS, 0, attack)
    return dict(
        secret=secret, pair1=pair1, pair2=pair2, record1=record1, record2=record2,
        swap=swap, tele=tele, cipher=cipher,
        token_r1=token_r1 ^ int(alter_r1), token_r2=token_r2 ^ alter_r2,
    )


def splitting_register(secret, pair1, pair2):
    return protocol.prepare_splitting_register(
        statevec.computational_state([secret]), pair1, pair2
    )


def assert_rows_move_by(phase, steps, register, inputs, flips):
    """The input's branches of the map are the all-zero input's branches,
    each measurement XORed with its flip in ``flips`` (by step name; any
    other step reads as at zero), and the 2^d equally likely branches of
    the statevec enumerator on the input's own register, as row sets."""
    names = [step.name for step in steps if step.kind != "ancilla"]
    moved = [int(flips.get(name, 0)) for name in names]
    codes = tuple(map(int, inputs))
    rows = sorted(map(tuple, drawn_words(phase, steps, codes)))
    at_zero = drawn_words(phase, steps, (0,) * len(inputs))
    assert rows == sorted(tuple(a ^ b for a, b in zip(row, moved)) for row in at_zero)
    enumerated = [tuple(map(int, outcomes)) for outcomes in equal_shares(register, steps)]
    assert rows == sorted(enumerated)


def test_pauli_frame_matches_the_enumerator_on_every_step_list():
    # A computational secret s and each pair's label are sign symbols of the
    # one pass; on every step list they move the outcomes of (0, Φ+, Φ+) as
    # the pieces' Pauli frame predicts: swap by Φ+, teleport by s ^ pair1
    # (s as X), and the cipher bit by pair2's x bit, as does an
    # eavesdropper's reading of the cipher qubit or of its ancilla copy.
    lists = {protocol.splitting_steps(attack) for attack in every_attack()}
    assert lists == {protocol.splitting_steps(AttackModel.from_spec(s)) for s in SPECS}
    assert len(lists) == 5
    for spec, secret, pair1, pair2 in product(
        SPLITTING_SPECS.values(), (0, 1), BELL_LABELS, BELL_LABELS
    ):
        steps = protocol.splitting_steps(AttackModel.from_spec(spec))
        flips = {"swap": PHI_PLUS, "tele": BELL_LABELS[secret] ^ pair1, "cipher": pair2.x}
        flips["eve"] = pair2.x if spec.endswith("split-r2") else 0
        register = splitting_register(secret, pair1, pair2)
        assert_rows_move_by("splitting", steps, register, (secret, pair1, pair2), flips)


def test_token_frame_flips_only_the_observed_outcome():
    # On the token register the pairs' symbols sign only generators on
    # qubits 0 and 3, which only the sender's measurement reads: it moves by
    # pair_a ^ pair_b, and the receiver's code and every intercept outcome
    # read as on (Φ+, Φ+).
    targets = TOKEN_TARGETS.values()
    lists = {protocol.token_steps(target, attack) for attack in every_attack() for target in targets}
    assert lists == token_step_lists()
    for steps, (pair_a, pair_b) in product(lists, product(BELL_LABELS, repeat=2)):
        register = protocol.prepare_token_register(pair_a, pair_b)
        assert_rows_move_by("token", steps, register, (pair_a, pair_b), {"observed": pair_a ^ pair_b})


# ---------------------------------------------------------------------------
# The symbolic pass against the statevec enumerator.

# Each phase's register at given inputs, and its inputs in index order.
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
    # Every input's branches of the map, read through the run's draw, are
    # the statevec branch table of that input's own register and the rows
    # of the sorted table expansion, row for row and in order.
    phase, steps = case
    register, inputs = PHASE_INPUTS[phase]
    table = stacked_table(phase, steps)
    for values in product(*inputs):
        assert drawn_rows(phase, steps, values) == list(branch_table(register(*values), steps))
        codes = tuple(map(int, values))
        assert drawn_words(phase, steps, codes) == table[codes].tolist()


def symbolic_passes(monkeypatch):
    """The (phase, steps) of every symbolic pass from here on; statevec's
    projections, which the statevec enumerator forks by, raise if anything
    calls them."""
    calls = []
    real = stabilizer._coin_parities

    def counted(phase, steps):
        calls.append((phase, steps))
        return real(phase, steps)

    def forbidden(*args):
        raise AssertionError("a linear map projected a register")

    monkeypatch.setattr(stabilizer, "_coin_parities", counted)
    for name in ("bell_project", "project_computational"):
        monkeypatch.setattr(statevec, name, forbidden)
    return calls


def test_linear_maps_make_one_symbolic_pass_per_step_list(monkeypatch):
    calls = symbolic_passes(monkeypatch)
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    lists = {("splitting", protocol.splitting_steps(attack)) for attack in attacks}
    lists |= {("token", steps) for steps in token_step_lists()}
    stabilizer.linear_map.cache_clear()
    for phase, steps in lists:
        calls.clear()
        stabilizer.linear_map(phase, steps)
        assert calls == [(phase, steps)]


def test_runs_and_exact_rates_pass_five_splitting_step_lists(monkeypatch):
    # In one process, qss22 runs under the 13 specs with either secret, a
    # qss55 run and the 13 exact rates read one splitting map per step
    # list, so they make one symbolic pass each: the 5 step lists, each of
    # which measures the cipher qubit.  qss55 reads the honest one.
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
    assert len(splitting) == len(set(splitting)) == 5
    assert all(any(step.name == "cipher" for step in steps) for steps in splitting)
    assert security._splitting_branches is stabilizer.linear_map


def test_cold_rates_pass_three_token_step_lists_and_runs_none(monkeypatch):
    # The 13 exact rates read one token map per token step list,
    # so a cold pass makes one symbolic token pass each and prepares no
    # token register; qss22 runs under the same specs then read those
    # maps and make no pass.
    calls = symbolic_passes(monkeypatch)
    prepared = []
    monkeypatch.setattr(protocol, "prepare_token_register", lambda *pairs: prepared.append(pairs))
    stabilizer.linear_map.cache_clear()
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


# The sender's inputs as codes: R1's and R2's records, the teleport
# outcome, the secret, R1's token code and R2's token bit.
SENDER_INPUTS = (4, 4, 4, 2, 4, 2)


def reference_acceptance() -> np.ndarray:
    """The sender's check on every input, indexed by SENDER_INPUTS, in the
    label algebra: unmask both tokens with ``mask_tokens`` and compare R2's
    cipher bit with its prediction from the end-to-end correction."""
    accept = np.zeros(SENDER_INPUTS, dtype=bool)
    for index in np.ndindex(*SENDER_INPUTS):
        record1, record2, tele, secret, token_r1, token_r2 = index
        labels = BELL_LABELS[record1], BELL_LABELS[record2]
        swap, cipher = protocol.mask_tokens(*labels, BELL_LABELS[token_r1], token_r2)
        accept[index] = cipher == secret ^ end_to_end_correction(*labels, swap, BELL_LABELS[tele]).x
    return accept


def test_accept_table_is_the_sender_rule():
    # The parity on all 1024 inputs at once, each axis an int array of
    # codes, and verify_authentication on each input, are the label algebra.
    expected = reference_acceptance()
    accept = protocol._accepts(*np.indices(SENDER_INPUTS)[1:])
    assert accept.shape == SENDER_INPUTS and accept.dtype == bool
    assert (accept == expected).all()
    assert np.count_nonzero(accept) == 512
    for index in np.ndindex(*SENDER_INPUTS):
        record1, record2, tele, secret, token_r1, token_r2 = index
        records = protocol.SenderRecords(
            BELL_LABELS[record1], BELL_LABELS[record2], BELL_LABELS[tele], secret
        )
        token = (BELL_LABELS[token_r1].z, BELL_LABELS[token_r1].x)
        assert protocol.verify_authentication(records, token, token_r2) is bool(expected[index])


def test_acceptance_does_not_depend_on_the_r1_record():
    # Unmasking R1's token and the end-to-end correction each XOR R1's
    # stored code in once, so it cancels: R1's code reaches the check only
    # through R1's own token.  R2's stored code does not cancel.
    accept = reference_acceptance()
    assert (accept == accept[:1]).all()
    assert not (accept == accept[:, :1]).all()


def test_exact_rates_make_no_verify_authentication_call(monkeypatch):
    calls = []
    real = protocol.verify_authentication

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(protocol, "verify_authentication", counted)
    security._splitting_branches.cache_clear()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    assert calls == []


def test_security_leaves_the_circuits_to_protocol():
    source = inspect.getsource(security)
    for name in ("prepare_splitting_register", "project_computational", "bell_project"):
        assert name not in source


# ---------------------------------------------------------------------------
# No float snapped to a rational.

def test_no_limit_denominator_in_security():
    # No module of the package snaps a float to a rational, and protocol,
    # whose linear maps are exact by construction, makes no Fraction.
    modules = sorted(Path(qsshare.__file__).parent.glob("*.py"))
    assert {path.stem for path in modules} >= {"protocol", "security", "statevec", "bell", "cli"}
    for path in modules:
        assert "limit_denominator" not in path.read_text(), path.name
    assert "fractions" not in inspect.getsource(protocol)


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
    first, second = map(int, run_fresh(COLD_PASSES.format(specs=SPECS)).split())
    assert first == second > 0


IMPORT_CALLS = """
from qsshare import protocol

calls = 0

def counted(rule):
    def wrapper(*args):
        global calls
        calls += 1
        return rule(*args)
    return wrapper

protocol.verify_authentication = counted(protocol.verify_authentication)
protocol.mask_tokens = counted(protocol.mask_tokens)
import qsshare.security
print(calls)
"""


def test_importing_security_calls_no_sender_rule():
    # The sender's check and the token masks are computed where they are
    # used, not tabulated when security is imported.
    assert int(run_fresh(IMPORT_CALLS)) == 0
