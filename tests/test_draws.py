"""Every random draw of a seeded run is a fair coin.

The (2,2) registers are Clifford circuits on stabilizer inputs, so every
exact conditional probability of an outcome bit is 0, 1/2 or 1, and each
phase has 2^d equally likely branches.  A sampled (2,2) run indexes branch
tables, each outcome bit a parity of d fair coins, with those d coins: a fixed
number of coins per attack spec, whatever the seed.  A (5,5) run draws its
two pair labels as integers and then indexes the honest splitting table of
secret 0: four coins, whatever the qubit secret.  A golden hash pins the
seed -> transcript map of both schemes."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qsshare import protocol, statevec
from qsshare.protocol import AttackModel
from conftest import SPECS, branch_table, enumerate_steps

# Two coins per token round (the receiver's Bell outcome; the sender's then
# follows) and two for each splitting Bell measurement: 8.  A computational
# intercept of a token round's halves draws two and leaves one coin in each
# Bell measurement of the round: 10.
TEN_COIN_SPECS = (
    "intercept-resend-computational:auth-r1",
    "intercept-resend-computational:auth-r2",
)

SQRT_HALF = 1 / math.sqrt(2)
GOLDEN_SEEDS = (*range(40), 2**32, 2**63, 2**64 - 1)
GOLDEN_QUBITS = (
    (1, 0),
    (0, 1),
    (0.6, 0.8j),
    (0.6, -0.8),
    (SQRT_HALF, SQRT_HALF),
    (SQRT_HALF, -1j * SQRT_HALF),
    (0.9999999999999, 0),
)
GOLDEN_QSS22 = "1c615816998849a5f45d35cec3339cc5546c155c5394122d03a9febb44ee733b"
# R2's qubit is the secret under a Pauli, not an eigenvector of its reduced
# density matrix, so its printed phase no longer depends on the LAPACK build.
GOLDEN_QSS55 = "510f2c3b6bbb81deebd965744307f54fb9d3fe9579830559fa3c4662a28203d8"


class CountingRng:
    """Generator stand-in that counts the uniforms and integers a run draws."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0
        self.integer_draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()

    def integers(self, *args):
        self.integer_draws += 1
        return self.rng.integers(*args)


@pytest.fixture
def counted(monkeypatch):
    made = []
    real_make_rng = protocol.make_rng

    def counting_make_rng(seed):
        made.append(CountingRng(real_make_rng(seed)))
        return made[-1]

    monkeypatch.setattr(protocol, "make_rng", counting_make_rng)
    return made


@pytest.mark.parametrize("spec", SPECS)
def test_each_spec_draws_a_fixed_number_of_coins(spec, counted):
    attack = AttackModel.from_spec(spec)
    for seed, secret in product(range(300), (0, 1)):
        protocol.run_qss22(secret, seed, attack)
    assert {rng.draws for rng in counted} == {10 if spec in TEN_COIN_SPECS else 8}


def test_each_qss55_run_draws_two_integers_and_four_coins(counted):
    # The two pair labels, then the swap and teleport outcomes.
    secrets = np.random.default_rng(55)
    for seed in range(300):
        amplitudes = secrets.normal(size=2) + 1j * secrets.normal(size=2)
        protocol.run_qss55(tuple(amplitudes / np.linalg.norm(amplitudes)), seed)
    assert {(rng.integer_draws, rng.draws) for rng in counted} == {(2, 4)}


def test_memoised_states_hold_only_stabilizer_probabilities():
    # sqrt(1/4)|00> + sqrt(3/4)|10>: dyadic branch weights 1/4 and 3/4, so
    # the enumerator accepts it, but its first bit is no fair coin.
    state = statevec.StateVector(2, [0.5, 0, math.sqrt(0.75), 0])
    steps = (protocol.Step("z", (0,), "eve"),)
    assert [p for p, _ in enumerate_steps(state, steps)] == [Fraction(1, 4), Fraction(3, 4)]
    with pytest.raises(AssertionError, match="1/4, 3/4 are not 2\\^d equal shares"):
        branch_table(state, steps)


def test_a_branch_table_needs_equally_likely_branches():
    # sqrt(1/2)|00> + sqrt(1/4)|10> + sqrt(1/4)|11>: each bit is a fair coin
    # or certain given the bits before it, yet the branches weigh 1/2, 1/4
    # and 1/4, so no fixed number of coins indexes them.
    state = statevec.StateVector(2, [math.sqrt(0.5), 0, 0.5, 0.5])
    steps = (protocol.Step("z", (0,), "eve"), protocol.Step("z", (1,), "eve"))
    weights = [p for p, _ in enumerate_steps(state, steps)]
    assert weights == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    with pytest.raises(AssertionError, match="1/2, 1/4, 1/4 are not 2\\^d equal shares"):
        branch_table(state, steps)


def golden_digests():
    """The sha256 of the golden grid's qss22 transcripts and of its qss55
    ones, in grid order."""
    qss22 = hashlib.sha256()
    for spec, seed, secret in product(SPECS, GOLDEN_SEEDS, (0, 1)):
        transcript = protocol.run_qss22(secret, seed, AttackModel.from_spec(spec))
        qss22.update(transcript.to_jsonl().encode())
    qss55 = hashlib.sha256()
    for qubit, seed in product(GOLDEN_QUBITS, range(10)):
        transcript, _ = protocol.run_qss55(qubit, seed)
        qss55.update(transcript.to_jsonl().encode())
    return qss22.hexdigest(), qss55.hexdigest()


def test_golden_transcripts():
    assert golden_digests() == (GOLDEN_QSS22, GOLDEN_QSS55)
