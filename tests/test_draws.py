"""Every random draw of a seeded run is a fair coin.

The (2,2) registers are Clifford circuits on stabilizer inputs, so every
exact conditional probability of an outcome bit is 0, 1/2 or 1, and each
phase has 2^d equally likely branches.  A sampled (2,2) run indexes branch
tables, each outcome bit a parity of d fair coins, with those d coins: a fixed
number of coins per attack spec, whatever the seed.  Each coin is one raw
Philox word of the seed's key, 1 when the word is below 2^63.  A (5,5) run
reads both pair codes off raw word 0 and then indexes the honest splitting
table of secret 0 with four coins, whatever the qubit secret.  A golden hash
pins the seed -> transcript map of both schemes, and the word layout is
checked against the draws numpy's ``Generator`` made from the same words."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qsshare import protocol, statevec
from qsshare.protocol import AttackModel
from conftest import SPECS, branch_table, enumerate_steps, event_record

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


# Keys 0-19,999 and the top 2,500 below 2^64.
LAYOUT_KEYS = np.concatenate(
    [np.arange(20_000, dtype=np.uint64), np.arange(2**64 - 2_500, 2**64, dtype=np.uint64)]
)


@pytest.mark.parametrize("spec", SPECS)
def test_each_spec_draws_a_fixed_number_of_coins(spec, counted):
    attack = AttackModel.from_spec(spec)
    for seed, secret in product(range(300), (0, 1)):
        protocol.run_qss22(secret, seed, attack)
    assert {rng.words for rng in counted} == {10 if spec in TEN_COIN_SPECS else 8}


def test_each_qss55_run_reads_one_word_for_its_pair_codes_then_four_coins(counted):
    # Five words: word 0 for both pair codes, then the swap and teleport
    # outcomes' four coins.
    secrets = np.random.default_rng(55)
    for seed in range(300):
        amplitudes = secrets.normal(size=2) + 1j * secrets.normal(size=2)
        protocol.run_qss55(tuple(amplitudes / np.linalg.norm(amplitudes)), seed)
    assert {tuple(rng.sizes) for rng in counted} == {(None, 4)}
    assert {rng.words for rng in counted} == {5}


def test_runs_read_the_words_a_generator_drew_from():
    # The layout of a run's words, against the Generator draws the runs
    # once made: a qss22 run's coins are random() < 1/2, and a qss55 run
    # drew integers(4) twice, then four such coins.
    coins = np.column_stack(protocol.coin_bits(LAYOUT_KEYS, range(10))).tolist()
    for key, row in zip(LAYOUT_KEYS.tolist(), coins):
        word0 = int(np.random.Philox(key=key).random_raw(1)[0])
        codes = [word0 >> 30 & 3, word0 >> 62]
        qss22 = np.random.Generator(np.random.Philox(key=key))
        assert row == [qss22.random() < 0.5 for _ in range(10)], key
        qss55 = np.random.Generator(np.random.Philox(key=key))
        assert codes == [qss55.integers(4), qss55.integers(4)], key
        assert row[1:5] == [qss55.random() < 0.5 for _ in range(4)], key


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


def golden_transcripts():
    """The golden grid's qss22 transcripts, then its qss55 ones, in grid
    order."""
    for spec, seed, secret in product(SPECS, GOLDEN_SEEDS, (0, 1)):
        yield protocol.run_qss22(secret, seed, AttackModel.from_spec(spec))
    for qubit, seed in product(GOLDEN_QUBITS, range(10)):
        yield protocol.run_qss55(qubit, seed)[0]


def golden_digests():
    """The sha256 of the golden grid's qss22 transcripts and of its qss55
    ones, in grid order."""
    digests = {"qss22": hashlib.sha256(), "qss55": hashlib.sha256()}
    for transcript in golden_transcripts():
        digests[transcript.scheme].update(transcript.to_jsonl().encode())
    return digests["qss22"].hexdigest(), digests["qss55"].hexdigest()


def test_golden_transcripts():
    assert golden_digests() == (GOLDEN_QSS22, GOLDEN_QSS55)


def test_golden_transcripts_are_what_jsonl_writes_for_every_record():
    # The reference is jsonl of every record.  Header and footer are written
    # by jsonl itself, so their records are read back from the lines (floats
    # round-trip through repr).
    for transcript in golden_transcripts():
        text = transcript.to_jsonl()
        lines = text.splitlines()
        assert len(lines) == len(transcript.events) + 2
        records = map(event_record, transcript.events)
        assert text == protocol.jsonl(json.loads(lines[0]), *records, json.loads(lines[-1]))


class NoDraws(np.random.Generator):
    """A ``Generator`` whose draws raise."""

    def random(self, *args, **kwargs):
        raise AssertionError("a run drew Generator.random")

    def integers(self, *args, **kwargs):
        raise AssertionError("a run drew Generator.integers")


def test_golden_transcripts_need_no_generator_draws(monkeypatch):
    monkeypatch.setattr(np.random, "Generator", NoDraws)
    assert golden_digests() == (GOLDEN_QSS22, GOLDEN_QSS55)
