"""Batched sweeps: every trial's coins in one numpy pass, counted by leaf
key, and no full run.

A seeded (2,2) run draws a fixed number of fair coins, and coin j of the
run with seed k is the top bit of raw word j of ``Philox(key=k)``.  The
sweeps compute those coins for all trials at once with a vectorised
Philox4x64-10, read each trial's leaf key off the run's branch table, and
count the trials per key, whose fields are the run's public payloads.
These tests pin the coins against numpy, the coin counts against the
tables, the leaf keys against a full run of every coin pattern of every
attack model, and the reports byte for byte against the scalar loop the
sweeps used to run, which is kept here as the reference.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qsshare import cli, protocol, security, stabilizer
from qsshare.bell import BELL_LABELS, BellLabel
from qsshare.protocol import MAX_SEED, NO_ATTACK, AttackModel, run_qss22
from qsshare.security import (
    AttackSweepReport,
    MessageUniformity,
    UniformityReport,
    attack_sweep,
    public_transcript_uniformity,
    report_to_jsonl,
)
from conftest import SPECS, branch_table
from test_draws import TEN_COIN_SPECS
from test_exact_branches import every_attack, splitting_register

# Keys at the edges of the 64-bit range, and a few drawn at random.
KEY_GRID = (0, 1, 2, 7, 2**32, 2**63, 2**64 - 1, 12345678901234567890) + tuple(
    random.Random(8).getrandbits(64) for _ in range(24)
)
# ``qsshare analyze --attack SPEC --trials 1000 --format structured`` for
# the 13 specs, stdout concatenated in SPECS order; computed with the
# scalar sweep before the batched one replaced it.
GOLDEN_ANALYZE = "1c1bd2500014128b71e7aea9367ce4bec4d5e2dae2de7ac9d044e6dbf0e224f5"
# ``qsshare analyze --view VIEW --format FORMAT`` for the 5 views, text then
# structured for each, stdout concatenated in VIEW_NAMES order; computed
# with the per-case dict count before the int-coded group-by replaced it.
GOLDEN_VIEWS = "45c3311ee506e34c9d63898ffc8d2da680ce668864cb243403a80038fe7b4d05"


def leaf_key(rejected, payloads):
    # The key of a run's leaf: 2*token_r1 + token_r2 + 8*tele from its
    # first three public payloads, with tele 4 when the run is rejected.
    token_r1 = int(BellLabel.from_bits(payloads[0]))
    tele = 4 if rejected else int(BellLabel.from_bits(payloads[2]))
    return 2 * token_r1 + int(payloads[1]) + 8 * tele


def scalar_attack_sweep(attack, trials, seed):
    # The sweep as a loop of full runs, one per trial.
    detections = 0
    for i in range(trials):
        transcript = run_qss22(i % 2, (seed + i) % (MAX_SEED + 1), attack)
        detections += transcript.outcome == "rejected"
    rate = detections / trials
    exact = security.exact_detection_rate(attack)
    low, high = security.interval_around_rate(float(exact), trials)
    return AttackSweepReport(
        attack=attack.spec_string,
        trials=trials,
        detections=detections,
        detection_rate=rate,
        ci99=security.wilson_interval(detections, trials),
        exact_rate=float(exact),
        exact_rate_rational=f"{exact.numerator}/{exact.denominator}",
        consistent=low <= rate <= high,
    )


def scalar_message_stats(values, secrets):
    # Whether a message is exactly uniform and secret-independent, counted
    # per case.
    domain = sorted(set(values))
    counts = {v: 0 for v in domain}
    by_secret = {v: [0, 0] for v in domain}
    for v, s in zip(values, secrets):
        counts[v] += 1
        by_secret[v][s] += 1
    uniform = len(set(counts.values())) == 1
    independent = all(c0 == c1 for c0, c1 in by_secret.values())
    return uniform, independent


def scalar_uniformity(trials, seed):
    # The uniformity sweep as a loop of full runs, one per trial.
    cases = security.enumerate_honest_cases()
    secrets = [c.secret for c in cases]
    exact = {
        "masked-swap-token": scalar_message_stats([c.masked_tokens[0] for c in cases], secrets),
        "masked-cipher-token": scalar_message_stats([c.masked_tokens[1] for c in cases], secrets),
        "published-teleport-bsm": scalar_message_stats([c.teleport_bsm for c in cases], secrets),
    }
    empirical = {name: {} for name in exact}
    for i in range(trials):
        public = run_qss22(i % 2, (seed + i) % (MAX_SEED + 1)).public_messages()
        for name, event in zip(exact, public):
            empirical[name][event.payload] = empirical[name].get(event.payload, 0) + 1
    sizes = {"masked-swap-token": 4, "masked-cipher-token": 2, "published-teleport-bsm": 4}
    messages = {}
    for name, (uniform, independent) in exact.items():
        counts = empirical[name]
        width = sizes[name].bit_length() - 1
        observed = [counts.get(format(v, f"0{width}b"), 0) for v in range(sizes[name])]
        messages[name] = MessageUniformity(
            values=sizes[name],
            exact_uniform=uniform,
            exact_secret_independent=independent,
            empirical_counts=dict(sorted(counts.items())),
            chi_square_p=security._uniform_chi_square_p(observed) if trials else 1.0,
        )
    return UniformityReport(trials=trials, messages=messages)


# ---------------------------------------------------------------------------
# The vectorised Philox.

def unpacked_coins(indices, count):
    # The coins of each index, the first most significant.
    return (np.asarray(indices)[:, None] >> np.arange(count - 1, -1, -1) & 1 == 1).tolist()


def numpy_coins(keys, count):
    return [(np.random.Philox(key=key).random_raw(count) < 2**63).tolist() for key in keys]


def test_coins_match_numpy():
    # Round r adds r * W0 to the key, so the top ten keys wrap past 2^64 in
    # the folded rounds as well as in the full ones; 63 coins read all 16
    # blocks of the counter table.
    keys = (
        KEY_GRID
        + tuple(random.Random(27).getrandbits(64) for _ in range(2000))
        + tuple(range(2**64 - 10, 2**64))
    )
    indices = protocol.coin_index(np.array(keys, dtype=np.uint64), 63)
    assert indices.shape == (len(keys),) and indices.dtype == np.int64
    for key, coins, expected in zip(keys, unpacked_coins(indices, 63), numpy_coins(keys, 63)):
        assert coins == expected, key


@pytest.mark.parametrize("count", [8, 10, 11])
def test_coins_match_numpy_at_sweep_widths(count):
    # A run draws 8 or 10 coins, two or three blocks of a chunk's keys,
    # and the uniformity check packs all 8 of the honest run's.  11 leaves
    # one word of the third block unread.
    keys = [random.Random(count).getrandbits(64) for _ in range(1000)]
    indices = protocol.coin_index(np.array(keys, dtype=np.uint64), count)
    assert unpacked_coins(indices, count) == numpy_coins(keys, count)


def test_coin_indices_of_strided_and_listed_keys():
    # The keys broadcast along each block's row whatever their memory
    # layout: a strided view and a Python list give the contiguous array's
    # indices.
    keys = np.array([random.Random(3).getrandbits(64) for _ in range(300)], dtype=np.uint64)[::3]
    expected = protocol.coin_index(np.ascontiguousarray(keys), 11).tolist()
    assert protocol.coin_index(keys, 11).tolist() == expected
    assert protocol.coin_index(keys.tolist(), 11).tolist() == expected


@pytest.mark.parametrize("count", range(64))
def test_coin_indices_cut_to_any_count(count):
    # The first count coins of 63, across every block boundary.
    keys = np.array(KEY_GRID, dtype=np.uint64)
    indices = protocol.coin_index(keys, count)
    assert indices.tolist() == (protocol.coin_index(keys, 63) >> 63 - count).tolist()


@pytest.mark.parametrize("count", [-1, 64, 65, 100])
def test_coin_index_refuses_counts_it_cannot_pack(count):
    with pytest.raises(ValueError, match="0 to 63 coins"):
        protocol.coin_index(np.array([1, 2, 3], dtype=np.uint64), count)


def test_trial_keys_wrap_past_the_last_seed():
    keys = security._trial_keys(2**64 - 3, 0, 6)
    assert keys.tolist() == [2**64 - 3, 2**64 - 2, 2**64 - 1, 0, 1, 2]
    coins = unpacked_coins(protocol.coin_index(keys, 12), 12)
    assert coins == numpy_coins(keys.tolist(), 12)


def test_coin_indices_are_the_draws_a_run_compares():
    # Each key's index is the word _draw makes of n coins whose columns are
    # the bits of an n-bit index, the first most significant, and its bits
    # are the raw words a run compares with 2^63; n crosses the byte
    # boundaries at 8 and 16 and every block boundary.
    for count in range(64):
        indices = protocol.coin_index(np.array(KEY_GRID, dtype=np.uint64), count)
        assert indices.shape == (len(KEY_GRID),) and indices.dtype == np.int64
        assert unpacked_coins(indices, count) == numpy_coins(KEY_GRID, count), count
        columns = tuple(1 << j for j in reversed(range(count)))
        for key, index in zip(KEY_GRID, indices.tolist()):
            assert index == protocol._draw(0, columns, protocol.make_rng(key)), (key, count)


@pytest.mark.parametrize("count", [0, 10, 63])
def test_coin_indices_of_no_keys(count):
    indices = protocol.coin_index(np.array([], dtype=np.uint64), count)
    assert indices.shape == (0,) and indices.dtype == np.int64


def test_no_coins_compute_no_philox_block(monkeypatch):
    # Indices of no coins are zeros without a round of the cipher.
    def forbidden(*args):
        raise AssertionError("coin_index ran a Philox round for no coins")

    monkeypatch.setattr(protocol, "_mulhilo", forbidden)
    for keys in (np.array(KEY_GRID, dtype=np.uint64), list(KEY_GRID), np.array([], dtype=np.uint64)):
        indices = protocol.coin_index(keys, 0)
        assert indices.dtype == np.int64 and indices.tolist() == [0] * len(keys)


@pytest.mark.parametrize("coins", [[4, 5], [5, 4], [0, 63], [9], []], ids=str)
def test_coin_bits_match_numpy_at_any_positions(coins):
    # Positions that are no prefix, in any order: block 1 alone, the same
    # words asked the other way round, the first and last blocks with no
    # block between them, one word of block 2, and nothing.
    bits = protocol.coin_bits(np.array(KEY_GRID, dtype=np.uint64), coins)
    expected = numpy_coins(KEY_GRID, 64)
    assert len(bits) == len(coins)
    for coin, column in zip(coins, bits):
        assert column.shape == (len(KEY_GRID),) and column.dtype == bool
        assert column.tolist() == [row[coin] for row in expected], coin


@pytest.mark.parametrize("coins, rows", [([4, 5], 1), ([5, 4], 1), ([0, 63], 2), ([9], 1), ([], None)], ids=str)
def test_coin_bits_compute_only_the_blocks_they_read(monkeypatch, coins, rows):
    # The key prelude multiplies the keys alone; rounds 2 to 8 then run on
    # a row per block that holds an asked coin, and no coin runs no round.
    shapes = []
    mulhilo = protocol._mulhilo

    def spy(a, b):
        shapes.append(b.shape)
        return mulhilo(a, b)

    monkeypatch.setattr(protocol, "_mulhilo", spy)
    protocol.coin_bits(np.array(KEY_GRID, dtype=np.uint64), coins)
    keys = len(KEY_GRID)
    assert shapes == ([] if rows is None else [(keys,)] + [(rows, keys)] * 14)


@pytest.mark.parametrize("coins", [[-1], [64], [4, 64], [-1, 5]], ids=str)
def test_coin_bits_refuse_positions_outside_the_counter_table(coins):
    # Coin -1 would read the last block's counter and 64 a 17th block.
    with pytest.raises(ValueError, match="0 to 63"):
        protocol.coin_bits(np.array([1, 2, 3], dtype=np.uint64), coins)


@pytest.mark.parametrize("m, top_from", zip(protocol._MULTIPLIERS, protocol._HI_TOP_FROM), ids=["M0", "M1"])
def test_high_word_top_bit_thresholds_are_exact(m, top_from):
    # Random keys reach x = T with probability 2^-64, so only this test sees
    # a threshold one off.
    top_from = int(top_from)
    assert m * (top_from - 1) >> 64 < 2**63 <= m * top_from >> 64


def test_counter_table_rows_are_rounds_0_and_1_of_blocks_1_to_16():
    # Recomputed in Python ints: round 0 on counter (j, 0, 0, 0) under key
    # (k, 0) gives (k, 0, h, l), and round 1's counter-only terms are
    # hi(M1·h), lo(M1·h) and l ^ W1.
    m0, m1 = protocol._MULTIPLIERS
    rows = list(zip(*(column.tolist() for column in protocol._COUNTER_ROUNDS)))
    assert len(rows) == 16
    for j, row in enumerate(rows, start=1):
        h, l = m0 * j >> 64, m0 * j % 2**64
        assert row == (m1 * h >> 64, m1 * h % 2**64, l ^ protocol._PHILOX_W[1]), j


# ---------------------------------------------------------------------------
# Coin counts.

def test_all_32_splitting_tables_of_a_step_list_have_one_length():
    # coin_count reads the coins of the one splitting map per step list,
    # so every input's own register must have that many branches.
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for steps in {protocol.splitting_steps(attack) for attack in attacks}:
        lengths = {
            len(branch_table(splitting_register(secret, pair1, pair2), steps))
            for secret, pair1, pair2 in product((0, 1), BELL_LABELS, BELL_LABELS)
        }
        assert lengths == {1 << len(stabilizer.linear_map("splitting", steps).coins)}, steps


@pytest.mark.parametrize("spec", SPECS)
def test_coin_count_is_the_pinned_draw_count(spec):
    expected = 10 if spec in TEN_COIN_SPECS else 8
    assert protocol.coin_count(AttackModel.from_spec(spec)) == expected


# ---------------------------------------------------------------------------
# Byte identity with the scalar loop.

def test_attack_sweeps_match_the_scalar_loop_across_the_last_seed():
    seed = 2**64 - 500
    for spec in SPECS:
        attack = AttackModel.from_spec(spec)
        expected = report_to_jsonl(scalar_attack_sweep(attack, 1000, seed))
        assert report_to_jsonl(attack_sweep(attack, 1000, seed)) == expected, spec


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 300])
def test_uniformity_matches_the_scalar_loop(seed):
    expected = report_to_jsonl(scalar_uniformity(1000, seed))
    assert report_to_jsonl(public_transcript_uniformity(1000, seed)) == expected


def test_analyze_attack_reports_are_pinned(capsys):
    digest = hashlib.sha256()
    for spec in SPECS:
        cli.main(["analyze", "--attack", spec, "--trials", "1000", "--format", "structured"])
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_ANALYZE


def test_analyze_view_reports_are_pinned(capsys):
    digest = hashlib.sha256()
    for view in security.VIEW_NAMES:
        for fmt in ("text", "structured"):
            assert cli.main(["analyze", "--view", view, "--format", fmt]) == cli.EXIT_OK
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_VIEWS


# ---------------------------------------------------------------------------
# Edge cases.

def test_uniformity_of_no_trials():
    report = public_transcript_uniformity(0, 5)
    assert report_to_jsonl(report) == report_to_jsonl(scalar_uniformity(0, 5))
    assert all(m.empirical_counts == {} and m.chi_square_p == 1.0 for m in report.messages.values())


@pytest.mark.parametrize("seed", [-7, 2**64 + 11])
def test_out_of_range_library_seeds(seed):
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    expected = report_to_jsonl(scalar_attack_sweep(attack, 40, seed))
    assert report_to_jsonl(attack_sweep(attack, 40, seed)) == expected
    assert report_to_jsonl(public_transcript_uniformity(40, seed)) == report_to_jsonl(
        scalar_uniformity(40, seed)
    )


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3"], ids=repr)
def test_sweeps_refuse_seeds_that_are_not_integers(seed):
    # Out-of-range integers wrap, but a float is refused, not truncated: 1.5
    # would otherwise sweep exactly as seed 1 does.  A sweep of no trials,
    # which draws no coin, refuses it too.
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    with pytest.raises(TypeError):
        attack_sweep(attack, 20, seed)
    with pytest.raises(TypeError):
        public_transcript_uniformity(20, seed)
    with pytest.raises(TypeError):
        public_transcript_uniformity(0, seed)


@pytest.mark.parametrize("trials, plain", [(np.int64(20), 20), (True, 1)], ids=repr)
def test_sweep_reports_count_integer_like_trials_as_ints(trials, plain):
    # A trial count reports as the int it stands for: neither as the JSON
    # ``true`` nor as a numpy integer that json cannot write.
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    assert report_to_jsonl(attack_sweep(attack, trials, 3)) == report_to_jsonl(
        attack_sweep(attack, plain, 3)
    )
    assert report_to_jsonl(public_transcript_uniformity(trials, 3)) == report_to_jsonl(
        public_transcript_uniformity(plain, 3)
    )


def test_sweeps_spanning_several_chunks(monkeypatch):
    monkeypatch.setattr(security, "_CHUNK_TRIALS", 7)
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    seed = 2**64 - 20
    expected = report_to_jsonl(scalar_attack_sweep(attack, 60, seed))
    assert report_to_jsonl(attack_sweep(attack, 60, seed)) == expected
    assert report_to_jsonl(public_transcript_uniformity(60, seed)) == report_to_jsonl(
        scalar_uniformity(60, seed)
    )


@pytest.mark.parametrize("chunk", [security._CHUNK_TRIALS, 7])
@pytest.mark.parametrize("seed", [0, 9, 2**64 - 300])
def test_sweep_detections_are_the_rejecting_leaf_keys(monkeypatch, seed, chunk):
    # A sweep reads its detections off the check's parity and the coins that
    # move it; the uniformity check's counts by leaf key, off every coin,
    # must agree, for every attack model, within a chunk and across chunks.
    monkeypatch.setattr(security, "_CHUNK_TRIALS", chunk)
    for attack in every_attack():
        for trials in (1, 7, 1000):
            expected = security._leaf_counts(attack, trials, seed)[32:].sum()
            assert attack_sweep(attack, trials, seed).detections == expected, (attack, trials)


def test_attack_sweeps_draw_only_the_coins_that_move_the_check(monkeypatch):
    # No coin and no secret moves the check of a model at rate 0 or 1, and
    # on auth-r2 the fifth and sixth of its 10 coins do; the uniformity
    # check reads every coin of the honest run.
    drawn = []
    coin_bits = protocol.coin_bits

    def spy(keys, coins):
        coins = list(coins)
        drawn.append(coins)
        return coin_bits(keys, coins)

    monkeypatch.setattr(protocol, "coin_bits", spy)
    for attack in every_attack():
        drawn.clear()
        attack_sweep(attack, 1000, 41)
        rate = security.exact_detection_rate(attack)
        if attack.spec_string == "intercept-resend-computational:auth-r2":
            assert rate == Fraction(1, 2) and drawn == [[4, 5]]
        else:
            assert rate in (0, 1) and drawn == [[]], attack
    drawn.clear()
    public_transcript_uniformity(1000, 41)
    assert drawn == [list(range(protocol.coin_count(NO_ATTACK)))] == [list(range(8))]


def test_leaf_counts_are_the_leaf_keys_of_full_runs():
    # Key by key, not only the detections or one public message: each
    # trial's full run decodes to a leaf key, for every attack model and
    # across the last seed.
    seed = 2**64 - 30
    for attack in every_attack():
        expected = [0] * 40
        for i in range(64):
            transcript = run_qss22(i % 2, (seed + i) % (MAX_SEED + 1), attack)
            payloads = [event.payload for event in transcript.public_messages()[:3]]
            expected[leaf_key(transcript.outcome == "rejected", payloads)] += 1
        counts = security._leaf_counts(attack, 64, seed)
        assert counts.dtype == np.int64 and counts.tolist() == expected, attack


def test_leaf_counts_split_at_an_even_trial(monkeypatch):
    # Trial i has seed seed + i and secret i mod 2, so for even k the counts
    # of n trials are those of the first k plus those of n - k trials from
    # seed + k.  Chunks of 7 also cut them at odd trials.
    monkeypatch.setattr(security, "_CHUNK_TRIALS", 7)
    seed = 2**64 - 20
    for spec in SPECS:
        attack = AttackModel.from_spec(spec)
        counts = security._leaf_counts(attack, 60, seed)
        assert counts.sum() == 60, spec
        assert set(np.flatnonzero(counts).tolist()) <= set(security._leaf_table(attack).keys.tolist()), spec
        for k in (0, 2, 24, 60):
            rest = security._leaf_counts(attack, 60 - k, (seed + k) % (MAX_SEED + 1))
            assert (security._leaf_counts(attack, k, seed) + rest).tolist() == counts.tolist(), (spec, k)


def test_a_sweep_makes_no_run_cold_or_warm(monkeypatch):
    # A sweep counts the trials per leaf key, and the keys' fields are the
    # payloads: neither a cold nor a warm sweep runs the protocol or keys a
    # generator.
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")

    def sweeps():
        return report_to_jsonl(attack_sweep(attack, 500, 3)), report_to_jsonl(public_transcript_uniformity(500, 3))

    expected = sweeps()

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran the protocol")

    assert not hasattr(security, "run_qss22")
    monkeypatch.setattr(protocol, "run_qss22", forbidden)
    monkeypatch.setattr(protocol, "make_rng", forbidden)
    security._leaf_table.cache_clear()
    assert sweeps() == expected
    assert sweeps() == expected


def test_leaf_tables_hold_a_key_per_branch():
    # 32 keys when no branch is rejected, 8 when every branch is, and both
    # sets when half are.
    for spec in SPECS:
        attack = AttackModel.from_spec(spec)
        keys = security._leaf_table(attack).keys
        rate = security.exact_detection_rate(attack)
        assert len(keys) == 2 * 2 ** protocol.coin_count(attack)
        assert len(set(keys.tolist())) == {0: 32, 1: 8}.get(rate, 40), spec
        rejected = set((keys >= 32).tolist())
        assert rejected == ({False} if rate == 0 else {True} if rate == 1 else {False, True}), spec


class FixedCoins:
    """A ``protocol.make_rng`` stand-in whose raw words are 0 or 2^63, so
    that a run's coins, in draw order, are the given bits."""

    def __init__(self, coins):
        self.words = [0 if coin else 1 << 63 for coin in coins]

    def random_raw(self, size):
        drawn, self.words = self.words[:size], self.words[size:]
        return np.array(drawn, dtype=np.uint64)


def test_every_coin_pattern_of_a_run_reaches_the_leaf_key_of_its_branch(monkeypatch):
    # Branch i of the flattened run table is the run with secret i >> coins
    # and coins the bits below it, the first most significant: the order
    # in which the run draws them and the sweeps index the table.
    for attack in every_attack():
        coins = protocol.coin_count(attack)
        keys = security._leaf_table(attack).keys
        for branch, key in enumerate(keys.tolist()):
            rng = FixedCoins(branch >> j & 1 for j in reversed(range(coins)))
            monkeypatch.setattr(protocol, "make_rng", lambda seed: rng)
            transcript = run_qss22(branch >> coins, 0, attack)
            assert rng.words == []
            payloads = [event.payload for event in transcript.public_messages()[:3]]
            assert leaf_key(transcript.outcome == "rejected", payloads) == key, (attack, branch)


def test_exact_rates_read_no_leaf_table():
    security._leaf_table.cache_clear()
    security._splitting_branches.cache_clear()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    assert security._leaf_table.cache_info()[:2] == (0, 0)


# ---------------------------------------------------------------------------
# The sweep record: leaf keys and the run's basis.

def test_sweep_rates_are_the_exact_rates_cold_and_warm():
    # A sweep reads its exact rate off the basis its record holds, through
    # the helper exact_detection_rate uses: the first sweep of each model
    # builds the record, the second reads it.
    security._leaf_table.cache_clear()
    for attack in every_attack():
        exact = security.exact_detection_rate(attack)
        for misses in (1, 0):
            before = security._leaf_table.cache_info().misses
            report = attack_sweep(attack, 20, 0)
            assert security._leaf_table.cache_info().misses - before == misses, attack
            assert report.exact_rate_rational == f"{exact.numerator}/{exact.denominator}", attack


def test_records_hold_a_read_only_basis_and_the_coin_count():
    # The basis is a tuple of ints, which cannot change in place, a word
    # per coin besides the all-zero and the secret's; the keys are a
    # read-only array.
    for attack in every_attack():
        record = security._leaf_table(attack)
        assert len(record.basis) == 2 + protocol.coin_count(attack), attack
        assert not record.keys.flags.writeable, attack
        basis = security._basis(attack)
        assert type(record.basis) is type(basis) is tuple, attack
        assert all(type(word) is int for word in record.basis + basis), attack
        assert record.basis == basis, attack


def test_run_fields_tile_17_bits_and_the_low_five_are_a_leaf_key():
    # Each column of a run word has bits of its own, and together they
    # are bits 0-16.  A word's low five bits are its leaf key, whose
    # fields a sweep reads as a run's payloads (leaf_key): R1's token,
    # R2's token and the teleport outcome, with 32 and the tokens alone on
    # rejection.
    fields = security._RUN_FIELDS
    masks = [(1 << width) - 1 << shift for shift, width in fields.values()]
    assert sum(masks) == np.bitwise_or.reduce(masks) == (1 << 17) - 1
    for token_r1, token_r2, tele in product(BELL_LABELS, (0, 1), BELL_LABELS):
        columns = {"token_r1": int(token_r1), "token_r2": token_r2, "tele": int(tele)}
        word = sum(value << fields[name][0] for name, value in columns.items())
        payloads = token_r1.bits, str(token_r2), tele.bits
        assert word & 31 == leaf_key(False, payloads)
        assert word & 7 | 32 == leaf_key(True, payloads)


def test_a_warm_sweep_evaluates_no_branch_of_the_run(monkeypatch):
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    first = report_to_jsonl(attack_sweep(attack, 300, 4)), report_to_jsonl(
        public_transcript_uniformity(300, 4)
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm sweep evaluated the run's branches")

    monkeypatch.setattr(security, "_run_words", forbidden)
    second = report_to_jsonl(attack_sweep(attack, 300, 4)), report_to_jsonl(
        public_transcript_uniformity(300, 4)
    )
    assert second == first


def test_a_record_whose_rate_disagrees_with_its_keys_raises(monkeypatch):
    # The share of rejecting leaf keys, counted over every branch, must be
    # the rank rate of the basis: a rate helper that reads 1 for the honest
    # run, whose keys reject none, trips the record's check.
    monkeypatch.setattr(security, "_detection_rate", lambda basis: Fraction(1))
    security._leaf_table.cache_clear()
    try:
        with pytest.raises(AssertionError, match="basis rate 1"):
            attack_sweep(NO_ATTACK, 10, 0)
        with pytest.raises(AssertionError, match="basis rate 1"):
            public_transcript_uniformity(10, 0)
    finally:
        security._leaf_table.cache_clear()
