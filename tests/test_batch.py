"""Batched sweeps: every trial's coins in one numpy pass, one full run per
distinct leaf.

A seeded (2,2) run draws a fixed number of fair coins, and coin j of the
run with seed k is the top bit of raw word j of ``Philox(key=k)``.  The
sweeps compute those words for all trials at once with a vectorised
Philox4x64-10, read each trial's leaf key off the run's branch table, and
run one full :func:`run_qss22` per key they have not seen.  These tests pin
the words against numpy, the coin counts against the tables, the leaf keys
against a run of every coin pattern, and the reports byte for byte against
the scalar loop the sweeps used to run, which is kept here as the
reference.
"""

import hashlib
import random
from itertools import product

import numpy as np
import pytest

from qsshare import cli, protocol, security
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
    token_r1 = protocol._code(BellLabel.from_bits(payloads[0]))
    tele = 4 if rejected else protocol._code(BellLabel.from_bits(payloads[2]))
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
        observed = [counts.get(v, 0) for v in security._message_domain(name)]
        messages[name] = MessageUniformity(
            values=sizes[name],
            exact_uniform=uniform,
            exact_secret_independent=independent,
            empirical_counts=dict(sorted(counts.items())),
            chi_square_p=security._uniform_chi_square_p(observed) if trials else 1.0,
        )
    return UniformityReport(trials=trials, messages=messages)


@pytest.fixture
def counted_calls(monkeypatch):
    # Counts the full runs a sweep makes and the generators they key.
    calls = {"run_qss22": 0, "make_rng": 0}
    real_run, real_make_rng = security.run_qss22, protocol.make_rng

    def counting_run(*args):
        calls["run_qss22"] += 1
        return real_run(*args)

    def counting_make_rng(seed):
        calls["make_rng"] += 1
        return real_make_rng(seed)

    monkeypatch.setattr(security, "run_qss22", counting_run)
    monkeypatch.setattr(protocol, "make_rng", counting_make_rng)
    return calls


# ---------------------------------------------------------------------------
# The vectorised Philox.

def test_philox_words_match_numpy():
    # Round r adds r * W0 to the key, so the top ten keys wrap past 2^64 in
    # the folded rounds as well as in the full ones.
    keys = (
        KEY_GRID
        + tuple(random.Random(27).getrandbits(64) for _ in range(2000))
        + tuple(range(2**64 - 10, 2**64))
    )
    words = protocol.philox_words(np.array(keys, dtype=np.uint64), 12)
    assert words.shape == (len(keys), 12)
    for key, row in zip(keys, words):
        assert row.tolist() == np.random.Philox(key=key).random_raw(12).tolist(), key


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12])
def test_philox_words_cut_to_any_count(count):
    keys = np.array(KEY_GRID[:6], dtype=np.uint64)
    words = protocol.philox_words(keys, count)
    assert words.shape == (6, count)
    assert (words == protocol.philox_words(keys, 12)[:, :count]).all()


@pytest.mark.parametrize("count", [0, 10])
def test_philox_words_of_no_keys(count):
    words = protocol.philox_words(np.array([], dtype=np.uint64), count)
    assert words.shape == (0, count) and words.dtype == np.uint64


def test_trial_keys_wrap_past_the_last_seed():
    keys = security._trial_keys(2**64 - 3, 0, 6)
    assert keys.tolist() == [2**64 - 3, 2**64 - 2, 2**64 - 1, 0, 1, 2]
    words = protocol.philox_words(keys, 12)
    for i, row in enumerate(words):
        expected = np.random.Philox(key=(2**64 - 3 + i) % 2**64).random_raw(12)
        assert row.tolist() == expected.tolist()


def test_coin_indices_are_the_draws_a_run_compares():
    # Each key's index is the word _draw makes of n coins whose columns are
    # the bits of an n-bit index, the first most significant, and its bits
    # are the raw words a run compares with 2^63; n crosses the byte
    # boundaries at 8 and 16.
    for count in range(18):
        indices = protocol.coin_index(np.array(KEY_GRID, dtype=np.uint64), count)
        assert indices.shape == (len(KEY_GRID),) and indices.dtype == np.int64
        columns = tuple(1 << j for j in reversed(range(count)))
        for key, index in zip(KEY_GRID, indices.tolist()):
            assert index == protocol._draw(0, columns, protocol.make_rng(key)), (key, count)
            coins = [index >> j & 1 == 1 for j in reversed(range(count))]
            assert coins == (protocol.make_rng(key).random_raw(count) < 2**63).tolist(), (key, count)


@pytest.mark.parametrize("count", [0, 10])
def test_coin_indices_of_no_keys(count):
    indices = protocol.coin_index(np.array([], dtype=np.uint64), count)
    assert indices.shape == (0,) and indices.dtype == np.int64


# ---------------------------------------------------------------------------
# Coin counts.

def test_all_32_splitting_tables_of_a_step_list_have_one_length():
    # coin_count reads the coins of the one splitting map per step list,
    # so every input's own register must have that many branches.
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for steps in {protocol.splitting_steps(attack, True) for attack in attacks}:
        lengths = {
            len(branch_table(splitting_register(secret, pair1, pair2), steps))
            for secret, pair1, pair2 in product((0, 1), BELL_LABELS, BELL_LABELS)
        }
        assert lengths == {1 << len(protocol._linear_map("splitting", steps).coins)}, steps


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


def test_a_warm_sweep_makes_no_run(counted_calls):
    # Cold, each sweep makes one run per leaf key it draws: at most 40 under
    # the attack and 32 honest ones.
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    security._leaf_table.cache_clear()
    first = report_to_jsonl(attack_sweep(attack, 500, 3)), report_to_jsonl(
        public_transcript_uniformity(500, 3)
    )
    filled = sum(leaf is not None for a in (attack, NO_ATTACK) for leaf in security._leaf_table(a).leaves)
    assert 0 < counted_calls["run_qss22"] == counted_calls["make_rng"] == filled <= 40 + 32
    counted_calls.update(run_qss22=0, make_rng=0)
    second = report_to_jsonl(attack_sweep(attack, 500, 3)), report_to_jsonl(
        public_transcript_uniformity(500, 3)
    )
    assert second == first
    assert counted_calls == {"run_qss22": 0, "make_rng": 0}


def test_leaf_tables_hold_a_key_per_branch_and_a_slot_per_key():
    # 32 keys when no branch is rejected, 8 when every branch is, and both
    # sets when half are.
    for spec in SPECS:
        attack = AttackModel.from_spec(spec)
        attack_sweep(attack, 3000, 1)
        keys, leaves, _ = security._leaf_table(attack)
        rate = security.exact_detection_rate(attack)
        assert len(keys) == 2 * 2 ** protocol.coin_count(attack) and len(leaves) == 40
        assert len(set(keys.tolist())) == {0: 32, 1: 8}.get(rate, 40), spec
        filled = {key: leaf for key, leaf in enumerate(leaves) if leaf is not None}
        assert set(filled) == set(keys.tolist()), spec
        assert all(leaf_key(*leaf) == key for key, leaf in filled.items()), spec
        rejected = {leaf[0] for leaf in filled.values()}
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


def test_a_run_that_misses_its_leaf_key_raises(monkeypatch):
    # A run whose payloads do not encode to the key its trial drew is an
    # error, not a leaf: here R2's token is flipped after the run.
    real_run = security.run_qss22

    def altered_run(*args):
        transcript = real_run(*args)
        token = transcript.public_messages()[1]
        token.payload = str(1 - int(token.payload))
        return transcript

    monkeypatch.setattr(security, "run_qss22", altered_run)
    security._leaf_table.cache_clear()
    try:
        with pytest.raises(AssertionError, match="leaf key"):
            attack_sweep(AttackModel.from_spec("none"), 100, 0)
    finally:
        security._leaf_table.cache_clear()


def test_exact_rates_read_no_leaf_table():
    security._leaf_table.cache_clear()
    security._splitting_branches.cache_clear()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    assert security._leaf_table.cache_info()[:2] == (0, 0)


# ---------------------------------------------------------------------------
# The sweep record: leaf keys, leaf slots and the run's basis.

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
    for attack in every_attack():
        record = security._leaf_table(attack)
        assert record.coins == protocol.coin_count(attack), attack
        assert not record.keys.flags.writeable, attack
        basis = security._basis(attack)
        assert record.basis.keys() == basis.keys(), attack
        for name, column in record.basis.items():
            assert not column.flags.writeable and (column == basis[name]).all(), (attack, name)


def test_a_warm_sweep_evaluates_no_branch_of_the_run(monkeypatch):
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    first = report_to_jsonl(attack_sweep(attack, 300, 4)), report_to_jsonl(
        public_transcript_uniformity(300, 4)
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm sweep evaluated the run's branches")

    monkeypatch.setattr(security, "_run_columns", forbidden)
    second = report_to_jsonl(attack_sweep(attack, 300, 4)), report_to_jsonl(
        public_transcript_uniformity(300, 4)
    )
    assert second == first


def test_a_record_whose_basis_disagrees_with_its_keys_raises(monkeypatch):
    # R2's token is one bit of the sender's parity, so flipping it on every
    # basis branch turns the honest run's rate of 0 into 1, while the keys,
    # read off every branch, still reject none.
    real_basis = security._basis

    def flipped(attack):
        basis = real_basis(attack)
        basis["token_r2"] ^= 1
        return basis

    monkeypatch.setattr(security, "_basis", flipped)
    security._leaf_table.cache_clear()
    try:
        with pytest.raises(AssertionError, match="basis rate 1"):
            attack_sweep(NO_ATTACK, 10, 0)
        with pytest.raises(AssertionError, match="basis rate 1"):
            public_transcript_uniformity(10, 0)
    finally:
        security._leaf_table.cache_clear()
