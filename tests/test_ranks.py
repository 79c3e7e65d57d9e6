"""Exact results as GF(2) ranks at a run's basis branches.

Every column of a (2,2) run is affine over GF(2) in its branch bits, so
``security`` reads each exact result off the run's words, its columns
packed by field, at the all-zero branch and at each single-bit branch
(``security._basis``): a rate is 1/2 when any of them flips the
rejection parity (``security._REJECT_MASK``, derived from the sender's
check), a view pins down the secret when the secret's flip
lies outside the span of the coins' flips, and a k-bit message is
uniform when its bits have rank k.  These tests hold each rank result
to the branch counts it replaced, kept here as the reference and
computed over every branch of the run by an evaluation of its own
(``every_branch``); check that the package's every-branch words, its
basis expanded (``security._run_words``), read by field, are that
evaluation; check the one elimination behind every span test
(``stabilizer.echelon`` and ``stabilizer.reduce``) against brute force;
and check that a cold sweep record or the honest cases
compose the run's maps once.
"""

from fractions import Fraction
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsshare import protocol, security, stabilizer
from qsshare.protocol import NO_ATTACK, AttackModel
from qsshare.security import VIEW_NAMES
from test_exact_branches import RUN_COLUMNS, every_attack, every_branch

ATTACKS = every_attack()
# Each public message and the run's column it publishes.
MESSAGES = {"masked-swap-token": "token_r1", "masked-cipher-token": "token_r2", "published-teleport-bsm": "tele"}


def rejected(run):
    return ~protocol._accepts(run["record2"], run["tele"], run["secret"], run["token_r1"], run["token_r2"])


def reference_rate(attack):
    # The rejected branches of the run over all of its branches.
    rejections = rejected(every_branch(attack))
    return Fraction(int(np.count_nonzero(rejections)), rejections.size)


def secret_counts(key, secret):
    # The (secret 0, secret 1) branch counts of each key that occurs, in
    # ascending key order.
    counts = np.bincount(2 * key + secret, minlength=2 * int(key.max()) + 2).reshape(-1, 2)
    return counts[counts.any(axis=1)]


def packed(run, names):
    key = 0
    for name in names:
        key = 4 * key + run[name]
    return key


def reference_information(run, names):
    # 0 bits when every key is as likely under either secret, 1 bit when
    # every key occurs under one secret only; anything else is not affine.
    counts = secret_counts(packed(run, names), run["secret"])
    if (counts[:, 0] == counts[:, 1]).all():
        return 0.0
    if (counts.min(axis=1) == 0).all():
        return 1.0
    raise AssertionError(f"columns {names} neither pin down nor ignore the secret")


def reference_message_stats(values, secrets):
    # Whether every value a message takes is equally likely, and whether each
    # is as likely under either secret.
    counts = secret_counts(values, secrets)
    totals = counts.sum(axis=1)
    return bool((totals == totals[0]).all()), bool((counts[:, 0] == counts[:, 1]).all())


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.spec_string)
def test_rank_rates_are_the_rejected_branch_counts(attack):
    rate = security.exact_detection_rate(attack)
    assert type(rate) is Fraction
    assert rate == reference_rate(attack)


@pytest.mark.parametrize("view", VIEW_NAMES)
def test_rank_views_are_the_per_key_secret_counts(view):
    report = security.mutual_information_22(view)
    run = every_branch(NO_ATTACK)
    assert report.mutual_information == reference_information(run, security._VIEW_COLUMNS[view])
    assert report.guess_advantage == report.mutual_information / 2
    assert report.cases_enumerated == len(run["secret"]) == 512


def test_rank_uniformity_is_the_per_value_counts():
    report = security.public_transcript_uniformity(0, 0)
    run = every_branch(NO_ATTACK)
    assert list(report.messages) == list(MESSAGES)
    for name, column in MESSAGES.items():
        message = report.messages[name]
        uniform, independent = reference_message_stats(run[column], run["secret"])
        assert (message.exact_uniform, message.exact_secret_independent) == (uniform, independent), name
        # The values taken are the whole range, so uniform means over it.
        assert len(set(run[column].tolist())) == message.values, name


@given(st.lists(st.integers(0, 63), max_size=7))
def test_the_elimination_ranks_tests_spans_and_names_its_witness(rows):
    # Row i of 6-bit rows carries the one-hot tag 1 << i.  The rank is log2
    # of the span's size, found by XORing every subset of the rows; a vector
    # reduces to 0 exactly when it lies in the span; and the rows its tag
    # names XOR to the vector, less what is left of it.
    def combination(tag):
        return reduce(xor, (row for i, row in enumerate(rows) if tag >> i & 1), 0)

    span = {combination(subset) for subset in range(1 << len(rows))}
    pivots = stabilizer.echelon((row, 1 << i) for i, row in enumerate(rows))
    assert 1 << len(pivots) == len(span)
    for vector in range(64):
        rest, tag = stabilizer.reduce(pivots, vector)
        assert (rest == 0) == (vector in span), vector
        assert combination(tag) ^ rest == vector, vector


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.spec_string)
def test_span_tests_are_the_counts_on_every_column_and_view(attack):
    # The shared rank helpers, on every attack model's run and not only the
    # honest one: whether a set of columns pins down the secret, and how
    # many values it takes (an affine map takes 2^rank values).
    basis, run = security._basis(attack), every_branch(attack)
    for names in [(name,) for name in RUN_COLUMNS] + list(security._VIEW_COLUMNS.values()):
        assert security._pins_secret(basis, names) == reference_information(run, names), names
        rank = security._rank(security._flips(basis, names))
        assert 1 << rank == len(set(packed(run, names).tolist())), names


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.spec_string)
def test_the_basis_expands_to_every_column_on_every_branch(attack):
    # The package's every-branch words are its basis expanded: at branch
    # b, the word at zero XOR the flip of each bit set in b, the secret's
    # the most significant.  Read by field, they are the columns evaluated
    # here over every branch, element by element and in index order.
    basis = security._basis(attack)
    assert len(basis) == 2 + protocol.coin_count(attack)
    run, expected = security._run_words(basis), every_branch(attack)
    assert run.dtype == np.int64 and run.shape == (2 << protocol.coin_count(attack),)
    assert set(security._RUN_FIELDS) == set(expected) == set(RUN_COLUMNS)
    for name, field in security._RUN_FIELDS.items():
        assert (stabilizer.field(run, field) == expected[name]).all(), name


def run_words(run):
    # The columns of every branch (every_branch) packed into run words.
    return sum(run[name] << shift for name, (shift, _) in security._RUN_FIELDS.items())


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.spec_string)
def test_the_reject_mask_is_the_sender_rule_on_every_branch(attack):
    # The rate reads the sender's check as one parity of a run word's bits,
    # derived from protocol._accepts at the zero word and each unit word.
    # On every branch of every model, that parity is the check read by
    # field, which also holds the affinity the derivation assumes.
    run = every_branch(attack)
    words = run_words(run)
    by_field = security._rejected(words)
    assert (by_field == rejected(run)).all()
    by_mask = [security._REJECTED_AT_ZERO ^ (w & security._REJECT_MASK).bit_count() & 1 for w in words.tolist()]
    assert by_mask == by_field.tolist()


def test_the_reject_mask_is_the_checked_bits():
    # The secret, token_r2, the x bit of token_r1, the x bit of tele and
    # the z bit of record2; the all-zero word is accepted.
    shifts = {name: shift for name, (shift, _) in security._RUN_FIELDS.items()}
    bits = [shifts["secret"], shifts["token_r2"], shifts["token_r1"], shifts["tele"], shifts["record2"] + 1]
    assert sorted(bits) == [0, 1, 3, 9, 16]
    assert security._REJECT_MASK == sum(1 << bit for bit in bits)
    assert security._REJECTED_AT_ZERO is False


@pytest.fixture
def evaluated(monkeypatch):
    # Each evaluation of the run, by the function that made it and the
    # number of branches it covers: the basis branches (_basis), or every
    # branch (_run_words, the basis expanded).
    calls = []
    for name in ("_run_words", "_basis"):
        real = getattr(security, name)

        def counted(arg, real=real, name=name):
            run = real(arg)
            calls.append((name, len(run)))
            return run

        monkeypatch.setattr(security, name, counted)
    return calls


def test_each_exact_result_evaluates_the_run_at_its_basis_branches(evaluated):
    # The basis is composed from the phases' maps: no exact result
    # evaluates every branch of the run.
    security._leaf_table(NO_ATTACK)  # the honest run's sweep record: its keys and basis
    evaluated.clear()
    security.exact_detection_rate(NO_ATTACK)
    security.exact_detection_rate(AttackModel.from_spec("intercept-resend-computational:auth-r2"))
    assert evaluated == [("_basis", 10), ("_basis", 12)]
    for attack in ATTACKS:
        evaluated.clear()
        security.exact_detection_rate(attack)
        assert evaluated == [("_basis", 2 + protocol.coin_count(attack))], attack
    for view in VIEW_NAMES:
        evaluated.clear()
        security.mutual_information_22(view)
        assert evaluated == [("_basis", 10)], view
    # The uniformity check reads the basis the honest run's sweep record
    # holds, so it evaluates no branch.
    evaluated.clear()
    security.public_transcript_uniformity(100, 0)
    assert evaluated == []


@pytest.fixture
def run_maps(monkeypatch):
    # Each read of a run's phase maps, by the attack it was read for.
    attacks = []
    real = protocol._run_maps

    def counted(attack):
        attacks.append(attack)
        return real(attack)

    monkeypatch.setattr(protocol, "_run_maps", counted)
    return attacks


def test_a_cold_record_and_the_honest_cases_compose_the_run_once(run_maps):
    # The sweep record's leaf keys expand the basis it holds, and the
    # honest cases expand the honest run's basis: each composes the run's
    # maps once, not once for the basis and again for every branch.
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r1")
    security._leaf_table.cache_clear()
    security._leaf_table(attack)
    assert run_maps == [attack]
    run_maps.clear()
    security.enumerate_honest_cases.cache_clear()
    security.enumerate_honest_cases()
    assert run_maps == [NO_ATTACK]
