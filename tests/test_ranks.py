"""Exact results as GF(2) ranks at a run's basis branches.

Every column of a (2,2) run is affine over GF(2) in its branch bits, so
``security`` reads each exact result off the run's columns at the
all-zero branch and at each single-bit branch (``security._basis``): a
rate is 1/2 when any of them flips the rejection parity, a view pins down
the secret when the secret's flip lies outside the span of the coins'
flips, and a k-bit message is uniform when its bits have rank k.  These
tests hold each rank result to the branch counts it replaced, kept here
as the reference and computed over every branch of the run, and check
that the basis rebuilds every column on every branch.
"""

from fractions import Fraction

import numpy as np
import pytest

from qsshare import protocol, security
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
def test_the_basis_rebuilds_every_column_on_every_branch(attack):
    # Each column at branch b is its value at zero XOR the flip of each bit
    # set in b: basis branch 1 is the secret's, the most significant bit,
    # and basis branch 1 + j the j-th coin's.
    basis, run = security._basis(attack), every_branch(attack)
    bits = 1 + protocol.coin_count(attack)
    assert all(len(column) == 1 + bits for column in basis.values())
    branches = np.arange(1 << bits)
    for name in RUN_COLUMNS:
        rebuilt = np.full(len(branches), basis[name][0])
        for j in range(bits):
            rebuilt ^= np.where(branches >> (bits - 1 - j) & 1, basis[name][1 + j] ^ basis[name][0], 0)
        assert (rebuilt == run[name]).all(), name


@pytest.fixture
def evaluated(monkeypatch):
    # Each evaluation of the run, by the function that made it and the
    # number of branches it covers: every branch (_run_columns) or the
    # basis branches (_basis).
    calls = []
    for name in ("_run_columns", "_basis"):
        real = getattr(security, name)

        def counted(attack, real=real, name=name):
            run = real(attack)
            calls.append((name, len(run["secret"])))
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
