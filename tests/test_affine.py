"""The (2,2) circuit is affine over GF(2).

Every gate and measurement of the (2,2) scheme is a Clifford operation on
stabilizer states, so each outcome bit is an affine GF(2) function of the
bits that index a branch (Gottesman–Knill).  That is why every adversary
view gives exactly 0 or 1 bit and every exact detection rate is 0, 1/2 or
1: an affine Boolean function is constant or balanced.  These tests check
the affinity itself, on the honest cases' columns and on the sender's
acceptance under every attack model.
"""

from fractions import Fraction

import numpy as np
import pytest

from qsshare import protocol, security
from qsshare.protocol import NO_ATTACK
from test_exact_branches import every_attack, every_branch

ATTACKS = every_attack()


def is_affine(values):
    """Whether ``values[x]``, over the 2^n indices x, is ``values[0]`` XOR
    the ``values[1 << i] ^ values[0]`` of each bit i set in x: the affine
    GF(2) function of x's bits fixed by its values at 0 and the unit
    vectors.  XOR acts bitwise, so a multi-bit value passes exactly when
    each of its bits is affine."""
    values = np.asarray(values).reshape(-1)
    bits = len(values).bit_length() - 1
    assert len(values) == 1 << bits
    index = np.arange(len(values))
    predicted = np.full_like(values, values[0])
    for i in range(bits):
        predicted ^= np.where(index >> i & 1, values[1 << i] ^ values[0], 0)
    return bool((predicted == values).all())


def test_is_affine_rejects_a_product_of_bits():
    index = np.arange(8)
    assert is_affine(index & 1 ^ index >> 2 & 1 ^ 1)
    assert not is_affine(index & 1 & index >> 1)


@pytest.mark.parametrize(
    "name", ["secret", "pair1", "pair2", "swap", "tele", "cipher", "token_r1", "token_r2"]
)
def test_each_honest_column_bit_is_affine_in_the_case_bits(name):
    # The 512 branches of an honest run are the cases, ordered by secret,
    # pair1, pair2, swap and tele: the branch index's 9 bits are those five
    # values' bits.
    column = every_branch(NO_ATTACK)[name]
    assert len(column) == 512
    for bit in range(2):
        assert is_affine(column >> bit & 1)


def accepted(attack):
    # The sender's check on the run's columns at every branch, indexed by
    # the secret, then the coins in draw order.
    run = every_branch(attack)
    return protocol._accepts(run["record2"], run["tele"], run["secret"], run["token_r1"], run["token_r2"])


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.spec_string)
def test_acceptance_is_affine_in_the_branch_bits(attack):
    for secret in (0, 1):
        assert is_affine(accepted(attack).reshape(2, -1)[secret].astype(np.int64))


@pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.spec_string)
def test_exact_detection_rates_are_0_half_or_1(attack):
    assert security.exact_detection_rate(attack) in (Fraction(0), Fraction(1, 2), Fraction(1))
