from fractions import Fraction

from hypothesis import settings

from qsshare import protocol

# Fixed example sequence and no example database, so property tests draw the
# same cases on every run; no per-example deadline, since a loaded host can
# stall any single example.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def equal_shares(state, steps):
    """The outcomes of every branch of ``steps`` on ``state`` by the
    statevec enumerator (``protocol._enumerate_steps``), which must be 2^d
    equally likely branches; any other distribution raises."""
    enumerated = protocol._enumerate_steps(state, steps)
    count = len(enumerated)
    share = Fraction(1, count)
    if count & (count - 1) or any(p != share for p, _ in enumerated):
        weights = ", ".join(str(p) for p, _ in enumerated)
        raise AssertionError(f"branch weights {weights} are not 2^d equal shares")
    return [outcomes for _, outcomes in enumerated]


def branch_table(state, steps):
    """The outcomes by name of each of the 2^d equally likely branches of
    ``steps`` on ``state`` (:func:`equal_shares`, which raises on any other
    distribution), sorted by their bits: a Bell outcome orders by its z bit,
    then its x bit.  These are the rows a stacked table holds for that
    register, in the order ``protocol._draw`` indexes them; the tests'
    statevec reference, enumerated on the register itself."""
    by_bits = sorted(equal_shares(state, steps))
    return tuple(protocol._named(steps, outcomes) for outcomes in by_bits)
