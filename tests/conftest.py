from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from qsshare import protocol, statevec
from qsshare.bell import BELL_LABELS, BellLabel

# Fixed example sequence and no example database, so property tests draw the
# same cases on every run; no per-example deadline, since a loaded host can
# stall any single example.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# The 13 attack specs of the README table, in its order (the golden analyze
# digest hashes their reports in this order).
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


class CountingWords:
    """A ``protocol.make_rng`` generator that records the size of each
    ``random_raw`` call a run makes, ``None`` for a single word."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random_raw(self, size=None):
        self.sizes.append(size)
        return self.rng.random_raw(size)

    @property
    def words(self):
        """How many raw words the run has read."""
        return sum(1 if size is None else size for size in self.sizes)


@pytest.fixture
def counted(monkeypatch):
    """The :class:`CountingWords` around each generator ``protocol.make_rng``
    makes while the test runs, in order."""
    made = []
    real_make_rng = protocol.make_rng

    def counting_make_rng(seed):
        made.append(CountingWords(real_make_rng(seed)))
        return made[-1]

    monkeypatch.setattr(protocol, "make_rng", counting_make_rng)
    return made


def attach_ancilla(state):
    """``state`` with the eavesdropper's ancilla: a fresh qubit 5 entangled
    with the cipher qubit 4 by a CNOT from it."""
    state = statevec.tensor(state, statevec.zero_state(1))
    return statevec.apply_cnot(state, 4, 5)


def dyadic(probability, n_qubits):
    """The multiple of 2^-n nearest a Born probability of an n-qubit
    stabilizer register; raises unless the float is within 1e-12 of it."""
    scale = 1 << n_qubits
    count = round(probability * scale)
    if not abs(probability - count / scale) < 1e-12:
        raise AssertionError(f"branch probability {probability} is not a multiple of 1/{scale}")
    return Fraction(count, scale)


def enumerate_steps(state, steps):
    """Every nonzero (probability, outcomes) branch of the
    ``protocol.Step`` list ``steps`` on the plain register ``state``,
    forked by statevec projection one step at a time, each outcome label or
    bit in the order it is listed, with each probability snapped by
    :func:`dyadic`.  ``outcomes`` holds one label or bit per measurement
    step, in step order.  The statevec reference for the phase maps
    (``protocol._linear_map``)."""
    if not steps:
        return [(Fraction(1), ())]
    (kind, qubits, _), rest = steps[0], steps[1:]
    if kind == "ancilla":
        return enumerate_steps(attach_ancilla(state), rest)
    if kind == "bell":
        forks = [(label, statevec.bell_project(state, *qubits, label)) for label in BELL_LABELS]
    else:
        forks = [(bit, statevec.project_computational(state, *qubits, bit)) for bit in (0, 1)]
    branches = []
    for outcome, (p, after) in forks:
        if after is not None and (p := dyadic(p, state.n_qubits)):
            branches += [(p * q, (outcome,) + more) for q, more in enumerate_steps(after, rest)]
    return branches


def equal_shares(state, steps):
    """The outcomes of every branch of ``steps`` on ``state`` by the
    statevec enumerator (:func:`enumerate_steps`), which must be 2^d
    equally likely branches; any other distribution raises."""
    enumerated = enumerate_steps(state, steps)
    count = len(enumerated)
    share = Fraction(1, count)
    if count & (count - 1) or any(p != share for p, _ in enumerated):
        weights = ", ".join(str(p) for p, _ in enumerated)
        raise AssertionError(f"branch weights {weights} are not 2^d equal shares")
    return [outcomes for _, outcomes in enumerated]


def named(steps, outcomes):
    """The outcomes of the measurement steps, in step order, by name; the
    eavesdropper's outcomes join into one bit string, in step order."""
    results = {}
    for step, outcome in zip((step for step in steps if step.kind != "ancilla"), outcomes):
        if step.name == "eve":
            bits = outcome.bits if isinstance(outcome, BellLabel) else str(outcome)
            results["eve"] = results.get("eve", "") + bits
        else:
            results[step.name] = outcome
    return results


def branch_table(state, steps):
    """The outcomes by name (:func:`named`) of each of the 2^d equally
    likely branches of ``steps`` on ``state`` (:func:`equal_shares`, which
    raises on any other distribution), sorted by their bits: a Bell outcome
    orders by its z bit, then its x bit.  These are the branches a phase's
    map (``protocol._linear_map``) gives that register's input, in the
    order ``protocol._draw`` draws them; the tests' statevec reference,
    enumerated on the register itself."""
    by_bits = sorted(equal_shares(state, steps))
    return tuple(named(steps, outcomes) for outcomes in by_bits)


def span(parities, symbols):
    """The XOR of every subset of the symbols' columns, indexed by the
    subset's bits, the first symbol most significant.  A column is the
    outcome bits that read the symbol, the first bit most significant."""
    result = [0]
    for symbol in symbols:
        column = int("".join(str(mask >> symbol & 1) for mask in parities), 2)
        result = [s ^ t for s in result for t in (0, column)]
    return np.array(result, dtype=np.int64)


def stacked_table(phase, steps):
    """The branch table of ``steps`` for every input of the ``phase``,
    expanded from the symbolic pass (``protocol._coin_parities``): shaped
    (*inputs, 2^d, M) by input codes, branch and measurement step, each
    outcome ``2*z + x`` for a Bell step and the bit for a computational one.
    An input's rows are the XOR of its set input columns with each element
    of the span of the coins' columns, sorted by bits.  The tables the
    phase maps replaced, kept here to check the maps row for row."""
    parities, inputs, coins = protocol._coin_parities(phase, steps)
    rows = span(parities, range(inputs))[:, None] ^ span(parities, range(inputs, inputs + coins))
    rows.sort(axis=1)
    widths = [2 if step.kind == "bell" else 1 for step in steps if step.kind != "ancilla"]
    shifts = np.array([sum(widths[i + 1 :]) for i in range(len(widths))])
    table = (rows[..., None] >> shifts) & np.array([(1 << width) - 1 for width in widths])
    secret, pairs = protocol._REFERENCES[phase]
    return table.reshape((2,) * secret + (4,) * len(pairs) + table.shape[1:])
