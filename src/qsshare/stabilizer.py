"""The symbolic stabilizer pass: a phase's outcomes as a GF(2) linear map.

A phase is a Clifford circuit of Pauli measurements (:class:`Step`) on a
register of Bell pairs, so one symbolic pass (Aaronson & Gottesman, PRA 70,
052328, 2004) gives every outcome bit as a parity of input bits and fair
coins, and :func:`linear_map` packs those parities as int columns.  Paulis
are ints, and one GF(2) elimination (:func:`echelon`, :func:`reduce`) serves
the pass and every span test.  It imports only the standard library.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence


class Step(NamedTuple):
    """One step of a phase: ``kind`` ``"z"`` measures ``qubits[0]`` in the
    computational basis, ``"bell"`` the pair ``qubits`` in the Bell basis,
    and ``"ancilla"`` attaches the eavesdropper's ancilla, a fresh qubit 5,
    by a CNOT from qubit 4.  ``name`` labels a measurement's result:
    ``eve``, ``code``, ``observed``, ``swap``, ``tele`` or ``cipher``."""

    kind: str
    qubits: tuple[int, ...] = ()
    name: str | None = None


# Each phase's reference register, the phase's register at all-zero inputs:
# whether the splitting secret |0> sits on qubit 0, and each Φ+ pair's
# qubits, the qubit that carries its Pauli code first.  Every
# input bit is a sign symbol of its stabilizer generators (_coin_parities),
# in input order, so it has one input column of the phase's map
# (linear_map): a secret bit s is X^s on qubit 0, so it flips the sign of
# Z on it, and a pair's code (z, x) is Z^z X^x on one of its qubits, so it
# flips the pair's XX by z and its ZZ by x.
_REFERENCES = {"token": (False, ((0, 1), (3, 2))), "splitting": (True, ((1, 2), (4, 3)))}

# The symbolic pass writes a Pauli as one int: qubit q's X bit is bit q and
# its Z bit is bit q + _Z, for at most _Z qubits, statevec's MAX_QUBITS.
_Z = 6
_X_BITS = (1 << _Z) - 1


def reduce(pivots: Mapping[int, tuple[int, int]], vector: int, tag: int = 0) -> tuple[int, int]:
    # ``vector`` reduced over GF(2) while its top bit is a pivot row's
    # (echelon), and ``tag`` XOR the tags of the rows it took: the vector
    # lies in the rows' span when the first is 0, and is then the XOR of
    # the rows its tag names.
    while (top := vector.bit_length()) in pivots:
        row, row_tag = pivots[top]
        vector ^= row
        tag ^= row_tag
    return vector, tag


def echelon(rows: Iterable[Sequence[int]]) -> dict[int, tuple[int, int]]:
    # Elimination over GF(2) of (vector, tag) rows: each row, reduced by
    # the rows kept so far (reduce), is kept by its top bit when nonzero,
    # so the rank is the number kept.
    pivots: dict[int, tuple[int, int]] = {}
    for vector, tag in rows:
        vector, tag = reduce(pivots, vector, tag)
        if vector:
            pivots[vector.bit_length()] = vector, tag
    return pivots


def _coin_parities(phase: str, steps: tuple[Step, ...]) -> tuple[list[int], int, int]:
    """One symbolic stabilizer pass of ``steps`` on the phase's reference
    register (Aaronson & Gottesman, PRA 70, 052328, 2004): each outcome
    bit, in word order (a Bell step's z bit, then its x bit), as the mask
    of the symbols it is the XOR of, then the numbers of input symbols and
    of coins.  Symbol i below the input count is the phase's i-th input
    bit, most significant first; the fair coins sit above them.

    Each stabilizer generator is a Pauli and a mask of symbols: its sign is
    -1 when the XOR of those symbols is 1.  The reference register's
    generators are Z on the secret, then XX and ZZ on each Φ+ pair, and
    generator i starts with input symbol i as its sign (see _REFERENCES).
    A measured Pauli that anticommutes with a generator draws a new coin;
    any other is a product of generators and reads the XOR of their masks.
    A generator anticommutes with the Pauli when it shares an odd number of
    bits with the Pauli's symplectic partner, its X and Z halves swapped.
    A Bell step measures ZZ, its x bit, then XX, its z bit.  The ancilla
    step adds Z on qubit 5 and conjugates by the CNOT from qubit 4.  Every
    generator and measured Pauli is pure X or pure Z (CSS), so no product
    of generators picks up a phase: the reference generators and the
    measured Paulis are CSS as built, and a generator is asserted CSS
    wherever it changes, when a measurement XORs another into it and after
    the ancilla's CNOT.
    """
    secret, pairs = _REFERENCES[phase]
    paulis = [1 << _Z] if secret else []
    for a, b in pairs:
        paulis += [1 << a | 1 << b, (1 << a | 1 << b) << _Z]
    generators = [[pauli, 1 << i] for i, pauli in enumerate(paulis)]
    inputs = coins = len(generators)
    bits = []

    def measure(pauli: int) -> int:
        nonlocal coins
        partner = pauli >> _Z | (pauli & _X_BITS) << _Z
        anticommuting = [g for g in generators if (g[0] & partner).bit_count() & 1]
        if not anticommuting:  # a product of generators: read the sign mask of that product
            residue, sign = reduce(echelon(generators), pauli)
            assert residue == 0, "a Pauli that commutes with every generator is not their product"
            return sign
        first, *rest = anticommuting
        for g in rest:
            g[0] ^= first[0]
            g[1] ^= first[1]
            assert not (g[0] & _X_BITS and g[0] >> _Z), "a generator is not CSS"
        first[:] = pauli, 1 << coins
        coins += 1
        return first[1]

    for kind, qubits, _ in steps:
        mask = sum(1 << q for q in qubits)
        if kind == "ancilla":
            generators.append([1 << (5 + _Z), 0])
            for g in generators:  # X4 -> X4 X5 and Z5 -> Z4 Z5
                g[0] ^= (g[0] >> 4 & 1) << 5 | (g[0] >> (5 + _Z) & 1) << (4 + _Z)
                assert not (g[0] & _X_BITS and g[0] >> _Z), "a generator is not CSS"
        elif kind == "bell":
            x = measure(mask << _Z)
            bits += [measure(mask), x]
        else:
            bits.append(measure(mask << _Z))
    return bits, inputs, coins - inputs


class LinearMap(NamedTuple):
    """A step list's outcomes on one phase (:func:`linear_map`) as a GF(2)
    map of packed ints.  A word packs every outcome bit, in step order and a
    Bell step's z bit before its x bit, the first bit most significant; a
    column is the outcome bits one symbol flips."""

    inputs: tuple[int, ...]  # each input bit's column, the first input bit first
    coins: tuple[int, ...]  # each coin's column, in draw order
    # Each step name's (shift, width) in a word: the eavesdropper's steps,
    # always adjacent, share one field.
    fields: Mapping[str, tuple[int, int]]


@lru_cache(maxsize=None)
def linear_map(phase: str, steps: tuple[Step, ...]) -> LinearMap:
    """The outcomes of ``steps`` for every input of the ``phase``: one
    symbolic pass (:func:`_coin_parities`) gives each outcome bit as a
    parity of input bits and d fair coins, so an input's 2^d branches are
    equally likely by construction.  Branch i of an input is the XOR of the
    columns of the input's set bits and of i's set bits, read against the
    coins most significant first (:func:`protocol._draw`), and the branches
    come out in ascending order of their words.  The columns are the parity
    masks transposed: each outcome bit sets its word bit in the columns of
    the symbols its mask holds, found by taking the mask's lowest set bit
    until none is left, so a symbol an outcome does not read costs nothing.

    The coins' columns are in reduced echelon form, each with its pivot at
    the outcome bit that drew it: that bit reads the new coin alone, and no
    earlier bit reads it.  So no other column sets a coin's pivot, every
    input column is already reduced against the coins, and ordering the
    coins by pivot, highest first, orders each input's branches by word.
    That is the order a run draws them in, not always the pass's: a Bell
    step's x bit draws its coin before its z bit does.
    """
    parities, inputs, coins = _coin_parities(phase, steps)
    columns = [0] * (inputs + coins)
    top = len(parities) - 1
    for k, mask in enumerate(parities):  # outcome bit k sets bit top - k of its symbols' columns
        while mask:
            low = mask & -mask
            columns[low.bit_length() - 1] |= 1 << top - k
            mask ^= low
    fields, shift = {}, len(parities)
    for step in steps:
        if step.kind != "ancilla":
            width = 2 if step.kind == "bell" else 1
            shift -= width
            if step.name in fields:
                end, joined = fields[step.name]
                assert step.name == "eve" and end == shift + width, f"{step.name} steps repeat apart"
                width += joined
            fields[step.name] = shift, width
    coin_columns = sorted(columns[inputs:], reverse=True)
    return LinearMap(tuple(columns[:inputs]), tuple(coin_columns), MappingProxyType(fields))


def xor_columns(columns: tuple[int, ...], index):
    # The XOR of the columns of index's set bits, the first column the most
    # significant bit: ints, or int arrays element by element.
    word = 0
    for bit, column in enumerate(reversed(columns)):
        word ^= (index >> bit & 1) * column
    return word


def field(word, field: tuple[int, int]):
    # One field's outcome (LinearMap.fields) in a word or word array.
    shift, width = field
    return word >> shift & (1 << width) - 1
