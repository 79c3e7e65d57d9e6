"""The memoised measurement tree of the sampled (2,2) run.

A sampled run starts from lru-cached register roots whose measurements keep
their Born probabilities and post-measurement states.  These tests pin that
reusing them changes nothing a run does: the transcripts and the number of
random draws of a run are the same whether every branch it takes is
computed afresh or read from the memo.
"""

from itertools import product

import numpy as np
import pytest

from qsshare import protocol, security, statevec
from qsshare.bell import BELL_LABELS, PHI_MINUS, PHI_PLUS, PSI_MINUS
from qsshare.protocol import AttackModel

# The 13 attack specs of the README table.
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
SEEDS = range(200)


class CountingRng:
    """Generator stand-in that counts the uniforms a run draws."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


def clear_roots():
    protocol._token_root.cache_clear()
    protocol._splitting_root.cache_clear()


def roots():
    """Every register root the sampled run can reach (made if missing)."""
    pairs = list(product(BELL_LABELS, repeat=2))
    tokens = [protocol._token_root(a, b) for a, b in pairs]
    splits = [protocol._splitting_root(s, a, b) for s in (0, 1) for a, b in pairs]
    return tokens + splits


def memo_entries(state):
    """Measurement nodes and memoised states below ``state``."""
    count = 0
    pending = list(state.memo.values())
    while pending:
        entry = pending.pop()
        count += 1
        if isinstance(entry, statevec.StateVector):
            pending.extend(entry.memo.values())
        else:
            pending.extend(below for below in entry.below if below is not None)
    return count


def total_entries():
    return sum(memo_entries(root) for root in roots())


@pytest.fixture
def counted_runs(monkeypatch):
    made = []
    real_make_rng = protocol.make_rng

    def counting_make_rng(seed):
        made.append(CountingRng(real_make_rng(seed)))
        return made[-1]

    monkeypatch.setattr(protocol, "make_rng", counting_make_rng)

    def run(attack, seed):
        transcript = protocol.run_qss22(seed % 2, seed, attack)
        return transcript.to_jsonl(), made[-1].draws

    return run


def test_cold_and_warm_runs_agree(counted_runs):
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack, seed in product(attacks, SEEDS):
        counted_runs(attack, seed)
    warm = {(attack, seed): counted_runs(attack, seed) for attack, seed in product(attacks, SEEDS)}
    for attack, seed in product(attacks, SEEDS):
        clear_roots()
        cold = counted_runs(attack, seed)
        assert cold == warm[attack, seed], (attack.spec_string, seed)
    assert all(draws > 0 for _, draws in warm.values())


def test_second_rotation_adds_no_entries():
    # A rerun of the same trials follows only branches the first rotation
    # memoised, so it must find every entry rather than make a new one.
    clear_roots()
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack in attacks:
        security.attack_sweep(attack, 300, 0)
    entries = total_entries()
    assert entries > 0
    for attack in attacks:
        security.attack_sweep(attack, 300, 0)
    assert total_entries() == entries


def test_memoised_amplitudes_are_read_only():
    rng = np.random.default_rng(0)
    root = protocol._splitting_root(1, PHI_PLUS, PSI_MINUS)
    _, measured = statevec.bell_measure(root, 2, 3, rng)
    _, collapsed = statevec.measure_computational(measured, 4, rng)
    extended = statevec.derived(root, "ancilla", protocol._attach_ancilla)
    for state in (root, measured, collapsed, extended):
        assert state.memo is not None
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0
    assert statevec.derived(root, "ancilla", protocol._attach_ancilla) is extended


def test_plain_states_keep_no_memo():
    rng = np.random.default_rng(1)
    state = protocol.prepare_token_register(PHI_PLUS, PHI_MINUS)
    assert state.memo is None
    _, after = statevec.bell_measure(state, 1, 2, rng)
    _, collapsed = statevec.measure_computational(after, 0, rng)
    assert after.memo is None and collapsed.memo is None
    assert after.amplitudes.flags.writeable


def test_projections_of_a_root_carry_no_memo():
    root = protocol._splitting_root(0, PHI_PLUS, PSI_MINUS)
    before = memo_entries(root)
    _, projected = statevec.bell_project(root, 2, 3, PHI_PLUS)
    _, collapsed = statevec.project_computational(root, 4, 0)
    assert projected.memo is None and collapsed.memo is None
    assert memo_entries(root) == before


def test_qss55_and_exact_enumeration_see_only_plain_states(monkeypatch):
    seen = []

    def spy(name):
        real = getattr(statevec, name)

        def recorded(state, *args):
            seen.append((name, state.memo))
            return real(state, *args)

        monkeypatch.setattr(statevec, name, recorded)

    for name in ("bell_measure", "measure_computational", "bell_project", "project_computational"):
        spy(name)
    protocol.run_qss55((0.6, 0.8j), 5)
    security._splitting_branches.cache_clear()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    names = {name for name, _ in seen}
    assert {"bell_measure", "bell_project", "project_computational"} <= names
    assert all(memo is None for _, memo in seen)
