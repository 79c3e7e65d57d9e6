"""The memoised linear maps of the sampled runs.

A sampled run draws from lru-cached linear maps over GF(2), each built by
one symbolic stabilizer pass per step list, all in one cache: one map per
token step list for the 16 (pair_a, pair_b) inputs, and one per splitting
step list for all 32 splitting inputs.  These tests pin that reusing them
changes nothing a run does: the transcripts and the number of raw words a
run reads are the same whether every map it reads is built afresh or read
from the cache, a (5,5) run reads only the honest splitting map without
the cipher measurement, and the exact enumeration reads the same maps as
the runs, through the cache the benchmark empties before a cold pass.
Neither touches a state vector, cold or warm.
"""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import qsshare
from qsshare import protocol, security, stabilizer, statevec
from qsshare.protocol import AttackModel
from conftest import SPECS
from test_draws import GOLDEN_QSS22, GOLDEN_QSS55, golden_digests
from test_security import PINNED_EXACT_RATES

SEEDS = range(200)
MAPS = (stabilizer.linear_map,)
# Every functools cache of the package.  A memo that a cold pass does not
# empty would make it warm, so a new one has to be named here and cannot
# slip in unseen.
PACKAGE_CACHES = {
    "qsshare.bell.generate_teleport_table",
    "qsshare.bell.generate_swap_table",
    "qsshare.protocol.token_steps",
    "qsshare.protocol.splitting_steps",
    "qsshare.stabilizer.linear_map",
    "qsshare.security.enumerate_honest_cases",
    "qsshare.security._sweep_basis",
}
MEASUREMENTS = (
    "measure_computational",
    "bell_measure",
    "project_computational",
    "bell_project",
    "joint_distribution",
)


def clear_maps():
    for linear_map in MAPS:
        linear_map.cache_clear()


def cached_maps():
    return sum(linear_map.cache_info().currsize for linear_map in MAPS)


@pytest.fixture
def counted_runs(counted):
    def run(attack, seed):
        transcript = protocol.run_qss22(seed % 2, seed, attack)
        return transcript.to_jsonl(), counted[-1].words

    return run


def test_cold_and_warm_runs_agree(counted_runs):
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack, seed in product(attacks, SEEDS):
        counted_runs(attack, seed)
    warm = {(attack, seed): counted_runs(attack, seed) for attack, seed in product(attacks, SEEDS)}
    for attack, seed in product(attacks, SEEDS):
        clear_maps()
        cold = counted_runs(attack, seed)
        assert cold == warm[attack, seed], (attack.spec_string, seed)
    assert all(words > 0 for _, words in warm.values())


def test_second_rotation_adds_no_entries():
    # A rerun of the same trials reads only maps the first rotation built,
    # so it must find every one rather than build a new one.
    clear_maps()
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack in attacks:
        security.attack_sweep(attack, 300, 0)
    entries = cached_maps()
    misses = [linear_map.cache_info().misses for linear_map in MAPS]
    assert entries > 0
    for attack in attacks:
        security.attack_sweep(attack, 300, 0)
    assert cached_maps() == entries
    assert [linear_map.cache_info().misses for linear_map in MAPS] == misses


def test_warm_runs_call_no_statevec_measurement(monkeypatch):
    attacks = [AttackModel.from_spec(spec) for spec in SPECS]
    for attack, seed in product(attacks, range(50)):
        protocol.run_qss22(seed % 2, seed, attack)

    def forbidden(*args):
        raise AssertionError("a warm sampled run measured a register")

    for name in MEASUREMENTS:
        monkeypatch.setattr(statevec, name, forbidden)
    for attack, seed in product(attacks, range(50)):
        protocol.run_qss22(seed % 2, seed, attack)


def test_warm_exact_rates_call_no_statevec_measurement(monkeypatch):
    # The rates read the maps the runs read, so once one pass has built
    # them a rate is a rank over int codes: no register is projected,
    # measured or read off a joint distribution.
    rates = dict(PINNED_EXACT_RATES, **{"r1-lie:00": Fraction(0)})
    for spec in rates:
        security.exact_detection_rate(AttackModel.from_spec(spec))

    def forbidden(*args):
        raise AssertionError("a warm exact rate enumerated a register")

    for name in MEASUREMENTS:
        monkeypatch.setattr(statevec, name, forbidden)
    for spec, expected in rates.items():
        rate = security.exact_detection_rate(AttackModel.from_spec(spec))
        assert type(rate) is Fraction and rate == expected, spec


def test_cold_runs_and_rates_build_their_maps_with_no_state_vector(monkeypatch):
    # The symbolic pass builds every map a run or a rate reads, so with
    # statevec's projections (which the statevec enumerator forks by) and
    # its joint distribution raising, a cold pass of the 13 rates plus r1-lie:00 still returns the
    # pinned Fractions, and the golden grid, qss22 runs under every spec
    # with either secret and qss55 runs, started cold, still hashes to its
    # pinned digests.
    def forbidden(*args):
        raise AssertionError("a cold run or rate enumerated a register")

    for name in ("bell_project", "project_computational", "joint_distribution"):
        monkeypatch.setattr(statevec, name, forbidden)
    clear_maps()
    rates = dict(PINNED_EXACT_RATES, **{"r1-lie:00": Fraction(0)})
    for spec, expected in rates.items():
        rate = security.exact_detection_rate(AttackModel.from_spec(spec))
        assert type(rate) is Fraction and rate == expected, spec
    clear_maps()
    assert golden_digests() == (GOLDEN_QSS22, GOLDEN_QSS55)


def test_qss55_and_exact_enumeration_see_only_plain_states(monkeypatch):
    # qss55 draws from the one honest splitting map and takes R2's qubit
    # by Pauli frame, so a warm run touches no register; the exact
    # enumeration reads the token and splitting maps the runs read, from
    # the one lru cache the benchmark empties through security's name.
    # Neither samples a register.
    seen = []

    def spy(name):
        real = getattr(statevec, name)

        def recorded(*args):
            seen.append(name)
            return real(*args)

        monkeypatch.setattr(statevec, name, recorded)

    for name in MEASUREMENTS + ("reduced_density", "extract_pure_qubit"):
        spy(name)
    read = []
    real_map = stabilizer.linear_map

    def recorded_map(*key):
        read.append(key)
        return real_map(*key)

    monkeypatch.setattr(stabilizer, "linear_map", recorded_map)
    clear_maps()
    protocol.run_qss55((0.6, 0.8j), 0)  # builds the one map the runs read
    seen.clear()

    def no_eigendecomposition(*args):
        raise AssertionError("a warm qss55 run diagonalised a matrix")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "eigh", no_eigendecomposition)
        patched.setattr(np.linalg, "eigvalsh", no_eigendecomposition)
        for seed in range(20):
            protocol.run_qss55((0.6, 0.8j), seed)
    honest = protocol.splitting_steps(protocol.NO_ATTACK)
    assert len(read) == 21
    assert set(read) == {("splitting", honest)}
    # The one map qss55 reads is the only one in the cache: no token map.
    assert real_map.cache_info()[:2] == (20, 1)
    assert real_map.cache_info().currsize == 1
    assert seen == []

    seen.clear()
    read.clear()
    clear_maps()
    for spec in SPECS:
        security.exact_detection_rate(AttackModel.from_spec(spec))
    # The maps come from the symbolic pass: no state vector, cold or warm.
    assert seen == []
    # Each rate reads both token rounds' maps and one splitting map once,
    # and composes the run's basis from them.  Five splitting and three
    # token step lists, each built once and read again by the specs that
    # share it; security's name is the same lru object, so the benchmark's
    # cold pass empties every one.
    phases = [phase for phase, _ in read]
    assert (phases.count("token"), phases.count("splitting")) == (26, 13)
    assert len({key for key in read if key[0] == "splitting"}) == 5
    assert len({key for key in read if key[0] == "token"}) == 3
    assert security._splitting_branches is real_map
    assert real_map.cache_info()[:2] == (31, 8)


def package_modules():
    return [
        importlib.import_module(f"{qsshare.__name__}.{info.name}")
        for info in pkgutil.iter_modules(qsshare.__path__)
    ]


def functools_cache_uses(module):
    # Every lru_cache or cache of functools the module's source names,
    # whether as a decorator or a call, at any depth.
    tree = ast.parse(inspect.getsource(module))
    cache_names, functools_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            cache_names |= {a.asname or a.name for a in node.names if a.name in ("lru_cache", "cache")}
        elif isinstance(node, ast.Import):
            functools_names |= {a.asname or a.name for a in node.names if a.name == "functools"}
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in cache_names
        or isinstance(node, ast.Attribute)
        and node.attr in ("lru_cache", "cache")
        and isinstance(node.value, ast.Name)
        and node.value.id in functools_names
    ]


def test_the_package_holds_exactly_the_known_caches():
    found = set()
    uses = 0
    for module in package_modules():
        uses += len(functools_cache_uses(module))
        namespaces = [vars(module)] + [vars(c) for c in vars(module).values() if inspect.isclass(c)]
        for namespace in namespaces:
            for obj in namespace.values():
                # Imports and aliases name a cache of another module: count
                # each where it is defined.
                if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                    found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == PACKAGE_CACHES
    # No cache sits where a namespace scan cannot see it, such as a nested
    # function or a call that wraps a function under another name.
    assert uses == len(PACKAGE_CACHES)
