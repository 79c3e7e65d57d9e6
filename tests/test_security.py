import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from qsshare import bell, security
from qsshare.bell import BELL_LABELS, BSM_OUTCOMES, PHI_PLUS, BellLabel
from qsshare.protocol import AttackModel, run_qss22
from qsshare.security import (
    PIECES,
    VIEW_NAMES,
    attack_sweep,
    chi_square_sf,
    encrypted_qubit_mixedness_55,
    enumerate_honest_cases,
    exact_detection_rate,
    interval_around_rate,
    mutual_information_22,
    public_transcript_uniformity,
    report_to_jsonl,
    wilson_interval,
)
from conftest import SPECS

# Exact rates derived by branch enumeration and pinned here as regression
# constants.  The default intercept (the splitting qubit to R2,
# computational basis) is *undetectable*: the authentication test checks
# only parity relations and a computational-basis measurement preserves all
# of them.  The one detectable intercept is the computational one on the
# token-phase halves sent to R2, whose token is unmasked with both bits of
# the shared code.
PINNED_EXACT_RATES = {
    "none": Fraction(0),
    "token-flip": Fraction(1),
    "r1-lie:01": Fraction(1),
    "r1-lie:10": Fraction(0),
    "r1-lie:11": Fraction(1),
    "intercept-resend-computational:split-r2": Fraction(0),
    "intercept-resend-computational:split-r1": Fraction(0),
    "intercept-resend-bell:split-r1": Fraction(0),
    "intercept-resend-computational:auth-r1": Fraction(0),
    "intercept-resend-computational:auth-r2": Fraction(1, 2),
    "intercept-resend-bell:auth-r1": Fraction(0),
    "intercept-resend-bell:auth-r2": Fraction(0),
    "entangle-ancilla:split-r2": Fraction(0),
}


# ---------------------------------------------------------------------------
# Honest-case enumeration.

def test_enumeration_covers_all_cases_once():
    cases = enumerate_honest_cases()
    assert len(cases) == 512
    keys = {(c.secret, c.pair1, c.pair2, c.swap_bsm, c.teleport_bsm) for c in cases}
    assert len(keys) == 512


# ---------------------------------------------------------------------------
# Mutual information.

@pytest.mark.parametrize("view", ["r1-alone", "r2-alone", "public-only"])
def test_isolated_views_carry_no_information(view):
    report = mutual_information_22(view)
    assert report.mutual_information == 0.0
    assert report.exact
    assert report.guess_advantage == 0.0
    assert report.cases_enumerated == 512


def test_combined_shares_carry_one_bit():
    report = mutual_information_22("all-shares")
    assert report.mutual_information == 1.0
    assert report.exact
    assert report.guess_advantage == 0.5


def test_r1_token_leaks_to_r2():
    # Documented limitation: R2 plus a full tap of the public channel learns
    # the secret exactly, because R1's masked token reveals the one parity
    # bit R2 is missing.  The r2-alone view therefore models R2 reading only
    # the broadcast, not R1's point-to-point token.
    report = mutual_information_22("r2-with-r1-token")
    assert report.mutual_information == 1.0
    assert report.exact


def test_unknown_view_is_rejected():
    with pytest.raises(ValueError):
        mutual_information_22("r3-alone")
    assert set(VIEW_NAMES) >= {"r1-alone", "r2-alone", "public-only", "all-shares"}


# ---------------------------------------------------------------------------
# Mixedness of the encrypted qubit.

def test_unknown_pieces_leave_qubit_maximally_mixed():
    assert encrypted_qubit_mixedness_55() <= 1e-12
    domains = {
        "pair1": BELL_LABELS,
        "pair2": BELL_LABELS,
        "swap-bsm": BSM_OUTCOMES,
        "teleport-bsm": BSM_OUTCOMES,
    }
    for known_names in combinations(PIECES, 3):
        for values in product(*(domains[name] for name in known_names)):
            distance = encrypted_qubit_mixedness_55(dict(zip(known_names, values)))
            assert distance <= 1e-12


def test_all_four_pieces_reveal_a_pure_state():
    for swap in BSM_OUTCOMES[:2]:
        known = {
            "pair1": PHI_PLUS,
            "pair2": BELL_LABELS[2],
            "swap-bsm": swap,
            "teleport-bsm": BellLabel(1, 1),
        }
        assert abs(encrypted_qubit_mixedness_55(known) - 0.5) < 1e-12


def test_mixedness_rejects_unknown_piece_names():
    with pytest.raises(ValueError):
        encrypted_qubit_mixedness_55({"pair3": PHI_PLUS})


@pytest.mark.parametrize("value", ["00", (0, 0), bell.CORRECTION_I])
def test_mixedness_rejects_values_that_are_not_codes(value):
    with pytest.raises(ValueError, match="piece pair1"):
        encrypted_qubit_mixedness_55({"pair1": value})


def test_mixedness_holds_for_other_secrets():
    rng = np.random.default_rng(8)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    assert encrypted_qubit_mixedness_55(secret_amplitudes=tuple(amps)) <= 1e-12


# ---------------------------------------------------------------------------
# Exact detection rates.

def test_pinned_rates_cover_the_readme_specs():
    assert PINNED_EXACT_RATES.keys() == set(SPECS) and len(SPECS) == 13


@pytest.mark.parametrize("spec,expected", sorted(PINNED_EXACT_RATES.items()))
def test_exact_detection_rates_match_pinned_constants(spec, expected):
    if spec == "none":
        attack = AttackModel()
    else:
        attack = AttackModel.from_spec(spec)
    assert exact_detection_rate(attack) == expected


# ---------------------------------------------------------------------------
# Empirical sweeps.

def test_runs_and_exact_rates_do_not_consult_the_oracle_tables():
    # The generated tables only serve verify-tables and the tests; runs and
    # exact rates use the XOR operations alone.
    bell.generate_teleport_table.cache_clear()
    bell.generate_swap_table.cache_clear()
    security._splitting_branches.cache_clear()
    security.enumerate_honest_cases.cache_clear()
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    assert run_qss22(1, 11).outcome == "accepted"
    run_qss22(0, 12, attack)
    assert exact_detection_rate(attack) == Fraction(1, 2)
    assert bell.generate_teleport_table.cache_info().misses == 0
    assert bell.generate_swap_table.cache_info().misses == 0


def test_token_flip_sweep_detects_every_run():
    report = attack_sweep(AttackModel.from_spec("token-flip"), trials=300, seed=1)
    assert report.detection_rate == 1.0
    assert report.exact_rate == 1.0
    assert report.consistent


def test_phase_only_lie_is_never_detected():
    report = attack_sweep(AttackModel.from_spec("r1-lie:10"), trials=300, seed=2)
    assert report.detection_rate == 0.0
    assert report.exact_rate == 0.0
    assert report.consistent


def test_honest_runs_never_abort():
    report = attack_sweep(AttackModel(), trials=300, seed=3)
    assert report.detections == 0
    assert report.exact_rate == 0.0


def test_detection_monotonicity():
    flip = attack_sweep(AttackModel.from_spec("token-flip"), trials=100, seed=4)
    honest = attack_sweep(AttackModel(), trials=100, seed=4)
    assert flip.detection_rate >= honest.detection_rate == 0.0


def test_auth_intercept_sweep_matches_exact_rate():
    attack = AttackModel.from_spec("intercept-resend-computational:auth-r2")
    report = attack_sweep(attack, trials=3000, seed=5)
    assert report.exact_rate == 0.5
    low, high = interval_around_rate(0.5, 3000)
    assert low <= report.detection_rate <= high
    assert report.consistent


def test_entangled_ancilla_reads_the_cipher_bit():
    # The ancilla copy never trips authentication and always equals the
    # encrypted bit, which on its own carries no information on the secret.
    attack = AttackModel.from_spec("entangle-ancilla")
    for seed in range(30):
        transcript = run_qss22(seed % 2, seed, attack)
        assert transcript.outcome == "accepted"
        observed = transcript.eavesdropper["observed"]["split-r2"]
        assert observed == str(transcript.shares.cipher_bit)


# ---------------------------------------------------------------------------
# Public-transcript uniformity.

def test_public_messages_are_uniform_and_secret_independent():
    report = public_transcript_uniformity(trials=2000, seed=9)
    assert set(report.messages) == {
        "masked-swap-token",
        "masked-cipher-token",
        "published-teleport-bsm",
    }
    for name, message in report.messages.items():
        assert message.exact_uniform, name
        assert message.exact_secret_independent, name
        assert message.chi_square_p > 1e-3, (name, message.chi_square_p)
        assert sum(message.empirical_counts.values()) == 2000
    assert [m.values for m in report.messages.values()] == [4, 2, 4]


@pytest.mark.parametrize("trials", [-1, -1000])
def test_uniformity_rejects_a_negative_trial_count(trials):
    with pytest.raises(ValueError, match=f"trials must not be negative, got {trials}"):
        public_transcript_uniformity(trials, 0)


# Reference values of the chi-square survival function and of Pearson's
# test against a uniform distribution, as given by scipy.stats (chi2.sf and
# chisquare).
CHI_SQUARE_SF = [
    (1, 0.0, 1.0),
    (1, 0.1, 0.7518296340458492),
    (1, 0.5, 0.47950012218695337),
    (1, 1.0, 0.31731050786291115),
    (1, 2.5, 0.11384629800665763),
    (1, 5.0, 0.025347318677468325),
    (1, 10.0, 0.001565402258002549),
    (1, 20.0, 7.744216431044088e-06),
    (3, 0.0, 1.0),
    (3, 0.1, 0.9918374237318764),
    (3, 0.5, 0.9188914116546758),
    (3, 1.0, 0.8012519569012009),
    (3, 2.5, 0.4752910833430205),
    (3, 5.0, 0.1717971442967335),
    (3, 10.0, 0.01856613546304325),
    (3, 20.0, 0.00016974243555282632),
]

UNIFORM_CHI_SQUARE_P = [
    ([260, 240, 255, 245], 0.8012519569012009),
    ([510, 490], 0.5270892568655381),
    ([1, 0, 0, 0], 0.3916251762710877),
    ([300, 200, 250, 250], 0.00016974243555282632),
    ([7, 3], 0.20590321073206466),
]


@pytest.mark.parametrize("dof,statistic,expected", CHI_SQUARE_SF)
def test_chi_square_closed_forms(dof, statistic, expected):
    assert abs(chi_square_sf(statistic, dof) - expected) <= 1e-14


@pytest.mark.parametrize("counts,expected", UNIFORM_CHI_SQUARE_P)
def test_uniform_chi_square_p(counts, expected):
    assert abs(security._uniform_chi_square_p(counts) - expected) <= 1e-14


def test_chi_square_sf_rejects_other_degrees_of_freedom():
    with pytest.raises(ValueError, match="degrees of freedom"):
        chi_square_sf(1.0, 2)


# ---------------------------------------------------------------------------
# Interval helpers and report serialisation.

def test_wilson_interval_contains_point_estimate():
    low, high = wilson_interval(250, 1000)
    assert low < 0.25 < high
    assert 0.0 <= low < high <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_interval_around_rate_degenerate_at_zero():
    assert interval_around_rate(0.0, 10000) == (0.0, 0.0)
    low, high = interval_around_rate(0.5, 10000)
    assert 0.48 < low < 0.5 < high < 0.52


def test_report_serialisation_schema():
    secrecy = mutual_information_22("r2-alone")
    lines = report_to_jsonl(secrecy).splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "qss-report/1", "kind": "secrecy"}
    body = json.loads(lines[1])
    assert body["mutual-information-bits"] == 0.0
    sweep = attack_sweep(AttackModel.from_spec("token-flip"), trials=20, seed=0)
    lines = report_to_jsonl(sweep).splitlines()
    assert json.loads(lines[0])["kind"] == "attack-sweep"
    assert json.loads(lines[1])["exact-rate-rational"] == "1/1"
    uniformity = public_transcript_uniformity(trials=50, seed=0)
    assert json.loads(report_to_jsonl(uniformity).splitlines()[0])["kind"] == "uniformity"
