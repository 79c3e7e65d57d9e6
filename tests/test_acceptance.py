"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from qsshare import bell, security, statevec
from qsshare.bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    BellLabel,
    CORRECTION_X,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    SWAP_REFERENCE,
    TELEPORT_REFERENCE,
)
from qsshare.cli import EXIT_OK, main
from qsshare.protocol import (
    AttackModel,
    ShareSet22,
    reconstruct22,
    reconstruct55,
    run_qss55,
)
from qsshare.security import (
    attack_sweep,
    encrypted_qubit_mixedness_55,
    enumerate_honest_cases,
    exact_detection_rate,
    interval_around_rate,
    mutual_information_22,
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_teleport_table_reproduction(capsys, tmp_path):
    generated = bell.generate_teleport_table()
    all_match = generated == TELEPORT_REFERENCE and len(generated) == 16
    spot_check = generated[(PHI_MINUS, BellLabel(1, 1))] == CORRECTION_X
    exit_code = main(["verify-tables", "--out", str(tmp_path / "tables.txt")])
    with capsys.disabled():
        _report(1, "teleport corrections, 16/16 exact + verify-tables exit 0",
                all_match and spot_check and exit_code == EXIT_OK)


def test_criterion_2_swap_table_reproduction(capsys):
    ok = True
    for (pair_a, pair_b), outcome in product(product(BELL_LABELS, repeat=2), BSM_OUTCOMES):
        state = statevec.zero_state(4)
        state = statevec.prepare_bell_on(state, 0, 1, pair_a)
        state = statevec.prepare_bell_on(state, 2, 3, pair_b)
        _, post = statevec.bell_project(state, 1, 2, outcome)
        expected = SWAP_REFERENCE[(pair_a, pair_b, outcome)]
        candidate = statevec.zero_state(4)
        candidate = statevec.prepare_bell_on(candidate, 1, 2, outcome)
        candidate = statevec.prepare_bell_on(candidate, 0, 3, expected)
        ok = ok and statevec.fidelity(post, candidate) >= 1 - 1e-12
    spot_check = [
        bell.swap_result(PHI_PLUS, PSI_MINUS, m) for m in BSM_OUTCOMES
    ] == [PSI_MINUS, PHI_MINUS, bell.PSI_PLUS, PHI_PLUS]
    with capsys.disabled():
        _report(2, "swapping outcomes, 64/64 at fidelity >= 1-1e-12", ok and spot_check)


def test_criterion_3_qss22_exhaustive_correctness(capsys):
    cases = enumerate_honest_cases()
    reconstructed = sum(
        reconstruct22(
            ShareSet22(c.pair1, c.swap_bsm, c.cipher_bit, c.pair2, c.teleport_bsm)
        )
        == c.secret
        for c in cases
    )
    false_positives = exact_detection_rate(AttackModel())
    ok = reconstructed == len(cases) == 512 and false_positives == Fraction(0)
    with capsys.disabled():
        _report(3, "(2,2) 512/512 reconstruction, abort rate exactly 0", ok)


def test_criterion_4_qss55_round_trip(capsys):
    rng = np.random.default_rng(55)
    ok = True
    for trial in range(100):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        transcript, shares = run_qss55((amps[0], amps[1]), seed=trial)
        recovered = statevec.fidelity(statevec.single_qubit(*amps), reconstruct55(shares))
        ok = ok and recovered >= 1 - 1e-12 and transcript.reconstruction_fidelity >= 1 - 1e-12
    with capsys.disabled():
        _report(4, "(5,5) 100 random qubits at fidelity >= 1-1e-12", ok)


def test_criterion_5_insider_outsider_secrecy(capsys):
    r1 = mutual_information_22("r1-alone")
    r2 = mutual_information_22("r2-alone")
    public = mutual_information_22("public-only")
    combined = mutual_information_22("all-shares")
    ok = (
        r1.mutual_information == 0.0 and r1.exact
        and r2.mutual_information == 0.0 and r2.exact
        and public.mutual_information == 0.0 and public.exact
        and combined.mutual_information == 1.0 and combined.exact
    )
    with capsys.disabled():
        _report(5, "mutual information exactly 0/0/0 and 1 bit combined", ok)


def test_criterion_6_piece_necessity(capsys):
    domains = {
        "pair1": BELL_LABELS,
        "pair2": BELL_LABELS,
        "swap-bsm": BSM_OUTCOMES,
        "teleport-bsm": BSM_OUTCOMES,
    }
    ok = True
    for size in range(4):  # every proper subset of the four pieces
        for names in combinations(security.PIECES, size):
            for values in product(*(domains[n] for n in names)):
                ok = ok and encrypted_qubit_mixedness_55(dict(zip(names, values))) <= 1e-12
    with capsys.disabled():
        _report(6, "(5,5) averaged cipher qubit within 1e-12 of I/2", ok)


def test_criterion_7_authentication_soundness(capsys):
    flip = exact_detection_rate(AttackModel.from_spec("token-flip"))
    parity_lie = exact_detection_rate(AttackModel.from_spec("r1-lie:01"))
    phase_lie = exact_detection_rate(AttackModel.from_spec("r1-lie:10"))
    sweep_flip = attack_sweep(AttackModel.from_spec("token-flip"), trials=512, seed=7)
    sweep_phase = attack_sweep(AttackModel.from_spec("r1-lie:10"), trials=512, seed=7)
    # The undetected phase-only lie is a documented limitation, pinned here.
    ok = (
        flip == Fraction(1) and sweep_flip.detection_rate == 1.0
        and parity_lie == Fraction(1)
        and phase_lie == Fraction(0) and sweep_phase.detection_rate == 0.0
    )
    with capsys.disabled():
        _report(7, "token-flip 1.0, parity lie 1.0, phase-only lie 0.0", ok)


def test_criterion_8_intercept_resend_detection(capsys):
    attack = AttackModel.from_spec("intercept-resend-computational:split-r2")
    exact = exact_detection_rate(attack)
    report = attack_sweep(attack, trials=10000, seed=8)
    low, high = interval_around_rate(float(exact), report.trials)
    # Derived before the build: the canonical intercept is phase-only and
    # therefore invisible to the parity-based authentication test.
    ok = exact == Fraction(0) and low <= report.detection_rate <= high
    with capsys.disabled():
        _report(
            8,
            f"intercept-resend empirical {report.detection_rate} in 99% CI of exact "
            f"{report.exact_rate_rational} over {report.trials} trials",
            ok,
        )


def test_criterion_9_deterministic_transcripts(capsys, tmp_path):
    first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    args = ["run", "--secret", "1", "--seed", "424242", "--trials", "2"]
    code_a = main(args + ["--out", str(first)])
    code_b = main(args + ["--out", str(second)])
    ok = code_a == code_b == EXIT_OK and first.read_bytes() == second.read_bytes()
    with capsys.disabled():
        _report(9, "identical seeds give byte-identical transcript files", ok)
