"""Property tests of the parser and CLI boundaries."""

import cmath
import contextlib
import io
import math

from hypothesis import example, given
from hypothesis import strategies as st

from qsshare import cli
from qsshare.cli import EXIT_USAGE
from qsshare.protocol import ATTACK_KINDS, MAX_SEED, QUANTUM_SEND_TARGETS, AttackModel, run_qss55

_SEEDS = st.integers(0, MAX_SEED)

# Spec strings near the grammar (known kinds and arguments, with stray
# whitespace and separators) as well as arbitrary text.
_SPEC_PARTS = st.sampled_from(
    ATTACK_KINDS + QUANTUM_SEND_TARGETS + ("00", "01", "10", "11", "1", "012", "", " ", "none")
)
_SPECS = st.one_of(
    st.text(max_size=12),
    st.builds(
        lambda kind, sep, arg: f"{kind}{sep}{arg}",
        _SPEC_PARTS,
        st.sampled_from(("", ":", "::", " :")),
        st.one_of(_SPEC_PARTS, st.text(max_size=4)),
    ),
)


@given(_SPECS)
@example("r1-lie:01")
@example("intercept-resend-computational")
@example(" entangle-ancilla:split-r2 ")
def test_attack_spec_parses_back_or_raises_value_error(text):
    try:
        model = AttackModel.from_spec(text)
    except ValueError:
        return
    assert AttackModel.from_spec(model.spec_string) == model


def _amplitude_text(value: complex) -> str:
    return f"{value.real!r}{value.imag:+.17g}i"


# Relative norm errors: half spread over magnitudes 1e-16..2e-9, half in the
# band around the renormalisation and simulator bounds (a squared-norm error
# of 1e-12, which a run can amplify up to 16 times).
_EPSILONS = st.one_of(
    st.builds(
        lambda sign, mantissa, exponent: sign * min(mantissa * 10.0**exponent, 2e-9),
        st.sampled_from((-1.0, 1.0)),
        st.floats(1.0, 10.0),
        st.integers(-16, -9),
    ),
    st.floats(-2e-12, 2e-12),
)


@given(
    theta=st.floats(0.0, math.pi / 2),
    phi=st.floats(-math.pi, math.pi),
    epsilon=_EPSILONS,
    seed=_SEEDS,
)
@example(theta=math.atan2(0.8, 0.6), phi=math.pi / 2, epsilon=9.0e-13, seed=0)
@example(theta=0.0, phi=0.0, epsilon=-1e-13, seed=609)
# Squares beyond the float range: a usage error, not an OverflowError.
@example(theta=0.0, phi=0.0, epsilon=1e200, seed=0)
@example(theta=math.pi / 4, phi=0.0, epsilon=1e308, seed=0)
def test_near_normalised_secrets_parse_to_runnable_qubits_or_usage_errors(
    theta, phi, epsilon, seed
):
    amp0 = complex(math.cos(theta)) * (1 + epsilon)
    amp1 = cmath.rect(math.sin(theta), phi) * (1 + epsilon)
    text = f"{_amplitude_text(amp0)},{_amplitude_text(amp1)}"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            secret = cli.parse_secret_qubit(text)
    except cli.UsageError:
        return
    transcript, _ = run_qss55(secret, seed)
    assert transcript.reconstruction_fidelity >= 1 - 1e-12


_BAD_SEEDS = st.one_of(st.integers(-(2**80), -1), st.integers(MAX_SEED + 1, 2**80))
_BAD_TRIALS = st.integers(-(2**40), 0)


@given(
    scheme=st.sampled_from(("qss22", "qss55")),
    seed_trials=st.one_of(
        st.tuples(_BAD_SEEDS, st.one_of(_BAD_TRIALS, st.integers(1, 3))),
        st.tuples(_SEEDS, _BAD_TRIALS),
    ),
)
def test_out_of_range_seed_or_trials_exit_one(scheme, seed_trials):
    seed, trials = seed_trials
    secret = "1" if scheme == "qss22" else "0.6,0.8i"
    argv = ["run", "--scheme", scheme, "--secret", secret, f"--seed={seed}", f"--trials={trials}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    assert "error" in err.getvalue()
