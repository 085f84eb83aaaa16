import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.dyadic import (
    BandCertificateReport,
    DyadicBandVector,
    DyadicScale,
    band_certificate,
    band_select,
    dyadic_certificate,
    dyadic_round,
    polarize,
    quad_form,
    quad_form_restricted,
    signed_exponents,
    _check_compatible,
    _comparable_mask,
    _polarize,
    _round,
)
from liftlab.errors import (
    ConfigError,
    EmptyVectorError,
    NormTooLargeError,
    NotBandVectorError,
    NotSignCompatibleError,
)
from liftlab.graphs import LiftVector, balance, base_from_name, complete_graph, cycle_graph, identity_lift, lifted_eigenvector, petersen_graph
from liftlab.sampling import SeededRng, plant_clique, sample_lift
from liftlab.spectra import SpectralReport, lambda_star

from _support import (int_norm_sq, is_rounded_vector, oracle_adjacency, oracle_centered,
                      oracle_expected, random_lift, two_pass_comparable_mask)


# --- independent restricted-form oracle (exact rational pair classification) --


def oracle_restricted(lift, kind, x, y, region):
    mat = {"adjacency": oracle_adjacency, "expected": oracle_expected,
           "centered": oracle_centered}[kind](lift)
    xf, yf = x.flat(), y.flat()
    d = lift.d
    total = 0.0
    nh = xf.size
    for u in range(nh):
        for v in range(nh):
            if mat[u, v] == 0.0:
                continue
            a, b = float(xf[u]), float(yf[v])
            if a > 0 and b > 0:
                fa, fb = Fraction(a), Fraction(b)
                inside = fa * fa < d * fb * fb and fb * fb < d * fa * fa
            else:
                inside = False
            if inside == (region == "comparable"):
                total += a * mat[u, v] * b
    return total


# --- quad_form ----------------------------------------------------------------


def test_quad_form_centered_kills_fibre_constant():
    lift = random_lift(complete_graph(4), 5, np.random.default_rng(0))
    x = lifted_eigenvector(lift, np.array([1.0, -2.0, 0.5, 3.0]))
    assert quad_form(lift, "centered", x, x) == pytest.approx(0.0, abs=1e-10)


def test_quad_form_adjacency_all_ones_counts_edges_twice():
    lift = random_lift(complete_graph(3), 7, np.random.default_rng(1))
    ones = LiftVector(np.ones((3, 7)))
    assert quad_form(lift, "adjacency", ones, ones) == pytest.approx(42.0)


def test_quad_form_centered_equals_adjacency_on_balanced():
    lift = random_lift(complete_graph(4), 6, np.random.default_rng(2))
    x = balance(LiftVector(np.random.default_rng(3).normal(size=(4, 6))))
    a = quad_form(lift, "centered", x, x)
    b = quad_form(lift, "adjacency", x, x)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


# --- quad_form_restricted --------------------------------------------------------


def test_restricted_matches_oracle_all_kinds():
    lift = random_lift(complete_graph(4), 4, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = LiftVector(rng.normal(size=(4, 4)))
    y = LiftVector(rng.normal(size=(4, 4)))
    for kind in ("adjacency", "expected", "centered"):
        for region in ("comparable", "complement"):
            got = quad_form_restricted(lift, kind, x, y, region)
            want = oracle_restricted(lift, kind, x, y, region)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_restricted_boundary_ratio_excluded_when_d_is_square():
    # d = 4: value pair (1, 2) sits exactly on the band edge and is out
    lift = identity_lift(complete_graph(5), 3)
    vals = np.zeros((5, 3))
    vals[0, 0] = 1.0
    vals[1, 0] = 2.0  # matched with (0,0) in the identity lift
    x = LiftVector(vals)
    comp = quad_form_restricted(lift, "adjacency", x, x, "comparable")
    rest = quad_form_restricted(lift, "adjacency", x, x, "complement")
    assert comp == 0.0
    assert rest == pytest.approx(quad_form(lift, "adjacency", x, x))


def test_restricted_single_nonzero_entry_is_zero():
    lift = random_lift(complete_graph(4), 5, np.random.default_rng(6))
    vals = np.zeros((4, 5))
    vals[2, 3] = 7.0
    x = LiftVector(vals)
    assert quad_form_restricted(lift, "centered", x, x, "comparable") == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_restricted_plus_complement_is_total(seed):
    rng = np.random.default_rng(seed)
    lift = random_lift(complete_graph(4), 4, rng)
    x = LiftVector(rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-2, 3))
    for kind in ("adjacency", "expected", "centered"):
        total = quad_form(lift, kind, x, x)
        a = quad_form_restricted(lift, kind, x, x, "comparable")
        b = quad_form_restricted(lift, kind, x, x, "complement")
        assert a + b == pytest.approx(total, rel=1e-10, abs=1e-9)


def test_off_band_form_bounded_low_degree():
    # for degree at most 4 the complement form never beats 4*sqrt(d)*norm^2,
    # whatever the signs; checked on a mixed-scale corpus of 1000 vectors
    rng = np.random.default_rng(7)
    bases = [complete_graph(3), complete_graph(4), complete_graph(5), cycle_graph(6)]
    checked = 0
    while checked < 1000:
        base = bases[checked % len(bases)]
        lift = random_lift(base, int(rng.integers(2, 5)), rng)
        scale = 10.0 ** rng.integers(-3, 4)
        x = LiftVector(rng.normal(size=(lift.h, lift.n)) * scale)
        off = abs(quad_form_restricted(lift, "centered", x, x, "complement"))
        assert off <= 4.0 * math.sqrt(lift.d) * x.norm_sq * (1 + 1e-12)
        checked += 1


def test_off_band_form_bounded_nonnegative_higher_degree():
    rng = np.random.default_rng(8)
    for base in (petersen_graph(), complete_graph(9)):
        for _ in range(50):
            lift = random_lift(base, int(rng.integers(2, 5)), rng)
            x = LiftVector(np.abs(rng.normal(size=(lift.h, lift.n))))
            off = abs(quad_form_restricted(lift, "centered", x, x, "complement"))
            assert off <= 4.0 * math.sqrt(lift.d) * x.norm_sq * (1 + 1e-12)


def test_off_band_bound_fails_for_signed_vectors_at_high_degree():
    # the nonnegativity hypothesis matters: an alternating vector on two
    # disjoint copies of K_30 pushes the complement form past the bound
    base = complete_graph(30)
    lift = identity_lift(base, 2)
    vals = np.tile(np.array([1.0, -1.0]), (30, 1))
    x = LiftVector(vals)
    off = abs(quad_form_restricted(lift, "centered", x, x, "complement"))
    assert off > 4.0 * math.sqrt(lift.d) * x.norm_sq


# --- dyadic_round ----------------------------------------------------------------


def test_round_entry_three():
    # 1000 entries of 3.0 padded with zeros so the norm precondition holds
    raw = np.zeros((1, 10000))
    raw[0, :1000] = 3.0
    out = dyadic_round(LiftVector(raw), SeededRng(1))
    vals = out.values[0, :1000]
    assert set(np.unique(vals)) <= {2.0, 4.0}
    assert np.all(out.values[0, 1000:] == 0.0)
    frac_up = float((vals == 4.0).mean())
    assert abs(frac_up - 0.5) < 4 * math.sqrt(0.25 / 1000)
    assert abs(vals.mean() - 3.0) < 4 * math.sqrt(1.0 / 1000)


def test_round_entry_half():
    x = LiftVector(np.full((1, 10000), 0.5))
    out = dyadic_round(x, SeededRng(2))
    assert set(np.unique(out.values)) <= {0.0, 1.0}
    assert abs(float((out.values == 1.0).mean()) - 0.5) < 4 * 0.005


def test_round_dyadic_is_identity():
    vals = np.zeros((2, 64))
    vals[0, :4] = [0.0, 1.0, -2.0, 4.0]
    vals[1, :4] = [8.0, -1.0, 0.0, 2.0]
    x = LiftVector(vals)
    out = dyadic_round(x, SeededRng(3))
    assert np.array_equal(out.values, vals)


def test_round_negative_entries_keep_sign():
    raw = np.zeros((1, 1000))
    raw[0, :100] = -2.5
    out = dyadic_round(LiftVector(raw), SeededRng(4))
    live = out.values[0, :100]
    assert set(np.unique(live)) <= {-4.0, -2.0}
    assert abs(live.mean() + 2.5) < 4 * math.sqrt(0.5 * 1.5 / 100)


def test_round_norm_guard():
    x = LiftVector(np.full((2, 3), 10.0))
    with pytest.raises(NormTooLargeError):
        dyadic_round(x, SeededRng(5))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_round_output_in_rounded_class(seed):
    rng = np.random.default_rng(seed)
    h, n = 3, int(rng.integers(2, 9))
    raw = rng.normal(size=(h, n)) * rng.uniform(0.1, 3.0)
    raw *= math.sqrt(n * h / max(float((raw * raw).sum()), 1e-9)) * rng.uniform(0.1, 1.0)
    x = LiftVector(raw)
    out = dyadic_round(x, SeededRng(seed))
    assert is_rounded_vector(out)
    same_sign = np.sign(out.values) * np.sign(x.values)
    assert not (same_sign < 0).any()


def test_round_unbiased_per_entry():
    vals = np.zeros((1, 200))
    vals[0, :6] = [0.3, -0.8, 1.0, 5.7, -11.2, 2.0]
    x = LiftVector(vals)
    reps = 10000
    acc = np.zeros_like(vals)
    for t in range(reps):
        acc += dyadic_round(x, SeededRng(100, t)).values
    mean = acc / reps
    a = np.abs(vals)
    mant, expo = np.frexp(a)
    lo = np.ldexp(1.0, expo - 1)
    var = np.where(a >= 1, (np.ldexp(1.0, expo) - a) * (a - lo), a * (1 - a))
    sigma = np.sqrt(var / reps)
    assert np.all(np.abs(mean - vals) <= 4 * sigma + 1e-12)


# --- polarize ----------------------------------------------------------------------


def test_polarize_identity_case():
    lift = random_lift(complete_graph(4), 5, np.random.default_rng(9))
    vals = np.abs(np.array([[0, 1, 2, 4, 1], [2, 2, 0, 1, 4], [1, 0, 1, 2, 2], [4, 1, 0, 0, 1]],
                           dtype=float))
    y = LiftVector(vals)
    cands = polarize(y, y)
    target = abs(quad_form(lift, "centered", y, y))
    best = max(abs(quad_form(lift, "centered", c, c)) for c in cands)
    assert any(np.array_equal(c.values, y.values) for c in cands)
    assert best >= target - 1e-12


def test_polarize_rejects_opposite_signs():
    y = LiftVector(np.array([[1.0, 2.0]]))
    z = LiftVector(np.array([[-1.0, -2.0]]))
    with pytest.raises(NotSignCompatibleError):
        polarize(y, z)


def test_polarize_rejects_bracket_mismatch():
    y = LiftVector(np.pad(np.array([[1.0, 8.0]]), ((0, 0), (0, 14))))
    z = LiftVector(np.pad(np.array([[1.0, 2.0]]), ((0, 0), (0, 14))))
    with pytest.raises(NotSignCompatibleError):
        polarize(y, z)


def test_polarize_rejects_zero_against_large():
    y = LiftVector(np.pad(np.array([[0.0, 2.0]]), ((0, 0), (0, 6))))
    z = LiftVector(np.pad(np.array([[4.0, 2.0]]), ((0, 0), (0, 6))))
    with pytest.raises(NotSignCompatibleError):
        polarize(y, z)


def test_polarize_rejects_non_dyadic():
    y = LiftVector(np.array([[1.5, 2.0]]))
    with pytest.raises(NotBandVectorError):
        polarize(y, y)


def _row(*values, pad=8):
    return LiftVector(np.pad(np.array([values], dtype=float), ((0, 0), (0, pad - len(values)))))


# each pair meets the first failing check of the order shape, first vector, second
# vector, signs, brackets, lone zeros
@pytest.mark.parametrize("y, z, error, message", [
    (_row(1.0), _row(1.0, pad=9), NotSignCompatibleError, "shape mismatch"),
    (_row(1.5, 2.0), _row(1.0), NotBandVectorError, "entries must be zero or have modulus"),
    (_row(1.0), _row(math.nan), NotBandVectorError, "entries must be zero or have modulus"),
    (_row(1.0), _row(-math.inf), NotBandVectorError, "entries must be zero or have modulus"),
    (_row(8.0), _row(0.5), NotBandVectorError, "first vector exceeds the rounded-class norm cap"),
    (_row(1.0), _row(2.0 ** 600), NotBandVectorError, "second vector exceeds the rounded-class"),
    (_row(-1.0, 4.0), _row(1.0, 1.0), NotSignCompatibleError, "entries with opposite signs"),
    (_row(4.0, 0.0), _row(1.0, 2.0), NotSignCompatibleError, "different rounding brackets"),
    (_row(1.0, 0.0), _row(1.0, -2.0), NotSignCompatibleError, "zero paired with an entry above"),
], ids=["shape", "first-not-dyadic", "nan", "inf", "first-over-cap-before-second-checked",
        "square-overflows", "signs-before-brackets", "brackets-before-lone-zeros", "lone-zero"])
def test_polarize_rejects_with_the_first_failing_check(y, z, error, message):
    with pytest.raises(error, match=message):
        polarize(y, z)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_polarize_candidates_valid_and_tenth_guarantee(seed):
    rng = np.random.default_rng(seed)
    lift = random_lift(complete_graph(4), int(rng.integers(3, 8)), rng)
    raw = rng.normal(size=(4, lift.n))
    nh = 4 * lift.n
    raw *= math.sqrt(nh / float((raw * raw).sum())) * 0.95
    x = LiftVector(raw)
    y = dyadic_round(x, SeededRng(seed, 0))
    z = dyadic_round(x, SeededRng(seed, 1))
    cands = polarize(y, z)
    assert len(cands) == 12
    for c in cands:
        assert exact_candidate(c.values)
    cross = abs(quad_form(lift, "centered", y, z))
    best = max(abs(quad_form(lift, "centered", c, c)) for c in cands)
    assert best >= cross / 10 - 1e-12


def test_polarize_sixth_guarantee_on_corpus():
    # seeded random pairs; the one-sixth ratio observed here is frozen
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        lift = random_lift(complete_graph(4), 8, rng)
        raw = balance(LiftVector(rng.normal(size=(4, 8)))).values
        raw = raw * math.sqrt(32 / float((raw * raw).sum())) * 0.95
        x = LiftVector(raw)
        y = dyadic_round(x, SeededRng(seed, 0))
        z = dyadic_round(x, SeededRng(seed, 1))
        cross = abs(quad_form(lift, "centered", y, z))
        best = max(abs(quad_form(lift, "centered", c, c)) for c in polarize(y, z))
        assert best >= cross / 6 - 1e-12


# --- dyadic_certificate ----------------------------------------------------------


def test_certificate_on_dyadic_nonneg_input():
    lift = random_lift(complete_graph(4), 16, np.random.default_rng(10))
    vals = np.zeros((4, 16))
    vals[:, :4] = np.array([[1, 2, 0, 4], [2, 1, 1, 0], [0, 4, 2, 1], [1, 0, 1, 2]], dtype=float)
    x = LiftVector(vals)
    rep = dyadic_certificate(lift, x, trials=1, rng=SeededRng(0))
    assert rep.met
    assert rep.value >= abs(quad_form(lift, "centered", x, x)) - 1e-12


def test_certificate_zero_input():
    lift = identity_lift(complete_graph(3), 2)
    rep = dyadic_certificate(lift, LiftVector(np.zeros((3, 2))), trials=2)
    assert rep.met and rep.value == 0.0 and rep.target == 0.0


def test_certificate_norm_guard():
    lift = identity_lift(complete_graph(3), 2)
    with pytest.raises(NormTooLargeError):
        dyadic_certificate(lift, LiftVector(np.full((3, 2), 10.0)))


def _non_finite(kind, lift):
    values = np.full((lift.h, lift.n), 0.1)
    values[0, 0] = np.inf if kind == "inf" else np.nan
    if kind == "all-nan":
        values[:] = np.nan
    return LiftVector(values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["all-nan", "part-nan", "inf"])
@pytest.mark.parametrize("function", ["dyadic_round", "dyadic_certificate", "band_certificate"])
def test_a_non_finite_vector_fails_the_norm_check(function, kind):
    # a NaN squared norm compares false with every bound: the check must not pass it,
    # and an inf one is refused as inf, before any arithmetic turns it into NaN
    lift = sample_lift(complete_graph(4), 5, SeededRng(1))
    x = _non_finite(kind, lift)
    with pytest.raises(NormTooLargeError, match="squared norm") as err:
        if function == "dyadic_round":
            dyadic_round(x, SeededRng(1))
        elif function == "dyadic_certificate":
            dyadic_certificate(lift, x, trials=2)
        else:
            band_certificate(lift, trials=2,
                             spectral=SpectralReport(3.0, float("nan"), "dense", 0, 0.0, x))
    assert ("inf" if kind == "inf" else "nan") in str(err.value)


def test_certificate_top_eigenvector_k4():
    lift = random_lift(complete_graph(4), 30, SeededRng(77).generator())
    rep = lambda_star(lift, tol=1e-10)
    nh = 120
    x = rep.witness.scaled(math.sqrt(nh / rep.witness.norm_sq) * (1 - 1e-12))
    cert = dyadic_certificate(lift, x, trials=200, rng=SeededRng(5))
    assert cert.met
    assert cert.value >= cert.target > 0


def test_certificate_deterministic():
    lift = random_lift(complete_graph(4), 10, np.random.default_rng(11))
    x = balance(LiftVector(np.random.default_rng(12).normal(size=(4, 10))))
    a = dyadic_certificate(lift, x, trials=5, rng=SeededRng(3))
    b = dyadic_certificate(lift, x, trials=5, rng=SeededRng(3))
    assert a.value == b.value and a.best_trial == b.best_trial
    assert np.array_equal(a.vector.values, b.vector.values)


def per_vector_certificate(lift, x, trials, rng):
    """dyadic_certificate built from the public per-vector calls: each trial
    rounds, polarizes, and takes one form per candidate."""
    target = abs(quad_form(lift, "centered", x, x)) / 12.0
    best, best_val, best_trial = LiftVector(np.zeros((lift.h, lift.n))), 0.0, -1
    for t in range(trials):
        y = dyadic_round(x, rng.generator(6101, t, 0))
        z = dyadic_round(x, rng.generator(6101, t, 1))
        for cand in polarize(y, z):
            val = abs(quad_form(lift, "centered", cand, cand))
            if val > best_val:
                best, best_val, best_trial = cand, val, t
    return best, best_val, target, best_val >= target * (1.0 - 1e-12), best_trial


# k5 n=9 has an odd nh, so every other stacked candidate starts off a 16-byte boundary
@pytest.mark.parametrize("name, n", [("k4", 20), ("c6", 30), ("petersen", 10), ("k5", 9)])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_certificate_equals_the_per_vector_path_bit_for_bit(name, n, seed):
    lift = sample_lift(base_from_name(name), n, SeededRng(seed))
    witness = lambda_star(lift).witness
    x = witness.scaled(math.sqrt(lift.num_vertices / witness.norm_sq) * (1.0 - 1e-12))
    rep = dyadic_certificate(lift, x, trials=40, rng=SeededRng(seed, 202))
    vector, value, target, met, best_trial = per_vector_certificate(lift, x, 40, SeededRng(seed, 202))
    assert (rep.value, rep.target, rep.met, rep.best_trial) == (value, target, met, best_trial)
    assert rep.vector.values.tobytes() == vector.values.tobytes()
    assert best_trial >= 0


def exact_candidate(arr):
    """A candidate by its definition, in integer arithmetic: entries 0 or 2^i
    (i >= 0) with squared norm at most 10nh."""
    if (arr < 0).any():
        return False
    try:
        exps, mask = signed_exponents(LiftVector(arr))
    except NotBandVectorError:
        return False
    return int_norm_sq(exps, mask) <= 10 * arr.size


# the search leaves its candidates unchecked: the one it returns meets band_select's exact checks
@pytest.mark.parametrize("bad", [3.0, 0.5, math.inf, math.nan, -1.0, 2.0 ** 600],
                         ids=["three", "half", "inf", "nan", "negative", "square-overflows"])
def test_candidate_stack_rejects_a_non_candidate_entry(bad):
    rng = np.random.default_rng(31)
    lift = random_lift(complete_graph(4), 16, rng)
    raw = balance(LiftVector(rng.normal(size=(4, 16)))).values
    x = LiftVector(raw * math.sqrt(64 / float((raw * raw).sum())) * 0.95)
    stack = np.stack([c.values for c in polarize(dyadic_round(x, SeededRng(1)),
                                                  dyadic_round(x, SeededRng(2)))])
    assert all(exact_candidate(c) for c in stack)
    assert all(band_select(LiftVector(c), lift) for c in stack if c.any())
    stack[7, 1, 2] = bad
    assert not exact_candidate(stack[7])
    with pytest.raises(NotBandVectorError):
        band_select(LiftVector(stack[7]), lift)


def test_candidate_stack_norm_cap_is_exact():
    # nh = 10, cap 100: 64 + 16 + 4*4 + 4*1 is on the cap, one more 3 over it
    lift = identity_lift(complete_graph(5), 2)
    at_cap = np.array([[8.0, 4.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
    over = at_cap.copy()
    over[3, 0] = 2.0
    assert exact_candidate(at_cap) and not exact_candidate(over)
    band_select(LiftVector(at_cap), lift)
    with pytest.raises(NotBandVectorError, match="squared norm exceeds 10nh"):
        band_select(LiftVector(over), lift)


class _Draws:
    """A stand-in generator whose every draw is u: 0 rounds each entry up, 1 - 2^-53 down."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def _at_the_norm_bound(values):
    """The values scaled to the largest squared norm the search accepts, nh(1 + 1e-9)."""
    cap = values.size * (1.0 + 1e-9)
    x = LiftVector(values * math.sqrt(cap / LiftVector(values).norm_sq))
    while x.norm_sq > cap:
        x = x.scaled(1.0 - 1e-15)
    return x.values


def _power_of_two_fill(size, rng):
    """Signed entries 0 or 2^i (i >= -1) with squared norm exactly size, from chunks whose
    squared norm equals their length: (1), (2, 0, 0, 0), (2, 1/2, 1/2, 1/2, 1/2), (4, 0 x 15)."""
    chunks = [[1.0], [2.0, 0.0, 0.0, 0.0], [2.0, 0.5, 0.5, 0.5, 0.5], [4.0] + [0.0] * 15]
    out = []
    while len(out) < size:
        fits = [c for c in chunks if len(c) <= size - len(out)]
        out += fits[int(rng.integers(len(fits)))]
    return rng.permutation(np.array(out) * rng.choice([-1.0, 1.0], size))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "power-of-two", "near-one"]),
       h=st.integers(2, 5), n=st.integers(1, 40), seed=st.integers(0, 10**6))
def test_roundings_pass_the_checks_and_every_candidate_is_exact(kind, h, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        values = _at_the_norm_bound(rng.normal(size=(h, n)) * np.exp(2.0 * rng.normal(size=(h, n))))
    elif kind == "power-of-two":
        values = _power_of_two_fill(h * n, rng).reshape(h, n)
    else:  # just above or below 1, or tiny, where rounding up gains the most
        near = rng.choice([1.0 - 1e-9, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                           1.0 + 1e-9, 1e-3], size=(h, n))
        values = _at_the_norm_bound(near * rng.choice([-1.0, 1.0], size=(h, n)))
    assert LiftVector(values).norm_sq <= h * n * (1.0 + 1e-9)
    gens = [_Draws(0.0), _Draws(np.nextafter(1.0, 0.0)), *(np.random.default_rng((seed, t))
                                                            for t in range(4))]
    for gy, gz in itertools.combinations(gens, 2):
        y, z = _round(values, gy), _round(values, gz)
        _check_compatible(y, z)
        assert all(exact_candidate(c) for c in _polarize(y, z))


# sha256 of the certificate bits of seeds 1 and 2 of each all-stage sweep kind (name, n);
# recorded before the search stopped re-checking its candidates, and re-pinned when
# partial reorthogonalization, and later the one start per lift with its start-side
# sign, moved the last bits of the witness, and with it of each target (every other
# field kept its bits). A re-pin edits a value here.
CERTIFICATE_DIGESTS = {
    ("k4", 150): "ac2b57d103ab46a162ac2d1a52c3fb62a421c8516eee1aaafff48d66d1c47d45",
    ("k5", 120): "794d91af1e40ab54b3c22444f8b3051298f33bad7c656e368f030db7bfa51db1",
    ("c6", 100): "e9c74e0f39d8cbba987102f1948af8463ea82ae91371591854dc2b56a2a8201d",
    ("petersen", 60): "e00dc72bb00e604cb755bedd8bc38a721a6982f0c7528e670ddb827a212bf650",
    ("k4", 1000): "1088bbcdd51faea4ade4639c4ba5e7b05210e7e119795d5f0411379f8dd40f41",
    ("petersen", 500): "69e313a2258075baffbd0f3434ffb617b13c4500c56de732529542c447643cc6",
}


@pytest.mark.parametrize("name, n", list(CERTIFICATE_DIGESTS))
def test_certificate_bits_of_the_sweep_pool_are_pinned(name, n):
    """Seeds 1 and 2 of each all-stage sweep kind, seeded as run_cell seeds them.

    These pin a path, not a result: a change to the spectral solve or the search
    that moves no row still moves them. Correctness is stated by
    test_roundings_pass_the_checks_and_every_candidate_is_exact above,
    test_acceptance.py::test_criterion_11_certificate_pipeline_hit_rate and the
    recorded-row tests (test_experiment.py::test_*_cells_keep_their_recorded_rows).
    """
    h = hashlib.sha256()
    for seed in (1, 2):
        lift = sample_lift(base_from_name(name), n, SeededRng(seed))
        rep = lambda_star(lift).require_converged()
        band = band_certificate(lift, rng=SeededRng(seed, 202), spectral=rep)
        cert = band.certificate
        h.update(repr((cert.value, cert.target, cert.met, cert.best_trial,
                       band.achieved, band.met)).encode())
        h.update(cert.vector.values.tobytes() + band.vector.exponents.tobytes()
                 + band.vector.nonzero.tobytes())
    assert h.hexdigest() == CERTIFICATE_DIGESTS[name, n]


def test_rounded_norm_cap_is_exact():
    # nh = 10, rounded cap 50: 16 + 16 + 4*4 + 2*1 is on the cap, one more 1 over it
    at_cap = np.array([[4.0, -4.0, 2.0, -2.0, 2.0, 2.0, 1.0, -1.0, 0.0, 0.0]])
    over = at_cap.copy()
    over[0, 8] = 1.0
    assert DyadicScale.norm_cap(at_cap.shape, rounded=True) == 50 == int_norm_sq(
        *signed_exponents(LiftVector(at_cap)))
    assert is_rounded_vector(LiftVector(at_cap)) and not is_rounded_vector(LiftVector(over))
    _check_compatible(at_cap, at_cap)
    with pytest.raises(NotBandVectorError, match="second vector exceeds the rounded-class"):
        _check_compatible(at_cap, over)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=600), st.booleans()),
                min_size=1, max_size=40))
def test_mass_is_the_exact_squared_norm(entries):
    exps = np.array([e for e, _ in entries], dtype=np.int64)
    mask = np.array([live for _, live in entries])
    classes = sorted(Counter(exps[mask].tolist()).items())
    assert DyadicScale.mass(classes) == int_norm_sq(exps, mask)


# --- band vectors and band_select ---------------------------------------------------


def test_band_vector_invariants():
    scale = DyadicScale(4, 3, 3)
    exps = np.zeros((3, 4), dtype=np.int64)
    mask = np.zeros((3, 4), dtype=bool)
    exps[0, 0], mask[0, 0] = 1, True
    exps[1, 2], mask[1, 2] = 0, True
    v = DyadicBandVector(scale, exps, mask)
    assert int_norm_sq(v.exponents, v.nonzero) == 4 + 1
    assert v.histogram() == {(0, 1): 1, (1, 0): 1}
    assert v.vector.values[0, 0] == pytest.approx(2 / math.sqrt(12))


def test_band_vector_rejects_norm_violation():
    scale = DyadicScale(2, 2, 3)
    exps = np.full((2, 2), 3, dtype=np.int64)  # four entries of 64 -> 256 > 40
    mask = np.ones((2, 2), dtype=bool)
    with pytest.raises(NotBandVectorError):
        DyadicBandVector(scale, exps, mask)


def test_band_vector_rejects_wide_spread():
    scale = DyadicScale(8, 2, 3)
    exps = np.zeros((2, 8), dtype=np.int64)
    mask = np.zeros((2, 8), dtype=bool)
    exps[0, 0], mask[0, 0] = 0, True
    exps[1, 0], mask[1, 0] = 2, True  # ratio 4 > d = 3
    with pytest.raises(NotBandVectorError):
        DyadicBandVector(scale, exps, mask)


def test_band_select_uniform_entries():
    lift = random_lift(complete_graph(4), 6, np.random.default_rng(13))
    vals = np.full((4, 6), 2.0)
    out = band_select(LiftVector(vals), lift)
    assert np.array_equal(out.nonzero, np.ones((4, 6), dtype=bool))
    live = np.unique(out.exponents[out.nonzero])
    assert live.size == 1
    k = int(live[0]) - 1
    assert 4 ** k * int_norm_sq(*signed_exponents(LiftVector(vals))) <= 10 * 24
    assert 4 ** (k + 1) * int_norm_sq(*signed_exponents(LiftVector(vals))) > 10 * 24


def test_band_select_two_distant_bands():
    lift = random_lift(complete_graph(4), 96, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    vals = np.zeros((4, 96))
    high = np.zeros((4, 96), dtype=bool)
    flat = rng.choice(4 * 96, size=8, replace=False)
    high[np.unravel_index(flat, (4, 96))] = True
    low = ~high & (rng.random(size=(4, 96)) < 0.4)
    vals[low] = 1.0
    vals[high] = 16.0  # exponent 4: windows far from exponent 0 when d = 3
    y = LiftVector(vals)
    total = quad_form_restricted(lift, "centered", y, y, "comparable")
    low_part = LiftVector(vals * low)
    high_part = LiftVector(vals * high)
    f_low = quad_form_restricted(lift, "centered", low_part, low_part, "comparable")
    f_high = quad_form_restricted(lift, "centered", high_part, high_part, "comparable")
    # the two bands are more than a window apart, so no cross pairs remain
    assert total == pytest.approx(f_low + f_high, rel=1e-9, abs=1e-9)
    out = band_select(y, lift)
    achieved = abs(quad_form_restricted(lift, "centered", out.vector, out.vector,
                                        "comparable"))
    assert achieved >= abs(total) / (8 * 384) - 1e-12
    kept = out.vector.values != 0
    assert np.array_equal(kept, low) or np.array_equal(kept, high)


def test_band_select_rejects_zero_and_negative():
    lift = identity_lift(complete_graph(3), 2)
    with pytest.raises(EmptyVectorError):
        band_select(LiftVector(np.zeros((3, 2))), lift)
    with pytest.raises(NotBandVectorError):
        band_select(LiftVector(np.full((3, 2), -1.0)), lift)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_band_select_guarantee_random_dyadic(seed):
    rng = np.random.default_rng(seed)
    lift = random_lift(complete_graph(4), 8, rng)
    nh = 32
    exps = rng.integers(0, 5, size=(4, 8))
    mask = rng.random(size=(4, 8)) < 0.6
    # trim until the norm cap holds
    while int_norm_sq(exps * mask, mask) > 10 * nh:
        live = np.argwhere(mask)
        i, j = live[rng.integers(len(live))]
        mask[i, j] = False
    if not mask.any():
        return
    y = LiftVector(np.ldexp(1.0, exps) * mask)
    total = abs(quad_form_restricted(lift, "centered", y, y, "comparable"))
    out = band_select(y, lift)
    achieved = abs(quad_form_restricted(lift, "centered", out.vector, out.vector,
                                        "comparable"))
    assert achieved >= total / (8 * nh) - 1e-12


# --- band_certificate ------------------------------------------------------------


def test_band_certificate_n1():
    rep = band_certificate(identity_lift(complete_graph(4), 1))
    assert rep.met
    assert rep.achieved == 0.0
    assert not rep.vector.nonzero.any()


def test_band_certificate_disjoint_k6():
    lift = identity_lift(complete_graph(6), 2)
    rep = band_certificate(lift, trials=30, rng=SeededRng(2))
    assert isinstance(rep, BandCertificateReport)
    assert rep.met  # target is negative at this scale
    assert int_norm_sq(rep.vector.exponents, rep.vector.nonzero) <= 10 * lift.num_vertices


def test_band_certificate_planted_clique():
    lift = plant_clique(sample_lift(complete_graph(9), 60, SeededRng(31)), list(range(5)))
    rep = band_certificate(lift, trials=20, rng=SeededRng(4))
    assert rep.spectral.lambda_star >= 4 - 1e-6
    assert rep.met
    assert int_norm_sq(rep.vector.exponents, rep.vector.nonzero) <= 10 * lift.num_vertices


def test_band_certificate_chain_consistency():
    lift = random_lift(complete_graph(4), 16, np.random.default_rng(16))
    rep = band_certificate(lift, trials=25, rng=SeededRng(6))
    nh = 64
    if rep.certificate is not None and rep.certificate.vector.values.any():
        cert_form = abs(quad_form_restricted(lift, "centered", rep.certificate.vector,
                                             rep.certificate.vector, "comparable"))
        assert rep.achieved >= cert_form / (8 * nh) - 1e-12


# --- one comparability pass against the two-pass oracle ------------------------------


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 100]),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_comparable_mask_matches_the_two_pass_oracle(d, drawn, seed):
    # signed normals, powers of two, zeros, values whose squares under- or overflow,
    # and partners at a*sqrt(d), a/sqrt(d) and one step either side of a*sqrt(d)
    rng = np.random.default_rng(seed)
    a = np.concatenate([drawn, rng.normal(size=4), 2.0 ** rng.integers(-6, 9, size=3),
                        [0.0, 1e-200, 1e200]])
    root = math.sqrt(d)
    with np.errstate(over="ignore", invalid="ignore"):
        partners = np.concatenate([a * root, a / root, np.nextafter(a * root, 0.0),
                                   np.nextafter(a * root, np.inf), -a])
        partners = partners[np.isfinite(partners)]  # the grids hold a vector's finite values
        for ux, uy in ((a, partners), (partners, a), (a, a)):
            assert np.array_equal(_comparable_mask(ux, uy, d),
                                  two_pass_comparable_mask(ux, uy, d))


@pytest.mark.parametrize("d, root", [(4, 2.0), (16, 4.0)])
def test_a_ratio_of_exactly_root_d_is_not_comparable(d, root):
    a = np.array([0.75, 1.0, 3.0, 2.0 ** -30, 2.0 ** 40])
    for partner, inside in ((a * root, False), (a / root, False),
                            (np.nextafter(a * root, 0.0), True), (np.nextafter(a / root, np.inf), True)):
        mask = _comparable_mask(a, partner, d)
        assert mask.diagonal().tolist() == [inside] * a.size
        assert np.array_equal(mask, two_pass_comparable_mask(a, partner, d))


@pytest.mark.parametrize("trials", [0, -1, 2.5, True, "4", None])
def test_the_certificates_read_trials_by_one_rule(trials):
    lift = sample_lift(complete_graph(4), 10, SeededRng(1))
    x = LiftVector(np.ones((4, 10)))
    with pytest.raises(ConfigError, match="trials must be an integer of at least 1"):
        dyadic_certificate(lift, x, trials=trials)
    with pytest.raises(ConfigError, match="trials must be an integer of at least 1"):
        band_certificate(lift, trials=trials)
