"""Acceptance suite: twelve end-to-end checks at their stated tolerances.

Each test prints one summary line (visible under pytest -s or in the -v
test listing).  Hard numeric bounds are asserted; quantities the suite only
observes (like typical extreme-eigenvalue ratios) are reported in the
summary line instead of asserted.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from _support import random_lift
from test_matching import feasible_count_matrices, random_spec
from test_patterns import random_band_vector, random_pattern, ref_verify_reduction

from liftlab.dyadic import (DyadicScale, band_certificate, dyadic_round,
                            quad_form_restricted)
from liftlab.errors import TooLargeError
from liftlab.experiment import HEADLINE_SPECTRAL_FACTOR
from liftlab.graphs import (LiftVector, apply_adjacency, base_from_name,
                            complete_graph, cycle_graph, induced_adjacency,
                            petersen_graph)
from liftlab.matching import (MatchingSpec, brute_force_probability,
                              exact_probability_fraction,
                              monte_carlo_probability)
from liftlab.patterns import (deviation_rate, enumerate_patterns,
                              extract_pattern, pattern_count_bound, potency,
                              reduce_general, reduce_large, reduce_small)
from liftlab.sampling import SeededRng, plant_clique, sample_lift
from liftlab.spectra import dense_spectrum, lambda_star, new_spectrum
from liftlab.witnesses import clique_witness, embed_subgraph_witness

import random


def note(line):
    print(f"\n[acceptance] {line}")


def small_corpus(count=50, max_n=20):
    """Random lifts over K_3, K_4 and the Petersen graph with nh <= 200."""
    rng = np.random.default_rng(20240815)
    bases = [complete_graph(3), complete_graph(4), petersen_graph()]
    out = []
    for k in range(count):
        base = bases[k % len(bases)]
        n = int(rng.integers(2, min(max_n, 200 // base.h) + 1))
        out.append(random_lift(base, n, rng))
    return out


def test_criterion_01_spectral_decomposition_identity():
    worst = 0.0
    for lift in small_corpus():
        base_vals = np.linalg.eigvalsh(lift.base.adjacency())
        full = dense_spectrum(lift, "adjacency")
        centered = dense_spectrum(lift, "centered")
        left = np.sort(np.concatenate([full, np.zeros(lift.h)]))
        right = np.sort(np.concatenate([base_vals, centered]))
        worst = max(worst, float(np.max(np.abs(left - right))))
        assert left == pytest.approx(right, abs=1e-8)
    note(f"criterion 01 spectral identity: PASS (worst pairing gap {worst:.2e})")


def test_criterion_02_lambda_star_cross_validation():
    worst = 0.0
    for lift in small_corpus():
        dense_star = float(np.max(np.abs(new_spectrum(lift))))
        rep = lambda_star(lift, method="iterative")
        worst = max(worst, abs(rep.lambda_star - dense_star))
        assert rep.lambda_star == pytest.approx(dense_star, abs=1e-6)
    note(f"criterion 02 extreme cross-validation: PASS (worst gap {worst:.2e})")


def test_criterion_03_near_ramanujan_sweep():
    ratios = {}
    for d in (3, 4, 5):
        base = complete_graph(d + 1)
        cap = HEADLINE_SPECTRAL_FACTOR * math.sqrt(d)
        collected = []
        for n in (200, 1000):
            for seed in range(20):
                lift = sample_lift(base, n, SeededRng(seed, 3000 + d))
                rep = lambda_star(lift, tol=1e-7)
                assert rep.lambda_star < cap
                collected.append(rep.lambda_star / (2.0 * math.sqrt(d - 1)))
        ratios[d] = sum(collected) / len(collected)
    shown = ", ".join(f"d={d}: {r:.4f}" for d, r in ratios.items())
    note(f"criterion 03 near-ramanujan sweep: PASS (mean ratios {shown}; "
         f"expected near [0.8, 1.2], not asserted)")


def test_criterion_04_off_band_form_bound():
    rng = np.random.default_rng(41)
    names = ["k3", "k4", "k5", "c4", "c5", "c6", "petersen", "k4", "c5", "k3"]
    checked = 0
    for name in names:
        base = base_from_name(name)
        lift = random_lift(base, int(rng.integers(3, 9)), rng)
        cap = 4.0 * math.sqrt(lift.d)
        for k in range(100):
            x = LiftVector(np.abs(rng.normal(size=(lift.h, lift.n)))
                           * 10.0 ** rng.integers(-2, 3))
            if k % 2:
                scaled = x.scaled(math.sqrt(lift.n * lift.h / x.norm_sq) * 0.999)
                x = dyadic_round(scaled, rng)
            if x.norm_sq == 0.0:
                continue
            off = abs(quad_form_restricted(lift, "centered", x, x, "complement"))
            assert off <= cap * x.norm_sq * (1.0 + 1e-12)
            checked += 1
    note(f"criterion 04 off-band bound: PASS ({checked} nonnegative vectors)")


def test_criterion_05_comparable_form_equals_twice_potency():
    rng = np.random.default_rng(55)
    checked = 0
    for k in range(10):
        base = base_from_name(["k3", "k4", "k5", "c5", "petersen"][k % 5])
        lift = random_lift(base, int(rng.integers(4, 12)), rng)
        scale = DyadicScale.of(lift)
        for _ in range(20):
            band = random_band_vector(scale, rng)
            pattern, _ = extract_pattern(band, lift)
            comparable = quad_form_restricted(lift, "centered", band.vector,
                                              band.vector, "comparable")
            assert abs(comparable) == pytest.approx(
                2.0 * potency(pattern), rel=1e-9, abs=1e-9)
            checked += 1
    note(f"criterion 05 comparable form vs potency: PASS ({checked} vectors)")


def test_criterion_06_planted_clique_witness_exactness():
    # the witness vector lives on the chosen fibres and is an exact
    # eigenvector of the adjacency restricted to those rows; rows outside
    # the support pick up spill-over, so the residual is measured on the
    # support fibres, which is also where the Rayleigh value comes from
    base = complete_graph(9)
    for s in (3, 4, 5):
        for seed in (1, 2):
            lift = plant_clique(sample_lift(base, 40, SeededRng(seed, 60 + s)),
                                list(range(s)))
            result = clique_witness(lift, [(i, 0) for i in range(s)])
            x = result.vector
            image = apply_adjacency(lift, x).values - (s - 1) * x.values
            residual = float(np.linalg.norm(image[:s]))
            assert residual <= 1e-10
            assert result.rayleigh == pytest.approx(float(s - 1), abs=1e-9)
    note("criterion 06 planted-clique exactness: PASS (support rows, s in {3,4,5})")


def test_criterion_07_induced_subgraph_lower_bound():
    rng = np.random.default_rng(77)
    rnd = random.Random(77)
    checked = 0
    for k in range(10):
        base = complete_graph(4) if k % 2 else complete_graph(5)
        n = 60
        lift = random_lift(base, n, rng)
        star = lambda_star(lift, method="dense").lambda_star
        room = int(n - base.h * math.sqrt(n))
        vertices = [(i, j) for i in range(base.h) for j in range(n)]
        for _ in range(10):
            size = rnd.randint(1, min(room, 40))
            chosen = rnd.sample(vertices, size)
            top = float(np.linalg.eigvalsh(induced_adjacency(lift, chosen))[-1])
            assert star >= top - 3.5
            witness = embed_subgraph_witness(lift, chosen)
            assert witness.claimed_bound == pytest.approx(top - 3.5, abs=1e-9)
            assert witness.bound_met
            checked += 1
    note(f"criterion 07 induced subgraph bound: PASS ({checked} subgraphs)")


def test_criterion_08_matching_probability_exactness():
    rnd = random.Random(88)
    for _ in range(200):
        n = rnd.randint(2, 7)
        spec = random_spec(rnd, n, rnd.randint(1, min(3, n)),
                           rnd.randint(1, min(3, n)))
        assert exact_probability_fraction(spec) == brute_force_probability(spec)
    for a, b in (((2, 2), (1, 3)), ((3, 2, 1), (2, 2, 2)), ((1, 1, 1), (3,))):
        n = sum(a)
        total = Fraction(0)
        for e in feasible_count_matrices(a, b):
            total += exact_probability_fraction(MatchingSpec(n, a, b, e))
        assert total == 1
    spec = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    est = monte_carlo_probability(spec, 100_000, SeededRng(88))
    assert abs(est.estimate - 1.0 / 6.0) <= 4.0 * est.std_error
    note("criterion 08 matching probabilities: PASS "
         f"(200 exact matches; MC {est.estimate:.5f} vs 1/6)")


def test_criterion_09_deviation_rate_bounds():
    cut = math.e ** 2 - 1.0
    assert deviation_rate(-1.0) == 1.0
    assert deviation_rate(0.0) == 0.0
    assert deviation_rate(cut) == pytest.approx(math.e ** 2 + 1.0, rel=1e-12)
    low = np.linspace(-1.0 + 1e-9, cut, 50_000)
    for eps in low:
        assert deviation_rate(float(eps)) >= eps * eps / 15.0 - 1e-12
    high = np.linspace(cut, 60.0, 50_000)
    for eps in high:
        floor = (1.0 + eps / 2.0) * math.log1p(eps)
        assert deviation_rate(float(eps)) >= floor - 1e-9 * abs(floor)
    note("criterion 09 deviation-rate bounds: PASS (100000 grid points)")


def test_criterion_10_reduction_soundness():
    rng = np.random.default_rng(110)
    reducers = (("large", reduce_large), ("small", reduce_small),
                ("general", reduce_general))
    for k in range(100):
        n = int(rng.integers(4, 10_001))
        pattern = random_pattern(rng, n=n)
        for level in (20.0, 41.0):
            for branch, reducer in reducers:
                ref_verify_reduction(pattern, reducer(pattern, level=level),
                                     level, branch)
    note("criterion 10 reduction soundness: PASS "
         "(100 patterns x 3 branches x L in {20, 41})")


def test_criterion_11_certificate_pipeline_hit_rate():
    """Statistical check; retry policy: each lift gets one attempt with the
    full 200-trial search budget, no re-rolls, and at least 19 of the 20
    attempts must meet both the rounding and the band targets."""
    rng = np.random.default_rng(111)
    names = ["k4", "k5", "c6", "petersen"]
    successes = 0
    for k in range(20):
        base = base_from_name(names[k % len(names)])
        lift = random_lift(base, int(rng.integers(20, 51)), rng)
        report = band_certificate(lift, trials=200, rng=SeededRng(2024, k))
        round_met = (report.certificate.met
                     if report.certificate is not None else report.met)
        if round_met and report.met:
            successes += 1
    assert successes >= 19
    note(f"criterion 11 certificate hit rate: PASS ({successes}/20 runs)")


def test_criterion_12_pattern_count_bound():
    cases = [(4, 3, 2, 1), (8, 3, 2, 2), (8, 3, 2, 3), (16, 3, 2, 2),
             (4, 4, 3, 1), (6, 4, 3, 2), (4, 5, 4, 1), (4, 4, 2, 2),
             (32, 3, 2, 2), (6, 5, 2, 2)]
    verified = 0
    for n, h, d, cap in cases:
        base = None
        if (h, d) == (4, 2):
            base = cycle_graph(4)
        if (h, d) == (5, 2):
            base = cycle_graph(5)
        try:
            found = enumerate_patterns(n, h, d, cap, base=base, guard=1_000_000)
        except TooLargeError:
            continue
        allowed = math.exp(pattern_count_bound(n, h, d, cap))
        assert found <= allowed * (1.0 + 1e-12)
        assert found <= 1_000_000
        verified += 1
    assert verified >= 8
    note(f"criterion 12 pattern count bound: PASS ({verified} parameter tuples)")
