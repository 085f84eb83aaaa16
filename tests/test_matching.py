"""Matching-probability checks: closed form vs. exhaustive scans, the
asymptotic shape inside its Stirling window, and Monte Carlo agreement."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.errors import ConfigError, InvalidMarginalsError, TooLargeError
from liftlab.matching import (
    MatchingSpec,
    asymptotic_form,
    brute_force_probability,
    deviation_exponent,
    exact_log_probability,
    exact_probability_fraction,
    matching_spec_from_text,
    monte_carlo_probability,
    simplified_bound,
    simplified_bound_constant,
    stirling_log_bounds,
)
from liftlab.patterns import deviation_rate
from liftlab.sampling import SeededRng

from _support import matching_spec_to_text


def random_partition(rnd, n, k):
    """k positive integers summing to n, uniform over cut positions."""
    cuts = sorted(rnd.sample(range(1, n), k - 1)) if k > 1 else []
    edges = [0] + cuts + [n]
    return tuple(edges[i + 1] - edges[i] for i in range(k))


def counts_from_permutation(a, b, perm):
    """Joint block counts induced by an explicit matching."""
    label_a = [i for i, size in enumerate(a) for _ in range(size)]
    label_b = [j for j, size in enumerate(b) for _ in range(size)]
    e = [[0] * len(b) for _ in range(len(a))]
    for v, w in enumerate(perm):
        e[label_a[v]][label_b[w]] += 1
    return tuple(tuple(row) for row in e)


def random_spec(rnd, n, ka, kb):
    """A feasible spec: counts come from an actual random matching."""
    a = random_partition(rnd, n, ka)
    b = random_partition(rnd, n, kb)
    perm = list(range(n))
    rnd.shuffle(perm)
    return MatchingSpec(n, a, b, counts_from_permutation(a, b, perm))


def feasible_count_matrices(a, b):
    """All nonnegative integer matrices with row sums a and column sums b."""
    if not a:
        yield ()
        return
    head, rest = a[0], a[1:]

    def rows(remaining, budget):
        if not budget:
            yield () if remaining == 0 else None
            if remaining == 0:
                return
            return
        first, others = budget[0], budget[1:]
        for x in range(min(remaining, first) + 1):
            for tail in rows(remaining - x, others):
                if tail is not None:
                    yield (x,) + tail

    for row in rows(head, b):
        if row is None:
            continue
        reduced = tuple(b[j] - row[j] for j in range(len(b)))
        for tail in feasible_count_matrices(rest, reduced):
            yield (row,) + tail


@st.composite
def matching_specs(draw):
    a = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    n = sum(a)
    kb = draw(st.integers(1, min(4, n)))
    if kb > 1:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1),
                                   min_size=kb - 1, max_size=kb - 1)))
    else:
        cuts = []
    edges = [0, *cuts, n]
    b = tuple(edges[i + 1] - edges[i] for i in range(kb))
    perm = draw(st.permutations(range(n)))
    return MatchingSpec(n, a, b, counts_from_permutation(a, b, perm))


def test_two_point_diagonal_is_half():
    spec = MatchingSpec(2, (1, 1), (1, 1), ((1, 0), (0, 1)))
    assert exact_probability_fraction(spec) == Fraction(1, 2)


def test_block_diagonal_four_points_is_one_sixth():
    spec = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    assert exact_probability_fraction(spec) == Fraction(1, 6)
    assert brute_force_probability(spec) == Fraction(1, 6)


def test_single_blocks_are_certain():
    for n in (1, 2, 5, 9):
        spec = MatchingSpec(n, (n,), (n,), ((n,),))
        assert exact_probability_fraction(spec) == 1
        assert exact_log_probability(spec) == pytest.approx(0.0, abs=1e-12)


def test_exact_matches_brute_force_on_random_specs():
    rnd = random.Random(20240811)
    for _ in range(220):
        n = rnd.randint(2, 7)
        spec = random_spec(rnd, n, rnd.randint(1, min(3, n)), rnd.randint(1, min(3, n)))
        assert exact_probability_fraction(spec) == brute_force_probability(spec)


def test_probabilities_sum_to_one_over_feasible_counts():
    rnd = random.Random(5)
    cases = [((1, 1), (2,)), ((2, 2), (1, 3)), ((3, 2, 1), (2, 2, 2))]
    for _ in range(3):
        n = rnd.randint(2, 6)
        cases.append((random_partition(rnd, n, rnd.randint(1, min(3, n))),
                      random_partition(rnd, n, rnd.randint(1, min(3, n)))))
    for a, b in cases:
        n = sum(a)
        total = Fraction(0)
        seen = 0
        for e in feasible_count_matrices(a, b):
            total += exact_probability_fraction(MatchingSpec(n, a, b, e))
            seen += 1
        assert seen >= 1
        assert total == 1


def test_log_route_agrees_with_rational_route():
    rnd = random.Random(99)
    for _ in range(60):
        n = rnd.randint(2, 64)
        spec = random_spec(rnd, n, rnd.randint(1, min(4, n)), rnd.randint(1, min(4, n)))
        expected = math.log(exact_probability_fraction(spec))
        assert exact_log_probability(spec) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_rational_route_refuses_huge_instances():
    spec = MatchingSpec(65, (65,), (65,), ((65,),))
    with pytest.raises(TooLargeError):
        exact_probability_fraction(spec)


def test_brute_force_refuses_more_than_eight_points():
    spec = MatchingSpec(9, (9,), (9,), ((9,),))
    with pytest.raises(TooLargeError):
        brute_force_probability(spec)


def test_marginal_validation():
    with pytest.raises(InvalidMarginalsError):
        MatchingSpec(4, (2, 2), (2, 2), ((1, 0), (0, 2)))  # bad row sum
    with pytest.raises(InvalidMarginalsError):
        MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (1, 1)))  # bad column sum
    with pytest.raises(InvalidMarginalsError):
        MatchingSpec(4, (2, 1), (2, 2), ((2, 0), (0, 1)))  # sides disagree
    with pytest.raises(InvalidMarginalsError):
        MatchingSpec(2, (3, -1), (1, 1), ((1, 1), (0, -1)))
    with pytest.raises(InvalidMarginalsError):
        MatchingSpec(2, (1, 1), (1, 1), ((1, 0),))  # shape mismatch
    with pytest.raises(InvalidMarginalsError):
        MatchingSpec(0, (), (), ())


@pytest.mark.parametrize("n, a, b, e, reason", [
    pytest.param(4, (2, 2), (2, 2), ((2.9, 0), (0, 2.9)), "counts must be integers", id="count-float"),
    pytest.param(4, (2, 2), (2, 2), ((True, 1), (0, 2)), "counts must be integers", id="count-bool"),
    pytest.param(4, (True, 3), (2, 2), ((1, 0), (1, 2)), "block sizes must be integers",
                 id="block-bool"),
    pytest.param(4, (2, 2), (2.0, 2), ((2, 0), (0, 2)), "block sizes must be integers",
                 id="block-float"),
    pytest.param(4.0, (2, 2), (2, 2), ((2, 0), (0, 2)), "ground size", id="n-float"),
    pytest.param(True, (1,), (1,), ((1,),), "ground size", id="n-bool"),
    pytest.param(2 ** 62, (2 ** 70,), (2 ** 62,), ((2 ** 62,),), "ground size", id="n-at-2-62"),
    pytest.param(4, (2 ** 70, 4 - 2 ** 70), (2, 2), ((2, 0), (0, 2)), "nonnegative",
                 id="block-beyond-int64"),
])
def test_matching_spec_reads_integers_only(n, a, b, e, reason):
    # each once read as int(x): 2.9 as 2, True as 1, 4.0 as 4
    with pytest.raises(InvalidMarginalsError, match=reason):
        MatchingSpec(n, a, b, e)


def test_mean_and_gap_conventions():
    spec = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    assert spec.mean(0, 1) == pytest.approx(1.0)
    assert spec.relative_gap(0, 0) == pytest.approx(1.0)
    assert spec.relative_gap(0, 1) == pytest.approx(-1.0)
    # an empty cell with positive blocks sits at the lower domain edge,
    # where the deviation rate is pinned to one
    assert deviation_rate(spec.relative_gap(0, 1)) == 1.0


def test_exponent_vanishes_when_counts_sit_at_their_means():
    spec = MatchingSpec(4, (2, 2), (2, 2), ((1, 1), (1, 1)))
    assert deviation_exponent(spec) == pytest.approx(0.0, abs=1e-15)
    form = asymptotic_form(spec)
    assert form.exponent == pytest.approx(0.0, abs=1e-15)


def test_empty_cell_contributes_exactly_its_mean():
    full = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    occupied = 2 * (1.0 * deviation_rate(1.0))
    assert deviation_exponent(full) == pytest.approx(occupied + 2 * 1.0, rel=1e-12)


def test_exponent_sums_per_cell_rates():
    rnd = random.Random(3)
    for _ in range(25):
        n = rnd.randint(3, 30)
        spec = random_spec(rnd, n, rnd.randint(1, min(3, n)), rnd.randint(1, min(3, n)))
        manual = sum(spec.mean(i, j) * deviation_rate(spec.relative_gap(i, j))
                     for i, j in spec.cells())
        assert deviation_exponent(spec) == pytest.approx(manual, rel=1e-12)


def test_single_block_asymptotics_are_exact_up_to_kappa_zero_window():
    for n in (2, 7, 40):
        spec = MatchingSpec(n, (n,), (n,), ((n,),))
        form = asymptotic_form(spec)
        assert form.log_prefactor - form.exponent == pytest.approx(0.0, abs=1e-12)
        lo, hi = stirling_log_bounds(spec)
        assert lo == pytest.approx(-1.0 / (6.0 * n))
        assert hi == pytest.approx(1.0 / (6.0 * n))
        assert lo <= exact_log_probability(spec) - (form.log_prefactor - form.exponent) <= hi


@settings(max_examples=200, deadline=None)
@given(matching_specs())
def test_exact_probability_sits_inside_stirling_window(spec):
    form = asymptotic_form(spec)
    ratio = exact_log_probability(spec) - (form.log_prefactor - form.exponent)
    lo, hi = stirling_log_bounds(spec)
    assert lo - 1e-9 <= ratio <= hi + 1e-9


@settings(max_examples=200, deadline=None)
@given(matching_specs())
def test_simplified_bound_dominates_with_derived_constant(spec):
    cap = simplified_bound_constant(len(spec.a), len(spec.b)) + simplified_bound(spec)
    assert exact_log_probability(spec) <= cap + 1e-9


def test_simplified_bound_on_worked_examples():
    diag = MatchingSpec(2, (1, 1), (1, 1), ((1, 0), (0, 1)))
    cap = simplified_bound_constant(2, 2) + simplified_bound(diag)
    assert math.log(0.5) <= cap
    blocks = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    cap = simplified_bound_constant(2, 2) + simplified_bound(blocks)
    assert math.log(1.0 / 6.0) <= cap
    sure = MatchingSpec(5, (5,), (5,), ((5,),))
    assert 0.0 <= simplified_bound_constant(1, 1) + simplified_bound(sure)


def test_simplified_constant_grows_with_block_counts():
    assert simplified_bound_constant(1, 1) < simplified_bound_constant(2, 2)
    assert simplified_bound_constant(2, 2) < simplified_bound_constant(4, 4)
    with pytest.raises(ConfigError):
        simplified_bound_constant(0, 1)


@pytest.mark.parametrize("blocks", [(1.5, 1), (True, True), (2, "2")], ids=["half", "bools", "str"])
def test_simplified_constant_reads_block_counts_as_counts(blocks):
    with pytest.raises(ConfigError, match="_blocks must be an integer of at least 1"):
        simplified_bound_constant(*blocks)


def test_asymptotic_forms_require_nonempty_blocks():
    spec = MatchingSpec(2, (2, 0), (1, 1), ((1, 1), (0, 0)))
    with pytest.raises(InvalidMarginalsError):
        asymptotic_form(spec)
    with pytest.raises(InvalidMarginalsError):
        stirling_log_bounds(spec)
    with pytest.raises(InvalidMarginalsError):
        simplified_bound(spec)
    # the exact routes still accept empty blocks; here every matching
    # sends one point of A_0 to each side of B, so the event is certain
    assert exact_probability_fraction(spec) == 1
    assert brute_force_probability(spec) == 1


def test_monte_carlo_certain_event():
    spec = MatchingSpec(3, (3,), (3,), ((3,),))
    out = monte_carlo_probability(spec, 500, SeededRng(1))
    assert out.estimate == 1.0
    assert out.std_error == 0.0
    assert (out.hits, out.samples) == (500, 500)


def test_monte_carlo_matches_exact_within_four_sigma():
    spec = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    truth = 1.0 / 6.0
    out = monte_carlo_probability(spec, 20000, SeededRng(42))
    assert out.std_error > 0
    assert abs(out.estimate - truth) <= 4.0 * out.std_error


def test_monte_carlo_is_reproducible():
    spec = MatchingSpec(4, (2, 2), (2, 2), ((1, 1), (1, 1)))
    first = monte_carlo_probability(spec, 4000, SeededRng(7, 3))
    second = monte_carlo_probability(spec, 4000, SeededRng(7, 3))
    assert first == second
    assert first.hits == round(first.estimate * first.samples)


def test_monte_carlo_rejects_empty_sampling_plan():
    spec = MatchingSpec(2, (2,), (2,), ((2,),))
    with pytest.raises(ConfigError):
        monte_carlo_probability(spec, 0, SeededRng(0))


@pytest.mark.parametrize("samples", [2.5, True, -3, "10"])
def test_monte_carlo_reads_samples_as_an_integer(samples):
    spec = MatchingSpec(2, (2,), (2,), ((2,),))
    with pytest.raises(ConfigError, match="samples"):
        monte_carlo_probability(spec, samples, SeededRng(0))


def test_text_round_trip():
    rnd = random.Random(11)
    for _ in range(20):
        n = rnd.randint(2, 20)
        spec = random_spec(rnd, n, rnd.randint(1, min(4, n)), rnd.randint(1, min(4, n)))
        assert matching_spec_from_text(matching_spec_to_text(spec)) == spec


def test_text_parser_rejects_malformed_input():
    good = matching_spec_to_text(MatchingSpec(2, (1, 1), (1, 1), ((1, 0), (0, 1))))
    with pytest.raises(InvalidMarginalsError):
        matching_spec_from_text(good.replace("matching-spec", "matching"))
    with pytest.raises(InvalidMarginalsError):
        matching_spec_from_text("matching-spec\nn 2\na 1 1\nb 1 1\n")
    with pytest.raises(InvalidMarginalsError):
        matching_spec_from_text("matching-spec\nn 2\na 1 1\nb 1 1\ne 1 0 0\n")
    with pytest.raises(InvalidMarginalsError):
        matching_spec_from_text(good.replace("n 2", "n two"))
    with pytest.raises(InvalidMarginalsError):
        matching_spec_from_text(good + "a 9\n")


def test_feasibility_oracle_agrees_with_direct_enumeration():
    # sanity for the helper itself: 2x2 transportation count is min+1
    a, b = (2, 2), (3, 1)
    mats = list(feasible_count_matrices(a, b))
    assert len(mats) == 2  # e00 in {1, 2}
    for e in mats:
        MatchingSpec(4, a, b, e)  # all feasible, none raises
