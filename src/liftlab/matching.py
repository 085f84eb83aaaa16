"""Joint edge-count probabilities under one uniform random matching.

Given partitions A_0..A_s and B_0..B_t of the two sides of a random perfect
matching on n points, the chance that every pair (A_i, B_j) receives a
prescribed number of matched pairs has the closed form
prod(a_i!) prod(b_j!) / (n! prod(e_ij!)).  This module evaluates that form
exactly (big rationals or log-gamma), derives its Gaussian-style asymptotic
shape with hard two-sided Stirling error bounds, and cross-checks by brute
force and Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidMarginalsError, TooLargeError
from .graphs import _check_count, _int64_items, _is_int
from .patterns import deviation_rate
from .sampling import SeededRng

EXACT_FRACTION_LIMIT = 64
BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class MatchingSpec:
    """Block sizes on both sides plus the prescribed joint counts.

    a and b are the block sizes of the two partitions (each summing to n);
    e[i][j] prescribes how many matched pairs join block i to block j, with
    row sums a and column sums b.
    """

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    e: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # below 2**62, so a count that ``_int64s`` clipped to 2**62 cannot fit its sums
        if not (_is_int(self.n) and 1 <= self.n < 2**62):
            raise InvalidMarginalsError("ground size must be an integer in 1..2**62 - 1")
        def ints(values, what):
            return tuple(_int64_items(values, InvalidMarginalsError,
                                      f"{what} must be integers").tolist())
        a, b = ints(self.a, "block sizes"), ints(self.b, "block sizes")
        e = tuple(ints(row, "counts") for row in self.e)
        if not a or not b:
            raise InvalidMarginalsError("need at least one block per side")
        if any(x < 0 for x in a) or any(x < 0 for x in b):
            raise InvalidMarginalsError("block sizes must be nonnegative")
        if sum(a) != self.n or sum(b) != self.n:
            raise InvalidMarginalsError("block sizes must sum to n")
        if len(e) != len(a) or any(len(row) != len(b) for row in e):
            raise InvalidMarginalsError("count matrix shape must be len(a) x len(b)")
        if any(x < 0 for row in e for x in row):
            raise InvalidMarginalsError("counts must be nonnegative")
        for i, row in enumerate(e):
            if sum(row) != a[i]:
                raise InvalidMarginalsError(f"row {i} sums to {sum(row)}, not {a[i]}")
        for j in range(len(b)):
            col = sum(row[j] for row in e)
            if col != b[j]:
                raise InvalidMarginalsError(f"column {j} sums to {col}, not {b[j]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "e", e)

    def mean(self, i: int, j: int) -> float:
        """Expected count between blocks i and j: a_i b_j / n."""
        return self.a[i] * self.b[j] / self.n

    def relative_gap(self, i: int, j: int) -> float:
        """Observed over expected minus one; zero when the mean vanishes."""
        if self.a[i] == 0 or self.b[j] == 0:
            return 0.0
        return self.e[i][j] * self.n / (self.a[i] * self.b[j]) - 1.0

    def cells(self):
        return itertools.product(range(len(self.a)), range(len(self.b)))

    def require_positive_blocks(self) -> None:
        if min(self.a) < 1 or min(self.b) < 1:
            raise InvalidMarginalsError("this form needs every block nonempty")


def exact_log_probability(spec: MatchingSpec) -> float:
    """Natural log of prod(a!) prod(b!) / (n! prod(e!)), via log-gamma."""
    total = -math.lgamma(spec.n + 1)
    total += sum(math.lgamma(x + 1) for x in spec.a)
    total += sum(math.lgamma(x + 1) for x in spec.b)
    total -= sum(math.lgamma(x + 1) for row in spec.e for x in row)
    return total


def exact_probability_fraction(spec: MatchingSpec) -> Fraction:
    """The same probability as an exact rational; limited to small n."""
    if spec.n > EXACT_FRACTION_LIMIT:
        raise TooLargeError(
            f"exact rationals supported up to n = {EXACT_FRACTION_LIMIT}")
    num = math.prod(map(math.factorial, spec.a + spec.b))
    den = math.factorial(spec.n) * math.prod(math.factorial(x) for row in spec.e for x in row)
    return Fraction(num, den)


def deviation_exponent(spec: MatchingSpec) -> float:
    """Sum over cells of mean * rate(relative gap); empty cells with positive
    mean contribute the mean itself."""
    total = 0.0
    for i, j in spec.cells():
        mu = spec.mean(i, j)
        if mu > 0.0:
            total += mu * deviation_rate(spec.relative_gap(i, j))
    return total


@dataclass(frozen=True)
class AsymptoticForm:
    """Gaussian-style shape chi * exp(-exponent) of the exact probability."""

    log_prefactor: float
    exponent: float


def asymptotic_form(spec: MatchingSpec) -> AsymptoticForm:
    """Prefactor chi = n^{-1/2} (prod a prod b / prod nonzero e)^{1/2} and the
    deviation exponent; their combination approximates the exact probability
    up to the Stirling window."""
    spec.require_positive_blocks()
    log_chi = -0.5 * math.log(spec.n)
    log_chi += 0.5 * sum(math.log(x) for x in spec.a)
    log_chi += 0.5 * sum(math.log(x) for x in spec.b)
    log_chi -= 0.5 * sum(math.log(x) for row in spec.e for x in row if x > 0)
    return AsymptoticForm(log_chi, deviation_exponent(spec))


def stirling_log_bounds(spec: MatchingSpec) -> tuple[float, float]:
    """Two-sided bounds for log(exact) - log(asymptotic).

    Stirling's form m! = sqrt(2 pi m)(m/e)^m c_m with 1 < c_m <= e^{1/(12m)}
    makes the ratio exactly (2 pi)^{kappa/2} times a correction factor, where
    kappa counts numerator blocks minus denominator blocks.
    """
    spec.require_positive_blocks()
    nonzero = [x for row in spec.e for x in row if x > 0]
    kappa = len(spec.a) + len(spec.b) - 1 - len(nonzero)
    centre = 0.5 * kappa * math.log(2.0 * math.pi)
    low = centre - (1.0 / 12.0) * (1.0 / spec.n + sum(1.0 / x for x in nonzero))
    high = centre + (1.0 / 12.0) * (sum(1.0 / x for x in spec.a)
                                    + sum(1.0 / x for x in spec.b))
    return low, high


def simplified_bound(spec: MatchingSpec) -> float:
    """Log of the weakened bound (prod of non-lead block sizes)^{1/4} times
    exp(-deviation exponent); non-lead means every block but the first on
    each side."""
    spec.require_positive_blocks()
    quarter = 0.25 * (sum(math.log(x) for x in spec.a[1:])
                      + sum(math.log(x) for x in spec.b[1:]))
    return quarter - deviation_exponent(spec)


def simplified_bound_constant(a_blocks: int, b_blocks: int) -> float:
    """Log of an explicit constant C(s, t) with exact <= C * simplified bound.

    Derived from the exact Stirling sandwich: kappa is at most s + t, every
    correction factor is at most e^{1/12}, the lead-block prefactor
    n^{-1/2} (a_0 b_0)^{1/4} is at most one, and each row product of nonzero
    counts is at least the row sum divided by the number of columns (and
    symmetrically), which controls chi by the quarter-power product.
    """
    if a_blocks < 1 or b_blocks < 1:
        raise ConfigError("need at least one block per side")
    s = a_blocks - 1
    t = b_blocks - 1
    log_c = 0.5 * (s + t) * math.log(2.0 * math.pi)
    log_c += (s + t + 2) / 12.0
    log_c += 0.25 * ((s + 1) * math.log(t + 1) + (t + 1) * math.log(s + 1))
    return log_c


def brute_force_probability(spec: MatchingSpec) -> Fraction:
    """Exact probability by scanning all n! matchings; independent oracle."""
    if spec.n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force supported up to n = {BRUTE_FORCE_LIMIT}")
    label_a = _labels(spec.a)
    label_b = _labels(spec.b)
    hits = 0
    total = 0
    shape = (len(spec.a), len(spec.b))
    for perm in itertools.permutations(range(spec.n)):
        counts = [[0] * shape[1] for _ in range(shape[0])]
        for v, w in enumerate(perm):
            counts[label_a[v]][label_b[w]] += 1
        total += 1
        if tuple(tuple(row) for row in counts) == spec.e:
            hits += 1
    return Fraction(hits, total)


def _labels(sizes: Sequence[int]) -> list[int]:
    out = []
    for block, size in enumerate(sizes):
        out.extend([block] * size)
    return out


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float
    hits: int
    samples: int


def monte_carlo_probability(spec: MatchingSpec, samples: int,
                            rng: SeededRng | None = None) -> MonteCarloEstimate:
    """Empirical frequency over uniform matchings, drawn from one stream of
    the seed, so the result is reproducible for a given seed."""
    _check_count(samples, "samples")
    gen = (rng if rng is not None else SeededRng(0)).generator()
    label_a = np.array(_labels(spec.a))
    label_b = np.array(_labels(spec.b))
    target = np.array(spec.e)
    rows, cols = target.shape
    hits = 0
    for _ in range(samples):
        perm = gen.permutation(spec.n)
        counts = np.zeros((rows, cols), dtype=np.int64)
        np.add.at(counts, (label_a, label_b[perm]), 1)
        if np.array_equal(counts, target):
            hits += 1
    estimate = hits / samples
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / samples)
    return MonteCarloEstimate(estimate, std_error, hits, samples)


def matching_spec_from_text(text: str) -> MatchingSpec:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "matching-spec":
        raise InvalidMarginalsError("not a matching-spec file")
    fields: dict[str, list[int]] = {}
    for line in lines[1:]:
        tokens = line.split()
        key, rest = tokens[0], tokens[1:]
        if key not in ("n", "a", "b", "e") or key in fields or not rest:
            raise InvalidMarginalsError(f"malformed line: {line!r}")
        try:
            fields[key] = [int(t) for t in rest]
        except ValueError:
            raise InvalidMarginalsError(f"non-integer value in line: {line!r}")
    for key in ("n", "a", "b", "e"):
        if key not in fields:
            raise InvalidMarginalsError(f"missing field {key!r}")
    if len(fields["n"]) != 1:
        raise InvalidMarginalsError("n must be a single integer")
    a, b, flat = fields["a"], fields["b"], fields["e"]
    if len(flat) != len(a) * len(b):
        raise InvalidMarginalsError("count matrix has the wrong number of entries")
    e = tuple(tuple(flat[i * len(b):(i + 1) * len(b)]) for i in range(len(a)))
    return MatchingSpec(fields["n"][0], tuple(a), tuple(b), e)
