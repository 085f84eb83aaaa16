"""Dyadic-valued vectors and the randomized quadratic-form certificate chain.

The centered operator's extreme Rayleigh quotient survives three lossy
compressions, each implemented here:

1. ``dyadic_round``: randomized rounding of an arbitrary vector to signed
   power-of-two entries, unbiased entrywise.
2. ``polarize``: combining two rounded copies into a small set of
   nonnegative candidates, one of which keeps a constant fraction of the
   original bilinear form.
3. ``band_select``: truncating a nonnegative dyadic vector to a single
   multiplicative band of width d and rescaling to unit scale, keeping a
   1/(8nh) fraction of the form restricted to comparable value pairs.

"Comparable" pairs are ordered value pairs with both entries strictly
positive and ratio strictly inside (1/sqrt(d), sqrt(d)). Comparisons on
the band boundary are resolved in exact rational arithmetic, so a ratio
of exactly sqrt(d) (possible when d is a power of four) is excluded
deterministically.

``dyadic_round`` and ``polarize`` check their inputs and wrap array functions
that the certificate search calls unchecked (``_polarize`` proves its candidates
valid): entries 0 or 2^i (i >= 0), squared norm <= 10nh, so fibre sums are
integers below 2^53, exact in any order. The search scores a trial's twelve
candidates exactly, as integer numerators from one gather of six parts of its
two roundings (``_numerators``), and builds only the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    EmptyVectorError,
    LiftlabError,
    NormTooLargeError,
    NotBandVectorError,
    NotSignCompatibleError,
    TooLargeError,
)
from .graphs import (Lift, LiftVector, _check_count, _int64s, _is_int, _kernel,
                     apply_operator, check_shape)
from .sampling import SeededRng
from .spectra import SpectralReport, lambda_star

GRID_GUARD = 4_000_000


@dataclass(frozen=True)
class DyadicScale:
    """Lift dimensions, and the band rules on the exponents e of entries 2^e/sqrt(nh).

    Every rule is decided on integer exponents, and no power of an exponent is
    formed before the exponent is bounded, so none depends on d > 1 to stop:

    - ``weight``: the entry value 2^e/sqrt(nh);
    - ``max_spread``: one band holds exponents at most s apart, 2^s <= d;
    - ``mass``: the squared norm sum(count * 4^e), exactly; ``within_cap``: it is at
      most ``norm_cap``, 10nh; ``headroom`` gives the largest k with 4^k * mass <= 10nh;
    - ``gap_limit``: two entries are comparable, 4^g < d, when their
      exponent gap g is below it (never when d = 1);
    - ``window_level``: band selection's level of e, the largest m with d^m <= 4^e.
    """

    n: int
    h: int
    d: int

    def __post_init__(self):
        if not all(_is_int(k) and k >= 1 for k in (self.n, self.h, self.d)):
            raise LiftlabError("n, h and d must be integers of at least 1, not "
                               f"{(self.n, self.h, self.d)}")

    @classmethod
    def of(cls, lift: Lift) -> "DyadicScale":
        return cls(lift.n, lift.h, lift.base.d)

    @property
    def size(self) -> int:
        return self.n * self.h

    @property
    def root_size(self) -> float:
        return math.sqrt(self.n * self.h)

    def weight(self, exponent: int) -> float:
        return math.ldexp(1.0, exponent) / self.root_size

    @property
    def max_spread(self) -> int:
        return self.d.bit_length() - 1

    @staticmethod
    def norm_cap(shape: tuple[int, ...], rounded: bool = False) -> int:
        """The cap on sum(4^e) over entries 2^e of an (h, n) shape: 10nh, or 5nh if rounded."""
        return (5 if rounded else 10) * shape[-2] * shape[-1]

    def headroom(self, mass: int) -> int:
        """The largest k with 4^k * mass <= 10nh, for an integer mass >= 1; -1
        when the mass alone exceeds the cap."""
        return ((self.norm_cap((self.h, self.n)) // mass).bit_length() - 1) // 2

    @staticmethod
    def mass(classes: Sequence[tuple[int, int]]) -> int:
        """The exact sum(count * 4^e) over (exponent, count) pairs with e >= 0."""
        return sum(c * 4 ** e for e, c in classes)

    def within_cap(self, classes: Sequence[tuple[int, int]]) -> bool:
        """``mass`` <= 10nh over (exponent, count) pairs with e >= 0 and count >= 1;
        an exponent above ``headroom(1)`` fails before 4^e is formed."""
        top = self.headroom(1)
        return (all(e <= top for e, _ in classes)
                and self.mass(classes) <= self.norm_cap((self.h, self.n)))

    def check_band(self, classes: Sequence[tuple[int, int]], error: type[LiftlabError]) -> None:
        """Raise ``error`` unless the (exponent, count >= 1) pairs have nonnegative
        exponents spread over one band, and a squared norm within 10."""
        exps = [e for e, _ in classes]
        if exps and min(exps) < 0:
            raise error("exponents must be nonnegative")
        if exps and max(exps) - min(exps) > self.max_spread:
            raise error("entries spread beyond one band of width d")
        if not self.within_cap(classes):
            raise error("squared norm exceeds 10")

    @property
    def gap_limit(self) -> int:
        return ((self.d - 1).bit_length() + 1) // 2

    def window_level(self, exponent: int) -> int:
        """The largest m with d^m <= 4^e, for d >= 2 and 0 <= e <= ``headroom(1)``."""
        if self.d < 2 or not 0 <= exponent <= self.headroom(1):
            raise LiftlabError("window levels need d >= 2 and an exponent within the norm cap")
        power = 4 ** exponent
        m = int(2 * exponent / math.log2(self.d))  # off by at most one either way
        return m - (self.d ** m > power) + (self.d ** (m + 1) <= power)


# ---------------------------------------------------------------------------
# quadratic forms


def quad_form(lift: Lift, kind: str, x: LiftVector, y: LiftVector) -> float:
    """Bilinear form <x, A y> of the chosen operator, matrix-free."""
    check_shape(lift, x)
    return float(np.vdot(x.values, apply_operator(lift, kind, y).values))


def _codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inv = np.unique(values, return_inverse=True)
    return uniq, inv.reshape(values.shape)


def _weight_grids(lift: Lift, cx: np.ndarray, cy: np.ndarray,
                  kx: int, ky: int) -> tuple[np.ndarray, np.ndarray]:
    """Total operator weight between each (x-value, y-value) class, for the
    adjacency and expected operators."""
    pairs = cx[:, None, :] * ky + cy.reshape(-1)[lift.neighbour_index()]
    wa = np.bincount(pairs.ravel(), minlength=kx * ky).reshape(kx, ky).astype(float)
    hx = np.array([np.bincount(c, minlength=kx) for c in cx], dtype=float)
    hy = np.array([np.bincount(c, minlength=ky) for c in cy], dtype=float)
    nb = lift.base.adjacency()
    we = (hx.T @ (nb @ hy)) / lift.n
    return wa, we


def _comparable_mask(ux: np.ndarray, uy: np.ndarray, d: int) -> np.ndarray:
    """Strict membership of each value pair (a, b) in the comparable region,
    a, b > 0 and max(a^2, b^2) < d min(a^2, b^2), with exact rational
    resolution of near-boundary comparisons."""
    a2, b2 = (ux * ux)[:, None], (uy * uy)[None, :]
    hi, lo = np.maximum(a2, b2), d * np.minimum(a2, b2)
    pos = (ux > 0)[:, None] & (uy > 0)[None, :]
    less = hi < lo
    for i, j in np.argwhere(pos & (np.abs(hi - lo) <= 1e-9 * np.maximum(np.abs(hi), np.abs(lo)))):
        sa, sb = Fraction(float(ux[i])) ** 2, Fraction(float(uy[j])) ** 2
        less[i, j] = max(sa, sb) < d * min(sa, sb)
    return pos & less


REGIONS = ("comparable", "complement")


def quad_form_restricted(lift: Lift, kind: str, x: LiftVector, y: LiftVector,
                         region: str = "comparable") -> float:
    """Bilinear form summed only over ordered vertex pairs whose value pair
    lies in the chosen region; comparable + complement = unrestricted."""
    _kernel(kind)
    check_shape(lift, x)
    check_shape(lift, y)
    if region not in REGIONS:
        raise LiftlabError(f"region must be one of {REGIONS}")
    ux, cx = _codes(x.values)
    uy, cy = _codes(y.values)
    if ux.size * uy.size > GRID_GUARD:
        raise TooLargeError("too many distinct value pairs for the grid evaluation")
    wa, we = _weight_grids(lift, cx, cy, ux.size, uy.size)
    w = wa if kind == "adjacency" else we if kind == "expected" else wa - we
    mask = _comparable_mask(ux, uy, lift.d) ^ (region == "complement")
    contrib = np.outer(ux, uy) * w
    return float(contrib[mask].sum())


# ---------------------------------------------------------------------------
# dyadic value classes


def signed_exponents(x: LiftVector) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, nonzero mask) for a vector with entries 0 or +-2^i, i >= 0.

    Raises NotBandVector if any entry is not of that form.
    """
    vals = np.abs(x.values)
    mant, expo = np.frexp(vals)
    nonzero = vals != 0.0
    bad = nonzero & ((mant != 0.5) | (expo < 1))
    if bad.any():
        raise NotBandVectorError("entries must be zero or have modulus 2^i with i >= 0")
    return (expo - 1) * nonzero, nonzero


# ---------------------------------------------------------------------------
# randomized rounding


def dyadic_round(x: LiftVector, rng) -> LiftVector:
    """Round each entry to a signed power of two (or zero), unbiased entrywise.

    An entry of modulus below one becomes sign*1 with probability equal to
    the modulus, else zero. An entry with 2^j <= |x_v| < 2^(j+1) becomes
    sign*2^(j+1) with probability (|x_v| - 2^j)/2^j, else sign*2^j, making
    the expectation exactly x_v. Requires squared norm <= nh, which forces
    the output squared norm below 5nh deterministically.
    """
    _check_norm(x)
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    return LiftVector(_rounding(x.values)(gen))


def _check_norm(x: LiftVector) -> None:
    """Raise NormTooLargeError unless |x|^2 <= nh(1 + 1e-9), the rounding's input bound;
    a NaN norm fails it too."""
    nh = x.h * x.n
    if not x.norm_sq <= nh * (1.0 + 1e-9):
        raise NormTooLargeError(f"squared norm {x.norm_sq:.6g} exceeds {nh}")


def _rounding(values: np.ndarray):
    """The rounding of ``values`` as a function of its generator, which only draws and selects."""
    # |v| = mant 2^expo with 2^(expo-1) <= |v|: the chance of rounding up, (|v| - lo)/lo,
    # is 2 mant - 1 exactly, and the two outcomes are 2^expo and 2^(expo-1); below 1 the
    # chance is |v| and the outcomes 1 and 0
    a = np.abs(values)
    mant, expo = np.frexp(a)
    big = a >= 1.0
    sign = np.sign(values)  # not copysign: a -0.0 entry rounds to +0.0
    chance = np.where(big, 2.0 * mant - 1.0, a)
    up = np.where(big, np.ldexp(1.0, expo), 1.0) * sign
    down = np.where(big, np.ldexp(0.5, expo), 0.0) * sign
    return lambda gen: np.where(gen.random(size=a.shape) < chance, up, down)


# ---------------------------------------------------------------------------
# polarization


def _check_compatible(yv: np.ndarray, zv: np.ndarray) -> None:
    if yv.shape != zv.shape:
        raise NotSignCompatibleError("shape mismatch")
    classes = []
    for v, name in ((yv, "first"), (zv, "second")):
        exps, mask = signed_exponents(LiftVector(v))
        if DyadicScale.mass(_classes(exps[mask])) > DyadicScale.norm_cap(v.shape, rounded=True):
            raise NotBandVectorError(f"{name} vector exceeds the rounded-class norm cap")
        classes.append((exps, mask))
    (ey, my), (ez, mz) = classes
    if ((yv > 0) & (zv < 0)).any() or ((yv < 0) & (zv > 0)).any():
        raise NotSignCompatibleError("entries with opposite signs")
    if (np.abs(ey - ez)[my & mz] > 1).any():
        raise NotSignCompatibleError("entries from different rounding brackets")
    if ((~my & (ez > 0)) | (~mz & (ey > 0))).any():
        raise NotSignCompatibleError("zero paired with an entry above one")


def polarize(y: LiftVector, z: LiftVector) -> list[LiftVector]:
    """Nonnegative dyadic candidates combining two compatible rounded vectors.

    The returned list always contains a candidate c with |<c, A c>| at
    least one tenth of |<y, A z>| for any symmetric operator A vanishing
    on the diagonal (a sign-splitting argument over positive/negative
    parts and their differences).
    """
    _check_compatible(y.values, z.values)
    return [LiftVector(c) for c in _polarize(y.values, z.values)]


def _polarize(yv: np.ndarray, zv: np.ndarray) -> np.ndarray:
    """The twelve candidates of ``polarize`` as one (12, h, n) stack, unchecked.

    Two roundings of one x with |x|^2 <= nh(1 + 1e-9) make every candidate valid.
    They share x's signs; where both are nonzero their exponents differ by at most
    1, and a zero pairs only with 0 or 1. An entry squares to at most max(4x^2, 1),
    so each integer squared norm is within 5nh + 4e-9 nh: 5nh while nh < 2.5e8.
    Sums join disjoint supports and a difference entry is 0, 1 or 2^j, so every
    candidate has entries 0 or 2^i (i >= 0) and squared norm <= 10nh. The one that
    leaves the search is checked exactly by ``band_select`` (nonnegative,
    ``signed_exponents``, ``within_cap``) before anything derived from it reaches
    a CSV row or stdout.
    """
    return (_TWICE_KAPPA @ _parts(yv, zv).reshape(6, -1)).reshape(12, *yv.shape) / 2.0


# ---------------------------------------------------------------------------
# certificate search


# Twice the twelve candidates of ``_polarize`` as combinations of the six parts
# (y+, y-, z+, z-, |y+ - z+|, |y- - z-|) that ``_parts`` stacks: w1+ = max(y+ - z+, 0)
# is (|y+ - z+| + y+ - z+)/2, and so on.
_TWICE_KAPPA = np.array([
    [2, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0], [0, 0, 0, 2, 0, 0],
    [2, 0, 0, 2, 0, 0], [0, 2, 2, 0, 0, 0],
    [1, 0, -1, 0, 1, 0], [-1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 2, 0],
    [0, 1, 0, -1, 0, 1], [0, -1, 0, 1, 0, 1], [0, 0, 0, 0, 0, 2],
], dtype=np.int64)
_TWICE_KAPPA.setflags(write=False)


def _parts(yv: np.ndarray, zv: np.ndarray) -> np.ndarray:
    """The (6, h, n) stack (y+, y-, z+, z-, |y+ - z+|, |y- - z-|) of two roundings,
    which ``_polarize`` combines through ``_TWICE_KAPPA``."""
    parts = np.empty((3, 2, *yv.shape))
    signed = np.stack((yv, zv))
    np.maximum(signed, 0.0, out=parts[:2, 0])
    np.maximum(-signed, 0.0, out=parts[:2, 1])
    np.subtract(parts[0], parts[1], out=parts[2])
    np.abs(parts[2], out=parts[2])
    return parts.reshape(6, *yv.shape)


def _numerator_type(lift: Lift) -> type:
    """int64 where ``_numerators`` cannot overflow it, 720 d n^2 h < 2^63; else Python ints.
    The bound is taken in Python ints: a lift's dimensions may be numpy integers."""
    return np.int64 if 720 * int(lift.d) * int(lift.n) ** 2 * int(lift.h) < 2 ** 63 else object


def _numerators(lift: Lift, parts: np.ndarray, kind: type) -> np.ndarray:
    """4(n <c, A c> - s(c)^T B s(c)) for the twelve candidates c of the six parts, exactly:
    n <c, C c> for the centered operator C, times 4, where s(c) are c's fibre sums and B
    the base adjacency.

    Candidate and part entries are 0 or 2^i (i >= 0) with squared norm <= 10nh (see
    ``_polarize``), so every term of G = P (A P)^T is a nonnegative integer and their
    sum is at most 10dnh < 2^53 (else the lift's (h, d, n) index would hold more than
    2^49 entries): G is exact in floats, in any order, and so are the fibre sums S
    (<= 10nh) and S B (each adds d fibres' sums). With |G| <= 10dnh and
    |S B S^T| <= 10dn^2h entrywise, no entry of n G - S B S^T exceeds 20dn^2h, and
    the combinations through ``_TWICE_KAPPA`` stay within 720dn^2h: ``kind`` is
    int64 below 2^63 (``_numerator_type``) and object, Python ints, above.
    """
    gram = parts.reshape(6, -1) @ _kernel("adjacency")(lift, parts).reshape(6, -1).T
    sums = parts.sum(axis=-1)
    near = sums @ lift.base.adjacency()
    whole = (int(lift.n) * gram.astype(np.int64).astype(kind)
             - sums.astype(np.int64).astype(kind) @ near.astype(np.int64).astype(kind).T)
    kappa = _TWICE_KAPPA.astype(kind)
    return ((kappa @ whole) * kappa).sum(axis=1)


@dataclass(frozen=True)
class CertificateReport:
    """Best nonnegative dyadic candidate found for a given input vector.

    ``value`` is the candidate's |<c, C c>| under the centered operator, exactly
    rounded: an integer numerator over n, divided once.
    """

    vector: LiftVector
    value: float
    target: float
    met: bool
    trials: int
    best_trial: int


def dyadic_certificate(lift: Lift, x: LiftVector, trials: int = 40,
                       rng: SeededRng = SeededRng(0)) -> CertificateReport:
    """Search rounded/polarized candidates maximizing |<c, c>| under the
    centered operator; the target is one twelfth of the input's form.

    Each trial rounds x twice, by one ``_rounding`` of x, and scores the
    twelve ``polarize`` candidates exactly, from one adjacency gather of six
    parts (``_numerators``); only the winner is built. Within a trial the
    first best candidate wins, and ties between trials resolve to the
    earliest trial. Failure to reach the target is reported, not raised.
    """
    check_shape(lift, x)
    _check_count(trials, "trials")
    _check_norm(x)
    target = abs(quad_form(lift, "centered", x, x)) / 12.0
    kind = _numerator_type(lift)
    best = np.zeros((lift.h, lift.n))
    best_num, best_trial = 0, -1
    rounding = _rounding(x.values)
    for t in range(trials):
        y, z = rounding(rng.generator(6101, t, 0)), rounding(rng.generator(6101, t, 1))
        nums = np.abs(_numerators(lift, _parts(y, z), kind))
        i = int(np.argmax(nums))
        if nums[i] > best_num:
            best_num, best_trial, winner = nums[i], t, (y, z, i)
    if best_trial >= 0:
        y, z, i = winner
        best = _polarize(y, z)[i]
    value = int(best_num) / (4 * int(lift.n))  # Python ints divide with one rounding
    met = value >= target * (1.0 - 1e-12)
    return CertificateReport(LiftVector(best), value, target, met, trials, best_trial)


# ---------------------------------------------------------------------------
# band vectors and band selection


@dataclass(frozen=True)
class DyadicBandVector:
    """Vector with entries 2^e/sqrt(nh) confined to one multiplicative band.

    Invariants (checked exactly on the integer exponents by
    ``DyadicScale.check_band``): squared norm at most 10, all exponents
    nonnegative, and the largest nonzero entry at most d times the smallest.
    """

    scale: DyadicScale
    exponents: np.ndarray
    nonzero: np.ndarray

    def __post_init__(self):
        shape = (self.scale.h, self.scale.n)
        exps = _int64s(self.exponents, NotBandVectorError, "exponents must be integers")
        mask = np.array(self.nonzero)
        if mask.dtype != bool:
            raise NotBandVectorError("the nonzero mask must hold booleans")
        if exps.shape != shape or mask.shape != shape:
            raise NotBandVectorError(f"arrays must have shape {shape}")
        exps = exps * mask
        self.scale.check_band(_classes(exps[mask]), NotBandVectorError)
        for name, array in (("exponents", exps), ("nonzero", mask)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def vector(self) -> LiftVector:
        # 2^e * weight(0) is weight(e) exactly: scaling by 2^e rounds alike
        return LiftVector(np.ldexp(self.scale.weight(0), self.exponents) * self.nonzero)

    def histogram(self) -> dict[tuple[int, int], int]:
        """Count of entries per (fibre, exponent), in ascending order."""
        width = int(self.exponents.max(initial=0)) + 1
        codes = np.nonzero(self.nonzero)[0] * width + self.exponents[self.nonzero]
        codes, counts = np.unique(codes, return_counts=True)
        return {divmod(code, width): c for code, c in zip(codes.tolist(), counts.tolist())}

    @classmethod
    def zero(cls, scale: DyadicScale) -> "DyadicBandVector":
        shape = (scale.h, scale.n)
        return cls(scale, np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool))


def _classes(exponents: np.ndarray) -> list[tuple[int, int]]:
    """(exponent, count) for each distinct exponent, ascending."""
    return list(zip(*(column.tolist() for column in np.unique(exponents, return_counts=True))))


def band_select(y: LiftVector, lift: Lift) -> DyadicBandVector:
    """Truncate a nonnegative dyadic vector to its best band and rescale.

    Windows [d^(m/2), d^((m+2)/2)) are scored by the comparable-region form
    per unit of squared norm; the winner keeps at least half the form per
    mass, and the output (rescaled by the largest power of two fitting the
    norm cap, then divided by sqrt(nh)) retains at least 1/(8nh) of the
    input's comparable-region form. With d = 1 no pair is comparable, and
    the zero band vector keeps all of that (zero) form.
    """
    check_shape(lift, y)
    if (y.values < 0).any():
        raise NotBandVectorError("entries must be nonnegative")
    exps, mask = signed_exponents(y)
    if not mask.any():
        raise EmptyVectorError("cannot select a band of an all-zero vector")
    scale = DyadicScale.of(lift)
    classes = _classes(exps[mask])
    if not scale.within_cap(classes):
        raise NotBandVectorError("squared norm exceeds 10nh")
    if scale.gap_limit == 0:
        return DyadicBandVector.zero(scale)
    levels = {e: scale.window_level(e) for e, _ in classes}

    def weigh(m: int) -> tuple[float, np.ndarray, int]:
        """Window m, the exponents with d^m <= 4^e < d^(m+2): form per mass, mask, mass."""
        kept = [(e, c) for e, c in classes if m <= levels[e] <= m + 1]
        wmask, mass = mask & np.isin(exps, [e for e, _ in kept]), scale.mass(kept)
        trunc = LiftVector(y.values * wmask)
        form = abs(quad_form_restricted(lift, "centered", trunc, trunc, "comparable"))
        return form / mass, wmask, mass

    windows = sorted({lv - t for lv in levels.values() for t in (0, 1) if lv >= t})
    _, wmask, mass = max(map(weigh, windows), key=lambda w: w[0])  # the first best wins
    return DyadicBandVector(scale, (exps + scale.headroom(mass)) * wmask, wmask)


# ---------------------------------------------------------------------------
# end-to-end certificate


@dataclass(frozen=True)
class BandCertificateReport:
    """Output of the full witness -> rounding -> band pipeline."""

    vector: DyadicBandVector
    achieved: float
    target: float
    met: bool
    spectral: SpectralReport
    certificate: CertificateReport | None

    @property
    def dyadic_met(self) -> bool:
        """Whether the dyadic certificate met its target; with none, whether the band did."""
        return self.certificate.met if self.certificate is not None else self.met


def band_certificate(lift: Lift, trials: int = 40, rng: SeededRng = SeededRng(0),
                     spectral: SpectralReport | None = None) -> BandCertificateReport:
    """Run the whole chain and report the comparable-region form achieved by
    the resulting band vector against the target lambda*/96 - 5*sqrt(d)."""
    _check_count(trials, "trials")
    rep = spectral or lambda_star(lift).require_converged()
    scale = DyadicScale.of(lift)
    target = rep.lambda_star / 96.0 - 5.0 * math.sqrt(lift.d)
    cert, norm_sq = None, rep.witness.norm_sq
    if not math.isfinite(norm_sq):  # scaling would turn an inf entry into inf * 0 = NaN
        raise NormTooLargeError(f"witness squared norm {norm_sq:.6g} is not finite")
    if norm_sq != 0.0:
        x = rep.witness.scaled(math.sqrt(scale.size / norm_sq) * (1.0 - 1e-12))
        cert = dyadic_certificate(lift, x, trials=trials, rng=rng)
    if cert is None or not cert.vector.values.any():
        zero = DyadicBandVector.zero(scale)
        return BandCertificateReport(zero, 0.0, target, 0.0 >= target, rep, cert)
    band = band_select(cert.vector, lift)
    achieved = abs(quad_form_restricted(lift, "centered", band.vector, band.vector,
                                        "comparable"))
    met = achieved >= target - 1e-9 * max(1.0, abs(target))
    return BandCertificateReport(band, achieved, target, met, rep, cert)
