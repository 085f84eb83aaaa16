"""The band rules on ``DyadicScale`` against their literal integer
definitions, the two validators that share them, and the inputs that once
made them loop or allocate without bound.

Those inputs run in a fresh interpreter under a time limit and an address
space cap, so a regression fails the test instead of hanging the suite or
exhausting memory (see the end of this file).
"""

import contextlib
import io
import math
import os
import resource
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.cli import main
from liftlab.dyadic import DyadicBandVector, DyadicScale
from liftlab.errors import InvalidPatternError, LiftlabError, NotBandVectorError, WitnessMismatchError
from liftlab.experiment import run_cell
from liftlab.graphs import (BaseGraph, Lift, base_from_name, complete_graph, identity_lift,
                            induced_adjacency)
from liftlab.patterns import ClassProfile, Pattern, extract_pattern
from liftlab.witnesses import clique_witness, pattern_witness_bound

from _support import run_script

SCALES = [(1, 1), (3, 2), (50, 7), (10 ** 6, 10 ** 3), (2 ** 50, 2 ** 12)]
# beside 1..300, degrees next to powers of two: log2(2^50 + 1) rounds to 50,
# so a float estimate puts 4^25 at level 1 where the exact level is 0
DEGREES = [*range(1, 301), *(2 ** k + j for k in range(9, 63) for j in (-1, 1))]


@pytest.mark.parametrize("n, h", SCALES)
def test_each_rule_matches_its_literal_definition(n, h):
    cap = 10 * n * h
    rng = np.random.default_rng(n + h)
    for d in DEGREES:
        scale = DyadicScale(n, h, d)
        for s in range(12):
            assert (s > scale.max_spread) == (2 ** s > d)
        for g in range(8):
            assert (g < scale.gap_limit) == (4 ** g < d)
        top = scale.headroom(1)
        assert 4 ** top <= cap < 4 ** (top + 1)
        for e in range(top + 1):
            assert scale.weight(e) == 2 ** e / math.sqrt(n * h)
            if d == 1:  # every m has 1^m <= 4^e, so there is no largest
                with pytest.raises(LiftlabError):
                    scale.window_level(e)
                continue
            m = scale.window_level(e)
            assert d ** m <= 4 ** e < d ** (m + 1)
        with pytest.raises(LiftlabError):
            scale.window_level(top + 1)
    scale = DyadicScale(n, h, 2)
    for _ in range(200):
        classes = [(int(e), int(c)) for e, c in zip(rng.integers(0, scale.headroom(1) + 3, 3),
                                                     rng.integers(1, 64, 3))]
        assert scale.within_cap(classes) == (not sum(c * 4 ** e for e, c in classes) > cap)
        mass = sum(c * 4 ** e for e, c in classes)
        k = scale.headroom(mass)
        if mass > cap:
            assert k == -1
        else:
            assert 4 ** k * mass <= cap < 4 ** (k + 1) * mass


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), h=st.integers(1, 4), d=st.integers(1, 20), data=st.data())
def test_band_vector_and_class_profile_accept_alike(n, h, d, data):
    scale = DyadicScale(n, h, d)
    exps = np.array(data.draw(st.lists(st.integers(-1, 8) | st.just(40),
                                       min_size=n * h, max_size=n * h)), np.int64).reshape(h, n)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n * h, max_size=n * h))).reshape(h, n)
    histogram = {}
    for i, j in zip(*np.nonzero(mask)):
        key = (int(i), int(exps[i, j]))
        histogram[key] = histogram.get(key, 0) + 1
    faults = []
    for build, error in ((lambda: DyadicBandVector(scale, exps, mask), NotBandVectorError),
                         (lambda: ClassProfile(scale, histogram), InvalidPatternError)):
        try:
            build()
            faults.append(None)
        except error as exc:
            faults.append(str(exc))
    # the same check decides both, so each rejection carries the same reason
    assert faults[0] == faults[1]
    live = exps[mask].tolist()
    broken = bool(live) and (min(live) < 0 or 2 ** (max(live) - min(live)) > d
                             or sum(4 ** e for e in live) > 10 * n * h)
    assert (faults[0] is not None) == broken


# ints on both sides of the int64 and uint64 limits, and far beyond them
BEYOND = st.sampled_from([2 ** 63, 2 ** 64, 2 ** 70]).flatmap(
    lambda limit: st.integers(limit - 2, limit + 2)).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 3) | BEYOND, b=st.integers(0, 3) | BEYOND, c=st.integers(0, 3) | BEYOND)
def test_integers_beyond_int64_raise_typed_errors(a, b, c):
    lift = identity_lift(complete_graph(3), 4)
    scale = DyadicScale.of(lift)
    pattern, _ = extract_pattern(DyadicBandVector.zero(scale), lift)
    calls = [
        lambda: pattern_witness_bound(lift, pattern, {(a, b): (c,)}),
        lambda: DyadicBandVector(scale, np.full((3, 4), a, dtype=object), np.ones((3, 4), bool)),
        lambda: DyadicBandVector(scale, [[a, b, c, 0]] * 3, np.eye(3, 4, dtype=bool)),
        lambda: ClassProfile(scale, {(a, b): c}),
        lambda: Pattern(lift.base, ClassProfile(scale, {(0, 0): 1, (1, 0): 1}),
                        {((a, b), (1, 0)): c}),
        lambda: induced_adjacency(lift, [(a, b)]),
        lambda: clique_witness(lift, [(a, b)]),
    ]
    for call in calls:
        with contextlib.suppress(LiftlabError):  # anything else escapes and fails
            call()


K3, K3_SCALE = complete_graph(3), DyadicScale(4, 3, 2)


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: DyadicBandVector(K3_SCALE, np.full((3, 4), 1.7), np.ones((3, 4), bool)),
                 NotBandVectorError, id="band-exponents"),
    pytest.param(lambda: DyadicBandVector(K3_SCALE, np.zeros((3, 4), np.int64), np.full((3, 4), 2)),
                 NotBandVectorError, id="band-mask"),
    pytest.param(lambda: Lift(K3, 2, {e: [0.2, 1.9] for e in K3.edges}), LiftlabError,
                 id="lift-permutation"),
    pytest.param(lambda: BaseGraph(3, ((0, 1.5), (1, 2), (0, 2))), LiftlabError, id="base-edge"),
    pytest.param(lambda: ClassProfile(K3_SCALE, {(0, 1.5): 2.7, (1.9, 0): 1}), InvalidPatternError,
                 id="class-key"),
    pytest.param(lambda: ClassProfile(K3_SCALE, {(0, 0): 2.0}), InvalidPatternError,
                 id="class-count"),
    pytest.param(lambda: ClassProfile(K3_SCALE, {(0,): 1}), InvalidPatternError, id="class-key-short"),
    pytest.param(lambda: Pattern(K3, ClassProfile(K3_SCALE, {(0, 0): 1, (1, 0): 1}),
                                 {((0, 0), (1, 0)): 0.5}), InvalidPatternError, id="link-count"),
])
def test_non_integers_raise_typed_errors(build, error):
    with pytest.raises(error):
        build()


K3_PAIR = ClassProfile(K3_SCALE, {(0, 0): 1, (1, 0): 1, (2, 0): 1})


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: BaseGraph(2, ((False, True),)), LiftlabError,
                 "edges must be pairs of integer vertices", id="base-edge"),
    pytest.param(lambda: BaseGraph(3, ((0, 1), (True, 2), (0, 2))), LiftlabError,
                 "edges must be pairs of integer vertices", id="base-edge-mixed"),
    pytest.param(lambda: Pattern(K3, K3_PAIR, {((0, 0), (True, 0)): 1}), InvalidPatternError,
                 "a link is not a pair", id="link-key"),
    pytest.param(lambda: Pattern(K3, K3_PAIR, {((0, 0), (1, 0)): True, ((0, 0), (2, 0)): 1}),
                 InvalidPatternError, "a link is not a pair", id="link-count"),
    pytest.param(lambda: ClassProfile(K3_SCALE, {(True, 0): 1, (0, 0): 1}), InvalidPatternError,
                 "a class is not a", id="class-key"),
    pytest.param(lambda: ClassProfile(K3_SCALE, {(0, 0): True, (1, 0): 1}), InvalidPatternError,
                 "a class is not a", id="class-count"),
    pytest.param(lambda: Lift(K3, 2, {e: [True, 0] for e in K3.edges}), LiftlabError,
                 "must list integers", id="lift-permutation"),
    pytest.param(lambda: Lift(K3, 2, {e: [np.True_, 0] for e in K3.edges}), LiftlabError,
                 "must list integers", id="lift-permutation-numpy-bool"),
    pytest.param(lambda: DyadicBandVector(K3_SCALE, [[True, 0, 0, 0]] * 3, np.ones((3, 4), bool)),
                 NotBandVectorError, "exponents must be integers", id="band-exponents"),
])
def test_bools_raise_typed_errors(build, error, message):
    # a bool mixed with ints converts to an int array; it must not pass as 0 or 1
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("n, h, d", [(2.5, 2, 1), (10, 2, 1.5), (10, 2.0, 1), ("3", 2, 1), (True, 1, 1),
                                     (4, False, 2), (None, 2, 1), (0, 2, 1), (4, 2, -1)])
def test_scale_reads_n_h_and_d_as_integers_of_at_least_one(n, h, d):
    # 2.5 or 1.5 once passed and ClassProfile died on a float's missing bit_length
    with pytest.raises(LiftlabError, match="n, h and d must be integers of at least 1"):
        DyadicScale(n, h, d)


def _run_in_child(case: str) -> str:
    """Run one case in a time-limited child process, which caps its own
    address space; return what it printed."""
    child = run_script(__file__, case)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _k2_command(command: str, *flags: str) -> None:
    # a lift of K2 has degree 1: no two entries are comparable
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "k2.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gen", "--base", "k2", "--n", "50", "--seed", "1", "--out", path]) == 0
            assert main([command, "--lift", path, *flags]) == 0
        print(out.getvalue())


def _k2_cell() -> None:
    print(",".join(run_cell(base_from_name("k2"), 50, 1).csv_values()))


def _huge_band_vector(spread: bool) -> None:
    scale = DyadicScale(10, 2, 3)
    exps = np.zeros((2, 10), np.int64)
    mask = np.zeros((2, 10), bool)
    exps[0, 0], mask[0, 0] = 2 ** 40, True
    mask[1, 0] = spread
    start = time.perf_counter()
    with pytest.raises(NotBandVectorError):
        DyadicBandVector(scale, exps, mask)
    assert time.perf_counter() - start < 0.1


def _huge_witness(spread: bool) -> None:
    lift = identity_lift(complete_graph(3), 8)
    scale = DyadicScale.of(lift)
    pattern, _ = extract_pattern(DyadicBandVector(scale, np.zeros((3, 8), np.int64),
                                                  np.ones((3, 8), bool)), lift)
    witnesses = {(0, 2 ** 40): (0,)}
    if spread:
        witnesses[(1, 0)] = (0,)
    with pytest.raises(WitnessMismatchError, match="no valid vector"):
        pattern_witness_bound(lift, pattern, witnesses)


CASES = {
    "certify-k2": lambda: _k2_command("certify"),
    "reduce-k2": lambda: _k2_command("reduce"),
    "explain-k2": lambda: _k2_command("explain", "--force-witness"),
    "cell-k2": _k2_cell,
    "band-vector-exponent": lambda: _huge_band_vector(spread=False),
    "band-vector-spread": lambda: _huge_band_vector(spread=True),
    "witness-exponent": lambda: _huge_witness(spread=False),
    "witness-spread": lambda: _huge_witness(spread=True),
}


def test_degree_one_lifts_certify_and_reduce():
    # band selection once looked for the largest m with 1^m <= 4^e
    assert "band-met 1" in _run_in_child("certify-k2")
    assert "kept 0" in _run_in_child("reduce-k2")
    assert "bound-ok 1" in _run_in_child("explain-k2")
    # every stage ran: the certificate was met and the reduction kept nothing
    assert _run_in_child("cell-k2").split(",")[8:12] == ["1", "0", "large", "0"]


@pytest.mark.parametrize("case", [c for c in CASES if "k2" not in c])
def test_huge_exponents_fail_fast(case):
    # 2^spread and 4^e were once formed as Python ints before any bound
    _run_in_child(case)


if __name__ == "__main__":  # the child process of _run_in_child
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    CASES[sys.argv[1]]()
