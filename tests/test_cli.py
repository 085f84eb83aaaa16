"""End-to-end command-line checks, run in-process through main()."""

import dataclasses
import json
import math
import re

import pytest

import liftlab.dyadic
import liftlab.experiment
import liftlab.spectra
from liftlab.cli import build_parser, main
from liftlab.errors import FibresNotAdjacentError, FibresNotDistinctError, LiftlabError
from liftlab.graphs import Lift, base_from_name, identity_lift
from liftlab.matching import MatchingSpec, exact_log_probability
from liftlab.patterns import pattern_from_text
from liftlab.sampling import SeededRng, plant_clique, sample_lift
from liftlab.spectra import new_spectrum
from liftlab.witnesses import clique_witness

from _support import lift_key, matching_spec_to_text, neighbours


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(output, key):
    for line in output.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    raise AssertionError(f"no line starting with {key!r} in:\n{output}")


@pytest.fixture(scope="module")
def lift_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lift.json"
    code = main(["gen", "--base", "k4", "--n", "100", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    return str(path)


def test_gen_writes_a_loadable_reproducible_lift(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code, out, _ = run(capsys, ["gen", "--base", "c5", "--n", "12",
                                "--seed", "7", "--out", str(first)])
    assert code == 0
    assert "h=5 d=2 n=12" in out
    assert main(["gen", "--base", "c5", "--n", "12", "--seed", "7",
                 "--out", str(second)]) == 0
    a = Lift.from_json(first.read_text())
    b = Lift.from_json(second.read_text())
    assert lift_key(a) == lift_key(b)


def test_gen_can_plant_a_clique(tmp_path, capsys):
    path = tmp_path / "planted.json"
    code, _, _ = run(capsys, ["gen", "--base", "k4", "--n", "30", "--seed", "2",
                              "--plant", "0,1,2,3", "--out", str(path)])
    assert code == 0
    lift = Lift.from_json(path.read_text())
    anchors = {(i, 0) for i in range(4)}
    for i, j in anchors:
        nbrs = set(neighbours(lift, i, j))
        assert anchors - {(i, j)} <= nbrs


def test_spectrum_methods_agree(lift_file, capsys):
    code, dense_out, _ = run(capsys, ["spectrum", "--lift", lift_file,
                                      "--method", "dense"])
    assert code == 0
    code, iter_out, _ = run(capsys, ["spectrum", "--lift", lift_file,
                                     "--method", "iterative"])
    assert code == 0
    dense_star = float(grab(dense_out, "lambda_star"))
    iter_star = float(grab(iter_out, "lambda_star"))
    assert dense_star == pytest.approx(iter_star, abs=1e-6)
    listing = [float(v) for ln, v in
               (ln.split() for ln in dense_out.splitlines() if ln.startswith("eigenvalue"))]
    assert listing, "dense run should list leading balanced eigenvalues"
    assert abs(listing[0]) <= dense_star + 1e-9
    assert float(grab(dense_out, "lambda_top")) == pytest.approx(3.0, abs=1e-6)


def test_a_single_fibre_spectrum_prints_the_method_it_was_asked(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(identity_lift(base_from_name("k4"), 1).to_json())
    code, out, _ = run(capsys, ["spectrum", "--lift", str(path), "--method", "dense"])
    assert code == 0
    assert grab(out, "method") == "dense"
    assert grab(out, "lambda_star") == "0.0"


def test_dense_spectrum_solves_once(lift_file, monkeypatch, capsys):
    real, shapes = liftlab.spectra.symmetric_eigenvalues, []
    monkeypatch.setattr(liftlab.spectra, "symmetric_eigenvalues",
                        lambda mat: shapes.append(mat.shape) or real(mat))
    code, out, _ = run(capsys, ["spectrum", "--lift", lift_file, "--method", "dense"])
    assert code == 0 and len(shapes) == 1
    values = new_spectrum(Lift.from_json(open(lift_file).read()))[:10]
    assert [ln for ln in out.splitlines() if ln.startswith("eigenvalue ")] == [
        f"eigenvalue {float(v)!r}" for v in values]


def test_certify_reports_targets(lift_file, capsys):
    code, out, _ = run(capsys, ["certify", "--lift", lift_file, "--trials", "8"])
    assert code == 0
    assert float(grab(out, "achieved")) >= 0.0
    assert grab(out, "band-met") in ("0", "1")
    assert grab(out, "dyadic-met") in ("0", "1")


def test_reduce_emits_parseable_transcripts(lift_file, capsys):
    code, out, _ = run(capsys, ["reduce", "--lift", lift_file, "--trials", "6",
                                "--show-pattern"])
    assert code == 0
    assert out.startswith("lift-pattern\n")
    head, transcript = out.split("reduction\n", 1)
    pattern = pattern_from_text(head, base_from_name("k4"))
    assert pattern.scale.n == 100
    assert "branch" in transcript
    assert "kept" in transcript


def test_reduce_branch_flag(lift_file, capsys):
    code, out, _ = run(capsys, ["reduce", "--lift", lift_file, "--trials", "6",
                                "--branch", "general"])
    assert code == 0
    assert grab(out, "branch") == "general"


def test_prob_reports_exact_and_sampled_values(tmp_path, capsys):
    spec = MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))
    path = tmp_path / "spec.txt"
    path.write_text(matching_spec_to_text(spec))
    code, out, _ = run(capsys, ["prob", "--spec", str(path),
                                "--monte-carlo", "3000", "--seed", "4"])
    assert code == 0
    assert float(grab(out, "log-probability")) == \
        pytest.approx(exact_log_probability(spec), rel=1e-12)
    assert grab(out, "probability") == "1/6"
    lo, hi = (float(t) for t in grab(out, "stirling-window").split())
    ratio = float(grab(out, "log-probability")) - \
        (float(grab(out, "log-prefactor")) - float(grab(out, "exponent")))
    assert lo <= ratio <= hi
    estimate = float(grab(out, "monte-carlo").split()[0])
    assert abs(estimate - 1.0 / 6.0) < 0.05


def test_experiment_runs_a_sweep(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    config = {"base": "k4", "n": [20, 30], "seeds": [1, 2],
              "out": str(out_csv), "trials": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["experiment", "--config", str(cfg_path)])
    assert code == 0
    assert "rows 4" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("seed,h,d,n,lambda_top")
    assert len(lines) == 5


def test_experiment_out_flag_overrides_config(tmp_path, capsys):
    override = tmp_path / "other.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"base": "k4", "n": [10], "seeds": [1],
                                    "trials": 4, "stages": ["spectrum"]}))
    code, out, _ = run(capsys, ["experiment", "--config", str(cfg_path),
                                "--out", str(override)])
    assert code == 0
    assert override.exists()


def test_explain_star_branch(lift_file, capsys):
    code, out, _ = run(capsys, ["explain", "--lift", lift_file])
    assert code == 0
    assert grab(out, "branch") == "star"
    assert grab(out, "bound-ok") == "1"


def test_explain_forced_witness_lists_support(tmp_path, capsys):
    path = tmp_path / "planted.json"
    assert main(["gen", "--base", "k6", "--n", "60", "--seed", "0",
                 "--plant", "0,1,2,3,4,5", "--out", str(path)]) == 0
    code, out, _ = run(capsys, ["explain", "--lift", str(path),
                                "--force-witness"])
    assert code == 0
    support = set(grab(out, "subgraph").split())
    assert {f"{i}:0" for i in range(6)} <= support


def test_explain_forced_witness_on_a_large_bipartite_subgraph(tmp_path, capsys):
    # the k4 n=2000 seed-1 witness subgraph has 1,235 vertices and a bipartite
    # spectrum (+-theta extremes); its top eigenvalue comes from LAPACK, not QL
    path = tmp_path / "k4.json"
    assert main(["gen", "--base", "k4", "--n", "2000", "--seed", "1", "--out", str(path)]) == 0
    code, out, err = run(capsys, ["explain", "--lift", str(path), "--force-witness"])
    assert (code, err) == (0, "")
    assert len(grab(out, "subgraph").split()) == 1235
    assert float(grab(out, "subgraph-value")) > 0.0


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["spectrum"]) == 2  # missing required flag
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["spectrum", "--lift", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["experiment", "--config", str(bad)]) == 2
    capsys.readouterr()
    text = tmp_path / "bad-spec.txt"
    text.write_text("matching-spec\nn 2\na 1 1\nb 3\ne 1 1\n")
    assert main(["prob", "--spec", str(text)]) == 2
    capsys.readouterr()
    text.write_text("matching-spec\nn 4\na 2 2\nb 2 2\ne 2 0 0 2\n")
    code, out, err = run(capsys, ["prob", "--spec", str(text), "--monte-carlo", "10",
                                  "--seed", "-1"])
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    # a lift with one vertex per fibre has a zero spectral witness
    one = tmp_path / "one.json"
    assert main(["gen", "--base", "k4", "--n", "1", "--seed", "1", "--out", str(one)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, ["certify", "--lift", str(one), "--trials", "0"])
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--tol", "-1"], id="spectrum-tol-negative"),
    pytest.param(["spectrum", "--tol", "nan"], id="spectrum-tol-nan"),
    pytest.param(["spectrum", "--tol", "inf"], id="spectrum-tol-inf"),
    pytest.param(["certify", "--seed", "-2"], id="certify-seed-negative"),
    pytest.param(["certify", "--trials", "0"], id="certify-trials-zero"),
    pytest.param(["reduce", "--seed", "-1"], id="reduce-seed-negative"),
    pytest.param(["reduce", "--trials", "0"], id="reduce-trials-zero"),
    pytest.param(["explain", "--seed", "-1"], id="explain-seed-negative"),
    pytest.param(["reduce", "--trials", "4", "--level", "nan"], id="reduce-level-nan"),
    pytest.param(["reduce", "--trials", "4", "--level", "inf"], id="reduce-level-inf"),
    pytest.param(["explain", "--level", "nan"], id="explain-level-nan"),
    pytest.param(["explain", "--level", "inf"], id="explain-level-inf"),
    pytest.param(["explain", "--level", "10"], id="explain-level-low"),
])
def test_bad_seed_tol_or_trials_exits_two(lift_file, capsys, argv):
    code, out, err = run(capsys, [argv[0], "--lift", lift_file, *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--method", "dense", "--list", "-3"], id="spectrum-dense-list"),
    pytest.param(["spectrum", "--list", "-3"], id="spectrum-list"),
    pytest.param(["prob", "--monte-carlo", "-5"], id="prob-monte-carlo"),
])
def test_a_negative_count_exits_two_at_parse_time(lift_file, tmp_path, capsys, argv):
    # these once printed 10 or no eigenvalues, or skipped the estimate, and exited 0
    spec = tmp_path / "spec.txt"
    spec.write_text(matching_spec_to_text(MatchingSpec(4, (2, 2), (2, 2), ((2, 0), (0, 2)))))
    given = ["--lift", lift_file] if argv[0] == "spectrum" else ["--spec", str(spec)]
    code, out, err = run(capsys, [argv[0], *given, *argv[1:]])
    assert code == 2 and out == ""
    assert f"must be at least 0, not {argv[-1]}" in err


def _rename_perm_key(doc):
    doc["perms"]["0_1"] = doc["perms"].pop("0-1")


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda doc: doc.pop("perms"), id="missing-perms"),
    pytest.param(lambda doc: doc["base"].pop("edges"), id="missing-base-edges"),
    pytest.param(lambda doc: doc.update(n="100"), id="n-is-a-string"),
    pytest.param(lambda doc: doc["base"].update(h=4.0), id="h-is-a-float"),
    pytest.param(lambda doc: doc["base"]["edges"][0].__setitem__(1, 1.0), id="edge-vertex-a-float"),
    pytest.param(lambda doc: doc.update(perms=[]), id="perms-is-a-list"),
    pytest.param(lambda doc: doc["perms"].update({"0-1": [0.5] * 100}), id="perm-of-floats"),
    pytest.param(lambda doc: doc["perms"].update({"0-1": [0] * 100}), id="perm-not-a-bijection"),
    pytest.param(lambda doc: doc["perms"].update({"0-1": [x == 1 or x for x in doc["perms"]["0-1"]]}),
                 id="perm-with-a-boolean"),
    pytest.param(_rename_perm_key, id="malformed-edge-key"),
])
def test_malformed_lift_json_exits_two(lift_file, tmp_path, capsys, mutate):
    doc = json.loads(open(lift_file).read())
    mutate(doc)
    bad = tmp_path / "bad-lift.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["spectrum", "--lift", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed lift JSON")


def test_numeric_guards_exit_three(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert main(["gen", "--base", "k4", "--n", "600", "--seed", "1",
                 "--out", str(big)]) == 0
    capsys.readouterr()
    # nh = 2400 exceeds the dense guard
    assert main(["spectrum", "--lift", str(big), "--method", "dense"]) == 3
    capsys.readouterr()


def assert_fibre_size_exits_three(tmp_path, capsys, n) -> str:
    """gen's error line for a fibre size n that no array can hold."""
    code, out, gen_err = run(capsys, ["gen", "--base", "k4", "--n", str(n),
                                      "--out", str(tmp_path / "huge.json")])
    assert code == 3
    assert out == ""
    assert gen_err.startswith("error: ") and gen_err.count("\n") == 1
    assert not (tmp_path / "huge.json").exists()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"base": "k4", "n": [n], "seeds": [1]}))
    code, out, err = run(capsys, ["experiment", "--config", str(config)])
    assert code == 3
    assert out.startswith("rows 1 ")
    assert err.startswith(f"failed n={n} seed=1: ")
    return gen_err


def test_a_fibre_size_beyond_memory_exits_three(tmp_path, capsys):
    # 10**18 int64 entries exceed any address space, so nothing is allocated
    assert_fibre_size_exits_three(tmp_path, capsys, 10 ** 18)


@pytest.mark.parametrize("n", [
    pytest.param(2 ** 62, id="array-too-big"),
    pytest.param(2 ** 63 - 1, id="byte-count-wraps"),
])
def test_a_fibre_size_no_array_holds_exits_three(tmp_path, capsys, n):
    # numpy refuses the first and returns an empty permutation for the second
    assert f"permutation of n = {n}" in assert_fibre_size_exits_three(tmp_path, capsys, n)


def test_spectrum_list_over_the_dense_guard_prints_nothing(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert main(["gen", "--base", "k4", "--n", "600", "--seed", "1",
                 "--out", str(big)]) == 0
    capsys.readouterr()
    # the iterative solve succeeds, but the listed values need a dense
    # operator over the guard: the command fails before any output
    code, out, err = run(capsys, ["spectrum", "--lift", str(big), "--list", "3"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["certify", "--trials", "4"], id="certify"),
    pytest.param(["reduce", "--trials", "4"], id="reduce"),
    pytest.param(["explain"], id="explain"),
])
def test_unconverged_spectrum_exits_three(lift_file, monkeypatch, capsys, argv):
    real = liftlab.dyadic.lambda_star

    def stalled(lift, **kwargs):
        return dataclasses.replace(real(lift, **kwargs), converged=False)

    monkeypatch.setattr(liftlab.dyadic, "lambda_star", stalled)
    monkeypatch.setattr(liftlab.experiment, "lambda_star", stalled)
    code, out, err = run(capsys, [argv[0], "--lift", lift_file, *argv[1:]])
    assert code == 3
    assert out == ""
    assert "did not converge" in err


@pytest.mark.parametrize("config", [
    pytest.param({"base": "kx"}, id="unknown-size"),
    pytest.param({"base": "zz"}, id="unknown-family"),
    pytest.param({"base": "k1"}, id="degree-zero"),
    pytest.param({"base": 4}, id="base-not-a-string"),
    pytest.param({"base": "k4", "n": ["a"]}, id="n-not-a-number"),
    pytest.param({"base": "k4", "n": [10.7]}, id="n-not-an-integer"),
    pytest.param({"base": "k4", "n": [2 ** 63]}, id="n-beyond-int64"),
    pytest.param({"base": "k4", "n": [10 ** 30]}, id="n-far-beyond-int64"),
    pytest.param({"base": "k4", "seeds": 1}, id="seeds-not-a-list"),
    pytest.param({"base": "k4", "seeds": [2, -1]}, id="seed-negative"),
    pytest.param({"base": "k4", "tolerance": "tight"}, id="tolerance-not-a-number"),
    pytest.param({"base": "k4", "tolerance": math.inf}, id="tolerance-infinite"),
    pytest.param({"base": "k4", "tolerance": True}, id="tolerance-bool"),
    pytest.param({"base": "k4", "tolerance": "1e-8"}, id="tolerance-quoted"),
    pytest.param({"base": "k4", "tolerance": 10 ** 400}, id="tolerance-int-beyond-float"),
    pytest.param({"base": "k4", "trials": None}, id="trials-null"),
])
def test_malformed_config_exits_two(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": [10], "seeds": [1], **config}))
    code, out, err = run(capsys, ["experiment", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("fibres, error", [
    pytest.param([0, 0], FibresNotDistinctError, id="repeated"),
    pytest.param([1, 9, 1], FibresNotDistinctError, id="repeated-before-out-of-range"),
    pytest.param([0, 9], LiftlabError, id="out-of-range"),
    pytest.param([4, 1, 9], LiftlabError, id="out-of-range-before-not-adjacent"),
    pytest.param([0, 2], FibresNotAdjacentError, id="not-adjacent"),
    pytest.param([5, 0, 3], FibresNotAdjacentError, id="one-pair-not-adjacent"),
])
def test_every_clique_entry_point_rejects_the_same_fibres(tmp_path, capsys, fibres, error):
    lift = sample_lift(base_from_name("c6"), 5, SeededRng(1))
    with pytest.raises(error) as planted:
        plant_clique(lift, fibres)
    assert type(planted.value) is error  # an out-of-range fibre is no subclass's fault
    with pytest.raises(error, match=f"^{re.escape(str(planted.value))}$"):
        clique_witness(lift, [(f, 0) for f in fibres])
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, ["gen", "--base", "c6", "--n", "5", "--out", str(out_path),
                                  "--plant", ",".join(map(str, fibres))])
    assert (code, out, err) == (2, "", f"error: --plant: {planted.value}\n")
    assert not out_path.exists()


def test_a_plant_token_too_long_for_int_exits_two(tmp_path, capsys):
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, ["gen", "--base", "k4", "--n", "5", "--plant", "1" * 5000,
                                  "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: --plant: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_explain_level_defaults_to_the_library_level():
    args = build_parser().parse_args(["explain", "--lift", "x.json"])
    assert args.level == liftlab.experiment.EXPLAIN_LEVEL


def test_malformed_base_file_exits_two(tmp_path, capsys):
    base = tmp_path / "base.txt"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"base_file": str(base), "n": [10], "seeds": [1]}))
    for text in ("", "3 x\n", "3 2\n0 1\n1 2\n", "3 1\n0 0\n"):
        base.write_text(text)
        assert run(capsys, ["experiment", "--config", str(path)])[0] == 2
        assert run(capsys, ["gen", "--base-file", str(base), "--n", "4",
                            "--out", str(tmp_path / "x.json")])[0] == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["--base", "k4", "--n", "0"], id="n-zero"),
    pytest.param(["--base", "k4", "--n", "-3"], id="n-negative"),
    pytest.param(["--base", "k4", "--n", str(2 ** 63)], id="n-beyond-int64"),
    pytest.param(["--base", "k4", "--n", str(10 ** 30)], id="n-far-beyond-int64"),
    pytest.param(["--base", "k1", "--n", "5"], id="degree-zero"),
    pytest.param(["--base", "zz", "--n", "5"], id="unknown-family"),
    pytest.param(["--base", "k4", "--n", "5", "--plant", "a,b"], id="plant-not-integer"),
    pytest.param(["--base", "k4", "--n", "5", "--plant", "0,9"], id="plant-out-of-range"),
    pytest.param(["--base", "k4", "--n", "5", "--plant", "2,-1"], id="plant-negative"),
    pytest.param(["--base", "c6", "--n", "5", "--plant", "0,0"], id="plant-repeated"),
    pytest.param(["--base", "c6", "--n", "5", "--plant", "0,2"], id="plant-not-adjacent"),
    pytest.param(["--base", "k4", "--n", "5", "--seed", "-1"], id="seed-negative"),
])
def test_gen_usage_errors_exit_two(tmp_path, capsys, argv):
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, ["gen", *argv, "--out", str(out_path)])
    assert code == 2
    assert err.startswith("error: ")
    assert not out_path.exists()
