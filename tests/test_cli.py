"""End-to-end command-line checks, run in-process through main()."""

import json

import pytest

from liftlab.cli import main
from liftlab.graphs import Lift, base_from_name
from liftlab.matching import MatchingSpec, exact_log_probability, matching_spec_to_text
from liftlab.patterns import pattern_from_text


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
    assert a.canonical_key() == b.canonical_key()


def test_gen_can_plant_a_clique(tmp_path, capsys):
    path = tmp_path / "planted.json"
    code, _, _ = run(capsys, ["gen", "--base", "k4", "--n", "30", "--seed", "2",
                              "--plant", "0,1,2,3", "--out", str(path)])
    assert code == 0
    lift = Lift.from_json(path.read_text())
    anchors = {(i, 0) for i in range(4)}
    for i, j in anchors:
        nbrs = set(lift.neighbours(i, j))
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


def _rename_perm_key(doc):
    doc["perms"]["0_1"] = doc["perms"].pop("0-1")


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda doc: doc.pop("perms"), id="missing-perms"),
    pytest.param(lambda doc: doc["base"].pop("edges"), id="missing-base-edges"),
    pytest.param(lambda doc: doc.update(n="100"), id="n-is-a-string"),
    pytest.param(lambda doc: doc.update(perms=[]), id="perms-is-a-list"),
    pytest.param(lambda doc: doc["perms"].update({"0-1": [0.5] * 100}), id="perm-of-floats"),
    pytest.param(lambda doc: doc["perms"].update({"0-1": [0] * 100}), id="perm-not-a-bijection"),
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
