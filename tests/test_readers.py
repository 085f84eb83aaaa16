"""Fuzz tests for the document readers: random bytes and mutated valid
documents must give a typed LiftlabError, never another exception, and the
CLI command that reads the same file must exit 2.

Mutations keep every number and name short, so a document that still
parses never asks for a large graph or lift.
"""

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liftlab.cli import main
from liftlab.dyadic import DyadicScale
from liftlab.errors import LiftlabError
from liftlab.experiment import config_from_json
from liftlab.graphs import Lift, base_from_text, complete_graph, petersen_graph
from liftlab.matching import matching_spec_from_text
from liftlab.patterns import ClassProfile, Pattern, pattern_from_text, pattern_to_text
from liftlab.sampling import SeededRng, sample_lift

from _support import base_to_text, run_script

K4 = complete_graph(4)


def _pattern_text() -> str:
    profile = ClassProfile(DyadicScale(10, 4, 3), {(0, 0): 2, (1, 0): 1, (2, 1): 1, (3, 0): 3})
    links = {((0, 0), (1, 0)): 1, ((1, 0), (2, 1)): 1, ((0, 0), (3, 0)): 2}
    return pattern_to_text(Pattern(K4, profile, links))


# reader name -> (reader, a valid document, CLI arguments before the file, after it)
READERS = {
    "lift": (Lift.from_json, sample_lift(K4, 3, SeededRng(1)).to_json(),
             ["spectrum", "--lift"], []),
    "config": (config_from_json, json.dumps({"base": "petersen", "n": [10], "seeds": [1, 2]}),
               ["experiment", "--config"], []),
    "base": (base_from_text, base_to_text(petersen_graph()),
             ["gen", "--base-file"], ["--n", "2", "--out", "{workdir}/lift.json"]),
    "pattern": (lambda text: pattern_from_text(text, K4), _pattern_text(), None, None),
    "spec": (matching_spec_from_text, "matching-spec\nn 4\na 2 2\nb 2 2\ne 2 0 0 2\n",
             ["prob", "--spec"], []),
}
NAMES = sorted(READERS)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

SHORT_TEXT = st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | SHORT_TEXT
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SHORT_TEXT, inner, max_size=3),
    max_leaves=6)


def _mutate_text(data, text: str) -> str:
    """Delete, insert or replace a short span of characters."""
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 8)))
    cut = data.draw(st.booleans())
    return text[:i] + data.draw(SHORT_TEXT) + text[j if cut else i:]


def _mutate_json(data, text: str) -> str:
    """Replace or delete one value somewhere in the document."""
    doc = copy.deepcopy(json.loads(text))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return json.dumps(data.draw(JSON_VALUES))
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return json.dumps(doc)


def _read_in_child(name: str, text: str) -> None:
    """Read ``text`` with one reader in a time-limited child process. The
    child exits 0 only on a LiftlabError (see the end of this file)."""
    child = run_script(__file__, name, stdin=text)
    assert child.returncode == 0, child.stderr


def _check(name: str, raw: bytes, workdir) -> None:
    reader, _, before, after = READERS[name]
    text = raw.decode("utf-8", errors="replace")
    try:
        reader(text)
    except LiftlabError:
        pass
    if before is None:
        return
    path = workdir / f"{name}.in"
    path.write_bytes(raw)
    try:
        reader(path.read_text())
    except (LiftlabError, UnicodeDecodeError):
        argv = [*before, str(path), *(arg.format(workdir=workdir) for arg in after)]
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 2


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.mark.parametrize("name", NAMES)
def test_valid_documents_read(name):
    reader, doc, _, _ = READERS[name]
    reader(doc)


@pytest.mark.parametrize("name", NAMES)
@FUZZ
@given(raw=st.binary(max_size=200))
def test_random_bytes_give_typed_errors(name, raw, workdir):
    _check(name, raw, workdir)


@pytest.mark.parametrize("name", NAMES)
@FUZZ
@given(data=st.data())
def test_mutated_documents_give_typed_errors(name, data, workdir):
    text = READERS[name][1]
    for _ in range(data.draw(st.integers(1, 3))):
        text = _mutate_text(data, text)
    _check(name, text.encode("utf-8", errors="surrogatepass"), workdir)


@pytest.mark.parametrize("name", ["lift", "config"])
@FUZZ
@given(data=st.data())
def test_mutated_json_values_give_typed_errors(name, data, workdir):
    text = _mutate_json(data, READERS[name][1])
    _check(name, text.encode(), workdir)


@pytest.mark.parametrize("name, text", [
    pytest.param("config", '{"base": "petersen", "n": Infinity, "seeds": [1]}', id="n-infinite"),
    pytest.param("config", '{"base": "petersen", "n": [10], "seeds": [1], "trials": -Infinity}',
                 id="trials-infinite"),
    pytest.param("config", '{"base_file": "no/such/base.txt", "n": [10], "seeds": [1]}',
                 id="base-file-missing"),
    pytest.param("lift", '{"base": {"h": 100000000000, "edges": [[0, 1]]}, "n": 3, "perms": {}}',
                 id="lift-h-huge"),
    pytest.param("lift", '{"base": {"h": 2, "edges": [[0, 1]]}, "n": 1000000000000,'
                 ' "perms": {"0-1": [0, 1, 2]}}', id="lift-n-huge"),
    pytest.param("base", "100000000000 1\n0 1\n", id="base-h-huge"),
    pytest.param("pattern", "lift-pattern\nn 10\nh 4\nd 3\nclass 0 99999999999 1",
                 id="pattern-exponent-huge"),
    pytest.param("pattern", "lift-pattern\nn 10\nh 4\nd 3\nclass 0 0 2\nclass 0 0 5",
                 id="pattern-class-repeated"),
    pytest.param("pattern", "lift-pattern\nn 10\nh 4\nd 3\nclass 0 0 2\nclass 1 0 2\n"
                 "link 0 0 1 0 1\nlink 0 0 1 0 1", id="pattern-link-repeated"),
])
def test_malformed_documents_fail_fast_with_typed_errors(name, text, workdir):
    # each of these once escaped as OverflowError or OSError, tried to
    # allocate an array sized by the huge number, computed 4 ** exponent on
    # Python ints and never returned, or was read with its last repeated
    # line silently in force
    _read_in_child(name, text)
    with pytest.raises(LiftlabError):
        READERS[name][0](text)
    _check(name, text.encode(), workdir)


if __name__ == "__main__":  # the child process of _read_in_child
    try:
        READERS[sys.argv[1]][0](sys.stdin.read())
    except LiftlabError:
        sys.exit(0)
    sys.exit("the reader accepted a malformed document")
