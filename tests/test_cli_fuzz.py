"""Fuzz tests of the command line: no argument string and no mangled input
file may end in a Python traceback, and every exit is 0, 1 (validation),
2 (certification) or 3 (I/O).

``cli.main`` runs in-process, so an exception that escapes it fails the test
with its traceback.  The examples are derandomized, so a run is repeatable;
the value pools keep every command small (synthesized boxes below 1 rF;
family depth 16, the largest accepted, certifies the whole displacement
budget at once), since the point is malformed input, not load.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delone import cli

EXITS = {0, 1, 2, 3}

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A small pipeline's files: bundle, net, complex and certificate, plus a
    directory, a missing path and a file that is not UTF-8."""
    d = tmp_path_factory.mktemp("fuzz")
    f = {k: str(d / f"{k}.json") for k in ("bundle", "net", "cx", "cert")}
    for argv in (["constants", "--out", f["bundle"]],
                 ["synthesize", "--bundle", f["bundle"], "--box", "0,0,0.1,0.1",
                  "--seed", "3", "--out", f["net"]],
                 ["triangulate", "--net", f["net"], "--out", f["cx"]],
                 ["certify", "--net", f["net"], "--complex", f["cx"], "--bundle",
                  f["bundle"], "--family-depth", "1", "--out", f["cert"]]):
        assert cli.main(argv) == 0
    (d / "latin1.json").write_bytes(b'{"v": 1, "n": "\xe9\xff"}\n')
    f.update(dir=str(d), missing=str(d / "absent.json"), latin1=str(d / "latin1.json"))
    return f


def _run(argv, capsys) -> None:
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in EXITS, (argv, code)
    assert "Traceback" not in err, (argv, err)


# -- argument strings ---------------------------------------------------------

INPUTS = ("bundle", "net", "cx", "cert", "dir", "missing", "latin1")

VALUES = {
    "--dim": ["1", "2", "3", "9", "0", "-1", "x", ""],
    "--mode": ["paper", "practical", "x"],
    "--eps": ["1e-8,1e-5,1e-5,2e-9", "1e-8,1e-5,1e-5,2e-9,1e-13", "a", "1,2,3,4",
              "nan,1,1,1", "1e-8,1e-5", ""],
    "--metric": ["flat:2", "flat:x", "sphere:1", "sphere:-1", "torus:1,1",
                 "torus:0,1", "bogus", ""],
    "--box": ["0,0,0.3,0.3", "0,0,1", "a", "0,0,nan,1", "0,0,1e9,1e9", "1,1,0,0",
              "0,0,-1,1", ""],
    "--seed": ["0", "1", "-1", "x", "99999999999999999999"],
    "--family-seed": ["0", "1", "-1", "x", "99999999999999999999"],
    "--family-depth": ["1", "2", "0", "-1", "x", "16", "17"],
    "--adversarial": ["1:0:1.0,0.0", "01:0:1,0", "1:0", "x", "1:99999:1,1",
                      "1:0:nan,0", "1:0:1e308,1e308", "1:-1:0,0"],
}
PATH_OPTIONS = ("--bundle", "--net", "--complex", "--certificate")
COMMANDS = ["constants", "synthesize", "triangulate", "certify", "duality-check",
            "render", "bogus", ""]


@st.composite
def argv_pairs(draw):
    """(option, value) tokens: pooled values, input paths of every kind, the
    output choices, or a short random string in either place."""
    option = draw(st.sampled_from(sorted(VALUES) + list(PATH_OPTIONS)
                                  + ["--out", "--help"]))
    if option == "--help":
        return [option]
    if option in PATH_OPTIONS:
        value = draw(st.sampled_from(INPUTS))
    elif option == "--out":
        value = draw(st.sampled_from(["out", "dir", "missing-parent", "-", "devnull"]))
    else:
        value = draw(st.sampled_from(VALUES[option]))
    return [option, value] if draw(st.integers(0, 9)) else [option]


@FUZZ
@given(st.sampled_from(COMMANDS),
       st.lists(st.one_of(argv_pairs(), st.text(max_size=6).map(lambda t: [t])),
                max_size=8))
def test_argument_strings(artifacts, tmp_path, capsys, command, tokens):
    paths = {**artifacts, "out": str(tmp_path / "out.json"),
             "missing-parent": str(tmp_path / "absent" / "out.json"),
             "devnull": "/dev/null", "-": "-"}
    argv = [command] + [paths.get(t, t) for group in tokens for t in group]
    _run(argv, capsys)


# -- mangled files ------------------------------------------------------------

REPLACEMENTS = [None, True, False, -1, 0, 1, 2.5, 1e308, -1e308, float("nan"),
                "x", "", [], {}, [0], [[0, 0]], [0, "x"], {"v": 1}, [[]]]


def _paths(obj, prefix=()):
    """Every path into a JSON value: dict keys and list indices."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


def _replaced(obj, path, value, delete):
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    if delete and not rest:
        del out[head]
    else:
        out[head] = _replaced(obj[head], rest, value, delete)
    return out


@st.composite
def mangled(draw, text: bytes):
    """The file's bytes truncated, with one byte overwritten, or as JSON with
    one value replaced or deleted."""
    how = draw(st.sampled_from(["truncate", "byte", "value", "value", "value"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "byte":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + bytes([draw(st.integers(0, 255))]) + text[i + 1:]
    obj = json.loads(text)
    paths = list(_paths(obj))
    path = paths[draw(st.integers(0, len(paths) - 1))]
    value = draw(st.sampled_from(REPLACEMENTS))
    delete = bool(path) and draw(st.booleans())
    return json.dumps(_replaced(obj, path, value, delete)).encode()


def _commands(kind, f, bad, out):
    """The commands that read a file of this kind, with ``bad`` in its place."""
    net, cx, bundle = (bad if kind == k else f[k] for k in ("net", "cx", "bundle"))
    certify = ["certify", "--net", net, "--complex", cx, "--bundle", bundle,
               "--family-depth", "1", "--out", out]
    render = ["render", "--net", net, "--complex", cx, "--out", out]
    return {
        "bundle": [certify],
        "net": [["triangulate", "--net", bad, "--out", out], certify,
                ["duality-check", "--net", net, "--complex", cx], render],
        "cx": [certify, ["duality-check", "--net", net, "--complex", cx], render],
        "cert": [render + ["--certificate", bad]],
    }[kind]


@pytest.mark.parametrize("kind", ["bundle", "net", "cx", "cert"])
def test_mangled_files(artifacts, tmp_path, capsys, kind):
    text = Path(artifacts[kind]).read_bytes()
    names = itertools.count()

    @FUZZ
    @given(mangled(text))
    def check(data):
        # a new file per example: truncating one file 150 times costs seconds
        bad = tmp_path / f"bad-{next(names)}.json"
        bad.write_bytes(data)
        for argv in _commands(kind, artifacts, str(bad), str(tmp_path / "out")):
            _run(argv, capsys)

    check()
