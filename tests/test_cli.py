import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from probautomata import (
    Dfa,
    GeneralPA,
    MarkovChain,
    MoorePA,
    RandomSequence,
    StringFunctionTable,
    io as pio,
)
from probautomata import cli
from probautomata.cli import main
from probautomata.linauto import LinearAutomaton

DATA = Path(__file__).parent / "data"
CANTOR = str(DATA / "cantor.json")
RABIN = str(DATA / "rabin.json")
THREE = str(DATA / "three_state.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sample_objects():
    general = GeneralPA(
        ("x",), ("y", "z"),
        {("x", "y"): np.array([[0.5, 0.25], [0.0, 0.5]]),
         ("x", "z"): np.array([[0.25, 0.0], [0.25, 0.25]])},
        np.array([1.0, 0.0]),
    )
    moore = MoorePA(
        ("a", "b"),
        {"a": np.array([[0.2, 0.8], [0.5, 0.5]]), "b": np.eye(2)},
        np.array([0.5, 0.5]),
        np.array([0.25, 1.0]),
    )
    linear = LinearAutomaton(
        ("a",), {"a": np.array([[0.5, -0.25], [0.0, 1.5]])},
        np.array([1.0, -1.0]), np.array([2.0, 0.5]),
    )
    chain = MarkovChain(
        ("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"),
        np.array([1.0, 0.0]),
    )
    dfa = Dfa(("0", "2"), 2, 0, {"0": (0, 0), "2": (1, 1)}, frozenset({1}))
    table = StringFunctionTable(("a",), 2, {(): 1.0, ("a",): 0.5, ("a", "a"): 0.25})
    seq = RandomSequence(("a", "b"), 1, {(): 1.0, ("a",): 0.5, ("b",): 0.5})
    return [general, moore, linear, chain, dfa, table, seq]


def test_roundtrip_all_kinds(tmp_path):
    for obj in sample_objects():
        path = tmp_path / "obj.json"
        pio.save(obj, str(path))
        loaded = pio.load(str(path))
        again = tmp_path / "again.json"
        pio.save(loaded, str(again))
        assert json.loads(path.read_text()) == json.loads(again.read_text())


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", CANTOR)
    assert code == 0
    assert out == "ok: kind=moore_pa states=2\n"


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1,\n  "kind": ???}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert f"{bad}:2:" in err  # line/column diagnostic


def test_validate_invalid_automaton(tmp_path, capsys):
    doc = json.loads(Path(CANTOR).read_text())
    doc["initial"] = [0.9, 0.0]  # not a distribution
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "distribution" in err


DFA_DOC = {"schema": 1, "kind": "dfa", "alphabet": ["a"], "states": 2, "start": 0,
           "trans": {"a": [1, 0]}, "accepting": [1]}
TABLE_DOC = {"schema": 1, "kind": "string_function", "alphabet": ["a"], "depth": 1,
             "table": {"": 1.0, "a": 0.5}}
CHAIN_DOC = {"schema": 1, "kind": "markov_chain", "signals": ["a"], "matrix": [[1.0]],
             "labels": ["a"], "initial": [1.0]}
MOORE_DOC = {"schema": 1, "kind": "moore_pa", "inputs": ["a"],
             "trans": {"a": [[1.0, 0.0], [0.0, 1.0]]}, "initial": [1.0, 0.0], "lambda": [0.0, 1.0]}
NAN = float("nan")


@pytest.mark.parametrize("doc, path", [
    ({**TABLE_DOC, "depth": [1]}, "$.depth"),
    ({**TABLE_DOC, "depth": "1"}, "$.depth"),
    ({**TABLE_DOC, "table": {"": [1.0], "a": 0.5}}, "$.table.''"),
    ({**TABLE_DOC, "table": [1.0, 0.5]}, "$.table"),
    ({**DFA_DOC, "states": None}, "$.states"),
    ({**DFA_DOC, "start": True}, "$.start"),
    ({**DFA_DOC, "accepting": 1}, "$.accepting"),
    ({**DFA_DOC, "accepting": [1.5]}, "$.accepting[0]"),
    ({**DFA_DOC, "trans": {"a": 1}}, "$.trans.a"),
    ({**DFA_DOC, "trans": {"a": [0.9, 1.2]}}, "$.trans.a[0]"),
    ({**DFA_DOC, "trans": "a"}, "$.trans"),
    ({**CHAIN_DOC, "labels": 1}, "$.labels"),
    ({**MOORE_DOC, "trans": {"a": [[True, False], [False, True]]}}, "$.trans.a[0][0]"),
    ({**MOORE_DOC, "initial": [True, False]}, "$.initial[0]"),
    ({**MOORE_DOC, "lambda": [0.0, float("inf")]}, "$.lambda[1]"),
    ({**MOORE_DOC, "initial": [10**400, 0]}, "$.initial[0]"),
    ({**MOORE_DOC, "trans": {"a": [[1.0, 0.0], [0.0]]}}, "$.trans.a"),
    ({**CHAIN_DOC, "matrix": [[NAN]]}, "$.matrix[0][0]"),
    ({**TABLE_DOC, "table": {"": 1.0, "a": NAN}}, "$.table.'a'"),
    ({**TABLE_DOC, "kind": "random_sequence", "table": {"": NAN, "a": NAN}}, "$.table.''"),
], ids=["depth-array", "depth-string", "table-value-array", "table-array", "states-null",
        "start-bool", "accepting-int", "accepting-float", "row-int", "row-floats", "trans-string",
        "labels-int", "matrix-bools", "initial-bools", "lambda-inf", "initial-overflow",
        "ragged-matrix", "chain-nan", "table-nan", "sequence-nan"])
def test_wrongly_typed_fields_exit_2_with_their_path(tmp_path, capsys, doc, path):
    # exit 1 is a verdict for `equiv` and `lang member`, so a wrong type must end in exit 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}:{path}: expected ") and err.count("\n") == 1


def test_react_cantor(capsys):
    code, out, _ = run(capsys, "react", CANTOR, "--input", "20")
    assert code == 0
    assert out == "0.222222222222\n"


def test_react_rabin(capsys):
    code, out, _ = run(capsys, "react", RABIN, "--input", "xx", "--output", "yy")
    assert code == 0
    assert out == "0.5\n"


def test_react_rabin_needs_output(capsys):
    code, _, err = run(capsys, "react", RABIN, "--input", "x")
    assert code == 2
    assert "--output" in err


def test_reduce_and_equiv(tmp_path, capsys):
    out_path = str(tmp_path / "reduced.json")
    code, out, _ = run(capsys, "reduce", THREE, "-o", out_path)
    assert code == 0
    assert out == "states: 3 -> 2\n"
    code, out, _ = run(capsys, "equiv", THREE, out_path)
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_self(capsys):
    code, out, _ = run(capsys, "equiv", RABIN, RABIN)
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_refuted(tmp_path, capsys):
    doc = json.loads(Path(CANTOR).read_text())
    doc["initial"] = [0.0, 1.0]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "equiv", CANTOR, str(other))
    assert code == 1
    assert out == "not equivalent\n"


def test_tolerance_must_be_positive(capsys):
    code, out, err = run(capsys, "--tolerance", "0", "validate", CANTOR)
    assert code == 2
    assert out == ""
    assert "tolerance must be positive" in err


def test_tolerance_reaches_equiv_for_one_call_only(tmp_path, capsys):
    doc = json.loads(Path(CANTOR).read_text())
    doc["lambda"][1] = 1 + 1e-6  # a relative gap of 1e-6
    moved = str(tmp_path / "moved.json")
    Path(moved).write_text(json.dumps(doc))
    assert run(capsys, "equiv", CANTOR, moved)[:2] == (1, "not equivalent\n")
    assert run(capsys, "--tolerance", "1e-5", "equiv", CANTOR, moved)[:2] == (0, "equivalent\n")
    assert run(capsys, "equiv", CANTOR, moved)[:2] == (1, "not equivalent\n")


def test_lang_member_and_enum(capsys):
    code, out, _ = run(capsys, "lang", "member", CANTOR, "--cutpoint", "0.5", "--input", "2")
    assert code == 0 and out == "member\n"
    code, out, _ = run(capsys, "lang", "member", CANTOR, "--cutpoint", "0.5", "--input", "0")
    assert code == 1 and out == "not member\n"
    code, out, _ = run(capsys, "lang", "enum", CANTOR, "--cutpoint", "0.5", "--max-len", "2")
    assert code == 0
    assert out == "2\n02\n22\n"


def test_lang_errors_exit_2(tmp_path, capsys):
    # exit 1 of `lang member` means "not member", so a bad cut point must not end there
    code, out, err = run(capsys, "lang", "member", CANTOR, "--cutpoint", "1.5", "--input", "0")
    assert (code, out, err) == (2, "", "error: cut point must lie in [0, 1)\n")
    code, out, err = run(capsys, "lang", "enum", CANTOR, "--cutpoint", "0.5", "--max-len", "-1")
    assert (code, out, err) == (2, "", "error: depth must be >= 0\n")
    code, out, err = run(capsys, "lang", "shift", CANTOR, "--from", "0.5", "--to", "1.5",
                         "-o", str(tmp_path / "shifted.json"))
    assert (code, out, err) == (2, "", "error: cut points must lie in [0, 1)\n")
    assert not (tmp_path / "shifted.json").exists()
    code, out, err = run(capsys, "isolate", CANTOR, "--cutpoint", "0.5", "--delta", "0.1",
                         "--max-len", "-1")
    assert (code, out, err) == (2, "", "error: depth must be >= 0\n")


@pytest.mark.parametrize("argv, message", [
    (("equiv", CANTOR, str(DATA / "slow_mixing.json")), "alphabet mismatch"),
    (("la", "op", "sum", "{x}", "{ab}", "-o", "{out}"), "alphabet mismatch"),
    (("la", "op", "prod", "{x}", "{ab}", "-o", "{out}"), "alphabet mismatch"),
    (("la", "op", "conv", "{x}", "{ab}", "-o", "{out}"), "alphabet mismatch"),
    (("react", RABIN, "--input", "x", "--output", "q"), "symbol 'q' not in the alphabet"),
    (("extract-dfa", CANTOR, "--cutpoint", "0.5", "--delta", "0"), "delta must be positive"),
    (("extract-dfa", CANTOR, "--cutpoint", "0.5", "--delta", "nan"), "delta must be positive"),
    # exit 1 of `definite` means "not derivable", which a slowly mixing positive automaton is not
    (("definite", str(DATA / "slow_mixing.json"), "--cutpoint", "0.5", "--delta", "0"),
     "delta must be positive"),
    (("definite", str(DATA / "slow_mixing.json"), "--cutpoint", "0.5", "--delta", "-0.1"),
     "delta must be positive"),
], ids=["equiv-alphabets", "la-sum", "la-prod", "la-conv", "react-output", "extract-dfa-delta-0",
        "extract-dfa-delta-nan", "definite-delta-0", "definite-delta-negative"])
def test_rejected_library_inputs_exit_2(tmp_path, capsys, argv, message):
    paths = {"{x}": tmp_path / "x.json", "{ab}": tmp_path / "ab.json",
             "{out}": tmp_path / "out.json"}
    for key, inputs in (("{x}", ("x",)), ("{ab}", ("a", "b"))):
        one = LinearAutomaton(inputs, {s: np.eye(1) for s in inputs}, np.ones(1), np.ones(1))
        pio.save(one, str(paths[key]))
    code, out, err = run(capsys, *(str(paths.get(arg, arg)) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_tolerance_must_be_finite(capsys, eps):
    code, out, err = run(capsys, f"--tolerance={eps}", "validate", CANTOR)
    assert (code, out) == (2, "")
    assert err == "error: tolerance must be positive and finite\n"


@pytest.mark.parametrize("eps", ["0.1", "0.5", "1e300"])
def test_tolerance_must_be_below_a_tenth(tmp_path, capsys, eps):
    # from 0.1 on, 10 eps >= 1 and no relative difference could refute an equivalence
    doc = json.loads(Path(CANTOR).read_text())
    doc["initial"] = [0.0, 1.0]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(doc))
    code, out, err = run(capsys, f"--tolerance={eps}", "equiv", CANTOR, str(flipped))
    assert (code, out, err) == (2, "", "error: tolerance must be below 0.1\n")
    assert run(capsys, "--tolerance=0.09", "equiv", CANTOR, str(flipped))[:2] == (
        1, "not equivalent\n")


def test_files_that_cannot_be_opened_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(DATA))
    assert (code, out, err) == (2, "", f"error: {DATA}: is a directory\n")
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run(capsys, "reduce", THREE, "-o", str(target))
    assert (code, out, err) == (2, "", f"error: {target}: no such file or directory\n")
    missing = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "validate", missing)
    assert (code, out, err) == (2, "", f"error: {missing}: no such file or directory\n")


def test_a_word_outside_the_alphabet_names_its_option(capsys):
    code, out, err = run(capsys, "react", RABIN, "--input", "x", "--output", "q")
    assert (code, out, err) == (2, "", "error: --output: symbol 'q' not in the alphabet ['y', 'z']\n")
    code, out, err = run(capsys, "react", RABIN, "--input", "q", "--output", "y")
    assert (code, out, err) == (2, "", "error: --input: symbol 'q' not in the alphabet ['x']\n")


def test_validate_prints_the_kind_of_each_saved_object(tmp_path, capsys):
    kinds = ["general_pa", "moore_pa", "linear_automaton", "markov_chain", "dfa",
             "string_function", "random_sequence"]
    for obj, kind in zip(sample_objects(), kinds):
        path = tmp_path / f"{kind}.json"
        pio.save(obj, str(path))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert out.split()[:2] == ["ok:", f"kind={kind}"]
        assert json.loads(path.read_text())["kind"] == kind


def test_lang_shift(tmp_path, capsys):
    out_path = str(tmp_path / "shifted.json")
    code, out, _ = run(capsys, "lang", "shift", CANTOR, "--from", "0.5", "--to", "0.25",
                       "-o", out_path)
    assert code == 0
    shifted = pio.load(out_path)
    from probautomata import member
    for u in [(), ("2",), ("0", "2"), ("2", "0")]:
        original = pio.load(CANTOR)
        assert member(shifted, 0.25, u) == member(original, 0.5, u)


def test_isolate(capsys):
    code, out, _ = run(capsys, "isolate", CANTOR, "--cutpoint", "0.5",
                       "--delta", "0.16666666666666666", "--max-len", "6")
    assert code == 0
    assert out == "clear up to 6 (delta=0.166666666667)\n"
    code, out, _ = run(capsys, "isolate", CANTOR, "--cutpoint", "0.6666666666666666",
                       "--delta", "0.01", "--max-len", "4")
    assert code == 1
    assert out.startswith("refuted: u=2")


def test_extract_dfa(tmp_path, capsys):
    dot = tmp_path / "lang.dot"
    out_json = tmp_path / "lang.json"
    code, out, _ = run(capsys, "extract-dfa", CANTOR, "--cutpoint", "0.5",
                       "--delta", "0.16666666666666666",
                       "--dot", str(dot), "-o", str(out_json))
    assert code == 0
    assert out == "states: raw=4 minimized=2 bound=7\n"
    assert dot.read_text().startswith("digraph")
    d = pio.load(str(out_json))
    assert d.n_states == 2


def test_ergodic_and_stable(capsys, tmp_path):
    code, out, _ = run(capsys, "ergodic", CANTOR)
    assert code == 1
    assert out == "not ergodic (witness: 0)\n"
    mixer = MoorePA(
        ("a",), {"a": np.array([[0.9, 0.1], [0.1, 0.9]])},
        np.array([1.0, 0.0]), np.array([1.0, 0.0]),
    )
    path = tmp_path / "mixer.json"
    pio.save(mixer, str(path))
    code, out, _ = run(capsys, "ergodic", str(path))
    assert code == 0 and out == "ergodic\n"
    code, out, _ = run(capsys, "stable", str(path))
    assert code == 0
    assert out == "stable (all letter matrices contract)\n"
    code, out, _ = run(capsys, "definite", str(path), "--cutpoint", "0.4", "--delta", "0.1")
    assert code == 0
    assert out == "definite k=12 suffix-classes=1 accepting=1\n"


def test_definite_reports_errors_with_exit_2(capsys, monkeypatch, tmp_path):
    # both letters mix so slowly that the suffix length k is 150, far over the table limit
    code, out, err = run(capsys, "definite", str(DATA / "slow_mixing.json"),
                         "--cutpoint", "0.5", "--delta", "0.05")
    assert (code, out) == (2, "")
    assert err == "error: suffix table of size |X|^150 exceeds the limit\n"

    # an ergodic automaton with zero entries meets the same limit in its own scan
    ergodic = tmp_path / "ergodic.json"
    m = [[0.0, 1.0], [0.99, 0.01]]
    pio.save(MoorePA(("a", "b"), {"a": np.array(m), "b": np.array(m)},
                     np.array([1.0, 0.0]), np.array([0.0, 1.0])), str(ergodic))
    code, out, err = run(capsys, "definite", str(ergodic), "--cutpoint", "0.5", "--delta", "0.05")
    assert (code, out) == (2, "")
    assert err == "error: suffix table of size |X|^17 exceeds the limit\n"

    def not_determined(*args, **kwargs):
        raise AssertionError("suffix determination failed at ('0',)")

    monkeypatch.setattr(cli, "definite_rep", not_determined)
    code, out, err = run(capsys, "definite", CANTOR, "--cutpoint", "0.5", "--delta", "0.1")
    assert (code, out) == (2, "")
    assert err == "error: suffix determination failed at ('0',)\n"


def test_la_commands(tmp_path, capsys):
    geo = LinearAutomaton(("x",), {"x": np.array([[0.5]])}, np.array([1.0]), np.array([1.0]))
    geo_path = tmp_path / "geo.json"
    pio.save(geo, str(geo_path))

    out_path = tmp_path / "laop.json"
    code, out, _ = run(capsys, "la", "op", "sum", str(geo_path), str(geo_path),
                       "-o", str(out_path))
    assert code == 0 and out == "dim: 2\n"
    code, out, _ = run(capsys, "la", "op", "scale", str(geo_path), "--scalar", "3",
                       "-o", str(out_path))
    assert code == 0 and out == "dim: 1\n"
    code, _, err = run(capsys, "la", "op", "iter", str(geo_path), "-o", str(out_path))
    assert code == 2  # f(eps) != 0

    table = StringFunctionTable(("x",), 4, {("x",) * k: 0.5**k for k in range(5)})
    table_path = tmp_path / "geo_table.json"
    pio.save(table, str(table_path))
    code, out, _ = run(capsys, "la", "rank", str(table_path))
    assert code == 0 and out == "1\n"
    realized = tmp_path / "realized.json"
    code, out, _ = run(capsys, "la", "realize", str(table_path), "-o", str(realized))
    assert code == 0 and out == "dim: 1\n"
    code, out, _ = run(capsys, "equiv", str(geo_path), str(realized))
    assert code == 0

    code, out, _ = run(capsys, "la", "expr", str(geo_path))
    assert code == 0
    assert out == "(+ chi-eps (iter+ (scale 0.5 (chi x))))\n"

    embedded = tmp_path / "embedded.json"
    code, out, _ = run(capsys, "la", "embed-pa", str(geo_path), "-o", str(embedded))
    assert code == 0
    assert out.startswith("states: 3 scale: ")
    pio.load(str(embedded))

    lang = tmp_path / "lang.json"
    code, out, _ = run(capsys, "la", "lang-pa", str(geo_path), "--cutpoint", "0.3",
                       "-o", str(lang))
    assert code == 0
    assert out == "states: 5 cutpoint: 0.2\n"


def test_mc_eval(tmp_path, capsys):
    chain = MarkovChain(
        ("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"),
        np.array([1.0, 0.0]),
    )
    path = tmp_path / "chain.json"
    pio.save(chain, str(path))
    code, out, _ = run(capsys, "mc", "eval", str(path), "--input", "ab")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "mc", "eval", str(path), "--input", "aa")
    assert code == 0 and out == "0\n"


def test_rs_transform(tmp_path, capsys):
    seq = RandomSequence(("x",), 2, {(): 1.0, ("x",): 1.0, ("x", "x"): 1.0})
    seq_path = tmp_path / "seq.json"
    pio.save(seq, str(seq_path))
    code, out, _ = run(capsys, "rs", "transform", str(seq_path), RABIN,
                       "-o", str(tmp_path / "image.json"))
    assert code == 0 and out == "depth: 2\n"
    image = pio.load(str(tmp_path / "image.json"))
    assert image.value(("y",)) == pytest.approx(0.75)


def test_determinism(capsys, tmp_path):
    first = run(capsys, "la", "expr", RABIN)  # wrong kind: deterministic error too
    second = run(capsys, "la", "expr", RABIN)
    assert first == second
    runs = [run(capsys, "react", CANTOR, "--input", "2202") for _ in range(2)]
    assert runs[0] == runs[1]


# --- the parser main builds: only the invoked command's ------------------------------


def _leaves(table=cli.COMMANDS, prefix=()):
    """(command names, argument specs) of every command the table runs."""
    for name, (_, run, *args) in table.items():
        if isinstance(run, dict):
            yield from _leaves(run, (*prefix, name))
        else:
            yield (*prefix, name), args


def _value(options):
    if "choices" in options:
        return options["choices"][0]
    return {float: "0.5", int: "3"}.get(options.get("type"), "w.json")


def _parity_corpus():
    corpus = [
        [], ["bogus"], ["bogus", "-h"], ["-h"], ["--help"], ["--he"], ["-x", "validate", "f"],
        ["--", "validate", "f"], ["-"], ["--tolerance"], ["--tolerance", "0.01"],
        ["--tolerance", "0.01", "-h"], ["--tolerance", "-h", "validate", "f"],
        ["--tolerance", "abc", "validate", "f"], ["--tolerance=abc", "validate", "f"],
        ["--tol", "abc", "validate", "f"], ["--tolerance", "validate", "f"],
        ["--tolerance", "-0.5", "validate", "f"], ["--tolerance", "0.01", "--tol=0.02", "stable", "f"],
        ["validate", "f", "--tolerance", "0.01"], ["validate", "f", "extra"],
        ["la", "op", "bogus", "a", "-o", "o"],
    ]
    for nested in (name for name, entry in cli.COMMANDS.items() if isinstance(entry[1], dict)):
        corpus += [[nested], [nested, "bogus"], [nested, "-h"], [nested, "--x", "y"]]
    for path, args in _leaves():
        valid, options_given = [*path], []
        for flags, options in args:
            if not flags[0].startswith("-"):
                if options.get("nargs") != "?":
                    valid.append(_value(options))
            elif options.get("required"):
                options_given.append([flags[-1], _value(options)])
        valid += [token for pair in options_given for token in pair]
        corpus += [valid, [*path], [*path, "-h"], ["-h", *path]]
        for form in (["--tolerance", "0.01"], ["--tolerance=0.01"], ["--tol", "0.01"]):
            corpus.append([*form, *valid])
        if options_given:
            corpus.append(valid[:-2])  # the last required option left out
        corpus += [[*valid, flags[-1], "abc"] for flags, options in args
                   if options.get("type") in (float, int)]
    return corpus


class _Parsed(Exception):
    """Stops `main` once it has parsed its arguments; carries the namespace."""


def _outcome(parse, argv, capsys):
    """vars() of the namespace, or the exit code; with the text printed."""
    try:
        result = ("namespace", vars(parse(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


def test_main_parses_as_the_full_parser(monkeypatch, capsys):
    build = cli.build_parser

    def stop_after_parsing(*path):
        parser = build(*path)
        parse = parser.parse_args

        def parse_args(argv):
            raise _Parsed(parse(argv))

        parser.parse_args = parse_args
        return parser

    def via_main(argv):
        try:
            cli.main(argv)
        except _Parsed as parsed:
            return parsed.args[0]

    monkeypatch.setattr(cli, "build_parser", stop_after_parsing)
    kinds = set()
    for argv in _parity_corpus():
        full = _outcome(lambda a: build().parse_args(a), argv, capsys)
        assert _outcome(via_main, argv, capsys) == full, argv
        kinds.add(full[0][1] if full[0][0] == "exit" else "namespace")
    assert kinds == {"namespace", 0, 2}  # parsed calls, help and usage errors


def test_a_bad_tolerance_before_the_command_shows_the_full_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--tolerance", "abc", "validate", CANTOR])
    err = capsys.readouterr().err
    assert stop.value.code == 2
    assert err.startswith("usage: probautomata [-h] [--tolerance EPS]")
    assert "{validate,react,reduce,equiv,lang,isolate,extract-dfa,ergodic,stable,definite," \
           "la,mc,rs}" in err
    assert err.endswith("error: argument --tolerance: invalid float value: 'abc'\n")


def test_main_builds_only_the_invoked_parsers(monkeypatch, capsys, tmp_path):
    geo = LinearAutomaton(("x",), {"x": np.array([[0.5]])}, np.array([1.0]), np.array([1.0]))
    geo_path = str(tmp_path / "geo.json")
    pio.save(geo, geo_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "react", CANTOR, "--input", "20") == (0, "0.222222222222\n", "")
    assert len(built) <= 2  # the full parser builds 25
    built.clear()
    assert run(capsys, "--tol", "1e-9", "react", CANTOR, "--input", "20")[0] == 0
    assert len(built) <= 2
    built.clear()
    assert run(capsys, "la", "expr", geo_path) == (
        0, "(+ chi-eps (iter+ (scale 0.5 (chi x))))\n", "")
    assert len(built) <= 3
