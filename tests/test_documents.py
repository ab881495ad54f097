"""Mutated input documents: every mutant of a small valid document of each
kind either loads as before or exits 1 with one ``error:`` line, in under
a second, and a dropped or retyped field of the document's own object is
named, with the document kind, in that line.  A table refusal also names
the field that a mutation at any depth below the table sits under."""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syncgames.builtins import MS_EQUATIONS, MS_VARIABLES, magic_square
from syncgames.cli import run
from syncgames.cooklevin import equality_machine
from syncgames.serialize import dumps, machine_to_doc, matrix_from_doc, strategy_to_doc

TABLE = {
    "name": "pair",
    "questions": ["x", "y"],
    "answers": {'"x"': [0, 1], '"y"': [0, 1]},
    "nontrivial_pairs": [["x", "y"]],
    "accept": {'["x","y"]': [[0, 0], [1, 1]]},
}
ONE = {"dim": 1, "re": [[1.0]], "im": [[0.0]]}
ZERO = {"dim": 1, "re": [[0.0]], "im": [[0.0]]}
EVAL_HONEST = ["eval", "--game", "{mutant}", "--strategy", "honest", "--sample", "10",
               "--seed", "1", "--out", "{out}"]

# kind -> (valid document, path of the kind's own object in it, the words
# that name the kind in a message, argv that loads the document)
DOCS = {
    "builtin": ({"builtin": {"kind": "consistency", "l": 2}}, ("builtin",),
                ("builtin", "consistency"), EVAL_HONEST),
    "table": ({"table": TABLE}, ("table",), ("table",),
              ["eval", "--game", "{mutant}", "--strategy", "{table_strategy}", "--out", "{out}"]),
    # a transform with a nested base; eval refuses it for want of an honest
    # strategy once it loads
    "transform": ({"transform": "answer_reduce", "params": {"T": 3},
                   "base": {"builtin": {"kind": "consistency", "l": 2}}}, (),
                  ("transform", "answer_reduce"), EVAL_HONEST),
    # cells first, as honest magic_square() builds them; the key order
    # fixes which mutants the derandomized draws pick
    "strategy": (json.loads(dumps(strategy_to_doc(magic_square()[1],
                                                  MS_VARIABLES + tuple(MS_EQUATIONS)))),
                 (), ("strategy",),
                 ["eval", "--game", "{ms_game}", "--strategy", "{mutant}", "--out", "{out}"]),
    "machine": (machine_to_doc(equality_machine()), (), ("machine",),
                ["cooklevin", "compile", "--machine", "{mutant}", "--T", "2", "--R", "2",
                 "--out", "{out}"]),
}

# A dropped "params" leaves answer_reduce without its time budget, and the
# message names the missing "T" inside it.
NAMED = {("transform", "params"): ("'params'", "'T'")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("documents")
    paths = {name: d / f"{name}.json" for name in ("mutant", "out", "table_strategy", "ms_game")}
    paths["table_strategy"].write_text(json.dumps(
        {"dim": 1, "measurements": {'"x"': [ONE, ZERO], '"y"': [ONE, ZERO]}}
    ))
    paths["ms_game"].write_text(json.dumps({"builtin": {"kind": "magic_square"}}))
    return {name: str(p) for name, p in paths.items()}


def paths(node, prefix=()):
    """The path of every value below node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def json_type(value) -> str:
    return "integer" if type(value) is int else type(value).__name__


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(-2, 2, allow_nan=False), st.text(max_size=3))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2),
                   st.dictionaries(st.text(max_size=2), SCALARS, max_size=1))


@st.composite
def mutants(draw, kind):
    """(mutated document, path of the mutated value, "drop"/"retype"/"resize")."""
    doc = copy.deepcopy(DOCS[kind][0])
    path = draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    op = draw(st.sampled_from(["drop", "retype", "resize"]))
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = draw(VALUES.filter(lambda v: json_type(v) != json_type(old)))
    elif type(old) is bool:
        parent[key] = not old
    elif isinstance(old, (int, float)):
        parent[key] = old + draw(st.sampled_from([-2, -1, 1, 2, -1000, 1000]))
    elif isinstance(old, str):
        parent[key] = draw(st.sampled_from([old[:-1], old + "x"]))
    elif isinstance(old, list):
        parent[key] = draw(st.sampled_from([old[:-1], old + old[-1:], []]))
    else:
        grown = {**old, draw(st.sampled_from(['"z"', "z", "[1,2]"])): draw(VALUES)}
        shrunk = dict(list(old.items())[:-1])
        parent[key] = draw(st.sampled_from([grown, shrunk]))
    return doc, path, op


def check_mutant(files, kind, doc, path, op) -> list[str]:
    """Run the kind's command on doc; return its stderr lines."""
    _, own, kind_words, argv = DOCS[kind]
    with open(files["mutant"], "w") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run([a.format(**files) for a in argv])
    assert time.perf_counter() - start < 1.0
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
        return lines
    assert rc == 1 and len(lines) == 1 and lines[0].startswith("error: "), (rc, lines)
    if op != "resize" and len(path) == len(own) + 1 and path[:-1] == own:
        field = path[-1]
        names = NAMED.get((kind, field), (repr(field),))
        assert any(n in lines[0] for n in names), lines
        assert any(k in lines[0] for k in kind_words), lines
    if kind == "table" and len(path) > len(own) and lines[0].startswith("error: table "):
        assert repr(path[len(own)]) in lines[0], (path, lines)
    return lines


@pytest.mark.parametrize("kind", sorted(DOCS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutant_loads_or_exits_1(files, kind, data):
    doc, path, op = data.draw(mutants(kind))
    check_mutant(files, kind, doc, path, op)


@pytest.mark.parametrize("field, value", [("answers", []), ("accept", 5)])
def test_table_field_of_wrong_type(files, field, value):
    # both ended in an AttributeError traceback before every field was
    # read through one checked accessor
    doc = {"table": {**TABLE, field: value}}
    lines = check_mutant(files, "table", doc, ("table", field), "retype")
    assert lines == [f"error: table field {field!r} must be an object, got {value!r}"]


def test_table_question_listed_twice(files):
    # "y" twice drew it twice as often as "x": a different game
    doc = {"table": {**TABLE, "questions": ["x", "y", "y"]}}
    lines = check_mutant(files, "table", doc, ("table", "questions"), "resize")
    assert lines == ["error: table field 'questions' lists question 'y' twice"]


@pytest.mark.parametrize(
    "field, table, line",
    [
        ("answers", {"answers": {'"x"': [], '"y"': [0, 1]}},
         "error: table field 'answers' needs distinct answers for 'x', got ()"),
        ("answers", {"answers": {'"x"': [0, 1], '"y"': [0, 0]}},
         "error: table field 'answers' needs distinct answers for 'y', got (0, 0)"),
        ("answers", {"answers": {'"x"': [0, {"a": 1}], '"y"': [0, 1]}},
         "error: table field 'answers' holds an object in [0, {'a': 1}]"),
        ("answers", {"answers": {'"x"': [0, 1], '"y"': [0, 1], '"z"': [0]}},
         "error: table field 'answers' has a list for question 'z', not in 'questions'"),
        ("accept", {"accept": {'["x","y"]': [[0, 2]]}},
         "error: table field 'accept' pair ('x', 'y') accepts (0, 2), not in 'answers'"),
        ("accept", {"accept": {'["x","y"]': [[0, 0], [1, 1]], '["y","x"]': [[0, 1], [1, 0]]}},
         "error: table field 'accept' pair ('y', 'x') is not the mirror of ('x', 'y')"),
        ("accept", {"nontrivial_pairs": []},
         "error: table field 'accept' pair ('x', 'y') is not in 'nontrivial_pairs'"),
    ],
    ids=["empty_answers", "repeated_answer", "object_answer", "unlisted_question",
         "unlisted_accepted_answer", "not_mirrored", "unlisted_accept_pair"],
)
def test_table_answer_refusals(files, field, table, line):
    # the empty and object lists failed naming no field; the repeated answer,
    # the list for an unlisted question and the unlisted accepted answer
    # loaded as a different game or with the entry ignored; the entries that
    # are not mirrors loaded a game whose rule(y, x) is not rule(x, y).T; the
    # accept set of an unlisted pair loaded as a pair that always wins
    doc = {"table": {**TABLE, **table}}
    assert check_mutant(files, "table", doc, ("table", field), "resize") == [line]


def test_matrix_bool_among_numbers_refused():
    # numpy promoted the row to floats and read this as [[1, 0.5], [0, 1]]
    with pytest.raises(ValueError) as refused:
        matrix_from_doc({"dim": 2, "re": [[True, 0.5], [0, 1]], "im": [[0, 0], [0, 0]]})
    assert str(refused.value) == "matrix fields 're' and 'im' must be 2 x 2 arrays of numbers"


@pytest.mark.parametrize("row", [[True, 0], [1, False]])
def test_strategy_bool_equal_to_its_number(files, row):
    # the entries read 1, 0: the honest "s11" projector loaded unchanged
    doc = copy.deepcopy(DOCS["strategy"][0])
    element = doc["measurements"]['"s11"'][0]
    assert element["re"][0][:2] == [1, 0]
    element["re"][0][:2] = row
    lines = check_mutant(files, "strategy", doc, ("measurements", '"s11"', 0, "re"), "retype")
    assert lines == ["error: matrix fields 're' and 'im' must be 4 x 4 arrays of numbers"]


@pytest.mark.parametrize(
    "kind, doc, line",
    [
        ("builtin", {"builtin": {"kind": "magic_square", "n": 3, "zz": 1}},
         "error: magic_square document has no field 'n'"),
        ("builtin", {"builtin": {"kind": "consistency", "l": 2, "zz": 1}},
         "error: consistency document has no field 'zz'"),
        ("builtin", {"builtin": {"kind": "two_of_n_ms", "l": 2, "n": 2}},
         "error: two_of_n_ms document has no field 'l'"),
        ("transform", {"transform": "oracularize", "params": {"T": 3},
                       "base": {"builtin": {"kind": "consistency", "l": 2}}},
         "error: oracularize document has no field 'T'"),
        ("transform", {"transform": "answer_reduce", "params": {"T": 3, "R": 6},
                       "base": {"builtin": {"kind": "consistency", "l": 2}}},
         "error: answer_reduce document has no field 'R'"),
        ("transform", {"transform": "oracularize", "builtin": {"kind": "trivial"},
                       "base": {"builtin": {"kind": "consistency", "l": 2}}},
         "error: oracularize document has no field 'builtin'"),
        ("builtin", {"builtin": {"kind": "consistency", "l": 2}, "table": TABLE},
         "error: game document has no field 'table'"),
        ("table", {"table": {**TABLE, "extra": 3}},
         "error: table document has no field 'extra'"),
    ],
    ids=["magic_square_n", "builtin_unknown", "builtin_other_size", "oracularize_T",
         "answer_reduce_R", "transform_with_builtin", "builtin_with_table", "table_extra"],
)
def test_unread_field_refused(files, kind, doc, line):
    # each loaded before, its field ignored: the Magic Square document
    # evaluated to 1, oracularize ran with no time budget to use, the
    # oracularize document loaded as trivial_2 and the builtin document
    # as its builtin
    assert check_mutant(files, kind, doc, (), "resize") == [line]
