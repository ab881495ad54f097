"""JSON wire formats and DIMACS export.

All floats are rendered with 17 significant digits so dump/load round
trips are lossless and repeated invocations are byte-identical.  Matrix
documents carry real and imaginary parts separately; labels serialize as
compact JSON with tuples as arrays, and dictionary-like keys use that
compact form as the key string.  Tensor-copy strategies repeat a few rows
many times, so one `dumps` call renders each distinct matrix row (keyed by
its float64 bytes, which keeps -0.0 apart from 0.0) once and reuses the text.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from . import transform as tr
from .algebra import Measurement
from .builtins import (
    consistency_game,
    forbidden_pair_game,
    magic_square,
    question_sampling,
    trivial_game,
    two_of_n_ms,
)
from .cooklevin import BLANK, CNF, SYMBOLS, Assignment, TuringMachine
from .games import EvaluationReport, Game, SynchronousStrategy, table_game
from .rigidity import ResidualReport

__all__ = [
    "dumps",
    "label_key",
    "matrix_to_doc",
    "matrix_from_doc",
    "strategy_to_doc",
    "strategy_from_doc",
    "game_from_doc",
    "report_to_doc",
    "residuals_to_doc",
    "assignment_to_doc",
    "cnf_to_dimacs",
    "machine_to_doc",
    "machine_from_doc",
]

# kind -> (builder, size field, allowed sizes, default size).  Sizes run
# from the builder's minimum to a cap that keeps the game and its honest
# strategy (dimension 4^n for the Magic Square families) at desk scale.
BUILTIN_GAMES = {
    "magic_square": (magic_square, None, None, None),
    "two_of_n_ms": (two_of_n_ms, "n", (2, 3, 4), None),
    "question_sampling": (question_sampling, "n", (2, 4), None),
    "trivial": (trivial_game, "l", tuple(range(9)), 2),
    "consistency": (consistency_game, "l", tuple(range(9)), 2),
    "forbidden_pair": (forbidden_pair_game, "l", tuple(range(1, 9)), 2),
}

# transform name -> (name of the honest lift `transform --lift` writes, or
# None where the lifted question space is proof-indexed and too large to
# serialize; whether the document takes a time budget T).  Both name functions
# of `transform`, looked up per call so wrappers installed there see each call.
TRANSFORMS = {
    "oracularize": ("lift_oracularize", False),
    "introspect": ("lift_introspection", False),
    "answer_reduce": (None, True),
    "gapless_compress": (None, True),
}

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}
_REQUIRED = object()


def _field(doc, kind: str, name: str, type_: type, allowed=None, default=_REQUIRED):
    """doc[name], checked to be of JSON type type_ (an integer is never a
    bool or a float) and, when given, in allowed.  An absent field reads as
    default and is checked like a given one (so default=None requires it,
    with its bounds in the message); with no default it is refused.  Every
    refusal is a ValueError naming the document kind and the field."""
    if type(doc) is not dict:
        raise ValueError(f"{kind} document must be an object, got {doc!r:.60}")
    if default is _REQUIRED and name not in doc:
        raise ValueError(f"{kind} document needs field {name!r}")
    value = doc.get(name, default)
    if type(value) is not type_ or (allowed is not None and value not in allowed):
        expect = _JSON_TYPES[type_]
        if isinstance(allowed, range):
            expect += f" in {allowed.start}..{allowed.stop - 1}"
        elif allowed is not None:
            expect += " in {" + ", ".join(map(str, allowed)) + "}"
        raise ValueError(f"{kind} field {name!r} must be {expect}, got {value!r:.60}")
    return value


def _only_fields(doc: dict, kind: str, names) -> None:
    """Refuse a field of doc that its reader would not read."""
    extra = [k for k in doc if k not in names]
    if extra:
        raise ValueError(f"{kind} document has no field {extra[0]!r}")


def _labels(kind: str, name: str, value, length=None) -> tuple:
    """An array in field `name` (JSON, or a tuple `_uncanon` read from one), of
    `length` entries if given, as a tuple of labels; an object is no label."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = f" of {length}" if length else ""
        raise ValueError(f"{kind} field {name!r} holds {value!r:.60}, not an array{size}")
    labels = tuple(map(_uncanon, value))
    try:
        hash(labels)
    except TypeError:
        raise ValueError(f"{kind} field {name!r} holds an object in {value!r:.60}") from None
    return labels


_NON_FINITE = "cannot serialize non-finite numbers"


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(_NON_FINITE)
    return format(float(x), ".17g")


def _render_matrix(a: np.ndarray, memo: dict) -> str:
    """A 2-D float array as nested JSON lists; a row whose float64 bytes
    are not yet in memo goes through the %-template, the rest reuse its text."""
    if a.ndim != 2 or a.dtype.kind != "f":
        raise ValueError(f"cannot serialize a {a.ndim}-D {a.dtype} array")
    if a.dtype != np.float64:
        with np.errstate(over="ignore"):  # a longdouble past float64 turns inf, refused next
            a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise ValueError(_NON_FINITE)
    template = "[" + ", ".join(["%.17g"] * a.shape[1]) + "]"
    rows = []
    for row in a:
        key = row.tobytes()
        text = memo.get(key)
        if text is None:
            text = memo[key] = template % tuple(row.tolist())
        rows.append(text)
    return "[" + ", ".join(rows) + "]"


def dumps(doc) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    2-D float arrays (as held by matrix documents) render as nested lists,
    with the same bytes as lists of their entries.
    """
    memo = {}

    def render(node) -> str:
        if isinstance(node, np.ndarray):
            return _render_matrix(node, memo)
        if isinstance(node, dict):
            items = [f"{json.dumps(str(k))}: {render(v)}" for k, v in node.items()]
            return "{" + ", ".join(items) + "}"
        if isinstance(node, (list, tuple)):
            return "[" + ", ".join(render(v) for v in node) + "]"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return _fmt_float(float(node))
        if node is None:
            return "null"
        return json.dumps(str(node))

    return render(doc) + "\n"


def _canon(label):
    if isinstance(label, tuple):
        return [_canon(x) for x in label]
    return label


def _uncanon(doc):
    if isinstance(doc, list):
        return tuple(_uncanon(x) for x in doc)
    return doc


def label_key(label) -> str:
    """Canonical string key for a question or answer label."""
    return json.dumps(_canon(label), separators=(",", ":"))


def matrix_to_doc(op: np.ndarray) -> dict:
    """Real and imaginary parts as 2-D float arrays (`dumps` renders them)."""
    op = np.asarray(op, dtype=complex)
    return {"dim": op.shape[0], "re": op.real.copy(), "im": op.imag.copy()}


def matrix_from_doc(doc: dict) -> np.ndarray:
    """A d x d complex matrix from rows of JSON numbers; a bool is not one."""
    d = _field(doc, "matrix", "dim", int)
    re, im = (_field(doc, "matrix", name, list) for name in ("re", "im"))
    refusal = ValueError(f"matrix fields 're' and 'im' must be {d} x {d} arrays of numbers")
    for rows in (re, im):
        if (
            len(rows) != d
            or any(type(row) is not list or len(row) != d for row in rows)
            or not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}
        ):
            raise refusal
    try:
        return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise refusal from None


def strategy_to_doc(strategy: SynchronousStrategy, questions) -> dict:
    meas = {}
    for q in questions:
        m = strategy.measurement(q)
        meas[label_key(q)] = [matrix_to_doc(e) for e in m.elements]
    return {"dim": strategy.dim, "measurements": meas}


def strategy_from_doc(doc: dict, game: Game) -> SynchronousStrategy:
    """Rebind serialized measurements to the game's question labels.

    Each question's elements must form a projective measurement within
    DEFAULT_TOL (Measurement.validate), so a sampled evaluation that never
    draws a question still refuses a file that measures it wrongly.
    """
    dim = _field(doc, "strategy", "dim", int)
    raw = _field(doc, "strategy", "measurements", dict)
    table = {}
    for x in game.questions:
        key, answers = label_key(x), game.answers(x)
        elements = raw.get(key)
        if type(elements) is not list or len(elements) != len(answers):
            raise ValueError(
                f"strategy field 'measurements' needs {len(answers)} matrices for question {key}"
            )
        m = Measurement(answers, [matrix_from_doc(e) for e in elements], kind="projective")
        if m.dim != dim:
            raise ValueError(f"strategy field 'dim' is {dim}; question {key} has dimension {m.dim}")
        try:
            m.validate()
        except ValueError as exc:
            raise ValueError(f"measurement for question {key} is {exc}") from None
        table[x] = m
    return SynchronousStrategy(dim, table)


def game_from_doc(doc: dict):
    """Build (game, honest strategy or None) from a game document.

    Documents are {"builtin": {...}}, {"table": {...}}, or a transform
    descriptor {"transform": name, "params": {...}, "base": doc} applied
    recursively.
    """
    if type(doc) is not dict or not {"builtin", "table", "transform"} & doc.keys():
        raise ValueError("game document needs 'builtin', 'table' or 'transform'")
    if "transform" in doc:
        name = _field(doc, "transform", "transform", str, TRANSFORMS)
        _only_fields(doc, name, ("transform", "params", "base"))
        params = _field(doc, "transform", "params", dict, default={})
        _, takes_T = TRANSFORMS[name]
        _only_fields(params, name, ("T",) if takes_T else ())
        # a proof has about 14 T^2 variables; tests, demos and benchmarks use T in 2..8
        T = [_field(params, name, "T", int, range(1, 65), None)] if takes_T else []
        base, _ = game_from_doc(_field(doc, "transform", "base", dict))
        return getattr(tr, name)(base, *T), None
    if "builtin" in doc:
        _only_fields(doc, "game", ("builtin",))
        spec = doc["builtin"]
        kind = _field(spec, "builtin", "kind", str, BUILTIN_GAMES)
        build, size, allowed, default = BUILTIN_GAMES[kind]
        _only_fields(spec, kind, ("kind", size))
        return build() if size is None else build(_field(spec, kind, size, int, allowed, default))
    _only_fields(doc, "game", ("table",))
    spec = doc["table"]
    try:
        answers = {
            _labels("table", "answers", [json.loads(k)])[0]: _labels("table", "answers", v)
            for k, v in _field(spec, "table", "answers", dict).items()
        }
        accept = {
            _labels("table", "accept", json.loads(k), 2):
                [_labels("table", "accept", ab, 2) for ab in _labels("table", "accept", v)]
            for k, v in _field(spec, "table", "accept", dict).items()
        }
    except json.JSONDecodeError as exc:
        raise ValueError(f"table key {exc.doc!r} in 'answers' or 'accept' isn't JSON") from None
    _only_fields(spec, "table", ("name", "questions", "answers", "accept", "nontrivial_pairs"))
    pairs = _field(spec, "table", "nontrivial_pairs", list)
    return table_game(
        _field(spec, "table", "name", str, default="table"),
        _labels("table", "questions", _field(spec, "table", "questions", list)),
        answers,
        [_labels("table", "nontrivial_pairs", pair, 2) for pair in pairs],
        accept,
    ), None


def report_to_doc(report: EvaluationReport) -> dict:
    # one label_key per question; a game's questions are distinct under ==
    keys = {q: label_key(q) for q in {q for pair in report.per_pair for q in pair}}
    per_pair = {keys[x] + "|" + keys[y]: p for (x, y), p in report.per_pair.items()}
    return {
        "value": report.value,
        "trivial_mass": report.trivial_mass,
        "question_count": report.question_count,
        "per_pair": per_pair,
    }


def residuals_to_doc(report: ResidualReport) -> dict:
    return {
        "relations": dict(report.relations),
        "max_residual": report.max_residual,
        "value_deficit": report.value_deficit,
    }


def assignment_to_doc(assignment: Assignment) -> dict:
    return {"bits": list(assignment.bits)}


def cnf_to_dimacs(cnf: CNF) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    templates = {n: " ".join(["%s"] * n) + " 0" for n in set(map(len, cnf.clauses))}
    lines += [templates[len(clause)] % tuple(clause) for clause in cnf.clauses]
    return "\n".join(lines) + "\n"


def machine_to_doc(machine: TuringMachine) -> dict:
    return {
        "states": list(machine.states),
        "start": machine.start,
        "accept": machine.accept,
        "reject": machine.reject,
        "delta": [[q, s, *machine.transition[(q, s)]] for q in machine.states for s in SYMBOLS],
    }


# a delta entry's tape symbol as written in a document -> the machine's symbol
_DOC_SYMBOLS = {0: 0, 1: 1, "0": 0, "1": 1, BLANK: BLANK}


def _tape_symbol(s):
    if type(s) not in (int, str) or s not in _DOC_SYMBOLS:  # so no bool or float
        raise ValueError(f"machine field 'delta' holds symbol {s!r:.60}, not 0, 1 or {BLANK!r}")
    return _DOC_SYMBOLS[s]


def machine_from_doc(doc: dict) -> TuringMachine:
    """Machine from its document; tape symbols 0 and 1 may be JSON
    integers or strings, the blank is "_"."""
    delta = {}
    for entry in _field(doc, "machine", "delta", list):
        q, s, q2, s2, move = _labels("machine", "delta", entry, 5)
        key = (q, _tape_symbol(s))
        if key in delta:
            raise ValueError(f"machine field 'delta' has two entries for {key!r:.60}")
        delta[key] = (q2, _tape_symbol(s2), move)
    return TuringMachine(
        states=_labels("machine", "states", _field(doc, "machine", "states", list)),
        start=_field(doc, "machine", "start", str),
        accept=_field(doc, "machine", "accept", str),
        reject=_field(doc, "machine", "reject", str),
        transition=delta,
    )
