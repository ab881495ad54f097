"""JSON wire formats and DIMACS export.

All floats are rendered with 17 significant digits so dump/load round
trips are lossless and repeated invocations are byte-identical.  Matrix
documents carry real and imaginary parts separately; labels serialize as
compact JSON with tuples as arrays, and dictionary-like keys use that
compact form as the key string.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import DEFAULT_TOL, Measurement
from .builtins import (
    consistency_game,
    forbidden_pair_game,
    magic_square,
    question_sampling,
    trivial_game,
    two_of_n_ms,
)
from .cooklevin import CNF, Assignment, TuringMachine
from .games import EvaluationReport, Game, SynchronousStrategy, table_game
from .rigidity import ResidualReport

__all__ = [
    "dumps",
    "label_key",
    "matrix_to_doc",
    "matrix_from_doc",
    "measurement_to_doc",
    "measurement_from_doc",
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
    "two_of_n_ms": (two_of_n_ms, "n", range(2, 5), None),
    "question_sampling": (question_sampling, "n", (2, 4), None),
    "trivial": (trivial_game, "l", range(0, 9), 2),
    "consistency": (consistency_game, "l", range(0, 9), 2),
    "forbidden_pair": (forbidden_pair_game, "l", range(1, 9), 2),
}


def _field(doc: dict, kind: str, name: str):
    """doc[name], or a ValueError naming the document kind and the field."""
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"{kind} document needs field {name!r}")
    return doc[name]


def _builtin_game(spec: dict):
    """Build a builtin game from its document.  The size field must be a
    JSON integer (not a bool, float or string) that BUILTIN_GAMES allows."""
    kind = _field(spec, "builtin", "kind")
    if kind not in BUILTIN_GAMES:
        raise ValueError(f"unknown builtin game kind {kind!r}")
    build, field, allowed, default = BUILTIN_GAMES[kind]
    if field is None:
        return build()
    size = spec.get(field, default)
    if type(size) is not int or size not in allowed:
        span = ", ".join(map(str, allowed))
        raise ValueError(f"{kind} field {field!r} must be an integer in {{{span}}}, got {size!r}")
    return build(size)


def _time_budget(transform: str, params) -> int:
    """The time budget T of a transform document: a JSON integer (not a
    bool, float or string) in 1..64.  A proof has about 14 T^2 variables;
    tests, demos and benchmarks use 2..8."""
    T = params.get("T") if isinstance(params, dict) else None
    if type(T) is not int or not 1 <= T <= 64:
        raise ValueError(f"{transform} field 'T' must be an integer in 1..64, got {T!r}")
    return T


_NON_FINITE = "cannot serialize non-finite numbers"


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(_NON_FINITE)
    return format(float(x), ".17g")


def _render_matrix(a: np.ndarray) -> str:
    """A 2-D float array as nested JSON lists, through one %-template."""
    if a.ndim != 2 or a.dtype.kind != "f":
        raise ValueError(f"cannot serialize a {a.ndim}-D {a.dtype} array")
    if not np.isfinite(a).all():
        raise ValueError(_NON_FINITE)
    rows, cols = a.shape
    row = "[" + ", ".join(["%.17g"] * cols) + "]"
    return ("[" + ", ".join([row] * rows) + "]") % tuple(a.ravel().tolist())


def dumps(doc) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    2-D float arrays (as held by matrix documents) render as nested lists,
    with the same bytes as lists of their entries.
    """

    def render(node) -> str:
        if isinstance(node, np.ndarray):
            return _render_matrix(node)
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
    d = int(doc["dim"])
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError("matrix document shape mismatch")
    return re + 1j * im


def measurement_to_doc(m: Measurement) -> dict:
    return {
        "labels": [_canon(lab) for lab in m.labels],
        "kind": m.kind,
        "elements": [matrix_to_doc(e) for e in m.elements],
    }


def measurement_from_doc(doc: dict) -> Measurement:
    return Measurement(
        tuple(_uncanon(lab) for lab in doc["labels"]),
        [matrix_from_doc(e) for e in doc["elements"]],
        kind=doc["kind"],
    )


def strategy_to_doc(strategy: SynchronousStrategy, questions=None) -> dict:
    if questions is None:
        questions = strategy.question_labels()
    meas = {}
    for q in questions:
        m = strategy.measurement(q)
        meas[label_key(q)] = [matrix_to_doc(e) for e in m.elements]
    return {"dim": strategy.dim, "measurements": meas}


def strategy_from_doc(doc: dict, game: Game) -> SynchronousStrategy:
    """Rebind serialized measurements to the game's question labels.

    Each measurement must sum to the identity within DEFAULT_TOL.eps;
    projectivity is left to exact evaluation, which checks it anyway.
    """
    table = {}
    raw = doc["measurements"]
    for x in game.questions:
        key = label_key(x)
        if key not in raw:
            raise ValueError(f"strategy document misses question {key}")
        m = Measurement(
            game.answers(x),
            [matrix_from_doc(e) for e in raw[key]],
            kind="projective",
        )
        total = np.sum(m.elements, axis=0)
        if np.abs(total - np.eye(m.dim)).max() > DEFAULT_TOL.eps:
            raise ValueError(
                f"measurement for question {key} is not normalized:"
                " its elements do not sum to the identity"
            )
        table[x] = m
    return SynchronousStrategy(int(doc["dim"]), table)


def game_from_doc(doc: dict):
    """Build (game, honest strategy or None) from a game document.

    Documents are {"builtin": {...}}, {"table": {...}}, or a transform
    descriptor {"transform": name, "params": {...}, "base": doc} applied
    recursively.
    """
    if "builtin" in doc:
        return _builtin_game(doc["builtin"])
    if "table" in doc:
        spec = doc["table"]
        questions = [_uncanon(q) for q in _field(spec, "table", "questions")]
        answers = {
            _uncanon(json.loads(k)): tuple(_uncanon(a) for a in v)
            for k, v in _field(spec, "table", "answers").items()
        }
        pairs = [
            tuple(_uncanon(q) for q in pair)
            for pair in _field(spec, "table", "nontrivial_pairs")
        ]
        accept = {}
        for key, pairs_doc in _field(spec, "table", "accept").items():
            x, y = (_uncanon(part) for part in json.loads(key))
            accept[(x, y)] = [
                (_uncanon(a), _uncanon(b)) for a, b in pairs_doc
            ]
        return table_game(spec.get("name", "table"), questions, answers, pairs, accept), None
    if "transform" in doc:
        from . import transform as tr

        base, _ = game_from_doc(_field(doc, "transform", "base"))
        params = doc.get("params", {})
        name = doc["transform"]
        if name == "oracularize":
            return tr.oracularize(base), None
        if name == "introspect":
            return tr.introspect(base), None
        if name == "answer_reduce":
            return tr.answer_reduce(base, _time_budget(name, params)), None
        if name == "gapless_compress":
            return tr.gapless_compress(base, _time_budget(name, params)), None
        raise ValueError(f"unknown transform {name!r}")
    raise ValueError("game document needs 'builtin', 'table' or 'transform'")


def report_to_doc(report: EvaluationReport) -> dict:
    per_pair = {
        label_key(x) + "|" + label_key(y): p
        for (x, y), p in report.per_pair.items()
    }
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
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def machine_to_doc(machine: TuringMachine) -> dict:
    return json.loads(machine.encode())


def machine_from_doc(doc) -> TuringMachine:
    return TuringMachine.decode(doc if isinstance(doc, str) else json.dumps(doc))
