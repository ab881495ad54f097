"""Wire formats: JSON round trips, byte stability, DIMACS."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames.builtins import (
    MS_EQUATIONS,
    MS_VARIABLES,
    consistency_game,
    forbidden_pair_game,
    magic_square,
    question_sampling,
    two_of_n_ms,
)
from syncgames.cli import run
from syncgames.cooklevin import CNF, compile_cnf, equality_machine
from syncgames.games import value
from syncgames.serialize import (
    cnf_to_dimacs,
    dumps,
    game_from_doc,
    label_key,
    machine_from_doc,
    machine_to_doc,
    matrix_from_doc,
    matrix_to_doc,
    report_to_doc,
    residuals_to_doc,
    strategy_from_doc,
    strategy_to_doc,
)
from syncgames.optimize import perturb_strategy
from syncgames.rigidity import ms_residuals
from syncgames.transform import introspect, lift_introspection, lift_oracularize, oracularize

from helpers import rng_for


class TestPrimitives:
    def test_matrix_round_trip(self):
        rng = rng_for("ser", 0)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        doc = matrix_to_doc(m)
        again = matrix_from_doc(json.loads(dumps(doc)))
        assert np.array_equal(again, m)

    def test_seventeen_digit_floats(self):
        text = dumps({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_byte_identical_dumps(self):
        game, strategy = magic_square()
        doc1 = dumps(strategy_to_doc(strategy, list(game.questions)))
        doc2 = dumps(strategy_to_doc(strategy, list(game.questions)))
        assert doc1 == doc2


def reference_dumps(doc) -> str:
    """The one-float-at-a-time renderer that `dumps` must match byte for byte."""

    def render(node) -> str:
        if isinstance(node, np.ndarray):
            return render(node.tolist())
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
            x = float(node)
            if x != x or x in (float("inf"), float("-inf")):
                raise ValueError("cannot serialize non-finite numbers")
            return format(x, ".17g")
        if node is None:
            return "null"
        return json.dumps(str(node))

    return render(doc) + "\n"


SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0, -3.0, 2.0**52, 1 / 3)


# finite in float32 too, with float64 and float32 subnormals
ENTRIES = st.one_of(
    st.sampled_from(SPECIAL_FLOATS[:5] + SPECIAL_FLOATS[7:]),
    st.floats(-3e38, 3e38),
    st.floats(-(2.0**-126), 2.0**-126, width=32),
    st.floats(-3e-308, 3e-308),
)


@st.composite
def repeated_row_docs(draw):
    """A document of several matrices of a few widths (zero included), with
    rows drawn from a small pool per width, so they repeat within and across
    matrices, and each pool holding a row with -0.0 and its twin with 0.0."""
    widths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    pools = {}
    for w in widths:
        rows = draw(st.lists(st.lists(ENTRIES, min_size=w, max_size=w), min_size=1, max_size=3))
        pools[w] = rows + ([[-0.0, *rows[0][1:]], [0.0, *rows[0][1:]]] if w else [])
    matrices = []
    for _ in range(draw(st.integers(1, 5))):
        w = draw(st.sampled_from(widths))
        rows = draw(st.lists(st.sampled_from(pools[w]), max_size=6))
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        matrices.append(np.array(rows, dtype=dtype).reshape(len(rows), w))
    return {"dim": len(matrices), "elements": matrices, "again": matrices[:1]}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=repeated_row_docs())
def test_repeated_rows_match_reference_renderer(doc):
    assert dumps(doc) == reference_dumps(doc)
    last = doc["elements"][-1]
    if last.size:
        # every row of the poisoned matrix may have been rendered before
        poisoned = last.copy()
        poisoned[-1, -1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            dumps({**doc, "elements": doc["elements"][:-1] + [poisoned]})


def test_empty_matrices_render_as_before():
    doc = {"cols": np.zeros((2, 0)), "rows": np.zeros((0, 3)), "f32": np.zeros((1, 0), np.float32)}
    assert dumps(doc) == '{"cols": [[], []], "rows": [], "f32": [[]]}\n' == reference_dumps(doc)


class TestBulkRendering:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_renderer(self, seed):
        rng = rng_for("bulk", seed)
        d = int(rng.integers(1, 9))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m *= 10.0 ** rng.integers(-20, 20, size=(d, d))
        flat = m.reshape(-1)
        picks = rng.integers(0, flat.size, size=min(flat.size, 2 * len(SPECIAL_FLOATS)))
        for k, pos in enumerate(picks):
            special = SPECIAL_FLOATS[k % len(SPECIAL_FLOATS)]
            if k % 2:
                flat[pos] = complex(flat[pos].real, special)
            else:
                flat[pos] = complex(special, flat[pos].imag)
        doc = {"dim": d, "elements": [matrix_to_doc(m), matrix_to_doc(m.conj())], "x": 0.5}
        assert dumps(doc) == reference_dumps(doc)

    def test_special_values_render_exactly(self):
        m = np.array([list(SPECIAL_FLOATS)] * 2)
        text = dumps({"m": m})
        assert text == reference_dumps({"m": m})
        assert text.startswith('{"m": [[-0, 0, 4.9406564584124654e-324, ')

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"x": bad})
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(0.0, bad)
        with pytest.raises(ValueError, match="non-finite"):
            dumps(matrix_to_doc(m))

    def test_longdouble_past_float64_rejected(self):
        # finite as an x86 longdouble, inf in the float64 that would be written
        m = np.array([[np.longdouble("1e400"), 1]], dtype=np.longdouble)
        with pytest.raises(ValueError, match="cannot serialize non-finite numbers"):
            dumps({"m": m})

    def test_float32_rows_keyed_as_float64(self):
        # the bytes of the float32 row are those of a finite float64 row of width 2
        f32 = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        doc = {"f64": f32.view(np.float64), "f32": f32}
        assert dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--builtin", "magic_square"],
                "d0e318df29fec9197ce854a3299c58273c0439cd0085d879e98fbbf18ff2e53c",
            ),
            (
                ["--builtin", "two_of_n_ms", "--n", "2"],
                "1a5118b5f8ece54e81aecdd5415b06deca281aa358add5b0fe0beffe2d841c44",
            ),
        ],
    )
    def test_strategy_export_bytes_pinned(self, argv, digest, tmp_path):
        out = tmp_path / "strategy.json"
        rc = run(["game", "show", *argv, "--out", str(tmp_path / "game.json"),
                  "--strategy-out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestStrategyDocs:
    def test_round_trip_preserves_value(self):
        game, strategy = magic_square()
        doc = json.loads(dumps(strategy_to_doc(strategy, list(game.questions))))
        again = strategy_from_doc(doc, game)
        assert value(game, again).value == pytest.approx(1.0, abs=1e-10)

    def test_tuple_question_keys(self):
        game, strategy = two_of_n_ms(2)
        qs = list(game.questions)[:3]
        doc = strategy_to_doc(strategy, qs)
        for q in qs:
            assert label_key(q) in doc["measurements"]


class TestGameDocs:
    def test_builtin_docs(self):
        for doc in (
            {"builtin": {"kind": "magic_square"}},
            {"builtin": {"kind": "two_of_n_ms", "n": 2}},
            {"builtin": {"kind": "question_sampling", "n": 2}},
            {"builtin": {"kind": "consistency", "l": 2}},
        ):
            game, honest = game_from_doc(doc)
            assert honest is not None
            assert len(game.questions) > 0

    def test_table_doc(self):
        doc = {
            "table": {
                "name": "pairgame",
                "questions": ["x", "y"],
                "answers": {label_key("x"): [0, 1], label_key("y"): [0, 1]},
                "nontrivial_pairs": [["x", "y"]],
                "accept": {label_key(("x", "y")): [[0, 0], [1, 1]]},
            }
        }
        game, honest = game_from_doc(doc)
        assert honest is None
        assert game.nontrivial("x", "y")
        assert game.decide("x", "y", 0, 0)
        assert not game.decide("x", "y", 0, 1)

    def test_transform_doc_recursion(self):
        doc = {
            "transform": "introspect",
            "params": {},
            "base": {"builtin": {"kind": "consistency", "l": 2}},
        }
        game, _ = game_from_doc(doc)
        assert len(game.questions) == 461

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            game_from_doc({"builtin": {"kind": "nope"}})


class TestReports:
    def test_report_doc(self):
        game, strategy = magic_square()
        report = value(game, strategy)
        doc = json.loads(dumps(report_to_doc(report)))
        assert doc["value"] == pytest.approx(1.0, abs=1e-10)
        assert len(doc["per_pair"]) == len(report.per_pair)

    def test_residual_doc(self):
        _, strategy = magic_square()
        doc = json.loads(dumps(residuals_to_doc(ms_residuals(strategy))))
        assert set(doc) == {"relations", "max_residual", "value_deficit"}


def perturbed(game, strategy):
    """Perturbation at magnitude 0.05 and seed 7, in the game's question order."""
    return perturb_strategy(strategy, 0.05, 7, list(game.questions))


def _pinned_magic_square():
    """Perturbed in cells-then-equations order, the order honest
    magic_square() builds its measurements in, not the game's."""
    game, honest = magic_square()
    return game, perturb_strategy(honest, 0.05, 7, MS_VARIABLES + tuple(MS_EQUATIONS))


def _pinned_perturbed(make):
    def build():
        game, honest = make()
        return game, perturbed(game, honest)

    return build


def _pinned_lift(transform, lift, make):
    def build():
        base, honest = make()
        game = transform(base)
        return game, perturbed(game, lift(base, honest))

    return build


# sha256 of dumps(report_to_doc(value(game, strategy))); exact evaluation
# and the report format must keep these bytes
PINNED_REPORTS = {
    "magic_square": (
        _pinned_magic_square,
        "0a2440eecd99c996bbb0d98910d6180dadd7c0cf87ef57742b2498a64ae70c53",
    ),
    "forbidden_pair_2_honest": (
        lambda: forbidden_pair_game(2),
        "b052320f97353c311cb2623b6c65c31a76606d1bbc1cca82efb0ef4c27e8f13b",
    ),
    "two_of_2_ms": (
        _pinned_perturbed(lambda: two_of_n_ms(2)),
        "eb15e201b4e24c4ba26cc486082a13c2fbb508ba601647db736d448ecfe5ec53",
    ),
    "question_sampling_2": (
        _pinned_perturbed(lambda: question_sampling(2)),
        "01dcecc19dd65a76f1c4cbd7cb85797d7025a673dba45ff830ec7d769ba23749",
    ),
    "magic_square.orac": (
        _pinned_lift(oracularize, lift_oracularize, magic_square),
        "be85661c7134b4b868c7a74c38b023292dbfa3b331139d5d5ac0c41aa5bc55a6",
    ),
    "consistency_2.intro": (
        _pinned_lift(introspect, lift_introspection, lambda: consistency_game(2)),
        "80702186e78897b6cc41d7e7d70dd2b38dc55acb8d87147d3a130f7cd6aff8a1",
    ),
    # a base with trivial pairs: the transcript question I reports their
    # designated answers
    "forbidden_pair_2.intro": (
        _pinned_lift(introspect, lift_introspection, lambda: forbidden_pair_game(2)),
        "36c49bc22acc56b8eab0f5e26c5f511417a10ff83e9641c47fc4b11826e7947c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report_digest(name):
    build, digest = PINNED_REPORTS[name]
    game, strategy = build()
    text = dumps(report_to_doc(value(game, strategy)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDimacsAndMachines:
    def test_dimacs_header_and_shape(self):
        cnf = compile_cnf(equality_machine(), 3, 2)
        text = cnf_to_dimacs(cnf)
        lines = text.strip().split("\n")
        assert lines[0] == f"p cnf {cnf.num_vars} {len(cnf.clauses)}"
        assert all(line.endswith(" 0") for line in lines[1:])

    @staticmethod
    def literal_dimacs(cnf) -> str:
        """The one-literal-at-a-time writer `cnf_to_dimacs` must match byte for byte."""
        lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
        for clause in cnf.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def test_dimacs_matches_literal_writer(self):
        cnf = CNF(5, [(1, -2, 3)], None)
        # CNF checks width 3 when built; the writer takes any clause length
        cnf.clauses.extend([(), (-4,), (np.int64(5), np.int32(-1)), (-5, 4, np.int16(-3)), ()])
        text = cnf_to_dimacs(cnf)
        assert text == self.literal_dimacs(cnf)
        assert text == "p cnf 5 6\n1 -2 3 0\n 0\n-4 0\n5 -1 0\n-5 4 -3 0\n 0\n"
        compiled = compile_cnf(equality_machine(), 3, 2)
        assert cnf_to_dimacs(compiled) == self.literal_dimacs(compiled)

    def test_machine_doc_round_trip(self):
        m = equality_machine()
        again = machine_from_doc(machine_to_doc(m))
        assert again.states == m.states
        assert again.transition == m.transition
