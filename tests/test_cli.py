"""Command-line surface: verbs, exit codes, reproducibility."""

import json
import os
import time

import pytest

from syncgames.cli import run
from syncgames.cooklevin import always_accept_machine
from syncgames.serialize import dumps, machine_to_doc


@pytest.fixture
def ms_files(tmp_path):
    game = tmp_path / "ms.json"
    strategy = tmp_path / "honest.json"
    rc = run(
        [
            "game",
            "show",
            "--builtin",
            "magic_square",
            "--out",
            str(game),
            "--strategy-out",
            str(strategy),
        ]
    )
    assert rc == 0
    return game, strategy


def read(path):
    with open(path) as fh:
        return fh.read()


def incomplete_strategy(strategy, tmp_path):
    """Honest Magic Square strategy file without the first "r1" projector."""
    doc = json.loads(read(strategy))
    zero = [[0.0] * 4 for _ in range(4)]
    # drop the first answer of "r1": a rank-one projector, so the
    # correlations of r1 carry mass 3/4
    doc["measurements"]['"r1"'][0] = {"dim": 4, "re": zero, "im": zero}
    broken = tmp_path / "incomplete.json"
    broken.write_text(dumps(doc))
    return broken


def povm_strategy(strategy, tmp_path):
    """Honest Magic Square strategy file with "s11" measured by (I/2, I/2):
    complete, but not projective."""
    doc = json.loads(read(strategy))
    half = [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)]
    zero = [[0.0] * 4 for _ in range(4)]
    doc["measurements"]['"s11"'] = [{"dim": 4, "re": half, "im": zero}] * 2
    povm = tmp_path / "povm.json"
    povm.write_text(dumps(doc))
    return povm


class TestGameShow:
    def test_document_round_trips(self, ms_files):
        game, _ = ms_files
        doc = json.loads(read(game))
        assert doc == {"builtin": {"kind": "magic_square"}}


class TestEval:
    def test_exact_honest_value(self, ms_files, tmp_path, capsys):
        game, strategy = ms_files
        out = tmp_path / "report.json"
        rc = run(["eval", "--game", str(game), "--strategy", str(strategy), "--out", str(out)])
        assert rc == 0
        doc = json.loads(read(out))
        assert abs(doc["value"] - 1.0) < 1e-10

    def test_sampled_requires_seed(self, ms_files):
        game, strategy = ms_files
        rc = run(["eval", "--game", str(game), "--strategy", str(strategy), "--sample", "100"])
        assert rc == 1

    def test_sampled_reproducible(self, ms_files, tmp_path):
        game, _ = ms_files
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = run(
                [
                    "eval",
                    "--game",
                    str(game),
                    "--strategy",
                    "honest",
                    "--sample",
                    "500",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_sampled_incomplete_strategy_is_validation_error(self, ms_files, tmp_path, capsys):
        game, strategy = ms_files
        broken = incomplete_strategy(strategy, tmp_path)
        rc = run(
            ["eval", "--game", str(game), "--strategy", str(broken), "--sample", "2000", "--seed", "1"]
        )
        assert rc == 1
        assert "not normalized" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_incomplete_strategy_rejected_on_load(self, ms_files, tmp_path, capsys, seed):
        # 20 samples at these seeds draw no nontrivial pair with "r1", so
        # only the check on loading can see the missing projector
        game, strategy = ms_files
        broken = incomplete_strategy(strategy, tmp_path)
        rc = run(
            ["eval", "--game", str(game), "--strategy", str(broken), "--sample", "20", "--seed", seed]
        )
        assert rc == 1
        assert 'question "r1"' in capsys.readouterr().err

    @pytest.mark.parametrize("sample", [[], ["--sample", "2000", "--seed", "1"]])
    def test_non_projective_strategy_is_validation_error(self, ms_files, tmp_path, capsys, sample):
        game, strategy = ms_files
        povm = povm_strategy(strategy, tmp_path)
        rc = run(["eval", "--game", str(game), "--strategy", str(povm), *sample])
        assert rc == 1
        assert "not projective" in capsys.readouterr().err

    def test_verbs_back_to_back_share_no_state(self, ms_files, tmp_path):
        game, strategy = ms_files
        sampled, exact = tmp_path / "sampled.json", tmp_path / "exact.json"
        argv = ["eval", "--game", str(game), "--strategy", str(strategy)]
        assert run([*argv, "--sample", "100", "--seed", "3", "--out", str(sampled)]) == 0
        assert run([*argv, "--out", str(exact)]) == 0
        assert set(json.loads(read(sampled))) == {"estimate", "stderr", "samples", "seed"}
        assert set(json.loads(read(exact))) == {
            "value",
            "trivial_mass",
            "question_count",
            "per_pair",
        }
        # a different verb after them still parses its own defaults only
        resid = tmp_path / "resid.json"
        assert run(["rigidity", "--kind", "ms", "--out", str(resid)]) == 0
        assert json.loads(read(resid))["max_residual"] <= 1e-10

    def test_malformed_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run(["eval", "--game", str(bad), "--strategy", "honest"])
        assert rc == 1


class TestRigidity:
    def test_honest_report(self, tmp_path):
        out = tmp_path / "resid.json"
        rc = run(["rigidity", "--kind", "ms", "--strategy", "honest", "--out", str(out)])
        assert rc == 0
        doc = json.loads(read(out))
        assert doc["max_residual"] <= 1e-10

    def test_qs_kind(self, tmp_path):
        out = tmp_path / "resid.json"
        rc = run(["rigidity", "--kind", "qs", "--n", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(read(out))["max_residual"] <= 1e-10


class TestTransform:
    def test_descriptor_and_lift(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(dumps({"builtin": {"kind": "consistency", "l": 2}}))
        out = tmp_path / "intro.json"
        lift_out = tmp_path / "lift.json"
        rc = run(
            [
                "transform",
                "--transform",
                "introspect",
                "--base",
                str(base),
                "--out",
                str(out),
                "--lift",
                "honest",
                "--lift-out",
                str(lift_out),
            ]
        )
        assert rc == 0
        doc = json.loads(read(out))
        assert doc["transform"] == "introspect"
        lifted = json.loads(read(lift_out))
        assert lifted["dim"] == 32

    @pytest.mark.parametrize(
        "transform, extra",
        [("introspect", []), ("answer_reduce", ["--T", "3", "--lift-out", "lift.json"])],
        ids=["no_lift_out", "answer_reduce"],
    )
    def test_refused_lift_writes_nothing(self, tmp_path, capsys, transform, extra):
        # a lift without --lift-out, or over a proof-indexed question space,
        # is refused before the game document is written
        base = tmp_path / "base.json"
        base.write_text(dumps({"builtin": {"kind": "consistency", "l": 2}}))
        out = tmp_path / "out.json"
        extra = [str(tmp_path / a) if a.endswith(".json") else a for a in extra]
        rc = run(
            ["transform", "--transform", transform, "--base", str(base), "--out", str(out),
             "--lift", "honest", *extra]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "lift.json").exists()

    def test_answer_reduce_requires_T(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(dumps({"builtin": {"kind": "consistency", "l": 2}}))
        rc = run(["transform", "--transform", "answer_reduce", "--base", str(base)])
        assert rc == 1

    def test_answer_reduce_descriptor(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(dumps({"builtin": {"kind": "trivial", "l": 2}}))
        out = tmp_path / "ans.json"
        rc = run(
            [
                "transform",
                "--transform",
                "answer_reduce",
                "--base",
                str(base),
                "--T",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(read(out))
        assert doc["params"] == {"T": 3}


class TestTimeBudget:
    """T of a transform document is a JSON integer in 1..64, checked before
    the transform is built, and --T reaches the same check."""

    BASE = {"builtin": {"kind": "consistency", "l": 2}}

    @pytest.mark.parametrize(
        "transform, params",
        [("answer_reduce", {"T": "4"}), ("answer_reduce", {"T": 2.9}),
         ("answer_reduce", {"T": True}), ("answer_reduce", {"T": None}),
         ("answer_reduce", {}), ("gapless_compress", {"T": 0}),
         ("gapless_compress", {"T": 65})],
        ids=["string", "float", "bool", "null", "missing", "zero", "above_cap"],
    )
    def test_document_refused(self, tmp_path, capsys, transform, params):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"transform": transform, "params": params, "base": self.BASE}))
        start = time.perf_counter()
        rc = run(["eval", "--game", str(path), "--strategy", "honest"])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {transform} field 'T'") and "1..64" in err, err

    @pytest.mark.parametrize("T", ["0", "65"])
    def test_cli_T_refused(self, tmp_path, capsys, T):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(self.BASE))
        out = tmp_path / "out.json"
        start = time.perf_counter()
        rc = run(["transform", "--transform", "answer_reduce", "--base", str(base), "--T", T,
                  "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: answer_reduce field 'T'") and "1..64" in err, err


class TestAnswerReducedEnumeration:
    """Verbs that enumerate every question refuse an answer-reduced game
    (213,932,400 questions here) instead of walking it."""

    @pytest.mark.parametrize(
        "argv",
        [["ncpo"], ["classical"], ["seesaw", "--dim", "2", "--seed", "1"],
         ["eval", "--strategy", "{strategy}"]],
        ids=["ncpo", "classical", "seesaw", "eval_strategy_file"],
    )
    def test_refused_with_budget_message(self, tmp_path, capsys, argv):
        game = tmp_path / "ans.json"
        game.write_text(json.dumps({
            "transform": "answer_reduce", "params": {"T": 4},
            "base": {"builtin": {"kind": "consistency", "l": 2}},
        }))
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"dim": 1, "measurements": {}}))
        argv = [a.format(strategy=strategy) for a in argv]
        start = time.perf_counter()
        rc = run([argv[0], "--game", str(game), *argv[1:]])
        assert time.perf_counter() - start < 5.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: enumerating 213,932,400 answer-reduced questions"), err


class TestTableDiagonal:
    def test_eval_refuses_diagonal_entry(self, tmp_path, capsys):
        """At dimension 1 the strategy answers 0 everywhere; a table that
        lists ("x", "x") is refused instead of evaluated."""
        game = tmp_path / "table.json"
        game.write_text(json.dumps({"table": {
            "name": "diag",
            "questions": ["x", "y"],
            "answers": {'"x"': [0, 1], '"y"': [0, 1]},
            "nontrivial_pairs": [["x", "x"]],
            "accept": {'["x","x"]': [[0, 1], [1, 0]]},
        }}))
        one = {"dim": 1, "re": [[1.0]], "im": [[0.0]]}
        zero = {"dim": 1, "re": [[0.0]], "im": [[0.0]]}
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(
            {"dim": 1, "measurements": {'"x"': [one, zero], '"y"': [one, zero]}}
        ))
        rc = run(["eval", "--game", str(game), "--strategy", str(strategy)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "('x', 'x')" in err, err


class TestCooklevin:
    @pytest.fixture
    def machine_file(self, tmp_path):
        path = tmp_path / "machine.json"
        path.write_text(dumps(machine_to_doc(always_accept_machine())))
        return path

    def test_compile_dimacs(self, machine_file, tmp_path):
        out = tmp_path / "out.cnf"
        rc = run(
            ["cooklevin", "compile", "--machine", str(machine_file), "--T", "1", "--R", "1", "--out", str(out)]
        )
        assert rc == 0
        assert read(out).startswith("p cnf ")

    def test_clause_null_token(self, machine_file, tmp_path):
        out = tmp_path / "c.txt"
        rc = run(
            [
                "cooklevin",
                "clause",
                "--machine",
                str(machine_file),
                "--T",
                "1",
                "--R",
                "1",
                "--i",
                "1",
                "--j",
                "1",
                "--k",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert read(out) == "null\n"

    def test_witness(self, machine_file, tmp_path):
        out = tmp_path / "w.json"
        rc = run(
            ["cooklevin", "witness", "--machine", str(machine_file), "--T", "2", "--w", "10", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(read(out))
        assert doc["bits"][:2] == [1, 0]


ACCEPT_MACHINE = machine_to_doc(always_accept_machine())


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc, argv",
        [
            (ACCEPT_MACHINE, ["cooklevin", "clause", "--machine", "{}", "--T", "1", "--R", "1",
                              "--i", "0", "--j", "1", "--k", "1"]),
            (5, ["eval", "--game", "{}", "--strategy", "honest"]),
            ({"builtin": {"kind": "two_of_n_ms", "n": None}},
             ["eval", "--game", "{}", "--strategy", "honest"]),
            ({**ACCEPT_MACHINE, "delta": 5},
             ["cooklevin", "compile", "--machine", "{}", "--T", "1", "--R", "1"]),
        ],
        ids=["clause_index_0", "game_number", "builtin_null_n", "machine_delta_number"],
    )
    def test_exits_1_with_message(self, tmp_path, capsys, doc, argv):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        rc = run([a.format(path) for a in argv])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestBuiltinBounds:
    """Sizes of builtin games are JSON integers within one table of bounds."""

    @pytest.mark.parametrize(
        "spec, field, span",
        [
            ({"kind": "two_of_n_ms", "n": 2.5}, "'n'", "{2, 3, 4}"),
            ({"kind": "two_of_n_ms", "n": 2.0}, "'n'", "{2, 3, 4}"),
            ({"kind": "two_of_n_ms", "n": True}, "'n'", "{2, 3, 4}"),
            ({"kind": "two_of_n_ms", "n": 100000}, "'n'", "{2, 3, 4}"),
            ({"kind": "two_of_n_ms"}, "'n'", "{2, 3, 4}"),
            ({"kind": "question_sampling", "n": 3}, "'n'", "{2, 4}"),
            ({"kind": "question_sampling", "n": 6}, "'n'", "{2, 4}"),
            ({"kind": "trivial", "l": "3"}, "'l'", "{0, 1, 2, 3, 4, 5, 6, 7, 8}"),
            ({"kind": "consistency", "l": 9}, "'l'", "{0, 1, 2, 3, 4, 5, 6, 7, 8}"),
            ({"kind": "forbidden_pair", "l": 0}, "'l'", "{1, 2, 3, 4, 5, 6, 7, 8}"),
        ],
        ids=["float_n", "integral_float_n", "bool_n", "huge_n", "missing_n", "odd_qs_n",
             "large_qs_n", "string_l", "large_l", "forbidden_pair_l0"],
    )
    def test_builtin_document_refused(self, tmp_path, capsys, spec, field, span):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"builtin": spec}))
        start = time.perf_counter()
        rc = run(["eval", "--game", str(path), "--strategy", "honest", "--sample", "10",
                  "--seed", "1"])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and span in err, err

    @pytest.mark.parametrize(
        "kind, n, span", [("two_of_n", 5, "{2, 3, 4}"), ("two_of_n", 1, "{2, 3, 4}"),
                          ("qs", 3, "{2, 4}")],
    )
    def test_rigidity_n_refused(self, capsys, kind, n, span):
        rc = run(["rigidity", "--kind", kind, "--n", str(n)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'n'" in err and span in err, err

    def test_bounds_admit_the_smallest_games(self, tmp_path):
        for spec in ({"kind": "trivial", "l": 0}, {"kind": "forbidden_pair", "l": 1},
                     {"kind": "two_of_n_ms", "n": 2}):
            path = tmp_path / "game.json"
            path.write_text(json.dumps({"builtin": spec}))
            rc = run(["eval", "--game", str(path), "--strategy", "honest", "--sample", "10",
                      "--seed", "1"])
            assert rc == 0, spec


class TestOptimizeCommands:
    def test_seesaw_requires_seed(self, ms_files):
        game, _ = ms_files
        rc = run(["seesaw", "--game", str(game), "--dim", "2"])
        assert rc == 2  # argparse usage error

    def test_seesaw_and_trace(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(dumps({"builtin": {"kind": "consistency", "l": 2}}))
        out = tmp_path / "strategy.json"
        trace = tmp_path / "trace.csv"
        rc = run(
            [
                "seesaw",
                "--game",
                str(base),
                "--dim",
                "2",
                "--restarts",
                "2",
                "--iters",
                "10",
                "--seed",
                "1",
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        assert json.loads(read(out))["value"] == pytest.approx(1.0, abs=1e-9)
        assert read(trace).splitlines()[0] == "restart,iteration,value"

    def test_classical(self, ms_files, tmp_path):
        game, _ = ms_files
        out = tmp_path / "classical.json"
        rc = run(["classical", "--game", str(game), "--out", str(out)])
        assert rc == 0
        assert json.loads(read(out))["value"] == pytest.approx(223 / 225, abs=1e-15)


class TestNcpo:
    def test_program_emission(self, ms_files, tmp_path):
        game, _ = ms_files
        out = tmp_path / "prog.txt"
        rc = run(["ncpo", "--game", str(game), "--out", str(out)])
        assert rc == 0
        text = read(out)
        assert text.startswith("ncpo 1\n") and text.endswith("end\n")

    def test_byte_identical_reruns(self, ms_files, tmp_path):
        game, _ = ms_files
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["ncpo", "--game", str(game), "--out", str(a)]) == 0
        assert run(["ncpo", "--game", str(game), "--out", str(b)]) == 0
        assert read(a) == read(b)
