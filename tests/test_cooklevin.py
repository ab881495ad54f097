"""Turing simulation, tableau compilation, local clause access, SAT oracles."""

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

from syncgames.cooklevin import (
    BLANK,
    Assignment,
    CNF,
    TableauLayout,
    TuringMachine,
    always_accept_machine,
    always_reject_machine,
    backtrack_models,
    check_assignment,
    clause_access,
    compile_cnf,
    equality_machine,
    pad_states,
    prefix_predicate_machine,
    simulate,
    tableau_assignment,
    witness_to_assignment,
)
from syncgames.serialize import cnf_to_dimacs, machine_from_doc, machine_to_doc

from helpers import brute_force_sat, enumerate_models


def parity_machine() -> TuringMachine:
    """3-bit even-parity prefix machine."""
    table = {bits: sum(bits) % 2 == 0 for bits in itertools.product((0, 1), repeat=3)}
    return prefix_predicate_machine(table, 3)


def parity_decider() -> TuringMachine:
    """The parity machine padded to 9 states, as deciders are."""
    return pad_states(parity_machine(), 9)


def clauses_within(cnf: CNF):
    """triple -> the formula's clauses over its variables, order kept, deduplicated."""
    by_vars = {}
    for n, clause in enumerate(cnf.clauses):
        by_vars.setdefault(frozenset(abs(lit) for lit in clause), []).append((n, clause))

    def within(triple):
        subsets = (frozenset(sub) for r in (1, 2, 3) for sub in itertools.combinations(set(triple), r))
        hits = sorted(hit for sub in subsets for hit in by_vars.get(sub, ()))
        return list(dict.fromkeys(clause for _, clause in hits)) or None

    return within


class TestSimulate:
    def test_always_accept(self):
        outcome, rows = simulate(always_accept_machine(), [0], 1)
        assert outcome == "accept"
        assert len(rows) == 2

    def test_always_reject(self):
        outcome, _ = simulate(always_reject_machine(), [1, 0], 3)
        assert outcome == "reject"

    def test_timeout(self):
        # a machine that walks right forever
        delta = {("go", s): ("go", s, "R") for s in (0, 1, BLANK)}
        delta.update({("acc", s): ("acc", s, "S") for s in (0, 1, BLANK)})
        delta.update({("rej", s): ("rej", s, "S") for s in (0, 1, BLANK)})
        walker = TuringMachine(("go", "acc", "rej"), "go", "acc", "rej", delta)
        outcome, _ = simulate(walker, [0, 1], 5)
        assert outcome == "timeout"

    def test_equality_machine_hand_trace(self):
        eq = equality_machine()
        # independent oracle: hand-written configuration sequence on input 11
        outcome, rows = simulate(eq, [1, 1], 3)
        assert outcome == "accept"
        p = max(2, 4)
        assert rows[0] == ("s", 0, (1, 1, BLANK, BLANK))
        assert rows[1] == ("saw1", 1, (1, 1, BLANK, BLANK))
        assert rows[2] == ("acc", 1, (1, 1, BLANK, BLANK))
        assert rows[3] == rows[2]
        outcome, rows = simulate(eq, [0, 1], 3)
        assert outcome == "reject"
        assert rows[1] == ("saw0", 1, (0, 1, BLANK, BLANK))
        assert rows[2][0] == "rej"


class TestCompile:
    def test_always_accept_every_witness_extends_uniquely(self):
        m = always_accept_machine()
        cnf = compile_cnf(m, 3, 2)
        models = backtrack_models(cnf)
        prefixes = sorted({a.bits[:2] for a in models})
        assert prefixes == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(models) == 4  # one extension per witness

    def test_always_reject_unsatisfiable(self):
        cnf = compile_cnf(always_reject_machine(), 1, 1)
        assert brute_force_sat(cnf) is None

    def test_equality_machine_satisfying_prefixes(self):
        eq = equality_machine()
        cnf = compile_cnf(eq, 3, 2)
        models = backtrack_models(cnf)
        prefixes = sorted({a.bits[:2] for a in models})
        assert prefixes == [(0, 0), (1, 1)]
        assert len(models) == 2
        for w, accepts in (((0, 0), True), ((0, 1), False), ((1, 0), False), ((1, 1), True)):
            outcome, assignment = tableau_assignment(eq, 3, w)
            assert (outcome == "accept") == accepts
            ok, violated = check_assignment(cnf, assignment)
            assert ok == accepts
            if not accepts:
                acc_var = cnf.layout.state(cnf.layout.T, eq.accept)
                assert violated == (acc_var, acc_var, acc_var)

    @pytest.mark.parametrize(
        "machine, T, R, digest",
        [
            (equality_machine, 16, 2,
             "eef8cd5170b1721c8d1d5924392e04ac0f072732742fff1a3e4eaca14c375116"),
            (parity_decider, 8, 3,
             "7ba5ae453faeb70621c51ed402cf2c19018475978d2a6d1001e516fa6d08c7c7"),
        ],
    )
    def test_dimacs_digest_pinned(self, machine, T, R, digest):
        text = cnf_to_dimacs(compile_cnf(machine(), T, R))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_witness_bits_come_first(self):
        m = always_accept_machine()
        asg = witness_to_assignment(m, 2, [1, 0])
        assert asg.bits[:2] == (1, 0)


class TestClauseAccess:
    def test_no_clause_triple_is_null(self):
        m = always_accept_machine()
        assert clause_access(m, 1, 1, 1, 1, 1) is None

    def test_exhaustive_equivalence_tiny(self):
        m = always_accept_machine()
        cnf = compile_cnf(m, 1, 1)
        full = set(cnf.clauses)
        union = set()
        L = cnf.num_vars
        for i, j, k in itertools.combinations_with_replacement(range(1, L + 1), 3):
            found = clause_access(m, 1, 1, i, j, k)
            if found:
                union.update(found)
        assert union == full

    def test_exhaustive_equivalence_reject_machine(self):
        m = always_reject_machine()
        cnf = compile_cnf(m, 2, 2)
        full = set(cnf.clauses)
        union = set()
        L = cnf.num_vars
        for i, j, k in itertools.combinations_with_replacement(range(1, L + 1), 3):
            found = clause_access(m, 2, 2, i, j, k)
            if found:
                union.update(found)
        assert union == full

    def test_clause_sets_covered_by_own_triples(self):
        # every clause of a larger instance is recovered by querying the
        # triple of its own variables
        eq = equality_machine()
        cnf = compile_cnf(eq, 4, 2)
        for clause in cnf.clauses[::7]:
            vs = sorted({abs(l) for l in clause})
            while len(vs) < 3:
                vs.append(vs[-1])
            found = clause_access(eq, 4, 2, *vs)
            assert found is not None and clause in found

    def test_no_invented_clauses(self):
        eq = equality_machine()
        cnf = compile_cnf(eq, 3, 2)
        full = set(cnf.clauses)
        rng = np.random.default_rng(5)
        for _ in range(300):
            i, j, k = (int(v) for v in rng.integers(1, cnf.num_vars + 1, size=3))
            found = clause_access(eq, 3, 2, i, j, k)
            for clause in found or ():
                assert clause in full
                assert {abs(l) for l in clause} <= {i, j, k}

    @pytest.mark.parametrize(
        "machine, T, R",
        [
            (always_accept_machine, 2, 2),
            (always_reject_machine, 3, 1),
            (equality_machine, 4, 2),
            (equality_machine, 3, 3),
            (parity_decider, 4, 3),
        ],
    )
    def test_exact_list_per_triple(self, machine, T, R):
        # clause_access must return exactly the filtered formula, triple by
        # triple: same clauses, same order, no duplicates
        m = machine()
        cnf = compile_cnf(m, T, R)
        L = cnf.num_vars
        rng = np.random.default_rng([T, R, L])
        triples = [tuple(int(v) for v in rng.integers(1, L + 1, size=3)) for _ in range(300)]
        triples += [(v, min(v + a, L), min(v + b, L))
                    for v in range(1, L + 1) for a, b in ((1, 2), (1, 3), (2, 5))]
        for clause in cnf.clauses:
            vs = sorted({abs(lit) for lit in clause})
            triples.append(tuple(vs + [vs[-1]] * (3 - len(vs))))
            triples.append(tuple(vs + [int(v) for v in rng.integers(1, L + 1, size=3 - len(vs))]))
        expected = clauses_within(cnf)
        for triple in triples:
            assert clause_access(m, T, R, *triple) == expected(triple), triple

    def test_determinism_clause_spot_check(self):
        # transition firing at t=1, pos=0: state & hp imply the written symbol
        m = equality_machine()
        layout = TableauLayout(m, 3, 2)
        q2, s2, mv = m.transition[("s", 0)]
        sv = layout.state(1, "s")
        hv = layout.hp(1, 0, 0)
        conseq = layout.sym(2, 0, s2)
        found = clause_access(m, 3, 2, sv, hv, conseq)
        assert found is not None
        assert (-sv, -hv, conseq) in found

    def test_polylog_trend_under_doubling_T(self):
        # wall time per query grows far slower than the variable count
        m = equality_machine()
        rng = np.random.default_rng(11)
        times = {}
        sizes = {}
        for T in (8, 16, 32, 64):
            layout = TableauLayout(m, T, 2)
            sizes[T] = layout.num_vars
            queries = [
                tuple(int(v) for v in rng.integers(1, layout.num_vars + 1, size=3))
                for _ in range(60)
            ]
            start = time.perf_counter()
            for i, j, k in queries:
                clause_access(m, T, 2, i, j, k)
            times[T] = (time.perf_counter() - start) / len(queries)
        assert sizes[64] > 30 * sizes[8]
        # generous trend bound: an 8x variable growth must not cost 8x time
        assert times[64] <= 6 * times[8] + 1e-3


class TestAssignments:
    def test_empty_formula_accepts(self):
        cnf = CNF(3, [])
        ok, violated = check_assignment(cnf, Assignment((0, 1, 0)))
        assert ok and violated is None

    def test_witness_round_trip(self):
        m = always_accept_machine()
        cnf = compile_cnf(m, 2, 2)
        for w in ((0, 0), (0, 1), (1, 0), (1, 1)):
            asg = witness_to_assignment(m, 2, w)
            assert check_assignment(cnf, asg) == (True, None)

    def test_bit_flip_sweep_violates(self):
        m = always_accept_machine()
        cnf = compile_cnf(m, 2, 1)
        asg = witness_to_assignment(m, 2, [1])
        for pos in range(cnf.num_vars):
            flipped = list(asg.bits)
            flipped[pos] ^= 1
            ok, violated = check_assignment(cnf, Assignment(tuple(flipped)))
            assert not ok
            assert violated in cnf.clauses

    @pytest.mark.parametrize(
        "clauses, message",
        [([(1, 2)], "width exactly 3"), ([(1, 0, 2)], "literal 0 out of range"),
         ([(1, 2, -4)], "literal -4 out of range")],
        ids=["width", "zero_literal", "beyond_num_vars"],
    )
    def test_hand_built_formula_checked(self, clauses, message):
        with pytest.raises(ValueError, match=message):
            CNF(3, clauses)

    def test_length_mismatch_rejected(self):
        cnf = CNF(3, [])
        with pytest.raises(ValueError):
            check_assignment(cnf, Assignment((0, 1)))

    def test_non_accepting_witness_rejected(self):
        with pytest.raises(ValueError):
            witness_to_assignment(equality_machine(), 3, [0, 1])


def reference_assignment_from_rows(layout: TableauLayout, rows) -> Assignment:
    """The per-variable body of cooklevin._assignment_from_rows before its
    block offsets were hoisted, kept verbatim as the reference."""
    mach, T, R, P = layout.machine, layout.T, layout.R, layout.P
    bits = [0] * layout.num_vars
    state0, head0, tape0 = rows[0]
    for r in range(R):
        bits[r] = 1 if tape0[r] == 1 else 0
    for t in range(1, T + 1):
        state, head, tape = rows[t]
        for pos in range(P):
            bits[layout.sym(t, pos, tape[pos]) - 1] = 1
        bits[layout.head(t, head) - 1] = 1
        bits[layout.state(t, state) - 1] = 1
        if t < T:
            bits[layout.hp(t, head, tape[head]) - 1] = 1
    return Assignment(tuple(bits))


class TestTableauAssignment:
    MACHINES = {
        "equality": equality_machine,
        "parity": parity_machine,
        "parity_padded": parity_decider,
        "equality_padded": lambda: pad_states(equality_machine(), 9),
    }

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_matches_reference(self, name):
        """Every witness of length 1..4 at T in {1, 2, 3, 5, 8} gives the
        reference's bits, as plain ints, on accepting, rejecting and
        timed-out runs alike."""
        machine = self.MACHINES[name]()
        outcomes = set()
        for T in (1, 2, 3, 5, 8):
            for n in range(1, 5):
                layout = TableauLayout(machine, T, n)
                for w in itertools.product((0, 1), repeat=n):
                    outcome, assignment = tableau_assignment(machine, T, w)
                    _, rows = simulate(machine, w, T)
                    assert assignment == reference_assignment_from_rows(layout, rows)
                    assert {type(b) for b in assignment.bits} == {int}
                    outcomes.add(outcome)
        assert outcomes == {"accept", "reject", "timeout"}


class TestBruteForce:
    def test_unit_clause(self):
        cnf = CNF(1, [(1, 1, 1)])
        assert brute_force_sat(cnf) == Assignment((1,))

    def test_opposite_units_unsat(self):
        cnf = CNF(1, [(1, 1, 1), (-1, -1, -1)])
        assert brute_force_sat(cnf) is None

    def test_lexicographic_order(self):
        # (x1 or x2): lexicographically first model is 01
        cnf = CNF(2, [(1, 2, 2)])
        assert brute_force_sat(cnf) == Assignment((0, 1))

    def test_cap_enforced(self):
        cnf = CNF(30, [(1, 1, 1)])
        with pytest.raises(ValueError):
            brute_force_sat(cnf)

    def test_agrees_with_witness_embedding(self):
        m = always_accept_machine()
        cnf = compile_cnf(m, 1, 1)
        found = brute_force_sat(cnf, cap=cnf.num_vars)
        expected = witness_to_assignment(m, 1, [0])
        assert found == expected  # witness 0 is lexicographically first


class TestUniqueness:
    def test_unique_extension_per_witness_at_small_l(self):
        m = always_accept_machine()
        cnf = compile_cnf(m, 1, 1)
        assert cnf.num_vars <= 24
        models = enumerate_models(cnf, cap=24)
        by_witness = {}
        for a in models:
            by_witness.setdefault(a.bits[0], []).append(a)
        assert set(by_witness) == {0, 1}
        assert all(len(v) == 1 for v in by_witness.values())


class TestMachines:
    def test_transition_totality_enforced(self):
        with pytest.raises(ValueError):
            TuringMachine(("a", "b"), "a", "a", "b", {})

    def test_pad_states(self):
        m = always_accept_machine()
        padded = pad_states(m, 6)
        assert len(padded.states) == 6
        assert simulate(padded, [1], 2)[0] == "accept"

    def test_prefix_predicate_machine(self):
        table = {bits: bits[0] == bits[2] for bits in itertools.product((0, 1), repeat=3)}
        m = prefix_predicate_machine(table, 3)
        for bits, expect in table.items():
            outcome, _ = simulate(m, list(bits) + [0], 4)
            assert (outcome == "accept") == expect

    def test_prefix_machine_runtime_bound(self):
        table = {bits: sum(bits) % 2 == 0 for bits in itertools.product((0, 1), repeat=5)}
        m = prefix_predicate_machine(table, 5)
        for bits in itertools.product((0, 1), repeat=5):
            outcome, _ = simulate(m, list(bits), 5)
            assert outcome in ("accept", "reject")

    def test_encode_decode_round_trip(self):
        m = equality_machine()
        assert machine_from_doc(json.loads(json.dumps(machine_to_doc(m)))) == m
