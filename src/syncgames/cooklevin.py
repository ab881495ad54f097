"""Deterministic Turing machines and their 3SAT tableau encodings.

The machine model is single-tape over {0, 1, blank} with a one-way
infinite tape; moving left at cell 0 stays put.  The tableau encoding
packs, per time step, one-hot cell symbols, a head indicator, a state
indicator and head-and-symbol conjunction variables, with the witness
occupying variables 1..R.  The t=0 row is folded away: the initial
configuration is a known function of the witness, so step one is driven
by clauses keyed directly on witness literals.  Every clause has at most
three distinct variables and is padded to width 3 by repeating its last
literal, so the output is plain 3SAT.

Clause generation enumerates each clause family once, keyed on a kind
of variable that every clause of the family contains.  compile_cnf keys
on the kind's variables at the first time step and tiles each family
over the time steps it spans, by shifting every literal a whole time
step's block of variables per step; clause_access keys on the queried
ones only, so it never materializes the formula and runs in time
independent of the tableau size for a fixed machine.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

__all__ = [
    "BLANK",
    "TuringMachine",
    "CNF",
    "Assignment",
    "TableauLayout",
    "simulate",
    "compile_cnf",
    "clause_access",
    "witness_to_assignment",
    "tableau_assignment",
    "check_assignment",
    "backtrack_models",
    "always_accept_machine",
    "always_reject_machine",
    "equality_machine",
    "prefix_predicate_machine",
    "pad_states",
]

BLANK = "_"
SYMBOLS = (0, 1, BLANK)
_SYM_INDEX = {0: 0, 1: 1, BLANK: 2}
_ONE_HOT = {s: bytes(k == i for k in range(3)) for s, i in _SYM_INDEX.items()}
MOVES = ("L", "R", "S")


@dataclass(frozen=True)
class TuringMachine:
    """Deterministic single-tape machine with absorbing accept/reject."""

    states: tuple[str, ...]
    start: str
    accept: str
    reject: str
    transition: dict = field(hash=False)

    def __post_init__(self):  # each refusal names its document field
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"states lists a state twice: {list(self.states)!r:.60}")
        for name in ("start", "accept", "reject"):
            if getattr(self, name) not in self.states:
                raise ValueError(f"{name} state {getattr(self, name)!r} not in states")
        if self.accept == self.reject:
            raise ValueError(f"accept and reject states must differ, both are {self.accept!r}")
        for q in self.states:
            for s in SYMBOLS:
                if (q, s) not in self.transition:
                    raise ValueError(f"delta has no entry for {(q, s)!r}")
                q2, s2, mv = self.transition[(q, s)]
                if q2 not in self.states or s2 not in SYMBOLS or mv not in MOVES:
                    raise ValueError(f"delta entry for {(q, s)!r} is bad: {(q2, s2, mv)!r}")
        if len(self.transition) != len(self.states) * len(SYMBOLS):
            known = {(q, s) for q in self.states for s in SYMBOLS}
            extra = next(key for key in self.transition if key not in known)
            raise ValueError(f"delta has an entry for {extra!r:.60} outside states and symbols")
        for name in ("accept", "reject"):
            halt = getattr(self, name)
            for s in SYMBOLS:
                if self.transition[(halt, s)] != (halt, s, "S"):
                    raise ValueError(f"delta must keep the {name} state {halt!r} absorbing")


def _absorbing(state: str) -> dict:
    return {(state, s): (state, s, "S") for s in SYMBOLS}


def always_accept_machine() -> TuringMachine:
    """Accepts every input immediately (start state is accepting)."""
    delta = {}
    delta.update(_absorbing("A"))
    delta.update(_absorbing("R"))
    return TuringMachine(("A", "R"), "A", "A", "R", delta)


def always_reject_machine() -> TuringMachine:
    delta = {}
    delta.update(_absorbing("A"))
    delta.update(_absorbing("R"))
    return TuringMachine(("A", "R"), "R", "A", "R", delta)


def equality_machine() -> TuringMachine:
    """Accepts two-bit inputs whose bits agree; 5 states, 2 steps."""
    delta = {}
    for b in (0, 1):
        delta[("s", b)] = (f"saw{b}", b, "R")
        for c in (0, 1):
            delta[(f"saw{b}", c)] = ("acc" if b == c else "rej", c, "S")
        delta[(f"saw{b}", BLANK)] = ("rej", BLANK, "S")
    delta[("s", BLANK)] = ("rej", BLANK, "S")
    delta.update(_absorbing("acc"))
    delta.update(_absorbing("rej"))
    return TuringMachine(("s", "saw0", "saw1", "acc", "rej"), "s", "acc", "rej", delta)


def prefix_predicate_machine(table, width: int) -> TuringMachine:
    """Machine deciding a predicate of the first `width` tape bits.

    table maps each width-bit tuple to a bool.  The machine walks right
    reading one cell per step and branches on a memoized decision tree,
    short-circuiting as soon as the residual predicate is constant, so it
    halts within width steps.  Blank cells in the scanned prefix
    reject (satisfying tableau assignments never place blanks there).
    """
    full = tuple(bool(table[bits]) for bits in itertools.product((0, 1), repeat=width))
    if width == 0:
        return always_accept_machine() if table[()] else always_reject_machine()
    memo: dict[tuple, str] = {}
    delta = {}
    counter = itertools.count()

    def node(residual: tuple) -> str:
        if all(residual):
            return "acc"
        if not any(residual):
            return "rej"
        if residual in memo:
            return memo[residual]
        name = f"n{next(counter)}"
        memo[residual] = name
        half = len(residual) // 2
        for b, part in ((0, residual[:half]), (1, residual[half:])):
            nxt = node(part)
            move = "S" if nxt in ("acc", "rej") else "R"
            delta[(name, b)] = (nxt, b, move)
        delta[(name, BLANK)] = ("rej", BLANK, "S")
        return name

    start = node(full)
    delta.update(_absorbing("acc"))
    delta.update(_absorbing("rej"))
    if start in ("acc", "rej"):
        # constant predicate: fresh start state stepping straight to the verdict
        fresh = "n_const"
        for s in SYMBOLS:
            delta[(fresh, s)] = (start, s, "S")
        states = (fresh, "acc", "rej")
        return TuringMachine(states, fresh, "acc", "rej", delta)
    states = (start,) + tuple(n for n in memo.values() if n != start) + ("acc", "rej")
    return TuringMachine(states, start, "acc", "rej", delta)


def pad_states(machine: TuringMachine, count: int) -> TuringMachine:
    """Pad the state set to exactly `count` states with absorbing dummies."""
    if count < len(machine.states):
        raise ValueError("cannot pad below the current state count")
    if count == len(machine.states):
        return machine
    delta = dict(machine.transition)
    extra = []
    k = 0
    existing = set(machine.states)
    while len(extra) + len(machine.states) < count:
        name = f"pad{k}"
        k += 1
        if name in existing:
            continue
        extra.append(name)
        delta.update(_absorbing(name))
    return TuringMachine(
        machine.states + tuple(extra),
        machine.start,
        machine.accept,
        machine.reject,
        delta,
    )


def simulate(machine: TuringMachine, input_bits, T: int):
    """Run exactly T steps; returns (outcome, tableau of T+1 configurations).

    outcome is "accept", "reject" or "timeout"; each configuration is
    (state, head, tape) with the tape fixed to the window 0..P-1 where
    P = max(len(input), T + 1).  Halting states absorb, so halted runs
    repeat their configuration up to row T.
    """
    if T < 1:
        raise ValueError("time bound must be at least 1")
    bits = [b if b == BLANK else int(b) for b in input_bits]
    P = max(len(bits), T + 1)
    tape = bits + [BLANK] * (P - len(bits))
    state, head = machine.start, 0
    rows = [(state, head, tuple(tape))]
    for _ in range(T):
        q2, s2, mv = machine.transition[(state, tape[head])]
        tape[head] = s2
        state = q2
        if mv == "L":
            head = max(0, head - 1)
        elif mv == "R":
            head = min(P - 1, head + 1)
        rows.append((state, head, tuple(tape)))
    if state == machine.accept:
        outcome = "accept"
    elif state == machine.reject:
        outcome = "reject"
    else:
        outcome = "timeout"
    return outcome, rows


class TableauLayout:
    """Deterministic variable indexing for the tableau of (machine, T, R).

    Variables (1-indexed): witness bits 1..R, then per time step t = 1..T
    the blocks sym[t, pos, s] (pos-major), head[t, pos], state[t, q], and
    for t < T the conjunction block hp[t, pos, s] with hp = head AND sym.
    """

    def __init__(self, machine: TuringMachine, T: int, R: int):
        if T < 1 or R < 1:
            raise ValueError("T and R must be at least 1")
        self.machine = machine
        self.T = T
        self.R = R
        self.P = max(R, T + 1)
        self.Q = len(machine.states)
        self._state_index = {q: i for i, q in enumerate(machine.states)}
        self._per_full = 4 * self.P + self.Q + 3 * self.P
        self._per_last = 4 * self.P + self.Q
        self.num_vars = (
            R + (T - 1) * self._per_full + self._per_last
        )

    def _base(self, t: int) -> int:
        return self.R + (t - 1) * self._per_full

    def sym(self, t: int, pos: int, s) -> int:
        return self._base(t) + 3 * pos + _SYM_INDEX[s] + 1

    def head(self, t: int, pos: int) -> int:
        return self._base(t) + 3 * self.P + pos + 1

    def state(self, t: int, q: str) -> int:
        return self._base(t) + 4 * self.P + self._state_index[q] + 1

    def hp(self, t: int, pos: int, s) -> int:
        if t >= self.T:
            raise ValueError("no hp block at the final time step")
        return self._base(t) + 4 * self.P + self.Q + 3 * pos + _SYM_INDEX[s] + 1

    def var_info(self, v: int):
        """Decode a variable index into (kind, fields)."""
        if not 1 <= v <= self.num_vars:
            raise IndexError(f"variable {v} out of range 1..{self.num_vars}")
        if v <= self.R:
            return ("w", v)
        off = v - self.R - 1
        t = min(off // self._per_full + 1, self.T)
        rel = off - (t - 1) * self._per_full
        if rel < 3 * self.P:
            return ("sym", t, rel // 3, SYMBOLS[rel % 3])
        rel -= 3 * self.P
        if rel < self.P:
            return ("head", t, rel)
        rel -= self.P
        if rel < self.Q:
            return ("state", t, self.machine.states[rel])
        rel -= self.Q
        return ("hp", t, rel // 3, SYMBOLS[rel % 3])

    def clamp(self, pos: int, move: str) -> int:
        if move == "L":
            return max(0, pos - 1)
        if move == "R":
            return min(self.P - 1, pos + 1)
        return pos


@dataclass
class CNF:
    """3SAT formula: clauses are width-3 tuples of signed 1-based indices,
    checked when layout (the TableauLayout it was compiled from) is None."""

    num_vars: int
    clauses: list[tuple[int, int, int]]
    layout: TableauLayout | None

    def __post_init__(self):
        if self.layout is not None:
            return
        for c in self.clauses:
            if len(c) != 3:
                raise ValueError("clauses must have width exactly 3")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


@dataclass(frozen=True)
class Assignment:
    bits: tuple[int, ...]

    def __len__(self):
        return len(self.bits)


def _clause(*lits) -> tuple[int, int, int]:
    lits = list(lits)
    if not 1 <= len(lits) <= 3:
        raise ValueError("clause must have 1..3 literals before padding")
    while len(lits) < 3:
        lits.append(lits[-1])
    return tuple(lits)


def _w_literal(var: int, bit: int, negate: bool) -> int:
    """Literal asserting (or refuting) witness var == bit."""
    lit = var if bit == 1 else -var
    return -lit if negate else lit


def _generate_clauses(layout: TableauLayout, only_vars: set[int] | None):
    """Clause blocks (steps, clauses), optionally restricted to only_vars.

    Every clause of a family contains a variable of one known kind, so each
    family is enumerated once, over keys(kind), into one block tagged with
    the time steps it spans (T for B-D, T - 1 for E-G, 1 for A and H).
    compile_cnf keys on time step 1 (and every witness variable) and tiles
    each block; clause_access keys on the wanted variables only, decoded,
    and joins the blocks.  Keys come in variable-index order, so both modes
    emit in the same fixed family order; want() keeps the clauses whose
    variables all lie in only_vars, and the restricted stream never touches
    the rest of the tableau.
    """
    mach, T, R, P = layout.machine, layout.T, layout.R, layout.P

    def want(*vs) -> bool:
        return only_vars is None or only_vars.issuperset(vs)

    wanted = [layout.var_info(v) for v in sorted(only_vars or ())]

    def keys(kind: str) -> list[tuple]:
        """Variables of one kind as var_info tuples, in index order."""
        if only_vars is not None:
            return [info for info in wanted if info[0] == kind]
        if kind == "w":
            return [("w", v) for v in range(1, R + 1)]
        if kind == "head":
            return [("head", 1, pos) for pos in range(P)]
        if kind == "state":
            return [("state", 1, q) for q in mach.states]
        if kind == "hp" and T == 1:
            return []
        return [(kind, 1, pos, s) for pos in range(P) for s in SYMBOLS]

    witness = []
    for _, wv in keys("w"):
        if wv == 1:
            # family A1: step one driven by witness bit 1 (head at cell 0, start state)
            for bit in (0, 1):
                q2, s2, mv = mach.transition[(mach.start, bit)]
                for conseq in (
                    layout.sym(1, 0, s2),
                    layout.state(1, q2),
                    layout.head(1, layout.clamp(0, mv)),
                ):
                    if want(wv, conseq):
                        witness.append(_clause(_w_literal(wv, bit, negate=True), conseq))
        else:
            # family A2: untouched witness cells persist to t=1
            for bit in (0, 1):
                sv = layout.sym(1, wv - 1, bit)
                if want(wv, sv):
                    witness.append(_clause(_w_literal(wv, bit, negate=True), sv))
                    witness.append(_clause(_w_literal(wv, bit, negate=False), -sv))

    syms = keys("sym")
    # family A3: cells blank at t=0 stay blank at t=1 (head cannot reach them)
    for _, t, pos, s in syms:
        if t == 1 and pos >= R and s == BLANK:
            witness.append(_clause(layout.sym(t, pos, s)))
    yield 1, witness

    # family B: cell one-hot (pairwise exclusion + at-least-one, width 3)
    one_hot = []
    for t, pos in dict.fromkeys((t, pos) for _, t, pos, _ in syms):
        v = [layout.sym(t, pos, s) for s in SYMBOLS]
        for i, j in itertools.combinations(range(3), 2):
            if want(v[i], v[j]):
                one_hot.append(_clause(-v[i], -v[j]))
        if want(*v):
            one_hot.append(_clause(v[0], v[1], v[2]))
    yield T, one_hot

    # families C and D: at most one head position, and one state, per time step
    for kind in ("head", "state"):
        var = getattr(layout, kind)
        by_t: dict[int, list] = {}
        for _, t, x in keys(kind):
            by_t.setdefault(t, []).append(x)
        yield T, [_clause(-var(t, x1), -var(t, x2))
                  for t, xs in by_t.items() for x1, x2 in itertools.combinations(xs, 2)]

    hps = keys("hp")
    # family E: hp[t,pos,s] = head[t,pos] AND sym[t,pos,s]
    conjunction = []
    for _, t, pos, s in hps:
        h, sv, hpv = layout.head(t, pos), layout.sym(t, pos, s), layout.hp(t, pos, s)
        if want(hpv, h):
            conjunction.append(_clause(-hpv, h))
        if want(hpv, sv):
            conjunction.append(_clause(-hpv, sv))
        if want(h, sv, hpv):
            conjunction.append(_clause(-h, -sv, hpv))
    yield T - 1, conjunction

    # family F: symbols persist where the head is absent
    persist = []
    for _, t, pos, s in syms:
        if t < T:
            trio = (layout.head(t, pos), layout.sym(t, pos, s), layout.sym(t + 1, pos, s))
            if want(*trio):
                persist.append(_clause(trio[0], -trio[1], trio[2]))
    yield T - 1, persist

    # family G: transition firing, keyed on state and hp, in (t, q, s, pos) order
    hp_at: dict[tuple, list[int]] = {}
    for _, t, pos, s in hps:
        hp_at.setdefault((t, s), []).append(pos)
    firing = []
    for _, t, q in keys("state"):
        for s in SYMBOLS:
            q2, s2, mv = mach.transition[(q, s)]
            for pos in hp_at.get((t, s), ()):
                sv, hv = layout.state(t, q), layout.hp(t, pos, s)
                for conseq in (
                    layout.sym(t + 1, pos, s2),
                    layout.state(t + 1, q2),
                    layout.head(t + 1, layout.clamp(pos, mv)),
                ):
                    if want(sv, hv, conseq):
                        firing.append(_clause(-sv, -hv, conseq))
    yield T - 1, firing

    # family H: the run accepts by time T
    acc = layout.state(T, mach.accept)
    yield 1, [_clause(acc)] if want(acc) else []


def _tiled(block: list, steps: int, shift: int) -> list:
    """block and its copies at the next steps - 1 time steps, the k-th with
    every literal k * shift further from zero.  Each distinct literal steps
    through one range and an itemgetter spreads a step's literals over the
    clauses, so the copies are built in C and share their ints."""
    if steps == 1 or not block:
        return block
    lits = list(dict.fromkeys(lit for clause in block for lit in clause))
    where = {lit: n for n, lit in enumerate(lits)}
    spread = operator.itemgetter(*[where[lit] for clause in block for lit in clause])
    ranges = []
    for lit in lits:
        step = shift if lit > 0 else -shift
        ranges.append(range(lit, lit + steps * step, step))
    tiled = []
    for row in zip(*ranges):  # the distinct literals at one time step
        tiled += zip(*[iter(spread(row))] * 3)
    return tiled


def compile_cnf(machine: TuringMachine, T: int, R: int) -> CNF:
    """Cook-Levin 3SAT formula for "machine accepts some R-bit witness in T steps".

    Satisfying assignments are exactly the accepting runs: the witness
    occupies variables 1..R and, per accepting witness, the tableau
    extension is unique.  Each clause family is generated at time step 1 and
    tiled: every time step's block of variables has the same offsets, the
    last one lacking only hp, and starts _per_full after the previous one.
    """
    layout = TableauLayout(machine, T, R)
    clauses = []
    for steps, block in _generate_clauses(layout, None):
        clauses += _tiled(block, steps, layout._per_full)
    return CNF(layout.num_vars, clauses, layout)


def clause_access(machine: TuringMachine, T: int, R: int, i: int, j: int, k: int):
    """Clauses of compile_cnf(machine, T, R) over variables {i, j, k} only.

    Returns the matching clauses (deduplicated, in family order) or None
    when no clause fits.  Runs without materializing the formula.
    """
    layout = TableauLayout(machine, T, R)  # var_info refuses an index out of range
    blocks = _generate_clauses(layout, {i, j, k})
    return list(dict.fromkeys(itertools.chain.from_iterable(b for _, b in blocks))) or None


def _assignment_from_rows(layout: TableauLayout, rows) -> Assignment:
    T, P = layout.T, layout.P
    bits = bytearray(layout.num_vars)
    tape0 = rows[0][2]
    for r in range(layout.R):
        bits[r] = tape0[r] == 1
    # offsets within a time step's block, as in TableauLayout
    head_off, state_off, hp_off = 3 * P, 4 * P, 4 * P + layout.Q
    state_index = layout._state_index
    for t in range(1, T + 1):
        state, head, tape = rows[t]
        base = layout._base(t)
        bits[base : base + 3 * P] = b"".join(map(_ONE_HOT.__getitem__, tape))
        bits[base + head_off + head] = 1
        bits[base + state_off + state_index[state]] = 1
        if t < T:
            bits[base + hp_off + 3 * head + _SYM_INDEX[tape[head]]] = 1
    return Assignment(tuple(bits))


def tableau_assignment(machine: TuringMachine, T: int, w) -> tuple[str, Assignment]:
    """Assignment encoding the run on witness w, accepting or not.

    Satisfies every clause of compile_cnf except, for non-accepting runs,
    the acceptance clause.
    """
    w = [int(b) for b in w]
    layout = TableauLayout(machine, T, len(w))
    outcome, rows = simulate(machine, w, T)
    return outcome, _assignment_from_rows(layout, rows)


def witness_to_assignment(machine: TuringMachine, T: int, w) -> Assignment:
    """Unique satisfying assignment extending an accepting witness."""
    outcome, assignment = tableau_assignment(machine, T, w)
    if outcome != "accept":
        raise ValueError(f"machine does not accept witness {list(w)!r} within {T} steps")
    return assignment


def check_assignment(cnf: CNF, assignment: Assignment):
    """(True, None) if all clauses hold, else (False, first violated clause)."""
    if len(assignment) != cnf.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != {cnf.num_vars} variables"
        )
    for clause in cnf.clauses:
        ok = False
        for lit in clause:
            val = assignment.bits[abs(lit) - 1]
            if (val == 1) == (lit > 0):
                ok = True
                break
        if not ok:
            return False, clause
    return True, None


def backtrack_models(cnf: CNF):
    """All satisfying assignments via prefix-pruned depth-first search.

    Prunes each prefix that falsifies a clause, so it handles the variable
    counts of heavily forced formulas (as tableau formulas are);
    lexicographic order.
    """
    by_maxvar: dict[int, list] = {}
    for clause in cnf.clauses:
        by_maxvar.setdefault(max(abs(l) for l in clause), []).append(clause)
    bits: list[int] = []
    out: list[Assignment] = []

    def consistent_at(v: int) -> bool:
        for clause in by_maxvar.get(v, ()):
            if not any((bits[abs(l) - 1] == 1) == (l > 0) for l in clause):
                return False
        return True

    def rec(v: int):
        if v > cnf.num_vars:
            out.append(Assignment(tuple(bits)))
            return
        for b in (0, 1):
            bits.append(b)
            if consistent_at(v):
                rec(v + 1)
            bits.pop()

    rec(1)
    return out
