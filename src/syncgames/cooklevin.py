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
on every variable of the kind; clause_access keys on the queried ones
only, so it never materializes the formula and runs in time independent
of the tableau size for a fixed machine.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

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
    "brute_force_sat",
    "enumerate_models",
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

    def __post_init__(self):
        for s in (self.start, self.accept, self.reject):
            if s not in self.states:
                raise ValueError(f"designated state {s!r} not in state set")
        if self.accept == self.reject:
            raise ValueError("accept and reject states must differ")
        for q in self.states:
            for s in SYMBOLS:
                if (q, s) not in self.transition:
                    raise ValueError(f"transition not total at {(q, s)!r}")
                q2, s2, mv = self.transition[(q, s)]
                if q2 not in self.states or s2 not in SYMBOLS or mv not in MOVES:
                    raise ValueError(f"bad transition at {(q, s)!r}")
        for halt in (self.accept, self.reject):
            for s in SYMBOLS:
                if self.transition[(halt, s)] != (halt, s, "S"):
                    raise ValueError("accept/reject states must be absorbing")

    def encode(self) -> str:
        delta = [
            [q, s, *self.transition[(q, s)]]
            for q in self.states
            for s in SYMBOLS
        ]
        return json.dumps(
            {
                "states": list(self.states),
                "start": self.start,
                "accept": self.accept,
                "reject": self.reject,
                "delta": delta,
            },
            separators=(",", ":"),
        )

    @classmethod
    def decode(cls, text: str) -> "TuringMachine":
        doc = json.loads(text) if isinstance(text, str) else text
        delta = {}
        for q, s, q2, s2, mv in doc["delta"]:
            key_s = s if s == BLANK else int(s)
            delta[(q, key_s)] = (q2, s2 if s2 == BLANK else int(s2), mv)
        return cls(
            states=tuple(doc["states"]),
            start=doc["start"],
            accept=doc["accept"],
            reject=doc["reject"],
            transition=delta,
        )


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
    """3SAT formula: clauses are width-3 tuples of signed 1-based indices."""

    num_vars: int
    clauses: list[tuple[int, int, int]]
    layout: TableauLayout | None = None

    def __post_init__(self):
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

    def value(self, var: int) -> int:
        return self.bits[var - 1]


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
    """Clause stream, optionally restricted to clauses over only_vars.

    Every clause of a family contains a variable of one known kind, so each
    family is enumerated once, over keys(kind): every variable of that kind
    when compiling (only_vars=None), or only the wanted ones, decoded, for
    clause_access.  Keys come in variable-index order, so both modes emit in
    the same fixed family order; want() keeps the clauses whose variables
    all lie in only_vars, and the restricted stream never touches the rest
    of the tableau.
    """
    mach, T, R, P = layout.machine, layout.T, layout.R, layout.P

    def want(*vs) -> bool:
        return only_vars is None or all(v in only_vars for v in vs)

    wanted = [layout.var_info(v) for v in sorted(only_vars or ())]

    def keys(kind: str) -> list[tuple]:
        """Variables of one kind as var_info tuples, in index order."""
        if only_vars is not None:
            return [info for info in wanted if info[0] == kind]
        if kind == "w":
            return [("w", v) for v in range(1, R + 1)]
        times = range(1, T if kind == "hp" else T + 1)
        if kind == "head":
            return [("head", t, pos) for t in times for pos in range(P)]
        if kind == "state":
            return [("state", t, q) for t in times for q in mach.states]
        return [(kind, t, pos, s) for t in times for pos in range(P) for s in SYMBOLS]

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
                        yield _clause(_w_literal(wv, bit, negate=True), conseq)
        else:
            # family A2: untouched witness cells persist to t=1
            for bit in (0, 1):
                sv = layout.sym(1, wv - 1, bit)
                if want(wv, sv):
                    yield _clause(_w_literal(wv, bit, negate=True), sv)
                    yield _clause(_w_literal(wv, bit, negate=False), -sv)

    syms = keys("sym")
    # family A3: cells blank at t=0 stay blank at t=1 (head cannot reach them)
    for _, t, pos, s in syms:
        if t == 1 and pos >= R and s == BLANK:
            yield _clause(layout.sym(t, pos, s))

    # family B: cell one-hot (pairwise exclusion + at-least-one, width 3)
    for t, pos in dict.fromkeys((t, pos) for _, t, pos, _ in syms):
        v = [layout.sym(t, pos, s) for s in SYMBOLS]
        for i, j in itertools.combinations(range(3), 2):
            if want(v[i], v[j]):
                yield _clause(-v[i], -v[j])
        if want(*v):
            yield _clause(v[0], v[1], v[2])

    # families C and D: at most one head position, and one state, per time step
    for kind in ("head", "state"):
        var = getattr(layout, kind)
        by_t: dict[int, list] = {}
        for _, t, x in keys(kind):
            by_t.setdefault(t, []).append(x)
        for t, xs in by_t.items():
            for x1, x2 in itertools.combinations(xs, 2):
                yield _clause(-var(t, x1), -var(t, x2))

    hps = keys("hp")
    # family E: hp[t,pos,s] = head[t,pos] AND sym[t,pos,s]
    for _, t, pos, s in hps:
        h, sv, hpv = layout.head(t, pos), layout.sym(t, pos, s), layout.hp(t, pos, s)
        if want(hpv, h):
            yield _clause(-hpv, h)
        if want(hpv, sv):
            yield _clause(-hpv, sv)
        if want(h, sv, hpv):
            yield _clause(-h, -sv, hpv)

    # family F: symbols persist where the head is absent
    for _, t, pos, s in syms:
        if t < T:
            trio = (layout.head(t, pos), layout.sym(t, pos, s), layout.sym(t + 1, pos, s))
            if want(*trio):
                yield _clause(trio[0], -trio[1], trio[2])

    # family G: transition firing, keyed on state and hp, in (t, q, s, pos) order
    hp_at: dict[tuple, list[int]] = {}
    for _, t, pos, s in hps:
        hp_at.setdefault((t, s), []).append(pos)
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
                        yield _clause(-sv, -hv, conseq)

    # family H: the run accepts by time T
    acc = layout.state(T, mach.accept)
    if want(acc):
        yield _clause(acc)


def compile_cnf(machine: TuringMachine, T: int, R: int) -> CNF:
    """Cook-Levin 3SAT formula for "machine accepts some R-bit witness in T steps".

    Satisfying assignments are exactly the accepting runs: the witness
    occupies variables 1..R and, per accepting witness, the tableau
    extension is unique.
    """
    layout = TableauLayout(machine, T, R)
    clauses = list(_generate_clauses(layout, None))
    return CNF(layout.num_vars, clauses, layout)


def clause_access(machine: TuringMachine, T: int, R: int, i: int, j: int, k: int):
    """Clauses of compile_cnf(machine, T, R) over variables {i, j, k} only.

    Returns the matching clauses (deduplicated, in family order) or None
    when no clause fits.  Runs without materializing the formula.
    """
    layout = TableauLayout(machine, T, R)
    for v in (i, j, k):
        if not 1 <= v <= layout.num_vars:
            raise IndexError(f"variable {v} out of range 1..{layout.num_vars}")
    return list(dict.fromkeys(_generate_clauses(layout, {i, j, k}))) or None


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


def _clause_arrays(cnf: CNF):
    arr = np.array(cnf.clauses, dtype=np.int64)
    return np.abs(arr) - 1, arr > 0


def _satisfied_mask(cnf: CNF, bits: np.ndarray) -> np.ndarray:
    """bits: (chunk, num_vars) 0/1 matrix; returns per-row satisfaction."""
    idx, sign = _clause_arrays(cnf)
    ok = np.ones(bits.shape[0], dtype=bool)
    for c in range(idx.shape[0]):
        vals = bits[:, idx[c]]
        lits = vals == sign[c]
        ok &= lits.any(axis=1)
    return ok


def _bit_matrix(start: int, count: int, num_vars: int) -> np.ndarray:
    ms = np.arange(start, start + count, dtype=np.uint64)
    shifts = np.arange(num_vars - 1, -1, -1, dtype=np.uint64)
    return ((ms[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def brute_force_sat(cnf: CNF, cap: int = 24):
    """First satisfying assignment in lexicographic order, or None.

    Exhaustive scan (variable 1 most significant); refuses formulas with
    more than cap variables.
    """
    models = enumerate_models(cnf, cap, limit=1)
    return models[0] if models else None


def enumerate_models(cnf: CNF, cap: int = 24, limit: int | None = None):
    """All satisfying assignments in lexicographic order (exhaustive scan)."""
    if cnf.num_vars > cap:
        raise ValueError(f"{cnf.num_vars} variables exceeds cap {cap}")
    total = 1 << cnf.num_vars
    chunk = 1 << 18
    out = []
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        bits = _bit_matrix(start, count, cnf.num_vars)
        ok = _satisfied_mask(cnf, bits)
        for hit in np.flatnonzero(ok):
            out.append(Assignment(tuple(int(b) for b in bits[hit])))
            if limit is not None and len(out) >= limit:
                return out
    return out


def backtrack_models(cnf: CNF, limit: int | None = None):
    """All satisfying assignments via prefix-pruned depth-first search.

    Handles larger variable counts than enumerate_models when the formula
    is heavily forced (as tableau formulas are); lexicographic order.
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
        if limit is not None and len(out) >= limit:
            return
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
