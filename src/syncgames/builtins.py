"""Builtin games: Magic Square, 2-of-n Magic Square, Question Sampling.

Each constructor returns (Game, honest SynchronousStrategy).  The Magic
Square honest strategy lives on C^4 and is built from the standard Pauli
observable grid; the 2-of-n honest strategy places independent Magic
Square measurements on tensor copies; the Question Sampling strategy adds
block sampling/erasure measurements over the same copies.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import Measurement, bitstrings
from .games import Game, SynchronousStrategy

__all__ = [
    "magic_square",
    "two_of_n_ms",
    "question_sampling",
    "MS_QUESTIONS",
    "MS_VARIABLES",
    "MS_EQUATIONS",
    "trivial_game",
    "consistency_game",
    "forbidden_pair_game",
]

_I2 = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

MS_VARIABLES = tuple(f"s{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))
MS_EQUATIONS = {
    "r1": ("s11", "s12", "s13"),
    "r2": ("s21", "s22", "s23"),
    "r3": ("s31", "s32", "s33"),
    "c1": ("s11", "s21", "s31"),
    "c2": ("s12", "s22", "s32"),
    "c3": ("s13", "s23", "s33"),
}
# every row/column sums to 0 mod 2 except the last column
_MS_PARITY = {"r1": 0, "r2": 0, "r3": 0, "c1": 0, "c2": 0, "c3": 1}
MS_QUESTIONS = tuple(MS_EQUATIONS) + MS_VARIABLES

_MS_ANSWERS = {q: tuple(bitstrings(3)) for q in MS_EQUATIONS}
_MS_ANSWERS.update({v: (0, 1) for v in MS_VARIABLES})


def _ms_satisfies(eq: str, a) -> bool:
    return sum(a) % 2 == _MS_PARITY[eq]


def _ms_decide(x, y, a, b) -> bool:
    if x == y:
        return a == b
    if x in MS_EQUATIONS and y in MS_VARIABLES and y in MS_EQUATIONS[x]:
        return _ms_satisfies(x, a) and a[MS_EQUATIONS[x].index(y)] == b
    if y in MS_EQUATIONS and x in MS_VARIABLES and x in MS_EQUATIONS[y]:
        return _ms_satisfies(y, b) and b[MS_EQUATIONS[y].index(x)] == a
    return True


def _ms_nontrivial(x, y) -> bool:
    if x == y:
        return True
    if x in MS_EQUATIONS and y in MS_VARIABLES:
        return y in MS_EQUATIONS[x]
    if y in MS_EQUATIONS and x in MS_VARIABLES:
        return x in MS_EQUATIONS[y]
    return False


def _ms_observables() -> dict:
    """Pauli observable grid: rows/columns multiply to +1 except column 3."""
    kron = np.kron
    return {
        "s11": kron(_Z, _I2),
        "s12": kron(_I2, _Z),
        "s13": kron(_Z, _Z),
        "s21": kron(_I2, _X),
        "s22": kron(_X, _I2),
        "s23": kron(_X, _X),
        "s31": kron(_Z, _X),
        "s32": kron(_X, _Z),
        "s33": kron(_X @ _Z, _Z @ _X),
    }


def _ms_honest_measurements() -> dict:
    obs = _ms_observables()
    eye = np.eye(4, dtype=complex)
    table = {}
    for v in MS_VARIABLES:
        table[v] = Measurement(
            (0, 1),
            [(eye + obs[v]) / 2, (eye - obs[v]) / 2],
            kind="projective",
        )
    for eq, vs in MS_EQUATIONS.items():
        elements = []
        for a in _MS_ANSWERS[eq]:
            prod = eye
            for v, bit in zip(vs, a):
                prod = prod @ table[v].elements[bit]
            elements.append(prod)
        table[eq] = Measurement(_MS_ANSWERS[eq], elements, kind="projective")
    return table


def magic_square() -> tuple[Game, SynchronousStrategy]:
    """Magic Square game over 6 equation and 9 variable questions.

    Equation answers are all 8 assignments to the equation's variables;
    the decider rejects the unsatisfying ones.  The honest dim-4 strategy
    realizes the Pauli observable grid.
    """
    game = Game(
        "magic_square",
        list(MS_QUESTIONS),
        lambda x: _MS_ANSWERS[x],
        _ms_decide,
        _ms_nontrivial,
        accept_mask=_ms_mask,
    )
    strategy = SynchronousStrategy(4, _ms_honest_measurements())
    return game, strategy


def _ms_accept_masks() -> dict:
    """Accept masks for every MS question pair, cached once per process.

    The cached masks are shared by every caller, so they are read-only.
    """
    masks = {}
    for x in MS_QUESTIONS:
        for y in MS_QUESTIONS:
            la, lb = _MS_ANSWERS[x], _MS_ANSWERS[y]
            mask = np.empty((len(la), len(lb)), dtype=bool)
            for i, a in enumerate(la):
                for j, b in enumerate(lb):
                    mask[i, j] = _ms_decide(x, y, a, b)
            mask.flags.writeable = False
            masks[(x, y)] = mask
    return masks


_MS_MASKS: dict = {}


def _ms_mask(x, y) -> np.ndarray:
    if not _MS_MASKS:
        _MS_MASKS.update(_ms_accept_masks())
    return _MS_MASKS[(x, y)]


_MS_NONTRIVIAL_PAIRS = [
    (x, y) for x in MS_QUESTIONS for y in MS_QUESTIONS if _ms_nontrivial(x, y)
]


def _shared_instances(q, r) -> list:
    return sorted({q[0], q[1]} & {r[0], r[1]})


def _instance_component(q, a, w):
    """Question and answer component of instance w inside (i, j, x_i, x_j)."""
    if q[0] == w:
        return q[2], a[0]
    return q[3], a[1]


def _two_of_n_nontrivial(q, r) -> bool:
    if q == r:
        return True
    shared = _shared_instances(q, r)
    if not shared:
        return False
    for w in shared:
        xq = q[2] if q[0] == w else q[3]
        xr = r[2] if r[0] == w else r[3]
        if not _ms_nontrivial(xq, xr):
            return False
    return True


def _two_of_n_decide(q, r, a, b) -> bool:
    if q == r:
        return a == b
    if not _two_of_n_nontrivial(q, r):
        return True
    for w in _shared_instances(q, r):
        xq, aq = _instance_component(q, a, w)
        xr, br = _instance_component(r, b, w)
        if not _ms_decide(xq, xr, aq, br):
            return False
    return True


def _two_of_n_mask(q, r) -> np.ndarray:
    """Product-structure accept mask for a nontrivial 2-of-n pair."""
    if q == r:
        na = len(_MS_ANSWERS[q[2]]) * len(_MS_ANSWERS[q[3]])
        return np.eye(na, dtype=bool)
    if not _two_of_n_nontrivial(q, r):
        la = len(_MS_ANSWERS[q[2]]) * len(_MS_ANSWERS[q[3]])
        lb = len(_MS_ANSWERS[r[2]]) * len(_MS_ANSWERS[r[3]])
        return np.ones((la, lb), dtype=bool)
    sizes = (
        len(_MS_ANSWERS[q[2]]),
        len(_MS_ANSWERS[q[3]]),
        len(_MS_ANSWERS[r[2]]),
        len(_MS_ANSWERS[r[3]]),
    )
    mask = np.ones(sizes, dtype=bool)
    for w in _shared_instances(q, r):
        qpos = 0 if q[0] == w else 1
        rpos = 0 if r[0] == w else 1
        xq = q[2 + qpos]
        xr = r[2 + rpos]
        factor = _ms_mask(xq, xr)
        shape = [1, 1, 1, 1]
        shape[qpos] = factor.shape[0]
        shape[2 + rpos] = factor.shape[1]
        mask &= factor.reshape(shape)
    return mask.reshape(sizes[0] * sizes[1], sizes[2] * sizes[3])


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for square matrices without the generic-shape overhead."""
    na, nb = a.shape[0], b.shape[0]
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(na * nb, na * nb)


def _place(ops: dict, n: int) -> np.ndarray:
    """Kronecker chain over n copies of C^4 with identities by default."""
    out = np.ones((1, 1), dtype=complex)
    eye = np.eye(4, dtype=complex)
    for c in range(1, n + 1):
        out = _kron2(out, ops.get(c, eye))
    return out


def _two_of_n_questions(n: int) -> list:
    return [
        (i, j, x, y)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for x in MS_QUESTIONS
        for y in MS_QUESTIONS
    ]


def _two_of_n_answers(q):
    return tuple(itertools.product(_MS_ANSWERS[q[2]], _MS_ANSWERS[q[3]]))


def _two_of_n_pairs_iter(n: int):
    """Direct enumeration of the nontrivial ordered pairs."""
    instance_pairs = [
        ((i, j), (k, l))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for k in range(1, n + 1)
        for l in range(1, n + 1)
        if k != l and ({i, j} & {k, l})
    ]
    for (i, j), (k, l) in instance_pairs:
        shared = sorted({i, j} & {k, l})
        slots = {}
        for w in shared:
            qpos = 2 if i == w else 3
            rpos = 2 if k == w else 3
            slots[(qpos, rpos)] = True
        q_free = [p for p in (2, 3) if p not in {qp for qp, _ in slots}]
        r_free = [p for p in (2, 3) if p not in {rp for _, rp in slots}]
        shared_slots = sorted(slots)
        pools = [_MS_NONTRIVIAL_PAIRS] * len(shared_slots)
        pools += [MS_QUESTIONS] * (len(q_free) + len(r_free))
        for combo in itertools.product(*pools):
            q_parts = {0: i, 1: j}
            r_parts = {0: k, 1: l}
            qv = [None, None]
            rv = [None, None]
            for (qpos, rpos), (xq, xr) in zip(shared_slots, combo):
                qv[qpos - 2] = xq
                rv[rpos - 2] = xr
            rest = combo[len(shared_slots) :]
            for p, val in zip(q_free, rest[: len(q_free)]):
                qv[p - 2] = val
            for p, val in zip(r_free, rest[len(q_free) :]):
                rv[p - 2] = val
            yield (i, j, qv[0], qv[1]), (k, l, rv[0], rv[1])


def two_of_n_ms(n: int) -> tuple[Game, SynchronousStrategy]:
    """2-of-n Magic Square: n parallel instances, two queried per player."""
    if n < 2:
        raise ValueError("two_of_n_ms requires n >= 2")
    questions = _two_of_n_questions(n)
    game = Game(
        f"two_of_{n}_ms",
        questions,
        _two_of_n_answers,
        _two_of_n_decide,
        _two_of_n_nontrivial,
        accept_mask=_two_of_n_mask,
        nontrivial_pairs=lambda: _two_of_n_pairs_iter(n),
    )
    ms_meas = _ms_honest_measurements()

    def build(q):
        i, j, x, y = q
        labels = []
        elements = []
        for a, b in _two_of_n_answers(q):
            labels.append((a, b))
            elements.append(
                _place({i: ms_meas[x].element(a), j: ms_meas[y].element(b)}, n)
            )
        return Measurement(tuple(labels), elements, kind="projective")

    strategy = SynchronousStrategy(4**n, build, cache_size=64)
    return game, strategy


_QS_SPECIALS = ("S_A", "S_B", "E_A", "E_B")
# which Magic Square variable cross-checks bit parity (odd/even) per special
_QS_ROWS = {
    "S_A": ("s11", "s12"),
    "S_B": ("s11", "s12"),
    "E_A": ("s22", "s21"),
    "E_B": ("s22", "s21"),
}


def _qs_special_row(q, special, n: int):
    """Bit index checked by (q, special), or None when the pair is trivial.

    Row shape per the game table: q = (i, j, v, .) cross-checks bit
    2i-1 or 2i (A side, i <= n/2 < j) or the shifted analogue (B side).
    """
    i, j, v = q[0], q[1], q[2]
    first, second = _QS_ROWS[special]
    if special.endswith("A"):
        if not (i <= n // 2 and j > n // 2):
            return None
        base = i
    else:
        if not (i > n // 2 and j <= n // 2):
            return None
        base = i - n // 2
    if v == first:
        return 2 * base - 2  # zero-based index of bit 2*base - 1
    if v == second:
        return 2 * base - 1
    return None


def question_sampling(n: int) -> tuple[Game, SynchronousStrategy]:
    """Question Sampling game: 2-of-n-MS plus sample/erase string questions.

    Requires even n.  The honest strategy extends the 2-of-n honest
    strategy with block measurements whose outcomes are n-bit strings;
    every sampling/erasure trace equals 2^-n and every cross trace 2^-2n.
    """
    if n < 2 or n % 2:
        raise ValueError("question_sampling requires even n >= 2")
    base_questions = _two_of_n_questions(n)
    questions = base_questions + list(_QS_SPECIALS)
    strings = tuple(bitstrings(n))
    base_set = set(base_questions)

    def answers(q):
        if q in _QS_SPECIALS:
            return strings
        return _two_of_n_answers(q)

    def nontrivial(q, r):
        if q == r:
            return True
        q_base, r_base = q in base_set, r in base_set
        if q_base and r_base:
            return _two_of_n_nontrivial(q, r)
        if q_base and r in _QS_SPECIALS:
            return _qs_special_row(q, r, n) is not None
        if r_base and q in _QS_SPECIALS:
            return _qs_special_row(r, q, n) is not None
        return False

    def decide(q, r, a, b):
        if q == r:
            return a == b
        q_base, r_base = q in base_set, r in base_set
        if q_base and r_base:
            return _two_of_n_decide(q, r, a, b)
        if q_base and r in _QS_SPECIALS:
            bit = _qs_special_row(q, r, n)
            return True if bit is None else b[bit] == a[0]
        if r_base and q in _QS_SPECIALS:
            bit = _qs_special_row(r, q, n)
            return True if bit is None else a[bit] == b[0]
        return True

    def accept_mask(q, r):
        if q in base_set and r in base_set:
            return _two_of_n_mask(q, r)
        return None  # fall back to the decide loop

    def pairs_iter():
        yield from _two_of_n_pairs_iter(n)
        for s in _QS_SPECIALS:
            yield (s, s)
        for q in base_questions:
            for s in _QS_SPECIALS:
                if _qs_special_row(q, s, n) is not None:
                    yield (q, s)
                    yield (s, q)

    game = Game(
        f"question_sampling_{n}",
        questions,
        answers,
        decide,
        nontrivial,
        accept_mask=accept_mask,
        nontrivial_pairs=pairs_iter,
    )

    ms_meas = _ms_honest_measurements()
    _, base_strategy = two_of_n_ms(n)

    def special_measurement(special):
        first, second = _QS_ROWS[special]
        offset = 0 if special.endswith("A") else n // 2
        elements = []
        for y in strings:
            ops = {}
            for c in range(1, n // 2 + 1):
                ops[offset + c] = (
                    ms_meas[first].elements[y[2 * c - 2]]
                    @ ms_meas[second].elements[y[2 * c - 1]]
                )
            elements.append(_place(ops, n))
        return Measurement(strings, elements, kind="projective")

    specials = {s: special_measurement(s) for s in _QS_SPECIALS}

    def build(q):
        if q in _QS_SPECIALS:
            return specials[q]
        return base_strategy.measurement(q)

    strategy = SynchronousStrategy(4**n, build, cache_size=64)
    return game, strategy


def trivial_game(l: int) -> tuple[Game, SynchronousStrategy]:
    """All-pairs-trivial game on l-bit questions: one answer per question."""
    questions = bitstrings(l)
    game = Game(
        f"trivial_{l}",
        list(questions),
        lambda x: (0,),
        lambda x, y, a, b: True,
        lambda x, y: x == y,
    )
    meas = Measurement((0,), [np.eye(1, dtype=complex)], kind="projective")
    strategy = SynchronousStrategy(1, {q: meas for q in questions})
    return game, strategy


def consistency_game(l: int) -> tuple[Game, SynchronousStrategy]:
    """Binary answers, every pair cross-checked for equal answers.

    Perfect synchronous value 1, witnessed by a dim-2 strategy measuring
    the same basis on every question (oracularizable since identical
    measurements commute).
    """
    questions = bitstrings(l)
    game = Game(
        f"consistency_{l}",
        list(questions),
        lambda x: (0, 1),
        lambda x, y, a, b: a == b,
        lambda x, y: True,
    )
    basis = Measurement(
        (0, 1),
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        kind="projective",
    )
    strategy = SynchronousStrategy(2, {q: basis for q in questions})
    return game, strategy


def forbidden_pair_game(l: int) -> tuple[Game, SynchronousStrategy]:
    """One always-rejecting question pair; every strategy loses that mass.

    The pair (0..0, 0..01) and its mirror reject all answers, so the best
    synchronous value is 1 - 2/4^l; the honest dim-1 strategy attains it.
    """
    questions = bitstrings(l)
    bad = (questions[0], questions[1])

    def decide(x, y, a, b):
        if x == y:
            return a == b
        if (x, y) == bad or (y, x) == bad:
            return False
        return True

    def nontrivial(x, y):
        return x == y or (x, y) == bad or (y, x) == bad

    game = Game(
        f"forbidden_pair_{l}",
        list(questions),
        lambda x: (0, 1),
        decide,
        nontrivial,
    )
    one = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    meas = Measurement((0, 1), [one, zero], kind="projective")
    strategy = SynchronousStrategy(1, {q: meas for q in questions})
    return game, strategy
