"""Builtin games: Magic Square, 2-of-n Magic Square, Question Sampling.

Each constructor returns (Game, honest SynchronousStrategy).  The Magic
Square honest strategy lives on C^4 and is built from the standard Pauli
observable grid; the 2-of-n honest strategy places independent Magic
Square measurements on tensor copies; the Question Sampling strategy adds
block sampling/erasure measurements over the same copies.  A 2-of-n pair's
accept mask is built once per key (each shared slot's answer positions
and Magic Square pair, and the four answer-set sizes) and shared
read-only by every n; the table holds at most 6,018 masks.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import Measurement, bitstrings
from .games import Game, SynchronousStrategy, _extended_game, _identity_part, _transposed

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


def _ms_pair_mask(x, y):
    """Accept mask of a Magic Square question pair, None when trivial.

    An equation and one of its variables must agree on that variable, and
    the equation's answer must satisfy its parity.
    """
    if x == y:
        return np.eye(len(_MS_ANSWERS[x]), dtype=bool)
    if x in MS_VARIABLES and y in MS_EQUATIONS:
        return _transposed(_ms_pair_mask(y, x))
    if x not in MS_EQUATIONS or y not in MS_EQUATIONS[x]:
        return None
    k = MS_EQUATIONS[x].index(y)
    return np.array(
        [[_ms_satisfies(x, a) and a[k] == b for b in _MS_ANSWERS[y]] for a in _MS_ANSWERS[x]],
        dtype=bool,
    )


def _ms_masks() -> dict:
    """Masks of the nontrivial MS pairs, shared by every caller, so read-only."""
    masks = {}
    for x in MS_QUESTIONS:
        for y in MS_QUESTIONS:
            mask = _ms_pair_mask(x, y)
            if mask is not None:
                mask.flags.writeable = False
                masks[(x, y)] = mask
    return masks


_MS_MASKS = _ms_masks()
_MS_NONTRIVIAL_PAIRS = list(_MS_MASKS)


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


def _ms_game() -> Game:
    return Game(
        "magic_square", list(MS_QUESTIONS), lambda x: _MS_ANSWERS[x], lambda x, y: _MS_MASKS.get((x, y))
    )


def magic_square() -> tuple[Game, SynchronousStrategy]:
    """Magic Square game over 6 equation and 9 variable questions.

    Equation answers are all 8 assignments to the equation's variables;
    the decider rejects the unsatisfying ones.  The honest dim-4 strategy
    realizes the Pauli observable grid.
    """
    return _ms_game(), SynchronousStrategy(4, _ms_honest_measurements())


# the copy game of the 2-of-n slots
_MS_GAME = _ms_game()


# answer positions (qpos, rpos) a shared copy can take in a 2-of-n pair
_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))
# _two_of_n_rule's masks by key; at most 6,018 entries for any n
_TWO_OF_N_MASKS: dict = {}


def _two_of_n_slots(q, r):
    """Game.slots of a 2-of-n pair, None when the pair is trivial.

    A pair is nontrivial when the players share an instance and every
    shared instance carries a nontrivial Magic Square pair; both players
    may hold the same Magic Square question there, so the pairs include
    Magic Square diagonals.  Each shared instance gives one slot (qpos,
    rpos, x, y): answer component qpos of q answers x, rpos of r answers y.
    """
    slots = []
    for qpos, rpos in _SLOTS:
        if q[qpos] == r[rpos]:
            x, y = q[2 + qpos], r[2 + rpos]
            if (x, y) not in _MS_MASKS:
                return None
            slots.append((qpos, rpos, x, y))
    return (_MS_GAME, tuple(slots)) if slots else None


def _two_of_n_rule(q, r):
    """Product accept mask of a 2-of-n pair, None when trivial.

    The mask is the product of the slots' Magic Square masks over the
    answer components.  It depends only on the slots and the four
    answer-set sizes, not on the copies or the free questions, so it is
    built once per key and shared read-only: one shared copy gives 4 slot
    layouts x 51 Magic Square pairs x 4 free sizes, two give 2 layouts x
    51**2.
    """
    shared = _two_of_n_slots(q, r)
    if shared is None:
        return None
    slots = shared[1]
    sizes = (len(_MS_ANSWERS[q[2]]), len(_MS_ANSWERS[q[3]]), len(_MS_ANSWERS[r[2]]), len(_MS_ANSWERS[r[3]]))
    mask = _TWO_OF_N_MASKS.get((slots, sizes))
    if mask is None:
        mask = np.ones(sizes, dtype=bool)
        for qpos, rpos, x, y in slots:
            shape = [1, 1, 1, 1]
            shape[qpos], shape[2 + rpos] = _MS_MASKS[(x, y)].shape
            mask &= _MS_MASKS[(x, y)].reshape(shape)
        mask = mask.reshape(sizes[0] * sizes[1], sizes[2] * sizes[3])
        mask.flags.writeable = False
        _TWO_OF_N_MASKS[(slots, sizes)] = mask
    return mask


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
    """Direct enumeration of the nontrivial ordered pairs: for each two
    copy pairs that share a copy, every Magic Square pair on each shared
    slot times every question on each free component.  Component c of a
    pair is side c // 2 (0 for q, 1 for r), question position c % 2."""
    copies = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for q in copies:
        for r in copies:
            shared = [(qpos, 2 + rpos) for qpos, rpos in _SLOTS if q[qpos] == r[rpos]]
            if not shared:
                continue
            free = [c for c in range(4) if all(c not in s for s in shared)]
            pools = [_MS_NONTRIVIAL_PAIRS] * len(shared) + [MS_QUESTIONS] * len(free)
            for combo in itertools.product(*pools):
                v = [None] * 4
                for (c, d), (x, y) in zip(shared, combo):
                    v[c], v[d] = x, y
                for c, x in zip(free, combo[len(shared) :]):
                    v[c] = x
                yield (*q, v[0], v[1]), (*r, v[2], v[3])


def _two_of_n_factors(n: int, ms_meas: dict):
    """Factors of the 2-of-n honest strategy over n copies of C^4."""
    eye = _identity_part(4)

    def factors(q):
        """Copies i and j carry the Magic Square measurements of x and y."""
        i, j, x, y = q
        parts = [eye] * n
        parts[i - 1], parts[j - 1] = ms_meas[x], ms_meas[y]
        index = {}
        for a, b in _two_of_n_answers(q):
            row = [None] * n
            row[i - 1], row[j - 1] = a, b
            index[(a, b)] = tuple(row)
        return parts, index

    return factors


def _two_of_n_game(n: int) -> Game:
    return Game(
        f"two_of_{n}_ms",
        _two_of_n_questions(n),
        _two_of_n_answers,
        _two_of_n_rule,
        nontrivial_pairs=lambda: _two_of_n_pairs_iter(n),
        slots=_two_of_n_slots,
    )


def two_of_n_ms(n: int) -> tuple[Game, SynchronousStrategy]:
    """2-of-n Magic Square: n parallel instances, two queried per player."""
    if n < 2:
        raise ValueError("two_of_n_ms requires n >= 2")
    factors = _two_of_n_factors(n, _ms_honest_measurements())
    return _two_of_n_game(n), SynchronousStrategy(4**n, None, factors=factors)


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
    base = _two_of_n_game(n)
    strings = tuple(bitstrings(n))
    # a base question (i, j, v, .) against a special: its answer to v must
    # equal the special's string at the bit _qs_special_row picks
    edges = {}
    for q in base.questions:
        for s in _QS_SPECIALS:
            bit = _qs_special_row(q, s, n)
            if bit is not None:
                first = np.array([a[0] for a in _two_of_n_answers(q)])
                edges[(q, s)] = first[:, None] == np.array([y[bit] for y in strings])[None, :]
    game = _extended_game(f"question_sampling_{n}", base, dict.fromkeys(_QS_SPECIALS, strings), edges)

    ms_meas = _ms_honest_measurements()
    base_factors = _two_of_n_factors(n, ms_meas)
    eye = _identity_part(4)
    half = n // 2
    # one part per sampled copy c: the product of the two cross-checking
    # variables' projectors at bits (2c - 1, 2c) of the string
    pair_parts = {
        (first, second): Measurement(
            tuple(bitstrings(2)),
            [ms_meas[first].elements[b] @ ms_meas[second].elements[c] for b, c in bitstrings(2)],
            kind="projective",
        )
        for first, second in dict.fromkeys(_QS_ROWS.values())
    }

    def factors(q):
        if q not in _QS_SPECIALS:
            return base_factors(q)
        offset = 0 if q.endswith("A") else half
        parts = [eye] * n
        parts[offset : offset + half] = [pair_parts[_QS_ROWS[q]]] * half
        index = {}
        for y in strings:
            row = [None] * n
            row[offset : offset + half] = [y[2 * c : 2 * c + 2] for c in range(half)]
            index[y] = tuple(row)
        return parts, index

    return game, SynchronousStrategy(4**n, None, factors=factors)


def trivial_game(l: int) -> tuple[Game, SynchronousStrategy]:
    """All-pairs-trivial game on l-bit questions: one answer per question."""
    questions = bitstrings(l)
    game = Game(
        f"trivial_{l}",
        list(questions),
        lambda x: (0,),
        lambda x, y: None,
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
        lambda x, y: np.eye(2, dtype=bool),
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
    bad = {questions[0], questions[1]}
    game = Game(
        f"forbidden_pair_{l}", list(questions), lambda x: (0, 1),
        lambda x, y: np.zeros((2, 2), dtype=bool) if {x, y} == bad else None,
    )
    one = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    meas = Measurement((0, 1), [one, zero], kind="projective")
    strategy = SynchronousStrategy(1, {q: meas for q in questions})
    return game, strategy
