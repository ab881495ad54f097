"""Game transformations: oracularization, introspection, answer reduction,
and their composition into gapless compression, with honest-strategy lifts.

Oracularization sends one player a question pair and cross-checks against
a single-question player.  Introspection replaces an exponential question
set {0,1}^l by the Question Sampling game plus seven special questions
that force the players to sample their own questions honestly.  Answer
reduction replaces full answers by locally queried bits of a Cook-Levin
proof that the decider accepts; its question space is indexed lazily and
evaluated by sampling only.

Desk-scale Turing deciders: the proof layout fixes answer bits of the
first player at witness cells 1..T and of the second at T+1..2T, and the
tableau time budget equals T, so a single-tape machine can never reach
the second answer within its budget.  Synthesized deciders therefore
check the strongest prefix-readable predicate, the projection
exists-b D(x, y, a, b); the dropped cross-player comparisons are exactly
the ones the answer-reduced game re-imposes through its consistency rows.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .algebra import Measurement, bitstrings
from .builtins import question_sampling
from .cooklevin import (
    TableauLayout,
    TuringMachine,
    always_accept_machine,
    clause_access,
    pad_states,
    prefix_predicate_machine,
    tableau_assignment,
)
from .games import (
    Game,
    SynchronousStrategy,
    _transposed,
    index_answer_bits,
    is_oracularizable,
)

__all__ = [
    "BudgetError",
    "IndexMaps",
    "TmDecider",
    "oracularize",
    "lift_oracularize",
    "introspect",
    "lift_introspection",
    "synthesize_tm_decider",
    "answer_reduce",
    "lift_answer_reduce",
    "gapless_compress",
    "lift_gapless_compress",
    "INTRO_SPECIALS",
]

EXACT_EVAL_BUDGET = 10_000_000


class BudgetError(ValueError):
    """Raised when exact evaluation of a transformed game is out of reach."""


# ---------------------------------------------------------------------------
# oracularization


def oracularize(game: Game) -> Game:
    """Question set X + X^2: oracle players answer both questions.

    Nontrivial pairs are equal questions and (oracle, matching isolated);
    an oracle player with a pair nontrivial for the base game must win it
    and agree with the isolated player on the shared question.
    """
    base = list(game.questions)
    questions = [("iso", x) for x in base] + [
        ("ora", x, y) for x in base for y in base
    ]

    def answers(q):
        if q[0] == "iso":
            return game.answers(q[1])
        return tuple(itertools.product(game.answers(q[1]), game.answers(q[2])))

    def oracle_mask(qa, z):
        """Oracle question qa against isolated question z, or None.

        The oracle answer (a, b) must win the base pair and agree with the
        isolated answer on the shared question.
        """
        x, y = qa[1], qa[2]
        if z not in (x, y):
            return None
        base = game.rule(x, y)
        if base is None:
            return None
        na, nb = base.shape
        mask = np.repeat(base.reshape(na * nb, 1), len(game.answers(z)), axis=1)
        if z == x:
            mask &= np.repeat(np.eye(na, dtype=bool), nb, axis=0)
        if z == y:
            mask &= np.tile(np.eye(nb, dtype=bool), (na, 1))
        return mask

    def rule(q, r):
        if q[0] == "ora" and r[0] == "iso":
            return oracle_mask(q, r[1])
        if q[0] == "iso" and r[0] == "ora":
            return _transposed(oracle_mask(r, q[1]))
        return None

    def pairs():
        for q in questions:
            yield (q, q)
        for x, y in game.nontrivial_pairs():
            ora = ("ora", x, y)
            for z in dict.fromkeys((x, y)):
                yield (ora, ("iso", z))
                yield (("iso", z), ora)

    return Game(f"{game.name}.orac", questions, answers, rule, nontrivial_pairs=pairs)


def _designated(game: Game, x, y):
    return game.answers(x)[0], game.answers(y)[0]


def _oracle_terms(game: Game, strategy: SynchronousStrategy, x, y) -> dict:
    """The oracle player's joint measurement on (x, y): (a, b) -> element.

    On a base-nontrivial pair the elements are M^x_a M^y_b in label order;
    on a trivial pair the player reports the designated answer pair with
    the identity and every other pair has no term.
    """
    if not game.nontrivial(x, y):
        return {_designated(game, x, y): np.eye(strategy.dim, dtype=complex)}
    mx = strategy.measurement(x)
    my = strategy.measurement(y)
    return {(a, b): mx.element(a) @ my.element(b) for a in mx.labels for b in my.labels}


def _require_oracularizable(game: Game, strategy: SynchronousStrategy) -> None:
    ok, worst = is_oracularizable(game, strategy)
    if not ok:
        raise ValueError(f"strategy is not oracularizable (worst commutator {worst:.3e})")


def lift_oracularize(game: Game, strategy: SynchronousStrategy) -> SynchronousStrategy:
    """Simultaneous-measurement lift: oracle pairs measure M^x then M^y.

    Requires an oracularizable strategy; on base-trivial pairs the oracle
    player deterministically reports a designated answer.
    """
    _require_oracularizable(game, strategy)
    zero = np.zeros((strategy.dim, strategy.dim), dtype=complex)

    def build(q):
        if q[0] == "iso":
            return strategy.measurement(q[1])
        x, y = q[1], q[2]
        terms = _oracle_terms(game, strategy, x, y)
        labels = tuple(
            itertools.product(strategy.measurement(x).labels, strategy.measurement(y).labels)
        )
        return Measurement(labels, [terms.get(ab, zero) for ab in labels], kind="projective")

    return SynchronousStrategy(strategy.dim, build)


# ---------------------------------------------------------------------------
# introspection

INTRO_I = "I"
INTRO_SPECIALS = (INTRO_I, "I_A", "I_B", "I_A.S_B", "I_A.E_B", "I_B.S_A", "I_B.E_A")


def _intro_answers(game: Game):
    """The exponent l and the answers of each special question.

    Requires the base question set to be exactly {0,1}^l for even l >= 2.
    I_W answers (x, a), I_W.S and I_W.E answer (x, a, y), and I answers the
    transcript (x, a, y, b), in base question and answer order.
    """
    base = list(game.questions)
    l = len(base[0]) if base and isinstance(base[0], tuple) else 0
    if sorted(base) != bitstrings(l) or l < 2 or l % 2:
        raise ValueError("introspection requires questions {0,1}^l, even l >= 2")
    xs = bitstrings(l)
    iw = tuple((x, a) for x in xs for a in game.answers(x))
    iwq = tuple((x, a, y) for x, a in iw for y in xs)
    answers = {INTRO_I: tuple(xa + yb for xa in iw for yb in iw)}
    for w, o in (("A", "B"), ("B", "A")):
        answers[f"I_{w}"] = iw
        answers[f"I_{w}.S_{o}"] = answers[f"I_{w}.E_{o}"] = iwq
    return l, answers


def introspect(game: Game) -> Game:
    """Introspection game over the Question Sampling game QS_l.

    Requires the base question set to be exactly {0,1}^l for even l >= 2.
    Questions are those of QS_l plus seven specials; the introspect
    question I expects a full transcript (x, a, y, b) and is cross-checked
    so that honest players sample (x, y) uniformly.
    """
    l, special_answers = _intro_answers(game)
    qs_game, _ = question_sampling(l)
    qs_questions = list(qs_game.questions)
    qs_set = set(qs_questions)
    xs = bitstrings(l)
    iw, iwq, transcripts = (special_answers[q] for q in ("I_A", "I_A.S_B", INTRO_I))

    def answers(q):
        return qs_game.answers(q) if q in qs_set else special_answers[q]

    def equal_mask(keys_a, keys_b):
        return np.array([[ka == kb for kb in keys_b] for ka in keys_a], dtype=bool)

    # per transcript (x, a, y, b): whether its base pair is trivial, and
    # whether the transcript wins it
    trivial, wins = [], []
    for x, a, y, b in transcripts:
        base = game.rule(x, y)
        trivial.append(base is None)
        wins.append(base is None or base[game.answers(x).index(a), game.answers(y).index(b)])
    trivial, wins = np.array(trivial)[:, None], np.array(wins)[:, None]

    def transcript_mask(w):
        """I's (x, a, y, b) against I_W's (z, c): on a nontrivial base pair
        the transcript must win and (z, c) must be player W's half."""
        half = equal_mask([t[:2] if w == "A" else t[2:] for t in transcripts], iw)
        return trivial | (wins & half)

    # (x, a) against (z, c, y): same question and answer
    same_xa = equal_mask(iw, [c[:2] for c in iwq])
    # the introspected question is the sampled string
    sampled_x = equal_mask([x for x, _ in iw], xs)
    # (x, a, y) against the other player's sampled or erased string y
    other_y = equal_mask([c[2] for c in iwq], xs)
    # the twelve special edges (q, r, accept mask); (r, q) is the transpose
    edges = []
    for w, o in (("A", "B"), ("B", "A")):
        edges += [
            (INTRO_I, f"I_{w}", transcript_mask(w)),
            (f"I_{w}", f"I_{w}.S_{o}", same_xa),
            (f"I_{w}", f"S_{w}", sampled_x),
            (f"I_{w}", f"I_{w}.E_{o}", same_xa),
            (f"I_{w}.E_{o}", f"E_{o}", other_y),
            (f"I_{w}.S_{o}", f"S_{o}", other_y),
        ]
    edge_masks = {}
    for q, r, mask in edges:
        edge_masks[(q, r)], edge_masks[(r, q)] = mask, _transposed(mask)
    for mask in edge_masks.values():
        mask.flags.writeable = False

    def rule(q, r):
        if q in qs_set and r in qs_set:
            return qs_game.rule(q, r)
        return edge_masks.get((q, r))

    def pairs():
        yield from qs_game.nontrivial_pairs()
        for s in INTRO_SPECIALS:
            yield (s, s)
        for q, r, _ in edges:
            yield (q, r)
            yield (r, q)

    questions = qs_questions + list(INTRO_SPECIALS)
    return Game(f"{game.name}.intro", questions, answers, rule, nontrivial_pairs=pairs)


def lift_introspection(game: Game, strategy: SynchronousStrategy) -> SynchronousStrategy:
    """Honest introspection lift over QS_l honest tensor the base strategy.

    QS questions act on the sampling register alone; I_W measures S^W to
    introspect x and then the base measurement for x, and I_W.S and I_W.E
    also measure the other player's S or E; the transcript question I
    measures both sampling registers and, on base-nontrivial pairs, both
    base measurements (commuting by oracularizability).
    """
    l, special_answers = _intro_answers(game)
    _require_oracularizable(game, strategy)
    _, qs_honest = question_sampling(l)
    dim = 4**l * strategy.dim
    xs = bitstrings(l)
    sample = {w: qs_honest.measurement(f"S_{w}").element for w in ("A", "B")}

    def measured(x, a):
        return strategy.measurement(x).element(a)

    def element_rule(q):
        """The element of special question q at one of its answer labels."""
        if q == INTRO_I:
            zero = np.zeros((dim, dim), dtype=complex)
            samples = {(x, y): sample["A"](x) @ sample["B"](y) for x in xs for y in xs}
            terms = {(x, y): _oracle_terms(game, strategy, x, y) for x in xs for y in xs}

            def transcript(x, a, y, b):
                term = terms[(x, y)].get((a, b))
                return zero if term is None else np.kron(samples[(x, y)], term)

            return transcript
        w = q[2]  # the introspecting player of I_W, I_W.S and I_W.E
        if q == f"I_{w}":
            return lambda x, a: np.kron(sample[w](x), measured(x, a))
        other = qs_honest.measurement(q.split(".")[1]).element  # S or E of the other player
        return lambda x, a, y: np.kron(sample[w](x) @ other(y), measured(x, a))

    def build(q):
        if q in special_answers:
            element = element_rule(q)
            labels = special_answers[q]
            return Measurement(labels, [element(*lab) for lab in labels], kind="projective")
        # Question Sampling question: act on the sampling register alone
        m = qs_honest.measurement(q)
        eye_s = np.eye(strategy.dim, dtype=complex)
        return Measurement(m.labels, [np.kron(e, eye_s) for e in m.elements], kind="projective")

    return SynchronousStrategy(dim, build, cache_size=64)


# ---------------------------------------------------------------------------
# answer reduction


@dataclass(frozen=True)
class IndexMaps:
    """Proof indexing: answer bit i of player one sits at witness index
    eta(i) = i, of player two at lambda(i) = T + i."""

    T: int

    def eta(self, i: int) -> int:
        if not 1 <= i <= self.T:
            raise ValueError(f"eta index {i} outside 1..{self.T}")
        return i

    def lam(self, i: int) -> int:
        if not 1 <= i <= self.T:
            raise ValueError(f"lambda index {i} outside 1..{self.T}")
        return self.T + i

    def eta_inv(self, v: int) -> int | None:
        return v if 1 <= v <= self.T else None

    def lam_inv(self, v: int) -> int | None:
        return v - self.T if self.T < v <= 2 * self.T else None


@dataclass
class TmDecider:
    """Uniform family of hardwired deciders D_{x,y} with one state count."""

    machine_for: object
    state_count: int


def synthesize_tm_decider(game: Game) -> TmDecider:
    """Prefix-readable deciders for every question pair of a tiny game.

    For a nontrivial ordered pair (x, y) the machine decides the
    projection exists-b D(x, y, a, b) of the winning predicate on the
    encoded bits of the first answer; trivial pairs get the always-accept
    machine.  All machines are padded to one common state count so the
    Cook-Levin variable count is pair-independent.  Pairs with the same
    projection share one machine, built and padded once.
    """
    keys: dict = {}
    # key None: the always-accept machine of trivial and diagonal pairs
    by_table: dict = {None: always_accept_machine()}
    for x, y in game.nontrivial_pairs():
        if x == y:
            continue  # diagonal consistency is enforced by the reduced game
        exists_b = game.accept_mask(x, y).any(axis=1)
        width, encode = index_answer_bits(len(exists_b))
        key = (width, exists_b.tobytes())
        if key not in by_table:
            table = dict.fromkeys(itertools.product((0, 1), repeat=width), False)
            for idx, ok in enumerate(exists_b):
                table[encode(idx)] = bool(ok)
            by_table[key] = prefix_predicate_machine(table, width)
        keys[(x, y)] = key
    state_count = max(len(m.states) for m in by_table.values())
    padded = {key: pad_states(m, state_count) for key, m in by_table.items()}

    def machine_for(x, y) -> TuringMachine:
        return padded[keys.get((x, y))]

    return TmDecider(machine_for=machine_for, state_count=state_count)


@functools.cache
def _padded_codes(num_answers: int, T: int) -> tuple[tuple[int, ...], ...]:
    """Index codes of num_answers answers padded to T bits; questions with
    equal answer counts share them."""
    width, encode = index_answer_bits(num_answers)
    pad = (0,) * (T - width)
    return tuple(encode(k) + pad for k in range(num_answers))


class _ARContext:
    """Shared data for an answer-reduced game and its honest lift."""

    def __init__(self, game: Game, T: int, decider: TmDecider):
        self.game = game
        self.T = T
        self.decider = decider
        self.maps = IndexMaps(T)
        base = list(game.questions)
        self.base_questions = base
        self.n_base = len(base)
        rep = decider.machine_for(base[0], base[0])
        layout = TableauLayout(rep, T, 2 * T)
        self.L = layout.num_vars
        self._pi: OrderedDict = OrderedDict()
        # (machine, witness) -> (outcome, proof bits); pairs whose deciders
        # share a machine share their runs
        self._runs: dict = {}
        self._codes: dict = {}
        for x in base:  # the budget check, for every question at build time
            self.padded_codes(x)

    def padded_codes(self, x) -> tuple[tuple[int, ...], ...]:
        """Encoded answers of x padded to T bits, in answer order.

        This is the time-budget check of the reduction: a synthesized
        decider halts within the width of the answer it reads, so its run
        fits the budget T whenever that width does.
        """
        codes = self._codes.get(x)
        if codes is None:
            n = len(self.game.answers(x))
            width, _ = index_answer_bits(n)
            if width > self.T:
                raise ValueError(
                    f"answers of {x!r} need {width} bits, above the budget T={self.T}"
                )
            codes = self._codes[x] = _padded_codes(n, self.T)
        return codes

    def padded_bits(self, x, a) -> tuple[int, ...]:
        return self.padded_codes(x)[self.game.answers(x).index(a)]

    def witness(self, x, y, a, b) -> tuple[int, ...]:
        return self.padded_bits(x, a) + self.padded_bits(y, b)

    def proof_table(self, x, y) -> dict:
        """(a, b) -> (outcome, proof bit tuple) for the run on its witness.

        Each distinct (machine, witness) runs once per context; tables of
        pairs that share a decider machine hold the same run objects.
        """
        key = (x, y)
        try:
            val = self._pi.pop(key)
            self._pi[key] = val
            return val
        except KeyError:
            pass
        mach = self.decider.machine_for(x, y)
        ans_x, ans_y = self.game.answers(x), self.game.answers(y)
        if self.game.nontrivial(x, y):
            pairs = itertools.product(range(len(ans_x)), range(len(ans_y)))
        else:
            a0, b0 = _designated(self.game, x, y)
            pairs = [(ans_x.index(a0), ans_y.index(b0))]
        codes_x, codes_y = self.padded_codes(x), self.padded_codes(y)
        runs = self._runs
        table = {}
        for i, j in pairs:
            w = codes_x[i] + codes_y[j]
            run = runs.get((mach, w))
            if run is None:
                outcome, asg = tableau_assignment(mach, self.T, w)
                run = runs[(mach, w)] = (outcome, asg.bits)
            table[(ans_x[i], ans_y[j])] = run
        self._pi[key] = table
        if len(self._pi) > 512:
            self._pi.popitem(last=False)
        return table

    def clauses(self, x, y, j, k, l):
        return clause_access(self.decider.machine_for(x, y), self.T, 2 * self.T, j, k, l)


class _ARQuestions:
    """Lazy indexed question space X^orac x ([L] + [L]^2 + [L]^3).

    It is indexed, never enumerated: iteration raises BudgetError.
    """

    def __init__(self, ctx: _ARContext):
        self.ctx = ctx
        n, L = ctx.n_base, ctx.L
        self.n_game = n + n * n
        self.n_proof = L + L * L + L**3
        self._len = self.n_game * self.n_proof

    def __len__(self):
        return self._len

    def __getitem__(self, idx):
        if not 0 <= idx < self._len:
            raise IndexError(idx)
        g_idx, p_idx = divmod(idx, self.n_proof)
        n, L = self.ctx.n_base, self.ctx.L
        base = self.ctx.base_questions
        if g_idx < n:
            g = ("iso", base[g_idx])
        else:
            k = g_idx - n
            g = ("ora", base[k // n], base[k % n])
        if p_idx < L:
            p = p_idx + 1
        elif p_idx < L + L * L:
            j, k = divmod(p_idx - L, L)
            p = (j + 1, k + 1)
        else:
            rest = p_idx - L - L * L
            j, kl = divmod(rest, L * L)
            k, l = divmod(kl, L)
            p = (j + 1, k + 1, l + 1)
        return (g, p)

    def __iter__(self):
        # a plain function, so list() raises before sizing a list by len()
        raise BudgetError(
            f"enumerating {self._len:,} answer-reduced questions is out of reach;"
            " index them or use sampled_value"
        )

    def maybe_nontrivial(self, xi, yi):
        """Index pairs the rule can engage: the diagonal, or exactly one
        side asking a single proof index (rows 2-4)."""
        L, n_proof = self.ctx.L, self.n_proof
        return (xi == yi) | ((xi % n_proof < L) != (yi % n_proof < L))


_AR_ANS1 = (0, 1)
_AR_ANS2 = tuple(itertools.product((0, 1), repeat=2))
_AR_ANS3 = tuple(itertools.product((0, 1), repeat=3))


def _ar_answers(q):
    p = q[1]
    if isinstance(p, int):
        return _AR_ANS1
    return _AR_ANS2 if len(p) == 2 else _AR_ANS3


def answer_reduce(game: Game, T: int) -> Game:
    """Answer-reduced game: proofs queried at one to three indices.

    Questions pair an oracularized game question with proof indices from
    [L] + [L]^2 + [L]^3 where L is the Cook-Levin variable count of the
    pair decider at time budget T and witness length 2T; answers are one
    to three bits.  Exact evaluation is refused (the proof-question space
    is the one genuinely huge object); use sampled_value.
    """
    if T < 1:
        raise ValueError("time budget must be positive")
    ctx = _ARContext(game, T, synthesize_tm_decider(game))
    questions = _ARQuestions(ctx)
    maps = ctx.maps

    def row_mask(q1, q2):
        """Rows 2-4 for q1 = (game question, single index), or None."""
        g1, i = q1
        g2, p2 = q2
        if g1[0] != "ora" or not isinstance(p2, tuple):
            return None
        x, y = g1[1], g1[2]
        if g2 == g1 and len(p2) == 3:
            # row 2: the triple is consistent, repeats bit i and satisfies
            # the clauses of the decider's tableau over its indices
            if i not in p2 or not game.nontrivial(x, y):
                return None
            found = ctx.clauses(x, y, *p2) or ()
            mask = np.zeros((len(_AR_ANS1), len(_AR_ANS3)), dtype=bool)
            for k, a2 in enumerate(_AR_ANS3):
                assign = {}
                if any(assign.setdefault(var, bit) != bit for var, bit in zip(p2, a2)):
                    continue
                mask[_AR_ANS1.index(assign[i]), k] = all(
                    any((assign[abs(lit)] == 1) == (lit > 0) for lit in clause)
                    for clause in found
                )
            return mask
        if g2[0] == "iso" and len(p2) == 2:
            # rows 3-4: slots of the isolated query that read bit i of the
            # oracle proof must repeat it
            z = g2[1]
            slots = [
                s
                for s, j in enumerate(p2)
                if (z == x and maps.eta_inv(i) == j) or (z == y and maps.lam_inv(i) == j)
            ]
            if not slots or not game.nontrivial(x, y):
                return None
            return np.array(
                [[all(a2[s] == a1 for s in slots) for a2 in _AR_ANS2] for a1 in _AR_ANS1],
                dtype=bool,
            )
        return None

    def rule(q1, q2):
        # rows 2-4 pair a single proof index with an index pair or triple;
        # most sampled pairs have none and leave here
        if isinstance(q1[1], int):
            return row_mask(q1, q2)
        if isinstance(q2[1], int):
            return _transposed(row_mask(q2, q1))
        return None

    def refuse_pairs():
        cost = ctx.L**3 * (ctx.n_base + ctx.n_base**2) ** 2
        raise BudgetError(
            f"exact evaluation needs ~{cost:.2e} pair visits"
            f" (budget {EXACT_EVAL_BUDGET:.0e}); use sampled_value"
        )

    out = Game(
        f"{game.name}.ans", questions, _ar_answers, rule,
        nontrivial_pairs=refuse_pairs, maybe_nontrivial=questions.maybe_nontrivial,
    )
    out.ar_context = ctx
    return out


def lift_answer_reduce(
    game: Game,
    strategy: SynchronousStrategy,
    T: int,
    *,
    reduced: Game | None = None,
) -> SynchronousStrategy:
    """Honest lift onto the answer-reduced game, same dimension.

    Oracle questions measure M^x M^y jointly (base-trivial pairs report a
    designated answer) and read the queried bits off the Cook-Levin proof
    of their run; isolated questions report bits of their own padded
    encoded answer.  Pass the already-built reduced game to share its
    decider context.
    """
    _require_oracularizable(game, strategy)
    if reduced is None:
        reduced = answer_reduce(game, T)
    return _lift_reduced(reduced.ar_context, strategy)


def _lift_reduced(ctx: _ARContext, strategy: SynchronousStrategy) -> SynchronousStrategy:
    """The answer-reduction lift of an oracularizable strategy.

    Each question sums the elements of its source measurement (the base
    measurement of an isolated question, the oracle terms of an oracle
    pair) into the label of the bits it reads from that element's bit
    string: the padded encoded answer, or the proof of the answer pair's
    run.  Indices past a padded answer read 0.
    """
    dim = strategy.dim
    zero = np.zeros((dim, dim), dtype=complex)

    def bit(bits, i):
        return bits[i - 1] if i <= len(bits) else 0

    def build(q):
        g, p = q
        if g[0] == "iso":
            x = g[1]
            m = strategy.measurement(x)
            sources = [(ctx.padded_bits(x, a), e) for a, e in zip(m.labels, m.elements)]
        else:
            proofs = ctx.proof_table(g[1], g[2])
            terms = _oracle_terms(ctx.game, strategy, g[1], g[2])
            sources = [(proofs[ab][1], e) for ab, e in terms.items()]
        sums: dict = {}
        for bits, e in sources:
            lab = bit(bits, p) if isinstance(p, int) else tuple(bit(bits, i) for i in p)
            sums[lab] = e if lab not in sums else sums[lab] + e
        labels = _ar_answers(q)
        return Measurement(labels, [sums.get(lab, zero) for lab in labels], kind="projective")

    return SynchronousStrategy(dim, build, cache_size=1024)


# ---------------------------------------------------------------------------
# gapless compression


def gapless_compress(game: Game, T: int) -> Game:
    """Introspection followed by answer reduction.

    The compressed game keeps references to the intermediate introspection
    game (attribute intro_game) so honest lifts can share its context.
    """
    intro = introspect(game)
    reduced = answer_reduce(intro, T)
    reduced.intro_game = intro
    return reduced


def lift_gapless_compress(
    game: Game,
    strategy: SynchronousStrategy,
    T: int,
    *,
    compressed: Game | None = None,
) -> SynchronousStrategy:
    """Compose the introspection and answer-reduction lifts."""
    lifted_intro = lift_introspection(game, strategy)  # checks oracularizability
    if compressed is None:
        compressed = gapless_compress(game, T)
    return _lift_reduced(compressed.ar_context, lifted_intro)
