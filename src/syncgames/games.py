"""Synchronous nonlocal games and their tracial-strategy evaluation.

A game is a question set, per-question answer labels and one pair rule;
the question distribution is always uniform.  The rule maps a question
pair (x, y) with x != y to its boolean accept mask over answers(x) x
answers(y), or to None when every answer pair wins (a trivial pair); the
game itself answers the diagonal (x, x) with the identity mask, so every
game is synchronous by construction.  The nontrivial test, the accept
mask and the decision predicate are all read off Game.rule.  A game
may add maybe_nontrivial(xi, yi), which maps arrays of question indices to
a boolean array that is False only where rule(questions[xi],
questions[yi]) is None; sampled_value uses it to score the draws that
cannot be engaged in bulk, without decoding their questions.  A
synchronous strategy assigns one projective measurement per question on a
common dimension; correlations are tr(M^x_a M^y_b)/dim.  A strategy may
also describe a question's measurement as a Kronecker product of small
projective parts, one per tensor factor (see SynchronousStrategy).

Exact and sampled evaluation read correlations from one formula, _gram,
which works in a per-question eigenbasis so each pair costs one d x d
unitary product.  Building that eigenbasis checks that the measurement is
projective within DEFAULT_TOL and carries the game's answer labels.  The
eigenbasis of a factored measurement is the Kronecker product of its
parts' eigenbases, each diagonalized once per evaluator, so such a
question is never densified.  Exact evaluation walks only the nontrivial
question pairs (trivial pairs contribute winning mass analytically), all
through StrategyEvaluator.win_probabilities.  A pair that the game's slots
hook splits over shared tensor copies, and whose two questions are
factored exactly on those copies, scores there as the product of its
copies' win probabilities (copy_win), each from _gram on the parts'
eigenbases once per evaluator.  Below d=64 the other pairs whose
questions share their answer-group sizes run through _gram as stacked
products, with the bits of one pair at a time.  Sampled evaluation draws
answer pairs from the one-pair cross_gram.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, Measurement

__all__ = [
    "Game",
    "SynchronousStrategy",
    "EvaluationReport",
    "value",
    "sampled_value",
    "is_oracularizable",
    "table_game",
    "index_answer_bits",
]


@functools.cache
def index_answer_bits(num_answers: int):
    """Fixed-width big-endian index encoding for an answer list."""
    width = max(1, (num_answers - 1).bit_length()) if num_answers > 1 else 0

    def encode(idx: int) -> tuple[int, ...]:
        return tuple((idx >> (width - 1 - k)) & 1 for k in range(width))

    return width, encode


@functools.cache
def _identity(num_answers: int) -> np.ndarray:
    """Read-only identity mask: on the diagonal only equal answers win."""
    eye = np.eye(num_answers, dtype=bool)
    eye.flags.writeable = False
    return eye


def _transposed(mask):
    """Mask of the swapped question pair; None stays None.

    The copy is C-contiguous like a freshly built mask, so consumers that
    hand masks to BLAS (the see-saw's tensordot) see one memory layout.
    """
    return None if mask is None else np.ascontiguousarray(mask.T)


class Game:
    """Synchronous game with uniform question distribution.

    questions is any indexable sequence (lazily indexed for transformed
    games whose question space is too large to materialize).  answers(x)
    lists the answer labels of x.  The pair rule is called for ordered
    pairs (x, y) with x != y only, and returns the boolean accept mask
    over answers(x) x answers(y), or None for a trivial pair; rule(y, x)
    is the transpose of rule(x, y).  It must return None before building
    anything, since samplers test millions of pairs.  Game.rule answers the
    diagonal (x, x) itself with a cached identity mask.  Masks are
    read-only to callers, so a rule may return cached arrays.  Optional
    hooks provide direct nontrivial-pair enumeration (which fixes the pair
    order of exact evaluation), a bulk filter maybe_nontrivial(xi, yi) over
    arrays of question indices (False only where the rule returns None; it
    may be True on trivial pairs) and slots(x, y), for games built from
    tensor copies of one copy game.  On a nontrivial pair whose mask is a
    product over the copies both players ask about, slots returns
    (copy_game, slots) with one slot (kx, ky, u, v) per shared copy: answer
    component kx of x and ky of y answer the copy game's questions u and v
    there, and rule(x, y) at answers (a, b) is the product of
    copy_game.rule(u, v) at (a[kx], b[ky]); on other pairs None.  Question
    labels must be hashable.  Answers are encoded in binary by their index
    (index_answer_bits).
    """

    def __init__(
        self,
        name: str,
        questions,
        answers,
        rule,
        *,
        nontrivial_pairs=None,
        maybe_nontrivial=None,
        slots=None,
    ):
        self.name = name
        self.questions = questions
        self._answers = answers
        self._rule = rule
        self._nontrivial_pairs = nontrivial_pairs
        self.maybe_nontrivial = maybe_nontrivial
        self.slots = slots
        self._answer_cache: dict = {}

    def __repr__(self):
        return f"Game({self.name!r}, {len(self.questions)} questions)"

    def answers(self, x) -> tuple:
        try:
            return self._answer_cache[x]
        except KeyError:
            out = tuple(self._answers(x))
            if not out:
                raise ValueError(f"question {x!r} has an empty answer set")
            if len(self._answer_cache) < 4096:
                self._answer_cache[x] = out
            return out

    def rule(self, x, y):
        """Accept mask of (x, y), or None when every answer pair wins;
        the diagonal is the identity without consulting the pair rule."""
        if x == y:
            return _identity(len(self.answers(x)))
        return self._rule(x, y)

    def nontrivial(self, x, y) -> bool:
        return self.rule(x, y) is not None

    def accept_mask(self, x, y) -> np.ndarray:
        """Read-only boolean matrix of winning answer pairs of (x, y)."""
        mask = self.rule(x, y)
        if mask is None:
            return np.broadcast_to(True, (len(self.answers(x)), len(self.answers(y))))
        return mask

    def decide(self, x, y, a, b) -> bool:
        """Whether answers a to x and b to y win."""
        mask = self.rule(x, y)
        if mask is None:
            return True
        return bool(mask[self.answers(x).index(a), self.answers(y).index(b)])

    def nontrivial_pairs(self):
        """Ordered nontrivial question pairs, deterministic order."""
        if self._nontrivial_pairs is not None:
            yield from self._nontrivial_pairs()
            return
        qs = list(self.questions)
        for x in qs:
            for y in qs:
                if self.nontrivial(x, y):
                    yield (x, y)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for square matrices without the generic-shape overhead."""
    na, nb = a.shape[0], b.shape[0]
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(na * nb, na * nb)


@functools.cache
def _identity_part(dim: int) -> Measurement:
    """The one-outcome part (label None) on a tensor factor left alone."""
    return Measurement((None,), [np.eye(dim, dtype=complex)], kind="projective")


def _kron_measurement(parts, index: dict) -> Measurement:
    """Dense form of a factored measurement (see SynchronousStrategy): one
    (answers, d, d) stack, grown by one broadcast product per part over the
    stack of every answer's element of that part, so each answer's element
    is the left-to-right _kron2 chain of its parts, bit for bit."""
    rows = list(index.values())
    out = np.ones((len(rows), 1, 1), dtype=complex)
    for k, part in enumerate(parts):
        b = np.asarray(part.elements)[[part.labels.index(row[k]) for row in rows]]
        na, nb = out.shape[1], b.shape[1]
        out = (out[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, na * nb, na * nb)
    return Measurement(tuple(index), out, kind="projective")


class SynchronousStrategy:
    """One projective measurement per question on a common dimension.

    measurements is either a dict {question: Measurement}, whose dimensions
    are checked here, or a callable building measurements on demand (used
    by lifted strategies over question spaces too large to materialize),
    called on every measurement(x); a strategy caches nothing.

    factors, when given, maps a question to None (measured by the builder)
    or to (parts, index): projective parts on the tensor factors in
    Kronecker order, and a dict from each answer label, in answer order, to
    one label per part.  Answer a's element is the Kronecker product of
    parts[k].element(index[a][k]), which measurement(x) builds; such a
    question needs no builder.  Evaluation reads the parts only, so a part
    object shared by many questions is diagonalized once.
    """

    def __init__(self, dim: int, measurements, *, factors=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)
        self.factors = factors
        if isinstance(measurements, dict):
            self._table = dict(measurements)
            self._builder = None
            for x, m in self._table.items():
                _check_dim(x, m.dim, self.dim)
        else:
            self._table = None
            self._builder = measurements

    def measurement(self, x) -> Measurement:
        if self._table is not None:
            try:
                return self._table[x]
            except KeyError:
                raise KeyError(f"strategy has no measurement for question {x!r}")
        spec = None if self.factors is None else self.factors(x)
        m = self._builder(x) if spec is None else _kron_measurement(*spec)
        _check_dim(x, m.dim, self.dim)
        return m

    def validate(self) -> None:
        if self._table is None:
            return
        for m in self._table.values():
            m.validate()

    def conjugated(self, u: np.ndarray) -> "SynchronousStrategy":
        """Conjugate every measurement by one fixed unitary."""
        if self._table is None:
            raise ValueError("conjugation requires a materialized strategy")
        table = {x: m.conjugated(u) for x, m in self._table.items()}
        return SynchronousStrategy(self.dim, table)


_REPORT_ATOL = 1e-12  # how far a report's value may sit from its summed terms


@dataclass
class EvaluationReport:
    """Exact value split into trivial mass and per-nontrivial-pair terms."""

    value: float
    per_pair: dict = field(repr=False)
    trivial_mass: float
    question_count: int

    def check_consistency(self) -> None:
        n2 = self.question_count**2
        recomputed = self.trivial_mass + math.fsum(self.per_pair.values()) / n2
        if abs(recomputed - self.value) > _REPORT_ATOL:
            raise AssertionError(
                f"report inconsistent: {recomputed} vs {self.value}"
            )


_NOT_PROJECTIVE = "measurement is not projective within tolerance"
_NOT_COMPLETE = "measurement is not a complete projective family"
_NOT_IDENTITY = "measurement does not sum to the identity"


def _check_labels(labels: tuple, labels_expected) -> None:
    if labels != tuple(labels_expected):
        raise ValueError(f"measurement labels {labels!r} do not match game answers")


def _check_dim(x, dim: int, strategy_dim: int) -> None:
    if dim != strategy_dim:
        raise ValueError(f"measurement for {x!r} has dim {dim}, strategy dim {strategy_dim}")


class _EigenForm:
    """Joint eigenbasis of a projective measurement.

    Columns of u are grouped by outcome; group a spans the range of the
    projection for answer a.  Built with a single Hermitian
    eigendecomposition of sum_a (a_index + 1) M_a, whose eigenvalues must
    be integers and whose M_a must sum to the identity, within DEFAULT_TOL,
    or, by product(), from the forms of a factored measurement's parts
    without one.  group is the 0/1 matrix summing the columns by answer.
    """

    __slots__ = ("u", "uh", "starts", "counts", "group")

    def __init__(self, m: Measurement, labels_expected):
        _check_labels(m.labels, labels_expected)
        d = m.dim
        h = np.zeros((d, d), dtype=complex)
        excess = -np.eye(d, dtype=complex)  # sum of the elements less the identity
        for k, e in enumerate(m.elements):
            h += (k + 1) * e
            excess += e
        w, v = np.linalg.eigh(h)
        idx = np.rint(w).astype(int)
        if np.abs(w - idx).max() > DEFAULT_TOL:
            raise ValueError(_NOT_PROJECTIVE)
        if idx.min() < 0 or idx.max() > len(m.elements):
            raise ValueError(_NOT_COMPLETE)
        counts = np.bincount(idx, minlength=len(m.elements) + 1)
        # integer eigenvalues alone admit a projector repeated in place of
        # a zero one: P, P sum to eigenvalue 3 and would read as answer 2
        if counts[0] != 0 or np.abs(excess).max() > DEFAULT_TOL:
            raise ValueError(_NOT_IDENTITY)
        self._set(v[:, np.argsort(idx, kind="stable")], counts[1:])

    def _set(self, u: np.ndarray, counts: np.ndarray) -> None:
        self.u = np.ascontiguousarray(u)
        self.uh = np.ascontiguousarray(self.u.conj().T)
        self.counts = counts
        self.starts = np.concatenate(([0], np.cumsum(self.counts)))
        self.group = _group_matrix(tuple(counts.tolist()))

    @classmethod
    def product(cls, parts: list, index: dict) -> "_EigenForm":
        """Form of a factored measurement from (form, {label: group}) per part.

        Its basis is the Kronecker product of the parts' bases, whose
        columns belong to one part label each; index must give every column
        exactly one answer, and the columns are regrouped by answer.
        """
        if any(len(row) != len(parts) for row in index.values()):
            raise ValueError(_NOT_COMPLETE)
        u = np.ones((1, 1), dtype=complex)
        column = np.zeros(1, dtype=np.intp)  # mixed-radix part labels per column
        rows = np.zeros(len(index), dtype=np.intp)  # the same, per answer
        for k, (form, groups) in enumerate(parts):
            u = _kron2(u, form.u)
            group = np.repeat(np.arange(len(groups)), form.counts)
            column = (column[:, None] * len(groups) + group).ravel()
            try:
                rows = rows * len(groups) + [groups[row[k]] for row in index.values()]
            except KeyError:  # a row naming no outcome of part k
                raise ValueError(_NOT_COMPLETE) from None
        size = math.prod(len(groups) for _, groups in parts)
        hits = np.bincount(rows, minlength=size)[column]
        if (hits > 1).any():
            raise ValueError(_NOT_COMPLETE)
        if (hits == 0).any():
            raise ValueError(_NOT_IDENTITY)
        answer_of = np.empty(size, dtype=np.intp)
        answer_of[rows] = np.arange(len(rows))
        answer = answer_of[column]
        form = cls.__new__(cls)
        form._set(u[:, np.argsort(answer, kind="stable")], np.bincount(answer, minlength=len(rows)))
        return form


def _copy_layout(parts: list, index: dict, answers: tuple, dim: int):
    """((part, copy) per answer component, part dimensions) when index is
    exactly a copy layout, else None.

    That is: index lists the game's answers; each row puts component k of
    its answer on a copy c_k of its own, and the answers are the product of
    the labels of the parts on those copies; every other part has a single
    outcome, which every row names; and the part dimensions multiply to dim.
    """
    rows = list(index.values())
    if tuple(index) != answers or math.prod(p.dim for p in parts) != dim:
        return None
    if any(len(row) != len(parts) for row in rows):
        return None
    columns = list(zip(*rows))
    copies = [columns.index(c) if c in columns else -1 for c in zip(*answers)]
    if -1 in copies or len(set(copies)) != len(copies):
        return None
    if answers != tuple(itertools.product(*(parts[c].labels for c in copies))):
        return None
    if any(c not in copies and columns[c] != p.labels * len(rows) for c, p in enumerate(parts)):
        return None
    return tuple((parts[c], c) for c in copies), tuple(p.dim for p in parts)


@functools.cache
def _group_matrix(counts: tuple) -> np.ndarray:
    """Read-only group matrix of a list of group sizes, one object per
    list, so that pairs can be stacked by it."""
    s = np.zeros((len(counts), sum(counts)))
    pos = 0
    for i, c in enumerate(counts):
        s[i, pos : pos + c] = 1.0
        pos += c
    s.flags.writeable = False
    return s


def _gram(uh_x, u_y, g_x, g_yt, dim: int) -> np.ndarray:
    """tr(M^x_a M^y_b)/dim from the bases u_x^H and u_y and the group
    matrices g_x and g_y^T, for one pair or for stacks of pairs."""
    w = uh_x @ u_y
    e = w.real**2 + w.imag**2
    return (g_x @ e @ g_yt) / dim


# queued pairs are scored as one stack once they hold this many bytes of
# d x d complex unitaries: 16 pairs at d=16, 4 at d=32.  From d=64 on a
# pair's products outweigh its call overhead and gathering them only
# costs: on a 2-vCPU x86 VM with one BLAS thread, stacks of 2 and 4
# pairs ran 10-25% and 2.5x slower there than one pair at a time, the
# larger ones from page faults on their fresh temporaries.
_STACK_BYTES = 1 << 16


class StrategyEvaluator:
    """Cached eigenbasis forms plus pairwise winning probabilities.

    tol is accepted only as DEFAULT_TOL, for callers that still pass it.
    """

    def __init__(self, game: Game, strategy: SynchronousStrategy, tol: float = DEFAULT_TOL):
        if tol != DEFAULT_TOL:
            raise ValueError(f"evaluation tolerance is fixed at DEFAULT_TOL = {DEFAULT_TOL}")
        self.game = game
        self.strategy = strategy
        self._forms: dict = {}
        self._parts: dict = {}  # id(part) -> (part, its form, {label: group})
        self._layouts: dict = {}  # question -> layout(question)
        self._copy_wins: dict = {}  # (id(part_x), id(part_y), u, v) -> that copy's win

    def form(self, x) -> _EigenForm:
        try:
            return self._forms[x]
        except KeyError:
            pass
        spec = None if self.strategy.factors is None else self.strategy.factors(x)
        if spec is None:
            f = _EigenForm(self.strategy.measurement(x), self.game.answers(x))
        else:
            parts, index = spec
            _check_labels(tuple(index), self.game.answers(x))
            f = _EigenForm.product([self._part(p) for p in parts], index)
            _check_dim(x, len(f.u), self.strategy.dim)
        self._forms[x] = f
        return f

    def _part(self, part: Measurement) -> tuple:
        """(form, {label: group}) of one factor, diagonalized once; the
        part is kept so that its id stays its own."""
        try:
            return self._parts[id(part)][1:]
        except KeyError:
            form = _EigenForm(part, part.labels)
            groups = {label: k for k, label in enumerate(part.labels)}
            self._parts[id(part)] = (part, form, groups)
            return form, groups

    def layout(self, x):
        """_copy_layout of x's factors, or None.  Every part of a copy
        layout goes through _part; its d x d form is not built."""
        if x in self._layouts:
            return self._layouts[x]
        spec = None if self.strategy.factors is None else self.strategy.factors(x)
        out = None if spec is None else _copy_layout(*spec, self.game.answers(x), self.strategy.dim)
        if out is not None:
            for part in spec[0]:
                self._part(part)
        self._layouts[x] = out
        return out

    def copy_win(self, x, y):
        """win_probability(x, y) as the product over the pair's slots of
        each shared copy's win probability, or None where the game gives no
        slots, a question is no copy layout, the two split the dimension
        differently, or slots do not sit on distinct shared copies.  A copy
        one player alone asks about contributes 1: its elements sum to the
        identity."""
        shared = None if self.game.slots is None else self.game.slots(x, y)
        lx = None if shared is None else self.layout(x)
        ly = None if lx is None else self.layout(y)
        if ly is None or lx[1] != ly[1]:
            return None
        copy_game, slots = shared
        win, copies = 1.0, []
        for kx, ky, u, v in slots:
            (px, c), (py, cy) = lx[0][kx], ly[0][ky]
            if c != cy or c in copies:
                return None
            copies.append(c)
            key = (id(px), id(py), u, v)
            w = self._copy_wins.get(key)
            if w is None:  # the copy game's pair (u, v) under parts px and py
                (fx, _), (fy, _) = self._part(px), self._part(py)
                gram = _gram(fx.uh, fy.u, fx.group, fy.group.T, px.dim)
                w = self._copy_wins[key] = float((gram * copy_game.rule(u, v)).sum())
            win *= w
        return win

    def cross_gram(self, x, y) -> np.ndarray:
        """Matrix of tr(M^x_a M^y_b)/dim over answer pairs."""
        fx, fy = self.form(x), self.form(y)
        return _gram(fx.uh, fy.u, fx.group, fy.group.T, self.strategy.dim)

    def win_probability(self, x, y) -> float:
        mask = self.game.accept_mask(x, y)
        gram = self.cross_gram(x, y)
        return float((gram * mask).sum())

    def win_probabilities(self, pairs: list) -> list:
        """Win probability of each pair: copy_win where it answers, else
        win_probability with the same bits.

        Pairs are taken in order, each through copy_win (tried only when the
        game has slots and the strategy factors) and then its mask and
        forms, so a refusal is the one the per-pair loop meets first.  Pairs
        whose questions share group matrices are queued and scored as one
        stack once _STACK_BYTES of d x d unitaries are queued, or one at a
        time where fewer than two fit; every slice of the stacked products
        has the layout of the one-pair operands, so BLAS makes the same
        calls per pair.
        """
        per_copy = self.game.slots is not None and self.strategy.factors is not None
        size = _STACK_BYTES // (16 * self.strategy.dim**2)
        out = [0.0] * len(pairs)
        queues: dict = {}
        for k, (x, y) in enumerate(pairs):
            p = self.copy_win(x, y) if per_copy else None
            if p is not None:
                out[k] = p
            elif size < 2:
                out[k] = self.win_probability(x, y)
            else:
                mask = self.game.accept_mask(x, y)
                fx, fy = self.form(x), self.form(y)
                gx, gy = fx.group, fy.group
                gx, gy, queue = queues.setdefault((id(gx), id(gy)), (gx, gy, []))
                queue.append((k, fx.uh, fy.u, mask))
                if len(queue) == size:
                    self._score(gx, gy, queue, out)
                    queue.clear()
        for gx, gy, queue in queues.values():
            if queue:
                self._score(gx, gy, queue, out)
        return out

    def _score(self, gx, gy, queue: list, out: list) -> None:
        ks, uhs, us, masks = zip(*queue)
        gram = _gram(np.array(uhs), np.array(us), gx, gy.T, self.strategy.dim)
        probs = (gram * np.array(masks)).reshape(len(ks), -1).sum(axis=1)
        for k, p in zip(ks, probs.tolist()):
            out[k] = p

    def worst_commutator(self, x, y) -> float:
        """max over (a,b) of ||[M^x_a, M^y_b]||_tau.

        In the x eigenbasis M^x_a is a 0/1 block selector S_a and the
        commutator with K_b = basis-changed M^y_b keeps exactly the
        off-block entries of K_b, so the residual is an entrywise sum
        and stays accurate near zero.  The answers of y with one group
        size go through the products as one stack.
        """
        fx, fy = self.form(x), self.form(y)
        w = fx.uh @ fy.u
        gx = fx.group
        worst = 0.0
        for c in set(fy.counts.tolist()) - {0}:
            wb = np.array([w[:, s : s + c] for s, n in zip(fy.starts, fy.counts) if n == c])
            e = np.abs(wb @ wb.conj().transpose(0, 2, 1)) ** 2
            re = gx @ e @ gx.T
            diag = np.diagonal(re, axis1=1, axis2=2)
            worst = max(worst, (re.sum(axis=2) + re.sum(axis=1) - 2 * diag).max())
        return math.sqrt(max(worst / self.strategy.dim, 0.0))


def value(game: Game, strategy: SynchronousStrategy) -> EvaluationReport:
    """Exact value of a synchronous strategy.

    Iterates nontrivial pairs only; trivial pairs contribute winning mass
    analytically.  All pairs are scored by win_probabilities: when the game
    has a slots hook and the strategy has factors, a pair with slots whose
    questions are both copy layouts costs a product of per-copy win
    probabilities (copy_win), with no d x d form; every other pair costs
    one d x d unitary product, and below d=64 pairs of one answer shape run
    in stacks.  A refusal is the one the pair loop meets first.  Pair
    contributions are accumulated with compensated summation in the fixed
    order of nontrivial_pairs, so results are bit-stable.
    """
    n = len(game.questions)
    pairs = list(game.nontrivial_pairs())
    probs = StrategyEvaluator(game, strategy).win_probabilities(pairs)
    per_pair = dict(zip(pairs, probs))
    trivial_count = n * n - len(pairs)
    total = (trivial_count + math.fsum(probs)) / (n * n)
    if not -1e-10 <= total <= 1 + 1e-10:
        raise AssertionError(f"value {total} outside [0, 1] window")
    total = min(max(total, 0.0), 1.0)
    return EvaluationReport(
        value=total,
        per_pair=per_pair,
        trivial_mass=trivial_count / (n * n),
        question_count=n,
    )


def sampled_value(
    game: Game,
    strategy: SynchronousStrategy,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the value with binomial standard error.

    Draws (x, y) uniformly, then draws an answer pair from the cross-gram
    tr(M^x_a M^y_b)/dim of the StrategyEvaluator that exact evaluation
    uses, and scores it against the accept mask.  The strategy must be
    projective within DEFAULT_TOL and carry the game's answer labels on every
    question a draw engages; otherwise the evaluator's ValueError
    propagates.  Draws that the game's maybe_nontrivial hook rules out win
    without being decoded.  Deterministic given the seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = len(game.questions)
    xi = rng.integers(0, n, size=samples)
    yi = rng.integers(0, n, size=samples)
    unif = rng.random(size=samples)
    ev = StrategyEvaluator(game, strategy)

    @functools.lru_cache(maxsize=4096)
    def answer_cdf(x, y):
        """CDF over the flattened answer pairs, column count, accept mask."""
        gram = ev.cross_gram(x, y)
        cdf = np.cumsum(gram.ravel())
        return cdf / cdf[-1], gram.shape[1], game.accept_mask(x, y)

    if game.maybe_nontrivial is None:
        todo = range(samples)
    else:
        todo = np.flatnonzero(game.maybe_nontrivial(xi, yi))
    wins = samples - len(todo)
    for k in todo:
        x = game.questions[int(xi[k])]
        y = game.questions[int(yi[k])]
        if not game.nontrivial(x, y):
            wins += 1
            continue
        cdf, cols, mask = answer_cdf(x, y)
        ia, ib = divmod(int(np.searchsorted(cdf, unif[k], side="right")), cols)
        if mask[ia, ib]:
            wins += 1
    est = wins / samples
    stderr = math.sqrt(est * (1.0 - est) / samples)
    return est, stderr


def is_oracularizable(
    game: Game,
    strategy: SynchronousStrategy,
    *,
    max_pairs: int | None = None,
) -> tuple[bool, float]:
    """Worst commutator residual over off-diagonal nontrivial pairs,
    compared to DEFAULT_TOL.

    Returns (all residuals <= DEFAULT_TOL, worst residual).  Diagonal pairs
    are skipped: a projective measurement commutes with itself.  max_pairs
    caps the number of pairs examined (deterministic evenly spaced
    subsample) for games whose pair set is too large to exhaust; it must
    be at least 1.
    """
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be at least 1, got {max_pairs}")
    ev = StrategyEvaluator(game, strategy)
    pairs = [(x, y) for x, y in game.nontrivial_pairs() if x != y]
    if max_pairs is not None and len(pairs) > max_pairs:
        idxs = np.linspace(0, len(pairs) - 1, max_pairs).astype(int)
        pairs = [pairs[int(i)] for i in idxs]
    worst = 0.0
    for x, y in pairs:
        worst = max(worst, ev.worst_commutator(x, y))
    return worst <= DEFAULT_TOL, worst


def table_game(
    name: str,
    questions,
    answers: dict,
    nontrivial_pairs: list,
    accept: dict,
) -> Game:
    """Tiny explicit game: listed nontrivial pairs with accept-sets.

    accept maps each listed ordered pair (x, y) to the accepted answer
    pairs (a, b); unlisted pairs are trivial.  Diagonal pairs are refused
    (the game accepts exactly a = b there), as are questions listed twice,
    answer lists that are empty, list an answer twice or belong to no listed
    question, pairs naming other questions, accepted answers a question does
    not list, accept entries for unlisted pairs, entries for (x, y) and
    (y, x) that are not mirrors of each other and listed pairs without
    accept sets; each refusal names the argument (the table document's
    field) at fault.
    """
    questions = list(questions)
    seen = set()
    for x in questions:
        if x in seen:
            raise ValueError(f"table field 'questions' lists question {x!r} twice")
        if x not in answers:
            raise ValueError(f"table field 'answers' has no list for question {x!r} of 'questions'")
        if not answers[x] or len(set(answers[x])) != len(answers[x]):
            raise ValueError(f"table field 'answers' needs distinct answers for {x!r}, got {answers[x]!r}")
        seen.add(x)
    for x in answers:
        if x not in seen:
            raise ValueError(f"table field 'answers' has a list for question {x!r}, not in 'questions'")
    answers = {x: tuple(answers[x]) for x in questions}
    nontrivial_pairs = list(nontrivial_pairs)
    for field, entries in (("nontrivial_pairs", nontrivial_pairs), ("accept", accept)):
        for x, y in entries:
            if x == y:
                raise ValueError(
                    f"table field {field!r} lists the diagonal pair {(x, y)!r}; it always accepts a = b"
                )
            if x not in answers or y not in answers:
                raise ValueError(
                    f"table field {field!r} pair {(x, y)!r} names a question not in 'questions'"
                )
    listed = {p for x, y in nontrivial_pairs for p in ((x, y), (y, x))}
    for pair in accept:
        if pair not in listed:
            raise ValueError(f"table field 'accept' pair {pair!r} is not in 'nontrivial_pairs'")
    accept_sets = {}
    for (x, y), pairs in accept.items():
        for a, b in pairs:
            if a not in answers[x] or b not in answers[y]:
                raise ValueError(f"table field 'accept' pair {(x, y)!r} accepts {(a, b)!r}, not in 'answers'")
        ok = frozenset(pairs)
        if accept_sets.get((x, y), ok) != ok:
            raise ValueError(f"table field 'accept' pair {(x, y)!r} is not the mirror of {(y, x)!r}")
        accept_sets[(x, y)], accept_sets[(y, x)] = ok, frozenset((b, a) for a, b in ok)
    for pair in nontrivial_pairs:
        if pair not in accept_sets:
            raise ValueError(f"table field 'accept' has no entry for nontrivial pair {pair!r}")

    def rule(x, y):
        if (x, y) not in listed:
            return None
        ok = accept_sets[(x, y)]
        return np.array([[(a, b) in ok for b in answers[y]] for a in answers[x]], dtype=bool)

    return Game(name, questions, lambda x: answers[x], rule)


def _extended_game(name: str, base: Game, specials: dict, edges: dict) -> Game:
    """base plus the special questions of specials {question: answers}.

    A special's nontrivial pairs are its diagonal and the edges {(q, r):
    accept mask} naming it; each edge also holds in the order (r, q) with
    the transposed mask, and every edge mask is made read-only.  Pairs of
    base questions keep the base's rule, slots hook (which base must have)
    and order; the specials' diagonals follow them, then the edges in dict
    order, each in both orders.
    """
    table = {}
    for (q, r), mask in edges.items():
        table[(q, r)], table[(r, q)] = mask, _transposed(mask)
    for mask in table.values():
        mask.flags.writeable = False

    def answers(q):
        return specials[q] if q in specials else base._answers(q)

    def rule(q, r):
        if q in specials or r in specials:
            return table.get((q, r))
        return base._rule(q, r)

    def pairs():
        yield from base.nontrivial_pairs()
        for s in specials:
            yield (s, s)
        yield from table

    def slots(q, r):
        return None if q in specials or r in specials else base.slots(q, r)

    questions = list(base.questions) + list(specials)
    return Game(name, questions, answers, rule, nontrivial_pairs=pairs, slots=slots)
