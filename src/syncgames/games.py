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
common dimension; correlations are tr(M^x_a M^y_b)/dim.

Exact and sampled evaluation read correlations from one place,
StrategyEvaluator.cross_gram, which works in a per-question eigenbasis so
each pair costs one d x d unitary product.  Building that eigenbasis
checks that the measurement is projective within tol and carries the
game's answer labels.  Exact evaluation walks only the nontrivial question
pairs (trivial pairs contribute winning mass analytically); sampled
evaluation draws answer pairs from the same cross-grams.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, Measurement, Tolerance

__all__ = [
    "Game",
    "SynchronousStrategy",
    "EvaluationReport",
    "value",
    "sampled_value",
    "is_oracularizable",
    "tensor_extend",
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
    over answers(x) x answers(y), or None for a trivial pair; it must
    return None before building anything, since samplers test millions of
    pairs.  Game.rule answers the diagonal (x, x) itself with a cached
    identity mask.  Masks are read-only to callers, so a rule may return
    cached arrays.  Optional hooks provide direct nontrivial-pair enumeration
    (which fixes the pair order of exact evaluation), a bulk filter
    maybe_nontrivial(xi, yi) over arrays of question indices (False only
    where the rule returns None; it may be True on trivial pairs).
    Question labels must be hashable.  Answers are encoded in binary by
    their index (index_answer_bits).
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
    ):
        self.name = name
        self.questions = questions
        self._answers = answers
        self._rule = rule
        self._nontrivial_pairs = nontrivial_pairs
        self.maybe_nontrivial = maybe_nontrivial
        self._answer_cache: dict = {}

    def __repr__(self):
        return f"Game({self.name!r}, {self.question_count()} questions)"

    def question_count(self) -> int:
        return len(self.questions)

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


class SynchronousStrategy:
    """One projective measurement per question on a common dimension.

    measurements is either a dict {question: Measurement} or a callable
    building measurements on demand (used by lifted strategies over
    question spaces too large to materialize); lazily built measurements
    are kept in a bounded cache.
    """

    def __init__(self, dim: int, measurements, *, cache_size: int = 512):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)
        if isinstance(measurements, dict):
            self._table = dict(measurements)
            self._builder = None
        else:
            self._table = None
            self._builder = measurements
        self._cache: OrderedDict = OrderedDict()
        self._cache_size = cache_size

    def measurement(self, x) -> Measurement:
        if self._table is not None:
            try:
                return self._table[x]
            except KeyError:
                raise KeyError(f"strategy has no measurement for question {x!r}")
        try:
            m = self._cache.pop(x)
            self._cache[x] = m
            return m
        except KeyError:
            pass
        m = self._builder(x)
        if m.dim != self.dim:
            raise ValueError(
                f"measurement for {x!r} has dim {m.dim}, strategy dim {self.dim}"
            )
        self._cache[x] = m
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return m

    def question_labels(self):
        if self._table is None:
            raise ValueError("lazy strategy does not enumerate its questions")
        return list(self._table)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        if self._table is None:
            return
        for x, m in self._table.items():
            if m.dim != self.dim:
                raise ValueError(f"measurement for {x!r} has wrong dimension")
            m.validate(tol)

    def conjugated(self, u: np.ndarray) -> "SynchronousStrategy":
        """Conjugate every measurement by one fixed unitary."""
        if self._table is None:
            raise ValueError("conjugation requires a materialized strategy")
        uh = u.conj().T
        table = {
            x: Measurement(m.labels, [u @ e @ uh for e in m.elements], kind=m.kind)
            for x, m in self._table.items()
        }
        return SynchronousStrategy(self.dim, table)


@dataclass
class EvaluationReport:
    """Exact value split into trivial mass and per-nontrivial-pair terms."""

    value: float
    per_pair: dict = field(repr=False)
    trivial_mass: float
    question_count: int

    def check_consistency(self, atol: float = 1e-12) -> None:
        n2 = self.question_count**2
        recomputed = self.trivial_mass + math.fsum(self.per_pair.values()) / n2
        if abs(recomputed - self.value) > atol:
            raise AssertionError(
                f"report inconsistent: {recomputed} vs {self.value}"
            )


class _EigenForm:
    """Joint eigenbasis of a projective measurement.

    Columns of u are grouped by outcome; group a spans the range of the
    projection for answer a.  Built with a single Hermitian
    eigendecomposition of sum_a (a_index + 1) M_a, whose eigenvalues must
    be integers within tol.eps.
    """

    __slots__ = ("u", "uh", "starts", "counts")

    def __init__(self, m: Measurement, labels_expected, tol: Tolerance):
        if m.labels != tuple(labels_expected):
            raise ValueError(
                f"measurement labels {m.labels!r} do not match game answers"
            )
        d = m.dim
        h = np.zeros((d, d), dtype=complex)
        for k, e in enumerate(m.elements):
            h += (k + 1) * e
        w, v = np.linalg.eigh(h)
        idx = np.rint(w).astype(int)
        if np.abs(w - idx).max() > tol.eps:
            raise ValueError("measurement is not projective within tolerance")
        if idx.min() < 0 or idx.max() > len(m.elements):
            raise ValueError("measurement is not a complete projective family")
        counts = np.bincount(idx, minlength=len(m.elements) + 1)
        if counts[0] != 0:
            raise ValueError("measurement does not sum to the identity")
        order = np.argsort(idx, kind="stable")
        self.u = np.ascontiguousarray(v[:, order])
        self.uh = np.ascontiguousarray(self.u.conj().T)
        self.counts = counts[1:]
        self.starts = np.concatenate(([0], np.cumsum(self.counts)))


def _group_matrix(counts: np.ndarray, dim: int) -> np.ndarray:
    s = np.zeros((len(counts), dim))
    pos = 0
    for i, c in enumerate(counts):
        s[i, pos : pos + c] = 1.0
        pos += c
    return s


class StrategyEvaluator:
    """Cached eigenbasis forms plus pairwise winning probabilities."""

    def __init__(self, game: Game, strategy: SynchronousStrategy, tol: Tolerance):
        self.game = game
        self.strategy = strategy
        self.tol = tol
        self._forms: dict = {}
        self._groups: dict = {}

    def form(self, x) -> _EigenForm:
        try:
            return self._forms[x]
        except KeyError:
            f = _EigenForm(self.strategy.measurement(x), self.game.answers(x), self.tol)
            self._forms[x] = f
            return f

    def _group(self, x) -> np.ndarray:
        try:
            return self._groups[x]
        except KeyError:
            g = _group_matrix(self.form(x).counts, self.strategy.dim)
            self._groups[x] = g
            return g

    def cross_gram(self, x, y) -> np.ndarray:
        """Matrix of tr(M^x_a M^y_b)/dim over answer pairs."""
        fx, fy = self.form(x), self.form(y)
        w = fx.uh @ fy.u
        e = (w.real**2 + w.imag**2)
        return (self._group(x) @ e @ self._group(y).T) / self.strategy.dim

    def win_probability(self, x, y) -> float:
        mask = self.game.accept_mask(x, y)
        gram = self.cross_gram(x, y)
        return float((gram * mask).sum())

    def worst_commutator(self, x, y) -> float:
        """max over (a,b) of ||[M^x_a, M^y_b]||_tau.

        In the x eigenbasis M^x_a is a 0/1 block selector S_a and the
        commutator with K_b = basis-changed M^y_b keeps exactly the
        off-block entries of K_b, so the residual is an entrywise sum
        and stays accurate near zero.
        """
        fx, fy = self.form(x), self.form(y)
        w = fx.uh @ fy.u
        d = self.strategy.dim
        gx = self._group(x)
        worst = 0.0
        for j in range(len(fy.counts)):
            if fy.counts[j] == 0:
                continue
            wb = w[:, fy.starts[j] : fy.starts[j + 1]]
            e = np.abs(wb @ wb.conj().T) ** 2
            re = gx @ e @ gx.T
            rows = re.sum(axis=1)
            cols = re.sum(axis=0)
            diag = np.diag(re)
            val = (rows + cols - 2 * diag).max() / d
            if val > worst:
                worst = val
        return math.sqrt(max(worst, 0.0))


def value(game: Game, strategy: SynchronousStrategy, tol: Tolerance = DEFAULT_TOL) -> EvaluationReport:
    """Exact value of a synchronous strategy.

    Iterates nontrivial pairs only; trivial pairs contribute winning mass
    analytically.  Pair contributions are accumulated with compensated
    summation in the fixed order of nontrivial_pairs, so results are
    bit-stable.
    """
    n = game.question_count()
    ev = StrategyEvaluator(game, strategy, tol)
    pairs = list(game.nontrivial_pairs())
    probs = [ev.win_probability(x, y) for x, y in pairs]

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
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, float]:
    """Monte Carlo estimate of the value with binomial standard error.

    Draws (x, y) uniformly, then draws an answer pair from the cross-gram
    tr(M^x_a M^y_b)/dim of the StrategyEvaluator that exact evaluation
    uses, and scores it against the accept mask.  The strategy must be
    projective within tol and carry the game's answer labels on every
    question a draw engages; otherwise the evaluator's ValueError
    propagates.  Draws that the game's maybe_nontrivial hook rules out win
    without being decoded.  Deterministic given the seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = game.question_count()
    xi = rng.integers(0, n, size=samples)
    yi = rng.integers(0, n, size=samples)
    unif = rng.random(size=samples)
    ev = StrategyEvaluator(game, strategy, tol)

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
    tol: Tolerance = DEFAULT_TOL,
    *,
    max_pairs: int | None = None,
) -> tuple[bool, float]:
    """Worst commutator residual over nontrivial pairs, compared to tol.

    Returns (all residuals <= tol.eps, worst residual).  max_pairs caps the
    number of nontrivial pairs examined (deterministic evenly spaced
    subsample) for games whose pair set is too large to exhaust.
    """
    ev = StrategyEvaluator(game, strategy, tol)
    pairs = list(game.nontrivial_pairs())
    if max_pairs is not None and len(pairs) > max_pairs:
        idxs = np.linspace(0, len(pairs) - 1, max_pairs).astype(int)
        pairs = [pairs[int(i)] for i in idxs]
    worst = 0.0
    for x, y in pairs:
        worst = max(worst, ev.worst_commutator(x, y))
    return worst <= tol.eps, worst


def tensor_extend(s1: SynchronousStrategy, s2: SynchronousStrategy, combine) -> SynchronousStrategy:
    """Build a product strategy with measurements kron(M1, M2) per the map.

    combine(question) returns (q1, q2) or (q1, q2, merge) where merge maps
    an outcome pair (a1, a2) to the output label (default: the tuple
    itself).  The resulting dimension is the product of the inputs'.
    """
    dim = s1.dim * s2.dim

    def build(q):
        spec = combine(q)
        if len(spec) == 2:
            q1, q2 = spec
            merge = lambda a1, a2: (a1, a2)
        else:
            q1, q2, merge = spec
        m1 = s1.measurement(q1)
        m2 = s2.measurement(q2)
        labels = []
        elements = []
        for a1, e1 in zip(m1.labels, m1.elements):
            for a2, e2 in zip(m2.labels, m2.elements):
                labels.append(merge(a1, a2))
                elements.append(np.kron(e1, e2))
        return Measurement(tuple(labels), elements, kind="projective")

    return SynchronousStrategy(dim, build)


def table_game(
    name: str,
    questions,
    answers: dict,
    nontrivial_pairs: list,
    accept: dict,
) -> Game:
    """Tiny explicit game: listed nontrivial pairs with accept-sets.

    accept maps each listed ordered pair (x, y) to the accepted answer
    pairs (a, b); unlisted pairs are trivial.  Diagonal pairs are refused:
    the game accepts exactly a = b there.
    """
    questions = list(questions)
    answers = {x: tuple(answers[x]) for x in questions}
    nontrivial_pairs = list(nontrivial_pairs)
    for x, y in nontrivial_pairs + list(accept):
        if x == y:
            raise ValueError(f"table lists the diagonal pair {(x, y)!r}; it always accepts a = b")
    listed = set()
    for x, y in nontrivial_pairs:
        listed.add((x, y))
        listed.add((y, x))
    accept_sets = {}
    for (x, y), pairs in accept.items():
        accept_sets[(x, y)] = frozenset(pairs)
        accept_sets.setdefault((y, x), frozenset((b, a) for a, b in pairs))

    def rule(x, y):
        if (x, y) not in listed:
            return None
        if (x, y) not in accept_sets:
            raise ValueError(f"nontrivial pair {(x, y)!r} has no accept set")
        ok = accept_sets[(x, y)]
        return np.array([[(a, b) in ok for b in answers[y]] for a in answers[x]], dtype=bool)

    return Game(name, questions, lambda x: answers[x], rule)
