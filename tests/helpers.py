"""Shared random-instance generators for the test suite (all seeded)."""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

from syncgames.algebra import Measurement, bitstrings, tau_norm
from syncgames.builtins import MS_QUESTIONS, _MS_ANSWERS, _MS_MASKS, magic_square, two_of_n_ms
from syncgames.cooklevin import CNF, Assignment
from syncgames.games import Game, SynchronousStrategy, _kron2
from syncgames.optimize import haar_unitary, perturb_strategy


def rng_for(*key) -> np.random.Generator:
    ints = [
        zlib.crc32(part.encode()) if isinstance(part, str) else int(part)
        for part in key
    ]
    return np.random.default_rng(ints)


def random_povm(dim: int, outcomes: int, rng) -> Measurement:
    """POVM via normalization of random PSD operators."""
    mats = []
    for _ in range(outcomes):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(z @ z.conj().T + 1e-6 * np.eye(dim))
    total = np.sum(mats, axis=0)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    elements = [inv_sqrt @ m @ inv_sqrt for m in mats]
    return Measurement(tuple(range(outcomes)), elements, kind="povm")


def random_projective(dim: int, outcomes: int, rng) -> Measurement:
    """Projective measurement from a Haar basis with balanced ranks."""
    u = haar_unitary(dim, rng)
    base, extra = divmod(dim, outcomes)
    elements = []
    col = 0
    for i in range(outcomes):
        r = base + (1 if i < extra else 0)
        block = u[:, col : col + r]
        elements.append(block @ block.conj().T)
        col += r
    return Measurement(tuple(range(outcomes)), elements, kind="projective")


def random_operator_set(dim: int, outcomes: int, rng, scale: float = 1.0) -> Measurement:
    elements = [
        scale
        * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        / np.sqrt(dim)
        for _ in range(outcomes)
    ]
    return Measurement(tuple(range(outcomes)), elements, kind="general")


def random_contraction_set(dim: int, outcomes: int, rng) -> Measurement:
    """Operator set R with sum_b R_b* R_b <= identity (Kraus-like)."""
    povm = random_povm(dim, outcomes, rng)
    elements = []
    for e in povm.elements:
        w, v = np.linalg.eigh(e)
        w = np.clip(w, 0, None)
        u = haar_unitary(dim, rng)
        elements.append(u @ ((v * np.sqrt(w)) @ v.conj().T))
    return Measurement(povm.labels, elements, kind="general")


def engaged_rows(game, count: int, rng) -> list:
    """Seeded nontrivial question pairs of an answer-reduced game.

    Cycles through three row families: ``diagonal`` (a question against
    itself), ``proof_clause`` (row 2: an oracle question with index i
    against the same oracle pair with a triple containing i) and
    ``oracle_isolated`` (rows 3-4: an oracle question with index i against
    an isolated query one of whose slots reads the same proof bit).  Each
    off-diagonal pair is swapped with probability 1/2, so both argument
    orders of the rule are exercised.
    """
    ctx = game.ar_context
    L, T = ctx.L, ctx.T
    pairs = [(x, y) for x, y in ctx.game.nontrivial_pairs() if x != y]
    n = len(game.questions)
    rows = []
    for k in range(count):
        if k % 3 == 0:
            q = game.questions[int(rng.integers(0, n))]
            rows.append((q, q))
            continue
        x, y = pairs[int(rng.integers(0, len(pairs)))]
        ora = ("ora", x, y)
        i = int(rng.integers(1, L + 1))
        if k % 3 == 1:
            triple = [int(v) for v in rng.integers(1, L + 1, size=3)]
            triple[int(rng.integers(0, 3))] = i
            q1, q2 = (ora, i), (ora, tuple(triple))
        else:
            i = int(rng.integers(1, 2 * T + 1))
            iso, slot = (("iso", x), i) if i <= T else (("iso", y), i - T)
            other = int(rng.integers(1, L + 1))
            p2 = (slot, other) if rng.random() < 0.5 else (other, slot)
            q1, q2 = (ora, i), (iso, p2)
        rows.append((q1, q2) if rng.random() < 0.5 else (q2, q1))
    return rows


def rebuilt_game(game, maybe_nontrivial=None):
    """The game rebuilt from its questions, answers and rule alone, with an
    optional maybe_nontrivial hook; ``engaged`` counts the nontrivial
    calls that return True, as a sampler makes them."""
    out = Game(
        game.name, game.questions, game.answers, game.rule,
        maybe_nontrivial=maybe_nontrivial,
    )
    out.engaged = 0
    nontrivial = out.nontrivial

    def counted(x, y):
        hit = nontrivial(x, y)
        out.engaged += hit
        return hit

    out.nontrivial = counted
    return out


def question_index(game, q) -> int:
    """Index of q in an answer-reduced game's question space (the inverse
    of ``game.questions[idx]``)."""
    ctx = game.ar_context
    n, L = ctx.n_base, ctx.L
    base = list(ctx.base_questions)
    g, p = q
    if g[0] == "iso":
        g_idx = base.index(g[1])
    else:
        g_idx = n + base.index(g[1]) * n + base.index(g[2])
    if isinstance(p, int):
        p_idx = p - 1
    elif len(p) == 2:
        p_idx = L + (p[0] - 1) * L + (p[1] - 1)
    else:
        p_idx = L + L * L + ((p[0] - 1) * L + (p[1] - 1)) * L + (p[2] - 1)
    return g_idx * (L + L * L + L**3) + p_idx


def assert_synchronous(game, count: int | None = None) -> None:
    """Game.rule(x, x) is one cached read-only identity mask on every
    question, or on `count` seeded draws of a lazily indexed game."""
    qs = game.questions
    if count is None:
        picks = range(len(qs))
    else:
        picks = rng_for("diagonal", game.name).integers(0, len(qs), size=count)
    for i in picks:
        x = qs[int(i)]
        mask = game.rule(x, x)
        assert mask.dtype == bool and not mask.flags.writeable, x
        assert np.array_equal(mask, np.eye(len(game.answers(x)), dtype=bool)), x
        assert game.rule(x, x) is mask


def two_of_n_reference_mask(q, r):
    """Accept mask of the 2-of-n pair (q, r), or None when trivial, read
    entry by entry from the Magic Square masks of the copies both players
    share: answer (a0, a1) to q = (i, j, x0, x1) is row a0 * |A(x1)| + a1."""
    factors = []
    for w in set(q[:2]) & set(r[:2]):
        qpos, rpos = q[:2].index(w), r[:2].index(w)
        factor = _MS_MASKS.get((q[2 + qpos], r[2 + rpos]))
        if factor is None:
            return None
        factors.append((qpos, rpos, factor))
    if not factors:
        return None
    rows = np.indices([len(_MS_ANSWERS[x]) for x in q[2:]]).reshape(2, -1)
    cols = np.indices([len(_MS_ANSWERS[y]) for y in r[2:]]).reshape(2, -1)
    mask = np.ones((rows.shape[1], cols.shape[1]), dtype=bool)
    for qpos, rpos, factor in factors:
        mask &= factor[rows[qpos][:, None], cols[rpos][None, :]]
    return mask


def slot_mask(game, x, y):
    """Product over the slots of (x, y) of the copy game's masks, each read
    at the answer components its slot names."""
    copy_game, slots = game.slots(x, y)
    mask = np.ones((len(game.answers(x)), len(game.answers(y))), dtype=bool)
    for kx, ky, u, v in slots:
        rows = [copy_game.answers(u).index(a[kx]) for a in game.answers(x)]
        cols = [copy_game.answers(v).index(b[ky]) for b in game.answers(y)]
        mask &= copy_game.accept_mask(u, v)[np.ix_(rows, cols)]
    return mask


def per_copy_strategy(n: int, magnitude: float, seed: int) -> SynchronousStrategy:
    """The honest 2-of-n strategy with copy c's Magic Square parts replaced
    by perturb_strategy(magnitude, seed + c) of the honest ones."""
    _, ms = magic_square()
    copies = [perturb_strategy(ms, magnitude, seed + c, MS_QUESTIONS) for c in range(n)]
    _, honest = two_of_n_ms(n)

    def factors(q):
        i, j, x, y = q
        parts, index = honest.factors(q)
        parts[i - 1], parts[j - 1] = copies[i - 1].measurement(x), copies[j - 1].measurement(y)
        return parts, index

    return SynchronousStrategy(honest.dim, None, factors=factors)


def reference_kron_elements(parts, index) -> list[np.ndarray]:
    """Dense elements of a factored measurement one answer at a time, each
    the left-to-right _kron2 chain of its parts: the per-element path the
    stacked product must match byte for byte."""
    elements = []
    for row in index.values():
        out = np.ones((1, 1), dtype=complex)
        for part, label in zip(parts, row):
            out = _kron2(out, part.element(label))
        elements.append(out)
    return elements


def reference_elements(strategy, x) -> list[np.ndarray]:
    """x's dense elements, factored ones through reference_kron_elements."""
    spec = None if strategy.factors is None else strategy.factors(x)
    if spec is None:
        return list(strategy.measurement(x).elements)
    return reference_kron_elements(*spec)


def reference_conjugated(elements, u) -> list[np.ndarray]:
    """u E u^H with two products per element, zero elements included."""
    uh = u.conj().T
    return [u @ e @ uh for e in elements]


def reference_perturbed(strategy, magnitude: float, seed: int, questions) -> dict:
    """perturb_strategy one element at a time: {question: elements}."""
    out = {}
    for idx, x in enumerate(questions):
        rng = np.random.default_rng([seed, idx])
        z = rng.standard_normal((strategy.dim, strategy.dim)) + 1j * rng.standard_normal(
            (strategy.dim, strategy.dim)
        )
        h = (z + z.conj().T) / 2
        h /= tau_norm(h)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * magnitude * w)) @ v.conj().T
        out[x] = reference_conjugated(reference_elements(strategy, x), u)
    return out


def element_digests(elements) -> list[str]:
    """sha256 of each element's bytes: signed zeros count."""
    return [hashlib.sha256(np.ascontiguousarray(e).tobytes()).hexdigest() for e in elements]


def reference_worst_commutator(ev, x, y) -> float:
    """StrategyEvaluator.worst_commutator one answer of y at a time: the
    per-answer loop the stacked version must match bit for bit."""
    fx, fy = ev.form(x), ev.form(y)
    w = fx.uh @ fy.u
    worst = 0.0
    for j in range(len(fy.counts)):
        if fy.counts[j] == 0:
            continue
        wb = w[:, fy.starts[j] : fy.starts[j + 1]]
        re = fx.group @ (np.abs(wb @ wb.conj().T) ** 2) @ fx.group.T
        val = (re.sum(axis=1) + re.sum(axis=0) - 2 * np.diag(re)).max() / ev.strategy.dim
        worst = max(worst, val)
    return float(np.sqrt(max(worst, 0.0)))


def clash_game():
    """Game on {0,1}^2 whose off-diagonal pairs are all nontrivial, with a
    strategy measuring anticommuting bases: never oracularizable."""
    questions = bitstrings(2)
    game = Game(
        "clash",
        list(questions),
        lambda x: (0, 1),
        # every off-diagonal pair nontrivial and winning: commuting required
        lambda x, y: np.ones((2, 2), dtype=bool),
    )
    zb = Measurement((0, 1), [np.diag([1.0, 0j]), np.diag([0j, 1.0])], "projective")
    xb = Measurement(
        (0, 1),
        [np.full((2, 2), 0.5, dtype=complex), np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)],
        "projective",
    )
    table = {q: (zb if q[0] == 0 else xb) for q in questions}
    return game, SynchronousStrategy(2, table)


def recording(game, calls: list):
    """The game with its pair rule wrapped to append each (x, y) it is
    called with to calls."""
    rule = game._rule

    def recorded(x, y):
        calls.append((x, y))
        return rule(x, y)

    game._rule = recorded
    return game


def greedy_start(coeff) -> list[np.ndarray]:
    """Dense projectors of the see-saw's greedy spectral assignment: each
    eigenvector of the weighted pencil goes to the answer with the
    largest Rayleigh quotient (the start of the pairwise polish)."""
    dim = coeff[0].shape[0]
    pencil = sum((k + 1) * c for k, c in enumerate(coeff))
    _, v = np.linalg.eigh(pencil)
    scores = np.stack([((v.conj().T @ c) * v.T).sum(axis=1).real for c in coeff])
    assignment = scores.argmax(axis=0)
    out = [np.zeros((dim, dim), dtype=complex) for _ in coeff]
    for col in range(dim):
        vec = v[:, col : col + 1]
        out[assignment[col]] += vec @ vec.conj().T
    return out


def reference_polish(elements, coeff):
    """The dense pairwise polish: each pair's joint support comes from an
    eigh of E_i + E_j, then an eigh of the compressed difference splits
    it.  Returns (projectors, margin), margin being the smallest
    |eigenvalue| of any compressed difference it diagonalized, so a
    caller can tell draws where roundoff may decide a near-tie."""
    elements = [e.copy() for e in elements]
    margin = np.inf
    m = len(elements)
    for _ in range(3):
        for i in range(m):
            for j in range(i + 1, m):
                joint = elements[i] + elements[j]
                w, v = np.linalg.eigh(joint)
                basis = v[:, w > 0.5]
                if basis.shape[1] == 0:
                    continue
                diff = basis.conj().T @ (coeff[i] - coeff[j]) @ basis
                dw, dv = np.linalg.eigh((diff + diff.conj().T) / 2)
                margin = min(margin, float(np.abs(dw).min()))
                keep = dv[:, dw >= 0]
                pi = basis @ keep @ keep.conj().T @ basis.conj().T
                elements[i] = pi
                elements[j] = joint - pi
    return elements, margin


def random_hermitian(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


# -- exhaustive SAT oracle (checks backtrack_models and the tableau encoding) --


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
