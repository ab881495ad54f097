"""Lower-bound search over synchronous strategies and classical oracles.

The see-saw fixes all measurements but one question's and maximizes the
value, which is linear in the free measurement with Hermitian coefficient
operators; binary questions get the exact eigenspace update, multi-outcome
questions a greedy spectral assignment.  Updates are kept only when they
do not decrease the local objective, so the value trace is monotone.

Each question's measurement is held for the whole run as one
orthonormal column block (a frame) per answer, together its eigenbasis.
A multi-outcome update polishes the frames pairwise: two answers' frames
side by side are an orthonormal basis of their joint range, so
re-splitting the pair needs one eigh of the compressed difference, a
sign test when the joint range is one column and nothing when it is
empty.  Projectors are formed once per update, as one (answers, d, d)
stack.  Sweeps are scored from the frames with games._gram, and value()
runs once per seesaw call, on the returned strategy.  The game's accept
masks are read once per call into a table (question -> nontrivial
partners and float masks) that every sweep reads.

classical_value is an exact branch-and-bound over deterministic
synchronous strategies (dimension-1 projective assignments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Measurement, tau_norm
from .games import Game, SynchronousStrategy, _gram, _group_matrix, value

__all__ = [
    "SeesawConfig",
    "seesaw",
    "classical_value",
    "perturb_strategy",
    "haar_unitary",
]


@dataclass(frozen=True)
class SeesawConfig:
    dim: int
    restarts: int
    max_iters: int
    seed: int
    improvement_tol: float = 1e-10

    def __post_init__(self):
        if self.dim < 1 or self.restarts < 1 or self.max_iters < 1:
            raise ValueError("dim, restarts and max_iters must be positive")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _random_frames(num_answers: int, dim: int, rng) -> list[np.ndarray]:
    """Column blocks of one Haar unitary, one frame per answer, whose
    widths differ by at most one, the wider first."""
    u = haar_unitary(dim, rng)
    base, extra = divmod(dim, num_answers)
    bounds = [i * base + min(i, extra) for i in range(num_answers + 1)]
    return [u[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _mask_table(game: Game, questions) -> dict:
    """x -> [(y, float accept mask over answers(x) x answers(y))] for every
    question y != x whose pair is nontrivial, in question order."""
    table = {}
    for x in questions:
        row = []
        for y in questions:
            if y == x:
                continue
            mask = game.rule(x, y)
            if mask is not None:  # a trivial pair adds a constant shift
                row.append((y, mask.astype(float)))
        table[x] = row
    return table


def _coefficients(game: Game, x, measurements: dict, table: dict) -> np.ndarray:
    """Hermitian gradient operators C^x_a of the value in question x.

    measurements and the result are (answers, d, d) projector stacks;
    table is the see-saw's mask table.  Diagonal terms are omitted: for
    projective updates they contribute a constant, and every off-diagonal
    pair appears twice by symmetry of the decision predicate.
    """
    dim = next(iter(measurements.values()))[0].shape[0]
    coeff = np.zeros((len(game.answers(x)), dim, dim), dtype=complex)
    scale = 2.0 / len(table) ** 2
    for y, mask in table[x]:
        coeff += scale * np.tensordot(mask, measurements[y], axes=(1, 0))
    return (coeff + coeff.conj().transpose(0, 2, 1)) / 2


def _local_objective(elements, coeff) -> float:
    """sum_a tr(E_a C_a) for Hermitian C_a, read as sum_a <C_a, E_a>."""
    return float(np.vdot(coeff, elements).real)


def _update(coeff) -> tuple[np.ndarray, list[np.ndarray]]:
    """One question's see-saw update as (projector stack, frames).

    A binary question gets the exact optimum, the nonnegative eigenspace
    of C_0 - C_1 and its complement.  A multi-outcome question assigns
    each eigenvector of a weighted pencil of the coefficient operators to
    the answer with the largest Rayleigh quotient, then polishes the
    frames with exact two-answer splits; heuristic, guarded by the caller.
    """
    if len(coeff) == 2:
        w, v = np.linalg.eigh(coeff[0] - coeff[1])
        frames = [v[:, w >= 0], v[:, w < 0]]
        p0 = frames[0] @ frames[0].conj().T
        return np.array([p0, np.eye(len(p0), dtype=complex) - p0]), frames
    pencil = sum((k + 1) * c for k, c in enumerate(coeff))
    _, v = np.linalg.eigh(pencil)
    scores = np.stack([((v.conj().T @ c) * v.T).sum(axis=1).real for c in coeff])
    assignment = scores.argmax(axis=0)
    frames = _pairwise_polish([v[:, assignment == a] for a in range(len(coeff))], coeff)
    return np.array([f @ f.conj().T for f in frames]), frames


def _greedy_update(coeff) -> np.ndarray:
    """Projectors of the greedy update of a multi-outcome question."""
    return _update(coeff)[0]


def _pairwise_polish(frames, coeff) -> list[np.ndarray]:
    """Exact re-split of every answer pair's combined support.

    Each answer's range is an orthonormal column block (its frame), and
    the frames of different answers are orthogonal, so two frames side by
    side are an orthonormal basis of the pair's joint range.  There the
    objective is a binary problem, solved exactly by the nonnegative
    eigenspace of the compressed difference (nothing to do when the joint
    range is empty).  When it is one column b, b moves unchanged by the
    sign of b^H C_i b - b^H C_j b, from its Rayleigh quotients over every
    answer, kept until an eigh split rotates b; within 1e-10 max|C| of a
    tie the sign of b^H (C_i - C_j) b decides, as its eigh would.
    Iterating over pairs is monotone coordinate ascent, for three rounds.
    """
    frames = list(frames)
    stack = np.asarray(coeff)
    tie = 1e-10 * np.abs(stack).max()
    m = len(frames)
    quotients = [None] * m  # b^H C_a b over every a, for a one-column frame b
    for _ in range(3):
        for i in range(m):
            for j in range(i + 1, m):
                width = frames[i].shape[1] + frames[j].shape[1]
                if width == 0:
                    continue
                if width == 1:
                    src = i if frames[i].shape[1] else j
                    b, q = frames[src], quotients[src]
                    if q is None:
                        q = (b.conj().T @ stack @ b).real.ravel()
                    gap = q[i] - q[j]
                    if abs(gap) <= tie:  # roundoff may decide: ask the compressed difference
                        gap = (b.conj().T @ (coeff[i] - coeff[j]) @ b)[0, 0].real
                    dst = i if gap >= 0 else j
                    frames[src], quotients[src] = b[:, :0], None
                    frames[dst], quotients[dst] = b, q
                    continue
                basis = np.concatenate((frames[i], frames[j]), axis=1)
                diff = basis.conj().T @ (coeff[i] - coeff[j]) @ basis
                dw, dv = np.linalg.eigh((diff + diff.conj().T) / 2)
                frames[i] = basis @ dv[:, dw >= 0]
                frames[j] = basis @ dv[:, dw < 0]
                quotients[i] = quotients[j] = None
    return frames


def _frame_score(frames: dict, table: dict, dim: int) -> float:
    """Value of the strategy measuring each question x in the eigenbasis
    its frames[x] form, from games._gram.  A diagonal pair of projective
    measurements wins with probability 1, as does a trivial pair."""
    bases = {
        x: (np.concatenate(fs, axis=1), _group_matrix(tuple(f.shape[1] for f in fs)))
        for x, fs in frames.items()
    }
    n = len(table)
    wins = n * n - sum(len(row) for row in table.values())
    for x, row in table.items():
        u, g = bases[x]
        uh = u.conj().T
        for y, mask in row:
            uy, gy = bases[y]
            wins += (_gram(uh, uy, g, gy.T, dim) * mask).sum()
    return float(wins) / (n * n)


def seesaw(game: Game, cfg: SeesawConfig):
    """Alternating maximization of the value over projective measurements.

    Returns (best strategy, its exact value, trace) where trace lists
    (restart, iteration, value) rows, nondecreasing within each restart,
    scored from the frames; the exact value must agree with them.
    """
    questions = list(game.questions)
    table = _mask_table(game, questions)
    best_strategy = None
    best_value = -1.0
    trace = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        frames = {x: _random_frames(len(game.answers(x)), cfg.dim, rng) for x in questions}
        meas = {x: np.array([f @ f.conj().T for f in fs]) for x, fs in frames.items()}
        current = _frame_score(frames, table, cfg.dim)
        trace.append((restart, 0, current))
        for it in range(1, cfg.max_iters + 1):
            for x in questions:
                coeff = _coefficients(game, x, meas, table)
                new, new_frames = _update(coeff)
                # keep the update only if the linear objective does not drop
                if _local_objective(new, coeff) >= _local_objective(meas[x], coeff) - 1e-14:
                    meas[x], frames[x] = new, new_frames
            updated = _frame_score(frames, table, cfg.dim)
            trace.append((restart, it, updated))
            if updated <= current + cfg.improvement_tol:
                current = max(current, updated)
                break
            current = updated
        if current > best_value + 1e-15:
            best_value = current
            best_strategy = {x: els.copy() for x, els in meas.items()}
    strategy = _as_strategy(game, best_strategy, cfg.dim)
    exact = value(game, strategy).value
    if abs(exact - best_value) > 1e-10:
        raise AssertionError(
            f"seesaw bookkeeping drifted: {exact} vs {best_value}"
        )
    return strategy, exact, trace


def _as_strategy(game: Game, meas: dict, dim: int) -> SynchronousStrategy:
    """The strategy whose question x measures the projectors meas[x]."""
    return SynchronousStrategy(
        dim, {x: Measurement(game.answers(x), els, "projective") for x, els in meas.items()}
    )


def classical_value(game: Game, cap: int = 10**8):
    """Exact optimum over deterministic synchronous strategies.

    Depth-first branch and bound in lexicographic answer order (questions
    sorted by answer count, then question order), so the first assignment
    attaining the optimum is the one reported.  cap bounds the number of
    search nodes visited; exceeding it raises.
    """
    questions = list(game.questions)
    n = len(questions)
    order = sorted(range(n), key=lambda i: (len(game.answers(questions[i])), i))
    ordered = [questions[i] for i in order]
    answer_sets = [game.answers(x) for x in ordered]

    widths = [len(answers) for answers in answer_sets]

    # pair win tables against earlier questions, both orientations, as flat
    # row-major lists: indexing a list is cheaper than a numpy array at
    # every search node, and one flat list per pair holds less memory than
    # nested rows
    masks = {}
    for i, x in enumerate(ordered):
        for j in range(i):
            y = ordered[j]
            masks[(i, j)] = game.accept_mask(x, y).ravel().tolist()
            masks[(j, i)] = game.accept_mask(y, x).ravel().tolist()

    total_pairs = n * n
    best_score = -1
    best_assignment = None
    nodes = 0

    def bound_remaining(k: int) -> int:
        # pairs not yet scored once questions 0..k-1 are fixed
        return total_pairs - k * k

    assignment: list[int] = []

    def dfs(k: int, score: int):
        nonlocal best_score, best_assignment, nodes
        nodes += 1
        if nodes > cap:
            raise ValueError(f"search space over cap ({cap} nodes)")
        if k == n:
            if score > best_score:
                best_score = score
                best_assignment = list(assignment)
            return
        if score + bound_remaining(k) <= best_score:
            return
        for ai in range(len(answer_sets[k])):
            gained = 1  # diagonal pair (x, x) always wins deterministically
            for j in range(k):
                gained += masks[(k, j)][ai * widths[j] + assignment[j]]
                gained += masks[(j, k)][assignment[j] * widths[k] + ai]
            assignment.append(ai)
            dfs(k + 1, score + gained)
            assignment.pop()

    dfs(0, 0)
    best = {
        x: answer_sets[k][best_assignment[k]] for k, x in enumerate(ordered)
    }
    return best_score / total_pairs, best


def perturb_strategy(
    strategy: SynchronousStrategy, magnitude: float, seed: int, questions
) -> SynchronousStrategy:
    """Conjugate each question's measurement by exp(i * magnitude * H).

    H is an independent random Hermitian of unit tau-norm per question,
    drawn from its position in questions (the game's question list);
    projectivity and completeness are preserved exactly.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    table = {}
    for idx, x in enumerate(questions):
        m = strategy.measurement(x)
        if magnitude == 0:
            table[x] = m
            continue
        rng = np.random.default_rng([seed, idx])
        z = rng.standard_normal((strategy.dim, strategy.dim)) + 1j * rng.standard_normal(
            (strategy.dim, strategy.dim)
        )
        h = (z + z.conj().T) / 2
        h /= tau_norm(h)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * magnitude * w)) @ v.conj().T
        uh = u.conj().T
        table[x] = Measurement(
            m.labels, [u @ e @ uh for e in m.elements], kind=m.kind
        )
    return SynchronousStrategy(strategy.dim, table)
