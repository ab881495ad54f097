"""Lower-bound search over synchronous strategies and classical oracles.

The see-saw fixes all measurements but one question's and maximizes the
value, which is linear in the free measurement with Hermitian coefficient
operators; binary questions get the exact eigenspace update, multi-outcome
questions a greedy spectral assignment.  Updates are kept only when they
do not decrease the local objective, so the value trace is monotone.

classical_value is an exact branch-and-bound over deterministic
synchronous strategies (dimension-1 projective assignments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Measurement, tau_norm
from .games import Game, SynchronousStrategy, value

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
    restarts: int = 20
    max_iters: int = 200
    seed: int = 0
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


def _balanced_ranks(num_answers: int, dim: int) -> list[int]:
    base, extra = divmod(dim, num_answers)
    return [base + (1 if i < extra else 0) for i in range(num_answers)]


def _random_projective(num_answers: int, dim: int, rng) -> list[np.ndarray]:
    u = haar_unitary(dim, rng)
    ranks = _balanced_ranks(num_answers, dim)
    out = []
    col = 0
    for r in ranks:
        block = u[:, col : col + r]
        out.append(block @ block.conj().T)
        col += r
    return out


def _coefficients(game: Game, x, measurements: dict, questions) -> list[np.ndarray]:
    """Hermitian gradient operators C^x_a of the value in question x.

    Diagonal terms are omitted: for projective updates they contribute a
    constant, and every off-diagonal pair appears twice by symmetry of the
    decision predicate.
    """
    labels = game.answers(x)
    dim = next(iter(measurements.values()))[0].shape[0]
    coeff = [np.zeros((dim, dim), dtype=complex) for _ in labels]
    scale = 2.0 / len(questions) ** 2
    for y in questions:
        if y == x:
            continue
        mask = game.rule(x, y)
        if mask is None:
            continue  # full answer mass: constant shift for complete POVMs
        ys = measurements[y]
        stacked = np.tensordot(mask.astype(float), np.stack(ys), axes=(1, 0))
        for ia in range(len(labels)):
            coeff[ia] += scale * stacked[ia]
    return [(c + c.conj().T) / 2 for c in coeff]


def _local_objective(elements, coeff) -> float:
    return float(
        sum(np.trace(e @ c).real for e, c in zip(elements, coeff))
    )


def _binary_update(coeff) -> list[np.ndarray]:
    """Exact optimum over binary projective measurements."""
    diff = coeff[0] - coeff[1]
    w, v = np.linalg.eigh(diff)
    keep = v[:, w >= 0]
    p0 = keep @ keep.conj().T
    eye = np.eye(diff.shape[0], dtype=complex)
    return [p0, eye - p0]


def _greedy_update(coeff) -> list[np.ndarray]:
    """Greedy spectral assignment for multi-outcome questions.

    Diagonalizes a weighted pencil of the coefficient operators, assigns
    each eigenvector to the answer with the largest Rayleigh quotient,
    then polishes with exact two-answer block splits; heuristic, guarded
    by the caller.
    """
    dim = coeff[0].shape[0]
    pencil = sum((k + 1) * c for k, c in enumerate(coeff))
    _, v = np.linalg.eigh(pencil)
    scores = np.stack([((v.conj().T @ c) * v.T).sum(axis=1).real for c in coeff])
    assignment = scores.argmax(axis=0)
    out = [np.zeros((dim, dim), dtype=complex) for _ in coeff]
    for col in range(dim):
        vec = v[:, col : col + 1]
        out[assignment[col]] += vec @ vec.conj().T
    return _pairwise_polish(out, coeff)


def _pairwise_polish(elements, coeff) -> list[np.ndarray]:
    """Exact re-split of every answer pair's combined support.

    For answers (i, j) the restriction of the objective to their joint
    range is a binary problem, solved exactly by the nonnegative
    eigenspace of the compressed difference; iterating over pairs is
    monotone coordinate ascent, run for three rounds.
    """
    elements = [e.copy() for e in elements]
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
                keep = dv[:, dw >= 0]
                pi = basis @ keep @ keep.conj().T @ basis.conj().T
                elements[i] = pi
                elements[j] = joint - pi
    return elements


def seesaw(game: Game, cfg: SeesawConfig):
    """Alternating maximization of the value over projective measurements.

    Returns (best strategy, its exact value, trace) where trace lists
    (restart, iteration, value) rows, nondecreasing within each restart.
    """
    questions = list(game.questions)
    best_strategy = None
    best_value = -1.0
    trace = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        meas = {
            x: _random_projective(len(game.answers(x)), cfg.dim, rng)
            for x in questions
        }
        current = _strategy_value(game, meas, cfg.dim)
        trace.append((restart, 0, current))
        for it in range(1, cfg.max_iters + 1):
            for x in questions:
                coeff = _coefficients(game, x, meas, questions)
                old = meas[x]
                new = (
                    _binary_update(coeff)
                    if len(coeff) == 2
                    else _greedy_update(coeff)
                )
                # keep the update only if the linear objective does not drop
                if _local_objective(new, coeff) >= _local_objective(old, coeff) - 1e-14:
                    meas[x] = new
            updated = _strategy_value(game, meas, cfg.dim)
            trace.append((restart, it, updated))
            if updated <= current + cfg.improvement_tol:
                current = max(current, updated)
                break
            current = updated
        if current > best_value + 1e-15:
            best_value = current
            best_strategy = {x: [e.copy() for e in els] for x, els in meas.items()}
    strategy = SynchronousStrategy(
        cfg.dim,
        {
            x: Measurement(game.answers(x), els, kind="projective")
            for x, els in best_strategy.items()
        },
    )
    exact = value(game, strategy).value
    if abs(exact - best_value) > 1e-10:
        raise AssertionError(
            f"seesaw bookkeeping drifted: {exact} vs {best_value}"
        )
    return strategy, exact, trace


def _strategy_value(game: Game, meas: dict, dim: int) -> float:
    strategy = SynchronousStrategy(
        dim,
        {
            x: Measurement(game.answers(x), els, kind="projective")
            for x, els in meas.items()
        },
    )
    return value(game, strategy).value


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

    # pair win tables against earlier questions, both orientations plus diag
    masks = {}
    for i, x in enumerate(ordered):
        for j in range(i):
            y = ordered[j]
            masks[(i, j)] = game.accept_mask(x, y)
            masks[(j, i)] = game.accept_mask(y, x)

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
                gained += int(masks[(k, j)][ai, assignment[j]])
                gained += int(masks[(j, k)][assignment[j], ai])
            assignment.append(ai)
            dfs(k + 1, score + gained)
            assignment.pop()

    dfs(0, 0)
    best = {
        x: answer_sets[k][best_assignment[k]] for k, x in enumerate(ordered)
    }
    return best_score / total_pairs, best


def perturb_strategy(
    strategy: SynchronousStrategy, magnitude: float, seed: int, questions=None
) -> SynchronousStrategy:
    """Conjugate each question's measurement by exp(i * magnitude * H).

    H is an independent random Hermitian of unit tau-norm per question;
    projectivity and completeness are preserved exactly.  For lazily
    built strategies pass the question list explicitly.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    if questions is None:
        questions = strategy.question_labels()
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
