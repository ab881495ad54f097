"""Engaged-row generator for answer-reduced games.

Uniform sampling of an answer-reduced game almost never lands on a
question pair whose decider does any work: with L proof indices the
engaged pairs are a vanishing share of the (X + X^2)(L + L^2 + L^3)
squared question space.  This module draws such pairs directly from the
documented question layout (``transform.answer_reduce``):

* ``diagonal``: a question against itself (answers must agree);
* ``proof_clause`` (row 2): ``(("ora", x, y), i)`` against
  ``(("ora", x, y), (j, k, l))`` with ``i`` among ``j, k, l``, where the
  triple's clauses are checked against the proof bits;
* ``oracle_isolated`` (rows 3-4): ``(("ora", x, y), i)`` against
  ``(("iso", x), (j, k))`` with a slot equal to ``eta^-1(i) = i`` for
  ``i <= T``, or against ``(("iso", y), (j, k))`` with a slot equal to
  ``lambda^-1(i) = i - T`` for ``T < i <= 2T``.

Only ``ar_context.L``, ``ar_context.T`` and the base game's nontrivial
pairs are read, and every draw comes from the caller's generator, so the
same seed gives the same rows.
"""

from __future__ import annotations

import itertools

FAMILIES = ("diagonal", "proof_clause", "oracle_isolated")


def base_pairs(game) -> list:
    """Off-diagonal nontrivial pairs of the base game of a reduced game."""
    return [(x, y) for x, y in game.ar_context.game.nontrivial_pairs() if x != y]


def iter_engaged_rows(game, rng, pairs=None):
    """Endless rows ``(family, q1, q2)`` cycling through FAMILIES.

    ``pairs`` is ``base_pairs(game)``; pass it to reuse one enumeration
    across calls.  The orientation of each pair is drawn too, so both
    argument orders of the decider are exercised.
    """
    ctx = game.ar_context
    L, T = ctx.L, ctx.T
    if pairs is None:
        pairs = base_pairs(game)
    n_questions = len(game.questions)
    for family in itertools.cycle(FAMILIES):
        if family == "diagonal":
            q = game.questions[int(rng.integers(0, n_questions))]
            yield family, q, q
            continue
        x, y = pairs[int(rng.integers(0, len(pairs)))]
        ora = ("ora", x, y)
        if family == "proof_clause":
            i = int(rng.integers(1, L + 1))
            triple = [i, int(rng.integers(1, L + 1)), int(rng.integers(1, L + 1))]
            pos = int(rng.integers(0, 3))
            triple[0], triple[pos] = triple[pos], triple[0]
            q1, q2 = (ora, i), (ora, tuple(triple))
        else:
            if rng.random() < 0.5:
                i = int(rng.integers(1, T + 1))
                iso, slot_value = ("iso", x), i
            else:
                i = int(rng.integers(T + 1, 2 * T + 1))
                iso, slot_value = ("iso", y), i - T
            other = int(rng.integers(1, L + 1))
            p2 = (slot_value, other) if rng.random() < 0.5 else (other, slot_value)
            q1, q2 = (ora, i), (iso, p2)
        if rng.random() < 0.5:
            q1, q2 = q2, q1
        yield family, q1, q2

