"""Engaged rows: every row is nontrivial, rows 2 and 3-4 occur, budgets hold.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench/test_engaged.py``.
"""

from itertools import islice

import numpy as np
import pytest

from syncgames import answer_reduce, consistency_game, forbidden_pair_game, gapless_compress

from engaged import FAMILIES, base_pairs, iter_engaged_rows
from workloads import BUDGET_SLACK, draw_rows, proof_runs


def engaged_rows(game, count, rng, pairs=None):
    return list(islice(iter_engaged_rows(game, rng, pairs), count))


@pytest.mark.parametrize("make", [consistency_game, forbidden_pair_game])
def test_rows_are_nontrivial_and_cover_every_family(make):
    base, _ = make(2)
    reduced = answer_reduce(base, 4)
    rows = engaged_rows(reduced, 300, np.random.default_rng(7))
    assert len(rows) == 300
    assert {family for family, _, _ in rows} == set(FAMILIES)
    proof_rows = oracle_rows = 0
    for family, q1, q2 in rows:
        assert reduced.nontrivial(q1, q2), (family, q1, q2)
        assert reduced.nontrivial(q2, q1), (family, q1, q2)
        if family == "diagonal":
            assert q1 == q2
            continue
        single, other = (q1, q2) if isinstance(q1[1], int) else (q2, q1)
        assert single[0][0] == "ora"
        if other[0][0] == "ora":
            assert len(other[1]) == 3 and single[1] in other[1]
            proof_rows += 1
        else:
            assert other[0][0] == "iso" and len(other[1]) == 2
            oracle_rows += 1
    assert proof_rows > 0 and oracle_rows > 0


def test_same_seed_same_rows():
    base, _ = consistency_game(2)
    reduced = answer_reduce(base, 4)
    pairs = base_pairs(reduced)
    first = engaged_rows(reduced, 50, np.random.default_rng(3), pairs)
    again = engaged_rows(reduced, 50, np.random.default_rng(3), pairs)
    assert first == again


def test_gapless_rows_are_nontrivial():
    base, _ = consistency_game(2)
    compressed = gapless_compress(base, 8)
    rows = engaged_rows(compressed, 60, np.random.default_rng(11))
    for family, q1, q2 in rows:
        assert compressed.nontrivial(q1, q2), (family, q1, q2)


def test_draw_rows_meets_the_budget():
    base, _ = consistency_game(2)
    reduced = answer_reduce(base, 4)
    pairs = base_pairs(reduced)
    rows = draw_rows(reduced, 300, np.random.default_rng(5), pairs)
    seen, spent = set(), 0
    for _, q1, q2 in rows:
        new = {q[0] for q in (q1, q2) if q[0][0] == "ora"} - seen
        spent += 1 + sum(proof_runs(reduced, g) for g in new)
        seen |= new
    assert 300 - BUDGET_SLACK < spent <= 300
