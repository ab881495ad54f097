"""Noncommutative polynomial optimization encoding of a game.

Emits a plain-text program whose finite-dimensional value equals the
game's quantum value: operator variables A[x,a], B[y,b] with
self-adjointness, positivity, completeness and cross-commutation
constraints, and the winning probability as the objective.

Grammar (one record per line, whitespace separated; label tokens are
compact JSON with tuples as arrays):

    ncpo 1
    game <token>
    var <side> <question> <answer>
    objective <term-count>
    term <coeff> A <question> <answer> B <question> <answer>
    constraint selfadjoint <side> <question> <answer>
    constraint psd <side> <question> <answer>
    constraint completeness <side> <question>
    constraint commute <question> <answer> <question> <answer>
    end
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .games import Game
from .serialize import label_key

__all__ = ["NcpoProgram", "game_to_ncpo", "parse_ncpo"]


def _token(label) -> str:
    text = label_key(label)
    if any(ch.isspace() for ch in text):
        raise ValueError(f"label {label!r} does not tokenize cleanly")
    return text


@dataclass
class NcpoProgram:
    game_name: str
    variables: list = field(default_factory=list)  # (side, qtok, atok)
    objective: list = field(default_factory=list)  # (coeff, qtok, atok, rtok, btok)
    constraints: list = field(default_factory=list)

    def render(self) -> str:
        lines = ["ncpo 1", f"game {_token(self.game_name)}"]
        for side, q, a in self.variables:
            lines.append(f"var {side} {q} {a}")
        lines.append(f"objective {len(self.objective)}")
        for coeff, q, a, r, b in self.objective:
            lines.append(f"term {coeff:.17g} A {q} {a} B {r} {b}")
        for parts in self.constraints:
            lines.append("constraint " + " ".join(parts))
        lines.append("end")
        return "\n".join(lines) + "\n"


def game_to_ncpo(game: Game) -> str:
    """Render the program text for a game (uniform question distribution)."""
    questions = list(game.questions)
    mu = 1.0 / len(questions) ** 2
    prog = NcpoProgram(game_name=game.name)
    toks = {x: _token(x) for x in questions}
    # answer tokens, computed once for every loop below
    atoks = {x: [_token(a) for a in game.answers(x)] for x in questions}
    for x in questions:
        for ta in atoks[x]:
            for side in ("A", "B"):
                prog.variables.append((side, toks[x], ta))
    for x in questions:
        for y in questions:
            # nonzero lists the winning (a, b) in row-major order
            for ia, ib in zip(*game.accept_mask(x, y).nonzero()):
                prog.objective.append((mu, toks[x], atoks[x][ia], toks[y], atoks[y][ib]))
    for side, q, a in prog.variables:
        prog.constraints.append(("selfadjoint", side, q, a))
    for side, q, a in prog.variables:
        prog.constraints.append(("psd", side, q, a))
    for x in questions:
        for side in ("A", "B"):
            prog.constraints.append(("completeness", side, toks[x]))
    for x in questions:
        for ta in atoks[x]:
            for y in questions:
                for tb in atoks[y]:
                    prog.constraints.append(("commute", toks[x], ta, toks[y], tb))
    return prog.render()


def parse_ncpo(text: str) -> NcpoProgram:
    """Parse program text back into its structured form."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "ncpo 1":
        raise ValueError("missing ncpo header")
    if lines[-1] != "end":
        raise ValueError("missing end marker")
    prog = NcpoProgram(game_name="")
    expected_terms = None
    seen_terms = 0
    for ln in lines[1:-1]:
        parts = ln.split()
        kind = parts[0]
        if kind == "game":
            prog.game_name = json.loads(parts[1])
        elif kind == "var":
            if len(parts) != 4 or parts[1] not in ("A", "B"):
                raise ValueError(f"bad var line: {ln}")
            prog.variables.append((parts[1], parts[2], parts[3]))
        elif kind == "objective":
            expected_terms = int(parts[1])
        elif kind == "term":
            if len(parts) != 8 or parts[2] != "A" or parts[5] != "B":
                raise ValueError(f"bad term line: {ln}")
            prog.objective.append(
                (float(parts[1]), parts[3], parts[4], parts[6], parts[7])
            )
            seen_terms += 1
        elif kind == "constraint":
            if parts[1] not in ("selfadjoint", "psd", "completeness", "commute"):
                raise ValueError(f"unknown constraint: {ln}")
            prog.constraints.append(tuple(parts[1:]))
        else:
            raise ValueError(f"unknown record: {ln}")
    if expected_terms is not None and expected_terms != seen_terms:
        raise ValueError(f"objective declares {expected_terms} terms, found {seen_terms}")
    return prog
