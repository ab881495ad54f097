"""Magic Square: honest quantum strategy versus the classical optimum.

The game asks for assignments to a 3x3 grid where rows and columns have
even parity except the last column.  No deterministic assignment exists,
so the classical value is below 1, but the dim-4 Pauli strategy wins
always.
"""

import numpy as np

from syncgames import classical_value, magic_square, ms_residuals, value

game, honest = magic_square()
print(f"questions: {len(game.questions)} "
      f"({sum(1 for q in game.questions if q.startswith('s'))} variables)")

report = value(game, honest)
print(f"honest dim-{honest.dim} strategy value: {report.value:.12f}")
print(f"trivial question-pair mass: {report.trivial_mass:.4f}")

cv, assignment = classical_value(game)
print(f"classical (deterministic) optimum: {cv:.12f} = {cv * 225:.0f}/225")
print("best classical grid:",
      {v: assignment[v] for v in sorted(assignment) if v.startswith("s")})

audit = ms_residuals(honest)
print(f"rigidity audit: {len(audit.relations)} relations, "
      f"max residual {audit.max_residual:.2e}")

# the three relation families at a glance
for family in ("R1", "R2", "R3"):
    worst = max(v for k, v in audit.relations.items() if k.startswith(family))
    print(f"  worst {family} residual: {worst:.2e}")
