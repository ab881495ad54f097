"""Cook-Levin tableaux: machines to 3SAT with local clause access.

The two-bit equality machine compiles to a formula whose satisfying
assignments are exactly the accepting runs, with the witness in the
first variables.  Clauses touching any given variable triple come out
of index arithmetic alone, without materializing the formula.
"""

import sys
import time

from syncgames import (
    backtrack_models,
    check_assignment,
    clause_access,
    compile_cnf,
    equality_machine,
    simulate,
    witness_to_assignment,
)
from syncgames.cooklevin import TableauLayout

machine = equality_machine()
print("machine states:", machine.states)
for w in ((0, 0), (0, 1), (1, 1)):
    outcome, _ = simulate(machine, list(w), 3)
    print(f"  input {w}: {outcome}")

T, R = 3, 2
cnf = compile_cnf(machine, T, R)
print(f"\nphi(equality, T={T}, R={R}): {cnf.num_vars} variables, {len(cnf.clauses)} clauses")

models = backtrack_models(cnf)
print("satisfying witness prefixes:", sorted(a.bits[:R] for a in models))

assignment = witness_to_assignment(machine, T, (1, 1))
print("witness 11 embeds and satisfies:", check_assignment(cnf, assignment)[0])

# local access: clauses over the triple of the acceptance variable
layout = cnf.layout
acc = layout.state(T, machine.accept)
found = clause_access(machine, T, R, acc, acc, acc)
print(f"clauses over the acceptance variable {acc}: {found}")

print("\nlocal access time while the tableau grows:")
for T2 in (8, 16, 32, 64):
    layout2 = TableauLayout(machine, T2, R)
    t0 = time.perf_counter()
    for _ in range(200):
        clause_access(machine, T2, R, 1, layout2.num_vars // 2, layout2.num_vars)
    per = (time.perf_counter() - t0) / 200
    # wall-clock lines go to stderr so that stdout is deterministic
    print(
        f"  T={T2:3d}: {layout2.num_vars:5d} variables, {per*1e6:7.1f} us per query",
        file=sys.stderr,
    )
