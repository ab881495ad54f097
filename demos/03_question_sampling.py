"""Question Sampling: block measurements with uniform outcome statistics.

QS_n extends the 2-of-n Magic Square game by sample and erase questions
answered with n-bit strings.  In the honest strategy the two sampling
measurements commute and their joint outcome distribution is uniform,
which is what lets introspected players draw their own questions fairly.
"""

import numpy as np

from syncgames import (
    dimension_certificate,
    extract_projection,
    qs_residuals,
    question_sampling,
    two_of_n_pair_family,
    value,
)

n = 2
game, honest = question_sampling(n)
print(f"QS_{n}: {len(game.questions)} questions, honest dimension {honest.dim}")
print(f"honest value: {value(game, honest).value:.12f}")

sa = honest.measurement("S_A")
sb = honest.measurement("S_B")
d = honest.dim
print("\njoint sampling statistics tau(S^A_x S^B_y):")
for x in sa.labels:
    row = [np.trace(sa.element(x) @ sb.element(y)).real / d for y in sb.labels]
    print("  ", " ".join(f"{p:.4f}" for p in row))
print(f"every entry is 2^-{2*n} = {2.0**(-2*n):.4f}: the introspected question")
print("pair (x, y) is sampled uniformly.")

family = two_of_n_pair_family(honest, n)
size, eps = dimension_certificate(family)
print(f"\ncertificate: {size} independent anticommuting pairs at residual {eps:.1e}")
print(f"=> Hilbert space dimension at least 2^{size} = {2**size} (ambient: {honest.dim})")

pi, trace = extract_projection(honest, n)
print(f"extracted projection trace: {trace:.6f} = 2^-{2*n}")

audit = qs_residuals(honest, n)
print(f"full audit: {len(audit.relations)} relations, max residual {audit.max_residual:.1e}")
