"""Rigidity under perturbation: residuals track the value deficit.

Conjugating the honest Magic Square measurements by independent small
random unitaries lowers the value by epsilon and moves every audited
relation off zero; the explicit bound 480 * sqrt(epsilon) stays far
above the measured residuals.
"""

import numpy as np

from syncgames import magic_square, ms_residuals, perturb_strategy

game, honest = magic_square()

print(f"{'magnitude':>10} {'deficit eps':>12} {'max residual':>13} {'bound':>10}")
for magnitude in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4):
    perturbed = perturb_strategy(honest, magnitude, 17, list(game.questions))
    audit = ms_residuals(perturbed)
    eps = audit.value_deficit
    bound = 32 * 15 * np.sqrt(max(eps, 0.0))
    flag = "ok" if audit.max_residual <= bound else "VIOLATED"
    print(f"{magnitude:10.0e} {eps:12.3e} {audit.max_residual:13.3e} {bound:10.3e} {flag}")

print("\nresiduals scale linearly with the magnitude, the deficit quadratically,")
print("so the sqrt-shaped bound is loose but never crossed.")
