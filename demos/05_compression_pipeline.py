"""The compression pipeline on a tiny perfect game.

Introspection moves the question sampling into the players; answer
reduction replaces full answers by queried bits of a Cook-Levin proof.
Perfect value survives both steps (and so does their composition), while
an imperfect base game keeps its deficit confined to the transcript
cross-checks.
"""

from syncgames import (
    answer_reduce,
    consistency_game,
    forbidden_pair_game,
    gapless_compress,
    introspect,
    lift_answer_reduce,
    lift_gapless_compress,
    lift_introspection,
    sampled_value,
    value,
)

game, honest = consistency_game(2)
base_value = value(game, honest).value
print(f"base game: {game.name}, value {base_value:.6f}, dim {honest.dim}")

intro = introspect(game)
lifted = lift_introspection(game, honest)
intro_value = value(intro, lifted).value
print(f"introspected: {len(intro.questions)} questions, "
      f"lifted value {intro_value:.6f} at dim {lifted.dim}")

T = 8
compressed = gapless_compress(game, T)
ctx = compressed.ar_context
print(f"compressed: proof length L = {ctx.L}, "
      f"question space ~{len(compressed.questions):.2e}")
lifted2 = lift_gapless_compress(game, honest, T, compressed=compressed)
est, err = sampled_value(compressed, lifted2, 50_000, seed=1)
print(f"sampled compressed value: {est:.6f} +- {err:.6f}")

print("\nimperfect base for contrast:")
lossy, det = forbidden_pair_game(2)
lossy_value = value(lossy, det).value
intro2 = introspect(lossy)
lift2 = lift_introspection(lossy, det)
audit = value(intro2, lift2)
deficits = {p: round(v, 4) for p, v in audit.per_pair.items() if v < 1 - 1e-9}
print(f"base value {lossy_value:.4f}; introspected value {audit.value:.6f}")
print(f"deficit rows: {deficits}")

reduced = answer_reduce(lossy, 4)
lifted3 = lift_answer_reduce(lossy, det, 4, reduced=reduced)
est, err = sampled_value(reduced, lifted3, 50_000, seed=2)
print(f"answer-reduced sampled value {est:.6f} "
      f">= 1/2 + value/2 = {0.5 + 0.5 * lossy_value:.4f}")
