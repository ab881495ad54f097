"""Rigidity residuals: tau-norm defects of the algebraic relations that
near-optimal strategies must approximately satisfy.

Each audit returns a ResidualReport mapping stable relation names to
residuals, together with the audited strategy's value deficit.  Marginal
operators (row/column marginals of equation measurements, instance
marginals of pair measurements) are derived from the strategy on the fly;
they are defined by the relations, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Measurement,
    binary_to_observable,
    bitstrings,
    data_process,
    fourier_observables,
    is_observable,
    projectivize,
    tau_norm,
)
from .builtins import magic_square, question_sampling, two_of_n_ms
from .games import SynchronousStrategy, value

__all__ = [
    "ResidualReport",
    "ObservablePairFamily",
    "ms_residuals",
    "ms_pair_family",
    "two_of_n_residuals",
    "two_of_n_pair_family",
    "qs_residuals",
    "dimension_certificate",
    "extract_projection",
]


@dataclass
class ResidualReport:
    relations: dict = field(repr=False)
    max_residual: float
    value_deficit: float

    @classmethod
    def build(cls, relations: dict, value_deficit: float) -> "ResidualReport":
        if any(v < 0 for v in relations.values()):
            raise ValueError("residuals must be non-negative")
        return cls(
            relations=dict(relations),
            max_residual=max(relations.values()) if relations else 0.0,
            value_deficit=value_deficit,
        )


@dataclass
class ObservablePairFamily:
    """Anticommuting-pair candidates (A^(k), B^(k)), k = 1..n."""

    pairs: list

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("family must be nonempty")

    def validate(self) -> None:
        for k, (a, b) in enumerate(self.pairs, start=1):
            for name, op in (("A", a), ("B", b)):
                if not is_observable(op):
                    raise ValueError(f"{name}^({k}) is not a Hermitian unitary")


def _ms_observables_of(strategy: SynchronousStrategy) -> dict:
    obs = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            obs[(i, j)] = binary_to_observable(strategy.measurement(f"s{i}{j}"))
    return obs


def ms_residuals(strategy: SynchronousStrategy) -> ResidualReport:
    """Magic Square rigidity audit: products to +-identity, same-row and
    same-column commutators, off-row/column anticommutators."""
    game, _ = magic_square()
    obs = _ms_observables_of(strategy)
    eye = np.eye(strategy.dim)
    rel = {}
    for i in (1, 2, 3):
        rel[f"R1.row.{i}"] = tau_norm(obs[(i, 1)] @ obs[(i, 2)] @ obs[(i, 3)] - eye)
    for j in (1, 2):
        rel[f"R1.col.{j}"] = tau_norm(obs[(1, j)] @ obs[(2, j)] @ obs[(3, j)] - eye)
    rel["R1.col.3"] = tau_norm(obs[(1, 3)] @ obs[(2, 3)] @ obs[(3, 3)] + eye)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if j < k:
                    a, b = obs[(i, j)], obs[(i, k)]
                    rel[f"R2.comm.{i}{j}_{i}{k}"] = tau_norm(a @ b - b @ a)
                    a, b = obs[(j, i)], obs[(k, i)]
                    rel[f"R2.comm.{j}{i}_{k}{i}"] = tau_norm(a @ b - b @ a)
    cells = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for idx, (i, j) in enumerate(cells):
        for (k, l) in cells[idx + 1 :]:
            if i != k and j != l:
                a, b = obs[(i, j)], obs[(k, l)]
                rel[f"R3.anticomm.{i}{j}_{k}{l}"] = tau_norm(a @ b + b @ a)
    deficit = 1.0 - value(game, strategy).value
    return ResidualReport.build(rel, deficit)


def ms_pair_family(strategy: SynchronousStrategy) -> ObservablePairFamily:
    """The two independent anticommuting pairs certified by Magic Square."""
    obs = _ms_observables_of(strategy)
    return ObservablePairFamily(
        [(obs[(1, 1)], obs[(2, 2)]), (obs[(1, 2)], obs[(2, 1)])]
    )


def _succ(i: int, n: int) -> int:
    return i + 1 if i < n else 1


def _instance_observables(strategy: SynchronousStrategy, n: int) -> dict:
    """Marginal observables O^{i,c,d} from the (i, succ(i), x, x) questions."""
    obs = {}
    for i in range(1, n + 1):
        for c, d in ((1, 1), (2, 2), (1, 2), (2, 1)):
            q = (i, _succ(i, n), f"s{c}{d}", f"s{c}{d}")
            marg = data_process(strategy.measurement(q), lambda ab: ab[0])
            obs[(i, c, d)] = binary_to_observable(marg)
    return obs


def two_of_n_pair_family(strategy: SynchronousStrategy, n: int) -> ObservablePairFamily:
    """2n pairs A^(2i-1) = O^{i,1,1}, B^(2i-1) = O^{i,2,2}, and so on."""
    obs = _instance_observables(strategy, n)
    pairs = []
    for i in range(1, n + 1):
        pairs.append((obs[(i, 1, 1)], obs[(i, 2, 2)]))
        pairs.append((obs[(i, 1, 2)], obs[(i, 2, 1)]))
    return ObservablePairFamily(pairs)


def _pair_relations(pairs: list) -> dict:
    """Residuals of an observable-pair family: each pair anticommutes, and
    observables of different pairs commute (A-A and B-B for k < l, A-B for
    k != l)."""
    rel = {}
    for k, (a, b) in enumerate(pairs, start=1):
        rel[f"pair.{k}.anticomm"] = tau_norm(a @ b + b @ a)
    m = len(pairs)
    for k in range(m):
        for l in range(m):
            if k == l:
                continue
            ak, bk = pairs[k]
            al, bl = pairs[l]
            if k < l:
                rel[f"cross.A{k + 1}_A{l + 1}.comm"] = tau_norm(ak @ al - al @ ak)
                rel[f"cross.B{k + 1}_B{l + 1}.comm"] = tau_norm(bk @ bl - bl @ bk)
            rel[f"cross.A{k + 1}_B{l + 1}.comm"] = tau_norm(ak @ bl - bl @ ak)
    return rel


def two_of_n_residuals(strategy: SynchronousStrategy, n: int) -> ResidualReport:
    """2-of-n-MS rigidity audit over the derived instance observables."""
    rel = _pair_relations(two_of_n_pair_family(strategy, n).pairs)
    game, _ = two_of_n_ms(n)
    deficit = 1.0 - value(game, strategy).value
    return ResidualReport.build(rel, deficit)


def _bits_label(x) -> str:
    return "".join(str(b) for b in x)


def _xor(x, u):
    return tuple(a ^ b for a, b in zip(x, u))


def qs_residuals(strategy: SynchronousStrategy, n: int) -> ResidualReport:
    """Question Sampling rigidity audit (commutation, conjugation, traces)."""
    d = strategy.dim
    meas = {
        "S_A": strategy.measurement("S_A"),
        "S_B": strategy.measurement("S_B"),
        "E_A": strategy.measurement("E_A"),
        "E_B": strategy.measurement("E_B"),
    }
    four = {key: fourier_observables(m) for key, m in meas.items()}
    xs = bitstrings(n)
    rel = {}
    # item 1: sampling measurements of the two sides commute; same for erasure
    for fam in ("S", "E"):
        ma, mb = meas[f"{fam}_A"], meas[f"{fam}_B"]
        for x in xs:
            for y in xs:
                a, b = ma.element(x), mb.element(y)
                rel[
                    f"QS.item1.{fam}A{fam}B.x={_bits_label(x)},y={_bits_label(y)}"
                ] = tau_norm(a @ b - b @ a)
    # item 2: sampling of one side commutes with erasure of the other
    for w, o in (("A", "B"), ("B", "A")):
        for x in xs:
            for y in xs:
                a, b = meas[f"S_{w}"].element(x), meas[f"E_{o}"].element(y)
                rel[
                    f"QS.item2.S{w}E{o}.x={_bits_label(x)},y={_bits_label(y)}"
                ] = tau_norm(a @ b - b @ a)
    # item 3: erasure observables shift sampling outcomes by XOR and vice versa
    for w in ("A", "B"):
        for u in xs:
            oe = four[f"E_{w}"][u]
            os_ = four[f"S_{w}"][u]
            for x in xs:
                rel[
                    f"QS.item3.ES.W={w},u={_bits_label(u)},x={_bits_label(x)}"
                ] = tau_norm(oe @ meas[f"S_{w}"].element(x) @ oe - meas[f"S_{w}"].element(_xor(x, u)))
                rel[
                    f"QS.item3.SE.W={w},u={_bits_label(u)},x={_bits_label(x)}"
                ] = tau_norm(os_ @ meas[f"E_{w}"].element(x) @ os_ - meas[f"E_{w}"].element(_xor(x, u)))
    # item 4: single and pair trace deviations from 2^-n and 2^-2n
    for fam in ("S", "E"):
        for w in ("A", "B"):
            m = meas[f"{fam}_{w}"]
            for x in xs:
                rel[f"QS.item4.tau.{fam}{w}.x={_bits_label(x)}"] = abs(
                    np.trace(m.element(x)).real / d - 2.0**-n
                )
        ma, mb = meas[f"{fam}_A"], meas[f"{fam}_B"]
        for x in xs:
            for y in xs:
                rel[
                    f"QS.item4.pair.{fam}.x={_bits_label(x)},y={_bits_label(y)}"
                ] = abs(
                    np.trace(ma.element(x) @ mb.element(y)).real / d - 2.0 ** (-2 * n)
                )
    game, _ = question_sampling(n)
    deficit = 1.0 - value(game, strategy).value
    return ResidualReport.build(rel, deficit)


def dimension_certificate(family: ObservablePairFamily) -> tuple[int, float]:
    """Family size n and worst residual of its (anti)commutation relations.

    A family of n pairwise-independent anticommuting observable pairs at
    residual eps certifies dimension close to 2^n; the caller compares
    2^n against the ambient dimension.
    """
    family.validate()
    return len(family.pairs), max(_pair_relations(family.pairs).values())


def extract_projection(strategy: SynchronousStrategy, n: int) -> tuple[np.ndarray, float]:
    """Projection near S^A_0 S^B_0 with trace 2^-2n on honest strategies.

    Projectivizes the two-outcome POVM {S^A_0 S^B_0 S^A_0, complement} and
    returns the rounded projection with its normalized trace.
    """
    zero = (0,) * n
    sa = strategy.measurement("S_A").element(zero)
    sb = strategy.measurement("S_B").element(zero)
    m = sa @ sb @ sa
    eye = np.eye(strategy.dim, dtype=complex)
    povm = Measurement(("pi", "rest"), [m, eye - m], kind="povm")
    rounded = projectivize(povm)
    pi = rounded.element("pi")
    return pi, float(np.trace(pi).real / strategy.dim)
