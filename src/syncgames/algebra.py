"""Complex-matrix measurement algebra under the dimension-normalized trace.

Operators are plain square complex numpy arrays.  The tracial state on
d x d matrices is tr(A)/d, so the tau-norm is the dimension-normalized
Frobenius norm.  Measurements are labeled families of operators sharing
one dimension; POVM elements are positive and sum to the identity,
projective elements are additionally Hermitian idempotents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tolerance",
    "Measurement",
    "tau_norm",
    "set_tau_norm",
    "closeness",
    "inconsistency",
    "data_process",
    "binary_to_observable",
    "fourier_observables",
    "bitstrings",
    "projectivize",
    "paste",
    "is_hermitian",
    "is_psd",
    "is_projection",
    "is_observable",
]


@dataclass(frozen=True)
class Tolerance:
    """Single absolute tolerance used by all validity checks."""

    eps: float = 1e-9

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("tolerance must be non-negative")


DEFAULT_TOL = Tolerance()


def _as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def tau_norm(a: np.ndarray) -> float:
    """Tau-norm sqrt(tr(A* A)/dim); zero iff A = 0."""
    a = _as_operator(a)
    return float(np.linalg.norm(a)) / np.sqrt(a.shape[0])


def is_hermitian(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = _as_operator(a)
    return bool(np.abs(a - a.conj().T).max() <= tol.eps)


def is_psd(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """PSD check via smallest eigenvalue >= -eps (requires Hermitian)."""
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh(a)
    return bool(w.min() >= -tol.eps)


def is_projection(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = _as_operator(a)
    return is_hermitian(a, tol) and bool(np.abs(a @ a - a).max() <= tol.eps)


def is_observable(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Hermitian unitary: self-adjoint and squares to the identity."""
    a = _as_operator(a)
    eye = np.eye(a.shape[0])
    return is_hermitian(a, tol) and bool(np.abs(a @ a - eye).max() <= tol.eps)


@dataclass
class Measurement:
    """Finite labeled family of same-dimension operators.

    kind is one of "povm", "projective", "general"; validity of the first
    two is checked by validate(), "general" carries no constraint and is
    used for the operator-set distance lemmas.
    """

    labels: tuple
    elements: list[np.ndarray] = field(repr=False)
    kind: str = "general"

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.elements = [_as_operator(e) for e in self.elements]
        if len(self.labels) != len(self.elements):
            raise ValueError("one element per label required")
        if not self.elements:
            raise ValueError("measurement needs at least one outcome")
        dims = {e.shape[0] for e in self.elements}
        if len(dims) != 1:
            raise ValueError("all elements must share one dimension")
        if self.kind not in ("povm", "projective", "general"):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate outcome labels")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def element(self, label) -> np.ndarray:
        return self.elements[self.labels.index(label)]

    def sum(self) -> np.ndarray:
        return np.sum(self.elements, axis=0)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Raise ValueError if the elements violate the declared kind."""
        if self.kind == "general":
            return
        eye = np.eye(self.dim)
        if np.abs(self.sum() - eye).max() > tol.eps:
            raise ValueError("elements do not sum to the identity")
        for lab, e in zip(self.labels, self.elements):
            if self.kind == "projective":
                if not is_projection(e, tol):
                    raise ValueError(f"element {lab!r} is not a projection")
            else:
                if not is_psd(e, tol):
                    raise ValueError(f"element {lab!r} is not PSD")


def _check_compatible(m: Measurement, n: Measurement) -> None:
    if m.labels != n.labels:
        raise ValueError("outcome label sets differ")
    if m.dim != n.dim:
        raise ValueError(f"dimension mismatch {m.dim} vs {n.dim}")


def set_tau_norm(m: Measurement) -> float:
    """Root-sum-of-squares tau-norm of an operator set."""
    return float(np.sqrt(sum(tau_norm(e) ** 2 for e in m.elements)))


def closeness(m: Measurement, n: Measurement) -> float:
    """Distance sqrt(sum_a ||M_a - N_a||_tau^2) between operator sets."""
    _check_compatible(m, n)
    return float(
        np.sqrt(sum(tau_norm(a - b) ** 2 for a, b in zip(m.elements, n.elements)))
    )


def inconsistency(m: Measurement, n: Measurement, tol: Tolerance = DEFAULT_TOL) -> float:
    """Disagreement mass sum_{a != b} tr(M_a N_b)/dim, clamped at zero.

    Requires POVM or projective inputs; tiny negative rounding artifacts
    within eps are clamped to zero.
    """
    _check_compatible(m, n)
    for meas in (m, n):
        if meas.kind == "general":
            raise ValueError("inconsistency requires povm or projective inputs")
    d = m.dim
    total = np.trace(m.sum() @ n.sum()).real / d
    agree = sum(np.trace(a @ b).real for a, b in zip(m.elements, n.elements)) / d
    val = total - agree
    if val < 0:
        if val < -tol.eps:
            raise ValueError(f"inconsistency {val} below tolerance window")
        val = 0.0
    return float(val)


def data_process(m: Measurement, f) -> Measurement:
    """Coarse-grain outcomes through a total label map f: labels -> new labels.

    f may be a dict or a callable; it must be defined on every outcome.
    The image labels appear in first-occurrence order.  POVM and projective
    kinds are preserved (sums of orthogonal projections from one projective
    family are again projections).
    """
    if isinstance(f, dict):
        mapping = f
        missing = [lab for lab in m.labels if lab not in mapping]
        if missing:
            raise ValueError(f"label map not total, missing {missing[:3]}")
        get = mapping.__getitem__
    else:
        get = f
    out_labels: list = []
    sums: dict = {}
    for lab, e in zip(m.labels, m.elements):
        target = get(lab)
        if target not in sums:
            out_labels.append(target)
            sums[target] = e.copy()
        else:
            sums[target] = sums[target] + e
    return Measurement(tuple(out_labels), [sums[t] for t in out_labels], kind=m.kind)


def binary_to_observable(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """M_0 - M_1 for a complete two-outcome projective measurement."""
    if len(m.labels) != 2:
        raise ValueError("binary observable needs exactly two outcomes")
    m.validate(tol)
    if m.kind != "projective":
        raise ValueError("binary observable requires a projective measurement")
    return m.elements[0] - m.elements[1]


def bitstrings(n: int) -> list[tuple[int, ...]]:
    """All n-bit tuples in lexicographic order."""
    return list(itertools.product((0, 1), repeat=n))


def fourier_observables(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Character sums O_u = sum_x (-1)^{u.x} M_x over outcomes {0,1}^n.

    Requires a projective measurement whose outcome set is exactly the
    n-bit strings.  O_0 is the identity and every O_u is a Hermitian
    unitary.
    """
    first = m.labels[0]
    if not isinstance(first, tuple):
        raise ValueError("outcome set must be exactly the n-bit strings")
    n = len(first)
    expected = bitstrings(n)
    if sorted(m.labels) != expected:
        raise ValueError("outcome set must be exactly the n-bit strings")
    m.validate(tol)
    if m.kind != "projective":
        raise ValueError("fourier observables require a projective measurement")
    out = {}
    for u in expected:
        acc = np.zeros((m.dim, m.dim), dtype=complex)
        for x, e in zip(m.labels, m.elements):
            sign = -1 if sum(ui * xi for ui, xi in zip(u, x)) % 2 else 1
            acc += sign * e
        out[u] = acc
    return out


def _round_to_projection(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Spectral rounding: keep eigenspaces with eigenvalue > 1/2."""
    h = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(h)
    keep = v[:, w > 0.5]
    if keep.shape[1] == 0:
        return np.zeros_like(a)
    return keep @ keep.conj().T


def projectivize(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> Measurement:
    """Round a POVM to a projective measurement over the same labels.

    Per-element spectral threshold at 1/2, then sequential orthogonalization:
    each rounded element is compressed onto the orthogonal complement of the
    previously fixed ones and re-rounded; the residual complement goes to the
    last label.  Exactly projective input is a fixed point.
    """
    if m.kind == "projective":
        m.validate(tol)
        return m
    if m.kind != "povm":
        raise ValueError("projectivize expects a POVM")
    m.validate(tol)
    d = m.dim
    eye = np.eye(d)
    fixed: list[np.ndarray] = []
    used = np.zeros((d, d), dtype=complex)
    for e in m.elements[:-1]:
        comp = eye - used
        rounded = _round_to_projection(e, tol)
        squeezed = comp @ rounded @ comp
        p = _round_to_projection(squeezed, tol)
        fixed.append(p)
        used = used + p
    fixed.append(eye - used)
    out = Measurement(m.labels, fixed, kind="projective")
    out.validate(Tolerance(max(tol.eps, 1e-8)))
    return out


def paste(measurements: list[Measurement], tol: Tolerance = DEFAULT_TOL) -> Measurement:
    """Join K projective measurements into one over outcome tuples.

    Builds Q_vec = P (P)* from the ordered product of the inputs and
    projectivizes.  When the inputs exactly commute pairwise the marginals
    of the result reproduce the inputs.
    """
    if not measurements:
        raise ValueError("need at least one measurement to paste")
    labels0 = measurements[0].labels
    dim0 = measurements[0].dim
    for m in measurements:
        if m.labels != labels0:
            raise ValueError("pasting requires a common outcome set")
        if m.dim != dim0:
            raise ValueError("pasting requires a common dimension")
        if m.kind != "projective":
            raise ValueError("pasting requires projective inputs")
    k = len(measurements)
    if k == 1:
        return measurements[0]
    out_labels = []
    out_elements = []
    for combo in itertools.product(labels0, repeat=k):
        prod = measurements[0].element(combo[0])
        for i in range(1, k):
            prod = prod @ measurements[i].element(combo[i])
        out_labels.append(combo)
        out_elements.append(prod @ prod.conj().T)
    povm = Measurement(tuple(out_labels), out_elements, kind="povm")
    return projectivize(povm, tol)
