"""Root-theoretic constants of the matrix ball of size r x (r+b), b >= 1.

The derived invariants (dimension n, admissibility threshold) are computed
from closed formulas and then validated against a brute-force joint
diagonalization of the adjoint action on the realized Lie algebra su(r, r+b),
see :func:`restricted_roots`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "StructureData",
    "SpectralParam",
    "structure_data",
    "spectral_param",
    "restricted_roots",
    "root_decomposition",
    "su_basis",
    "lambda_coefficients",
]


@dataclass(frozen=True)
class StructureData:
    """Invariants of the rank-r matrix ball with non-tube parameter b."""

    r: int
    b: int
    a: int
    n: int
    m: int
    admissibility_threshold: float

    @property
    def q(self) -> int:
        """Column size r + b of the matrices realizing the domain."""
        return self.r + self.b

    @property
    def harmonic_s(self) -> float:
        """The parameter n/r at which the kernel has unit boundary mass."""
        return self.n / self.r


@dataclass(frozen=True)
class SpectralParam:
    """Complex spectral parameter with its derived quantities."""

    s: complex
    sd: StructureData
    sigma: complex
    growth: complex
    hua_eigenvalue: complex
    admissible: bool


def structure_data(r: int, b: int) -> StructureData:
    """Build the structure constants for rank r and non-tube parameter b >= 1."""
    if r < 1:
        raise DomainError("rank r must be a positive integer")
    if b < 1:
        raise DomainError("b must be >= 1: b = 0 is the tube case, out of scope")
    a = 2
    n = r * b + r + a * r * (r - 1) // 2  # = r (r + b)
    m = 2 * r + b
    return StructureData(
        r=r,
        b=b,
        a=a,
        n=n,
        m=m,
        admissibility_threshold=0.5 * a * (r - 1),
    )


def spectral_param(s: complex, sd: StructureData) -> SpectralParam:
    """Populate the derived spectral quantities for a complex parameter s."""
    s = complex(s)
    nr = sd.n / sd.r
    return SpectralParam(
        s=s,
        sd=sd,
        sigma=0.5 * (s + nr),
        growth=sd.r * s - sd.n,
        hua_eigenvalue=0.25 * (s * s - (sd.r + sd.b) ** 2),
        admissible=s.real > sd.admissibility_threshold,
    )


def lambda_coefficients(s: complex, sd: StructureData) -> np.ndarray:
    """Coefficients of lambda_s on the eps basis: entry j-1 is s + r + 1 - 2j."""
    j = np.arange(1, sd.r + 1)
    return np.asarray(s + sd.r + 1 - 2 * j, dtype=complex)


def su_basis(sd: StructureData) -> list:
    """Orthonormal real basis of su(r, r+b) w.r.t. <X, Y> = Re tr(X Y^H).

    Basis elements: within-block rotations/phases, mixed Hermitian pairs, and
    Gram-Schmidt-orthonormalized traceless imaginary diagonals.
    """
    r, m = sd.r, sd.m
    out = []
    s2 = 1.0 / np.sqrt(2.0)

    def emat(i, j, v):
        X = np.zeros((m, m), dtype=np.complex128)
        X[i, j] = v
        return X

    for i in range(m):
        for j in range(i + 1, m):
            same_block = (i < r) == (j < r)
            if same_block:
                out.append((emat(i, j, 1) - emat(j, i, 1)) * s2)
                out.append((emat(i, j, 1j) + emat(j, i, 1j)) * s2)
            else:
                out.append((emat(i, j, 1) + emat(j, i, 1)) * s2)
                out.append((emat(i, j, 1j) - emat(j, i, 1j)) * s2)
    # traceless imaginary diagonals, orthonormalized
    diags = []
    for j in range(m - 1):
        d = np.zeros(m)
        d[j], d[j + 1] = 1.0, -1.0
        for prev in diags:
            d = d - np.dot(d, prev) * prev
        d = d / np.linalg.norm(d)
        diags.append(d)
        out.append(np.diag(1j * d))
    assert len(out) == m * m - 1
    return out


def _ad_matrix(X, basis, vecs):
    """Matrix of ad(X) = [X, .] in the given orthonormal real basis."""
    d = len(basis)
    cols = np.empty((vecs.shape[1], d))
    for k, E in enumerate(basis):
        C = X @ E - E @ X
        v = np.concatenate([C.real.ravel(), C.imag.ravel()])
        cols[:, k] = v
    return vecs @ cols  # coordinates of each bracket in the basis


def root_decomposition(sd: StructureData):
    """Joint eigenspaces of ad(X_1), ..., ad(X_r) on su(r, r+b), by brute force.

    Returns a list of (root_values, matrices): root_values is the integer
    vector (alpha(X_1), ..., alpha(X_r)) and matrices spans the eigenspace.
    The zero vector labels the joint centralizer.
    """
    from . import group  # local import: group supplies the X_j matrices

    basis = su_basis(sd)
    d = len(basis)
    vecs = np.empty((d, 2 * sd.m * sd.m))
    for k, E in enumerate(basis):
        vecs[k] = np.concatenate([E.real.ravel(), E.imag.ravel()])
    ads = [_ad_matrix(group.x_generator(sd, j), basis, vecs) for j in range(sd.r)]

    spaces = [(np.eye(d), ())]  # (orthonormal columns-as-rows basis, eigenvalue tuple)
    for A in ads:
        refined = []
        for V, vals in spaces:
            M = V @ A @ V.T
            M = 0.5 * (M + M.T)
            w, P = np.linalg.eigh(M)
            near = np.round(w)
            if np.max(np.abs(w - near)) > 1e-10:
                raise DomainError(
                    "joint ad eigenvalue %r is not an integer within 1e-10"
                    % w[np.argmax(np.abs(w - near))]
                )
            for val in sorted(set(int(v) for v in near)):
                cols = P[:, near == val]
                refined.append((cols.T @ V, vals + (val,)))
        spaces = refined

    decomp = []
    for V, vals in spaces:
        mats = []
        for row in V:
            X = np.zeros((sd.m, sd.m), dtype=np.complex128)
            for c, E in zip(row, basis):
                X = X + c * E
            mats.append(X)
        decomp.append((np.array(vals, dtype=int), mats))
    return decomp


def _classify(vals, r):
    """Label a nonzero joint eigenvalue vector as a positive/negative root."""
    nz = np.nonzero(vals)[0]
    if len(nz) == 1:
        j = nz[0]
        v = vals[j]
        if abs(v) == 2:
            return ("beta_%d" % (j + 1), v > 0)
        if abs(v) == 1:
            return ("beta_%d/2" % (j + 1), v > 0)
    elif len(nz) == 2:
        j, k = nz
        vj, vk = vals[j], vals[k]
        if abs(vj) == 1 and abs(vk) == 1:
            sign = "+" if vj == vk else "-"
            if vj > 0:
                return ("(beta_%d%sbeta_%d)/2" % (j + 1, sign, k + 1), True)
            return ("(beta_%d%sbeta_%d)/2" % (j + 1, sign, k + 1), False)
    return (None, None)


def restricted_roots(sd: StructureData) -> dict:
    """Multiplicities of the positive restricted roots, from brute force.

    Returns {label: multiplicity} for the positive roots beta_j, beta_j/2 and
    (beta_j +/- beta_k)/2, and asserts the multiplicities equal 1, 2b and a
    respectively. Raises DomainError when any joint eigenvalue falls outside
    the expected integer pattern.
    """
    decomp = root_decomposition(sd)
    pos = {}
    neg = {}
    rho_x0_doubled = 0
    for vals, mats in decomp:
        if not np.any(vals):
            continue
        label, is_pos = _classify(vals, sd.r)
        if label is None:
            raise DomainError("joint eigenvalue %r has no C_r/BC_r label" % (vals,))
        if is_pos:
            pos[label] = len(mats)
            rho_x0_doubled += len(mats) * int(np.sum(vals))
        else:
            neg[label] = len(mats)
    if pos != neg:
        raise DomainError("positive/negative root multiplicities disagree")
    for label, mult in pos.items():
        if label.startswith("beta_") and label.endswith("/2"):
            expect = 2 * sd.b
        elif label.startswith("beta_"):
            expect = 1
        else:
            expect = sd.a
        if mult != expect:
            raise DomainError("root %s has multiplicity %d, expected %d" % (label, mult, expect))
    # rho(X_0) = half the multiplicity-weighted sum of positive root values
    # on X_0 must rebuild n = rb + r + a r(r-1)/2
    if rho_x0_doubled != 2 * sd.n:
        raise DomainError(
            "multiplicities rebuild rho(X_0) = %g, expected n = %d"
            % (rho_x0_doubled / 2.0, sd.n)
        )
    return pos
