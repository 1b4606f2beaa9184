"""Matrix realization of G = SU(r, r+b), its Moebius action and horospherical height.

Conventions: J = diag(I_r, -I_{r+b}); group elements are m x m complex
matrices with g^H J g = J and det g = 1; points of the ball and of its Shilov
boundary are r x (r+b) matrices acted on by g.Z = (AZ + B)(CZ + D)^{-1}.
The height h1 is the scalar coordinate of the A_1-component in the
horospherical decomposition g = kappa(g) M_1 exp(h1 X_0) N_1, computed through
a determinant identity (see :func:`matrixball._kernels.h1_batch`).
"""

import numpy as np

from . import _kernels, linalg
from .errors import DegeneracyError
from .structure import StructureData, root_decomposition

__all__ = [
    "GROUP_FRESH_TOL",
    "jmatrix",
    "base_point",
    "x_generator",
    "radial",
    "mobius",
    "group_inverse",
    "membership_residual",
    "is_domain_point",
    "is_shilov_point",
    "h1_scalar",
    "nbar_basis",
    "kappa_factor",
    "kappa_right_factors",
    "random_algebra_element",
    "random_group_element",
]

GROUP_FRESH_TOL = 1e-10  # default tolerance of is_shilov_point


def jmatrix(sd: StructureData) -> np.ndarray:
    J = np.ones(sd.m)
    J[sd.r:] = -1.0
    return np.diag(J).astype(np.complex128)


def base_point(sd: StructureData) -> np.ndarray:
    """The base Shilov point U0 = [I_r | 0]."""
    U0 = np.zeros((sd.r, sd.q), dtype=np.complex128)
    U0[:, : sd.r] = np.eye(sd.r)
    return U0


def x_generator(sd: StructureData, j: int) -> np.ndarray:
    """The j-th strongly orthogonal sl(2) generator X_{j+1} (0-based j < r)."""
    X = np.zeros((sd.m, sd.m), dtype=np.complex128)
    X[j, sd.r + j] = 1.0
    X[sd.r + j, j] = 1.0
    return X


def radial(t, sd: StructureData) -> np.ndarray:
    """a_t = exp(t X_0), in closed cosh/sinh block form; an array of t gives a stack."""
    c, s = np.cosh(t), np.sinh(t)
    g = np.tile(np.eye(sd.m, dtype=np.complex128), np.shape(t) + (1, 1))
    for j in range(sd.r):
        g[..., j, j] = c
        g[..., j, sd.r + j] = s
        g[..., sd.r + j, j] = s
        g[..., sd.r + j, sd.r + j] = c
    return g


def mobius(g: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Fractional-linear action (AZ + B)(CZ + D)^{-1} on ball or Shilov points.

    g may be a stack (..., m, m); Z broadcasts against it. Every element of
    the stack must give a well-conditioned CZ + D.
    """
    g = np.asarray(g, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    r = Z.shape[-2]
    A, B = g[..., :r, :r], g[..., :r, r:]
    C, D = g[..., r:, :r], g[..., r:, r:]
    den = C @ Z + D
    if np.any(linalg.cond(den) > 1e12):
        raise DegeneracyError("CZ + D is numerically singular in the Moebius action")
    return (A @ Z + B) @ np.linalg.inv(den)


def group_inverse(g: np.ndarray, sd: StructureData) -> np.ndarray:
    """Exact inverse J g^H J of a group element, or of each element of a stack."""
    gi = np.swapaxes(np.asarray(g), -1, -2).conj().copy()
    gi[..., : sd.r, sd.r:] *= -1.0
    gi[..., sd.r:, : sd.r] *= -1.0
    return gi


def membership_residual(g: np.ndarray, sd: StructureData) -> float:
    """max(|g^H J g - J|_max, |det g - 1|)."""
    g = np.asarray(g, dtype=np.complex128)
    J = jmatrix(sd)
    res = float(np.max(np.abs(g.conj().T @ J @ g - J)))
    return max(res, abs(linalg.det(g) - 1.0))


def is_domain_point(Z: np.ndarray) -> bool:
    """True iff I - Z Z^H is strictly positive definite; for a stack, at every point."""
    Z = np.asarray(Z, dtype=np.complex128)
    H = np.eye(Z.shape[-2]) - Z @ np.swapaxes(Z, -1, -2).conj()
    return linalg.is_strictly_positive(H)


def is_shilov_point(U: np.ndarray, tol: float = GROUP_FRESH_TOL) -> bool:
    """True iff the rows of U are orthonormal: U U^H = I_r within tol.

    Accepts leading batch dimensions; all points must pass.
    """
    U = np.asarray(U, dtype=np.complex128)
    if not np.all(np.isfinite(U)):
        return False
    gram = U @ np.swapaxes(U, -1, -2).conj()
    return float(np.max(np.abs(gram - np.eye(U.shape[-2])), initial=0.0)) <= tol


def h1_scalar(g: np.ndarray, sd: StructureData) -> float:
    """Height h1 without membership checks (hot path; batch in _kernels)."""
    return float(_kernels.h1_batch(np.asarray(g, dtype=np.complex128)[None], sd.r)[0])


def nbar_basis(sd: StructureData) -> np.ndarray:
    """Real basis of the opposite unipotent algebra n1bar: the ad(X_0) grades -1, -2.

    Returns a (dim, m, m) stack; the algebra is 2-step nilpotent, so
    exp(A) = I + A + A^2/2 for A in its span.
    """
    mats = []
    for vals, ms in root_decomposition(sd):
        if round(float(np.sum(vals))) in (-1, -2):
            mats.extend(ms)
    return np.array(mats)


def _fix_column_phases(C: np.ndarray) -> np.ndarray:
    """Deterministic phase convention: first significant entry of each column
    is made real and positive (columns indexed along the last axis)."""
    C = C.copy()
    first = np.argmax(np.abs(C) > 1e-12, axis=-2)
    lead = np.take_along_axis(C, first[..., None, :], axis=-2)[..., 0, :]
    ph = np.where(np.abs(lead) > 0, lead / np.where(np.abs(lead) > 0, np.abs(lead), 1.0), 1.0)
    return C * ph.conj()[..., None, :]


def kappa_right_factors(U: np.ndarray) -> np.ndarray:
    """Unitary right factors M (batch) with kappa = diag(I_r, M^H), kappa.U0 = U.

    U has shape (..., r, q) with orthonormal rows; the returned stack M has
    shape (..., q, q), unit determinant, first r rows equal to U, and the
    Moebius action of diag(I_r, M^H) on a point Z is Z @ M.
    """
    U = np.asarray(U, dtype=np.complex128)
    r, q = U.shape[-2], U.shape[-1]
    Q, _ = np.linalg.qr(np.swapaxes(U, -1, -2).conj(), mode="complete")
    C = _fix_column_phases(Q[..., :, r:])
    M = np.concatenate([U, np.swapaxes(C, -1, -2).conj()], axis=-2)
    detM = np.linalg.det(M)
    M[..., -1, :] = M[..., -1, :] / detM[..., None]
    return M


def kappa_factor(g: np.ndarray, sd: StructureData) -> np.ndarray:
    """A block-diagonal representative of the K-coset kappa(g), as a group element.

    The representative fixes h1 = 0 and has the same boundary action as g at
    the base point: kappa_factor(g).U0 = g.U0. It is unique only modulo the
    centralizer subgroup; any representative satisfies the cocycle identities.
    A stack of g gives a stack of representatives.
    """
    W = mobius(g, base_point(sd))
    M = kappa_right_factors(W)
    k = np.zeros(M.shape[:-2] + (sd.m, sd.m), dtype=np.complex128)
    k[..., : sd.r, : sd.r] = np.eye(sd.r)
    k[..., sd.r:, sd.r:] = np.swapaxes(M, -1, -2).conj()
    return k


def random_algebra_element(rng: np.random.Generator, scale: float, sd: StructureData) -> np.ndarray:
    """Pseudo-random element of su(r, r+b) with entries O(scale)."""
    r, q, m = sd.r, sd.q, sd.m
    A = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    D = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    B = rng.normal(size=(r, q)) + 1j * rng.normal(size=(r, q))
    X = np.zeros((m, m), dtype=np.complex128)
    X[:r, :r] = 0.5 * (A - A.conj().T)
    X[r:, r:] = 0.5 * (D - D.conj().T)
    X[:r, r:] = B
    X[r:, :r] = B.conj().T
    X -= (np.trace(X) / m) * np.eye(m)
    return scale * X


def _complex_gaussians(Z: np.ndarray, *shapes):
    """Split each row of a real standard normal table Z (N, .) into complex stacks.

    Each shape takes the next two runs of its size from every row, its real
    then its imaginary part, and gives an (N, *shape) stack re + 1j im: what
    per-sample rng.normal(size=shape) + 1j * rng.normal(size=shape) calls give
    on the row's stream.
    """
    out, lo = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        re, im = (Z[:, a : a + size].reshape(-1, *shape) for a in (lo, lo + size))
        out.append(re + 1j * im)
        lo += 2 * size
    return out


def random_group_element(seed, scale: float, sd: StructureData) -> np.ndarray:
    """exp of a seeded random algebra element; deterministic per seed.

    seed is an int or a Generator, or a sequence of them, which gives an
    (N, m, m) stack exponentiated in one call. Each element equals the exp of
    random_algebra_element(rng, scale, sd) for its seed's generator, bit for
    bit: each seed makes one draw of all that call's normals, in its order,
    and the elements are assembled as one stack.
    """
    seeds = seed if np.ndim(seed) else [seed]
    r, q, m = sd.r, sd.q, sd.m
    X = np.zeros((len(seeds), m, m), dtype=np.complex128)
    if scale != 0:
        Z = np.empty((len(seeds), 2 * (r * r + q * q + r * q)))
        for i, s in enumerate(seeds):
            rng = s if isinstance(s, np.random.Generator) else np.random.default_rng(s)
            rng.standard_normal(out=Z[i])
        A, D, B = _complex_gaussians(Z, (r, r), (q, q), (r, q))
        X[:, :r, :r] = 0.5 * (A - np.swapaxes(A, -1, -2).conj())
        X[:, r:, r:] = 0.5 * (D - np.swapaxes(D, -1, -2).conj())
        X[:, :r, r:] = B
        X[:, r:, :r] = np.swapaxes(B, -1, -2).conj()
        X -= (np.trace(X, axis1=-2, axis2=-1) / m)[:, None, None] * np.eye(m)
        X = scale * X
    G = linalg.expm(X)  # exp(0) = I exactly, as linalg.expm guarantees
    return G if np.ndim(seed) else G[0]
