"""Low-level batch kernels: log-determinant ratios, Moebius pushes, heights.

Each kernel is a vectorized numpy closed form over a leading batch axis.
Every log|det| goes through one rank ladder, _logabsdet_small: the
determinant written out for r <= 3, ``np.linalg.slogdet`` above that. The
radial weight log|det(cosh t I + sinh t V1)| of the phi_s profile, which
weighs one node set at many t without pushing it, is evaluated from the
coefficients e_k(V1) of det(I + tau V1) (radial_coefficients, built once per
node set), so a profile costs one small polynomial per node and t; the
transform's push forms T itself and weighs by its determinant.

All kernels assume validated inputs (sizes r <= a few, complex128); membership
and degeneracy checks live in the higher-level modules. BLOCK is the number of
samples per block of a pass over a large node stack (the Stiefel rule's draw
and QR, the radial log-weights): a block's working set stays in cache.
"""

import numpy as np

BLOCK = 2 ** 14


def backend() -> str:
    """Name of the kernel implementation; always 'numpy'."""
    return "numpy"


def _logabsdet_small(T):
    """log|det T| for a (..., r, r) complex stack: closed forms for r <= 3, else slogdet."""
    r = T.shape[-1]
    if r == 1:
        return np.log(np.abs(T[..., 0, 0]))
    if r == 2:
        det = T[..., 0, 0] * T[..., 1, 1] - T[..., 0, 1] * T[..., 1, 0]
        return np.log(np.abs(det))
    if r == 3:
        return np.log(np.abs(_det3(T)))
    _, ld = np.linalg.slogdet(T)
    return ld


def _det3(T):
    """det of a (..., 3, 3) stack by cofactors along the first row."""
    a, b, c = T[..., 0, 0], T[..., 0, 1], T[..., 0, 2]
    d, e, f = T[..., 1, 0], T[..., 1, 1], T[..., 1, 2]
    g, h, i = T[..., 2, 0], T[..., 2, 1], T[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _eye_minus(M):
    out = -M.copy()
    idx = np.arange(M.shape[-1])
    out[..., idx, idx] += 1.0
    return out


def logdet_ipzz(Z):
    """log det(I_r - Z Z^H) for a stack of domain points, shape (..., r, q) -> (...)."""
    Z = np.asarray(Z, dtype=np.complex128)
    return _logabsdet_small(_eye_minus(Z @ np.swapaxes(Z, -1, -2).conj()))


def _logabsdet_izuh(Z, U):
    # cross_logabsdet calls this form directly, so one call of it is one kernel call
    return _logabsdet_small(_eye_minus(np.einsum("...rq,...sq->...rs", Z, U.conj())))


def logabsdet_izuh(Z, U):
    """log|det(I_r - Z U^H)| pair by pair over broadcast-matched stacks (..., r, q)."""
    return _logabsdet_izuh(np.asarray(Z, dtype=np.complex128), np.asarray(U, dtype=np.complex128))


def logabsdet_izu0(Z):
    """log|det(I_r - Z[:, :r])|: pairing against the base Shilov point [I_r | 0]."""
    Z = np.asarray(Z, dtype=np.complex128)
    return _logabsdet_small(_eye_minus(Z[..., :, : Z.shape[-2]]))


def radial_coefficients(V1):
    """Coefficients (e_1, ..., e_r) of det(I + tau V1) = sum_k tau^k e_k(V1), V1 (..., r, r).

    e_k is the sum of the principal k x k minors: V1 itself at r = 1, the
    trace and determinant at r = 2, Faddeev-LeVerrier above that. Each is a
    contiguous (...) array, built once for every t a node set is weighed at.
    """
    V1 = np.asarray(V1, dtype=np.complex128)
    r = V1.shape[-1]
    if r == 1:
        return (np.ascontiguousarray(V1[..., 0, 0]),)
    if r == 2:
        a, b, c, d = V1[..., 0, 0], V1[..., 0, 1], V1[..., 1, 0], V1[..., 1, 1]
        return a + d, a * d - b * c
    # Faddeev-LeVerrier: M_k = V1 M_(k-1) + (-1)^(k-1) e_(k-1) I, e_k = (-1)^(k-1) tr(V1 M_k) / k
    idx = np.arange(r)
    coefs = [np.ones(V1.shape[:-2], dtype=np.complex128)]
    M = np.zeros_like(V1)
    for k in range(1, r + 1):
        M = V1 @ M
        M[..., idx, idx] += (-1) ** (k - 1) * coefs[-1][..., None]
        coefs.append((-1) ** (k - 1) * np.trace(V1 @ M, axis1=-2, axis2=-1) / k)
    return tuple(coefs[1:])


def radial_logweight(V1, t):
    """log|det(cosh(t) I_r + sinh(t) V1)| for V1 of shape (..., r, r).

    V1 may also be given as its coefficients from radial_coefficients, which a
    caller that weighs one node set at many t builds once. The weight is
    log|sum_k cosh^(r-k)(t) sinh^k(t) e_k(V1)|; at r = 1 that is
    log|cosh t + sinh t v|.
    """
    coefs = V1 if isinstance(V1, tuple) else radial_coefficients(V1)
    t = float(t)
    sh, ch = np.sinh(t), np.cosh(t)
    r = len(coefs)
    x = (ch ** (r - 1) * sh) * coefs[0]
    for k in range(2, r + 1):
        x += (ch ** (r - k) * sh**k) * coefs[k - 1]
    x += ch**r
    return np.log(np.abs(x))


def mobius_batch(g, Z, r):
    """Apply one group element to a stack of points: (m,m) x (..., r, q) -> same."""
    g = np.asarray(g, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    A, B = g[:r, :r], g[:r, r:]
    C, D = g[r:, :r], g[r:, r:]
    num = np.einsum("ab,...bq->...aq", A, Z) + B
    den = np.einsum("pb,...bq->...pq", C, Z) + D
    # X = num @ den^{-1}  <=>  den^T X^T = num^T
    Xt = np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2))
    return np.swapaxes(Xt, -1, -2)


def h1_batch(G, r):
    """Horospherical height h1 for a stack of group elements (..., m, m) -> (...).

    h1(g) = (1/r) log|det(D + C U0)| with C = g[r:, :r], D = g[r:, r:] and
    C U0 = [C | 0] for the base Shilov point U0 = [I_r | 0]: one q x q
    determinant, equal to -(1/2r) log[det(I - Z Z^H) / |det(I - Z U0^H)|^2]
    with Z = (g^-1).0 but free of that ratio's cancellation far out. Only the
    lower block row g[r:] is read, so a stack of those rows (..., q, m) serves too.
    """
    G = np.asarray(G, dtype=np.complex128)
    q = G.shape[-1] - r
    X = G[..., -q:, r:].copy()
    X[..., :r] += G[..., -q:, :r]
    return _logabsdet_small(X) / r


def cross_logabsdet(Z, U):
    """All-pairs log|det(I - Z_m U_n^H)|: (M,r,q) x (N,r,q) -> (M,N)."""
    Z = np.asarray(Z, dtype=np.complex128)
    U = np.asarray(U, dtype=np.complex128)
    return _logabsdet_izuh(Z[:, None], U[None])


def jacobi_batch(k, alpha, beta, x):
    """Jacobi polynomial P_k^(alpha,beta) on a real array, by the three-term recurrence."""
    k, alpha, beta = int(k), float(alpha), float(beta)
    x = np.asarray(x)
    pm1 = np.ones_like(x)
    if k == 0:
        return pm1
    p = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    for n in range(2, k + 1):
        ab = alpha + beta
        c1 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c2 = (2.0 * n + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * n + ab - 1.0) * (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        p, pm1 = ((c2 + c3 * x) * p - c4 * pm1) / c1, p
    return p
