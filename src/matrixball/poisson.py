"""Poisson kernel and transform on the matrix ball, and the constant c_s.

The kernel against a Shilov point U at an interior point Z is

    K_s(Z, U) = [ det(I - Z Z^H) / |det(I - Z U^H)|^2 ]^((s r + n) / (2 r))

and the transform of a boundary function f is P_s f(Z) = int_S K_s(Z, U) f(U) dU.
A boundary function is any callable mapping a stack of Shilov points
(..., r, q) to values (...), or a number, meaning that constant function.

Radial evaluation uses the pushforward form: with k a boundary rotation and
a_t the radial flow,

    P_s f(k a_t . 0) = int_S |det(cosh t I + sinh t V_1)|^(s - n/r) f(k . (a_t . V)) dV

where V_1 is the leading r x r block of the integration node V and k acts
linearly on Shilov points. This keeps quadrature nodes spread over the whole
boundary instead of collapsing toward the image of a_t. The push solves only
the r x r system T = cosh t I + sinh t V_1, so deep t stays numerically tame,
and weighs each node by the det T it forms. Every log-determinant here takes
_kernels' one rank ladder; phi_s, which weighs nodes without pushing them,
takes the weight from the coefficients of det(I + tau V_1) instead.

Boundary functions that are polynomials in the entries of U and conj(U)
(band-limited functions and their K-translates, the inversion interpolant,
trace-affine functions) are built as PolynomialForm.evaluator(), a callable
tagged with its form, and transform_radial sums them in another order. With
w the entries of a_t . V and x those of (a_t . V) M_k P, every monomial of x
is a combination of monomials of w whose coefficients depend on the center
only: T(x) = T(w) S_k. The node sum then splits into moments
mu = sum_V cw(V) T(w)^T conj(T(w)), taken once per (s, t), and a center
matrix H_k = sum over terms of S_p G conj(S_q)^T, built once per call; each
value is the entrywise sum H_k . mu, so a call costs O(N_nodes + N_centers)
evaluations instead of O(N_nodes N_centers). Any other callable is
evaluated at every pushed point.

c_s is the closed-form Gamma product (c_s). Two independent routes check it:
the renormalized limit of the radial profile of P_s 1 (_cs_fatou, through
_fatou_limit, the one Fatou limit boundary limits also take) and, at rank
one, a direct integral over the opposite unipotent group (_cs_direct);
`poisson cs` and criterion 6 compare the routes (suite.check_cs).

The Hua-Hardy norm sup_t e^(-(r Re s - n)t) ||P_s f(. a_t)||_p is read from
one transform_radial call over the whole t grid on the rule's nodes, shared
across a sequence of exponents (hardy_profile, hardy_norm).
"""

import cmath
import functools
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels, boundary, group
from .boundary import QuadratureRule
from .errors import (
    AdmissibilityError, ConvergenceError, DegeneracyError, DomainError, MembershipError,
)
from .structure import SpectralParam, lambda_coefficients

__all__ = [
    "PolynomialForm",
    "kernel",
    "transform",
    "transform_radial",
    "phi_s",
    "c_s",
    "hardy_profile",
    "hardy_norm",
    "gamma_estimate",
]

BOUNDARY_DEGENERACY_TOL = 1e-13
DYNAMIC_RANGE_WARN = 1e12
MOMENT_BLOCK = 512 * 72  # complex entries of S and H per moment-route center block: 512 two-term degree-2 centers
POINTWISE_POINTS = 2 ** 16  # pushed points per block on transform_radial's pointwise route
SHILOV_RULES = ("deterministic-sphere", "sobol-stiefel")  # rule kinds whose nodes are Shilov points
FATOU_REL_TOL = 1e-3  # last two Richardson extrapolants' difference over the largest final profile value


class _Monomials(NamedTuple):
    """Monomials of n variables of degree <= d, listed by degree.

    Monomial i > 0 is monomial parent[i] times variable var[i], its lowest
    variable; start[e] is the index of the first monomial of degree e, so the
    list up to any lower degree is a prefix. up[i, j] is the index of
    monomial i times variable j (-1 for monomials of degree d).
    """

    exponents: list
    parent: np.ndarray
    var: np.ndarray
    start: list
    up: np.ndarray


@functools.lru_cache(maxsize=None)
def _monomials(n: int, d: int) -> _Monomials:
    expo, parent, var, start = [(0,) * n], [0], [0], [0, 1]
    for e in range(1, d + 1):
        for j in range(n):
            for i in range(start[e - 1], start[e]):
                if not any(expo[i][:j]):
                    expo.append(expo[i][:j] + (expo[i][j] + 1,) + expo[i][j + 1 :])
                    parent.append(i)
                    var.append(j)
        start.append(len(expo))
    index = {ex: i for i, ex in enumerate(expo)}
    up = np.full((len(expo), n), -1)
    for i, ex in enumerate(expo[: start[d]]):
        for j in range(n):
            up[i, j] = index[ex[:j] + (ex[j] + 1,) + ex[j + 1 :]]
    return _Monomials(expo, np.array(parent), np.array(var), start, up)


def _monomial_table(x: np.ndarray, d: int) -> np.ndarray:
    """The monomials of degree <= d of each row of x: (N, n) -> (N, n_monomials)."""
    mono = _monomials(x.shape[-1], d)
    T = np.empty(x.shape[:-1] + (len(mono.exponents),), dtype=np.complex128)
    T[..., 0] = 1.0
    for e in range(1, d + 1):
        lo, hi = mono.start[e], mono.start[e + 1]
        np.multiply(T[..., mono.parent[lo:hi]], x[..., mono.var[lo:hi]], out=T[..., lo:hi])
    return T


def _symmetric_power(L: np.ndarray, d: int) -> np.ndarray:
    """S with T(x) = T(w) S for x = L w, for a batch of maps L of shape (K, m, n).

    T lists the monomials of degree <= d (_monomial_table), so S has shape
    (K, n_monomials(n), n_monomials(m)) and is block-diagonal by degree.
    Column x^beta is column x^parent times one linear form of w.
    """
    K, m, n = L.shape
    mx, mw = _monomials(m, d), _monomials(n, d)
    S = np.zeros((K, len(mw.exponents), len(mx.exponents)), dtype=np.complex128)
    S[:, 0, 0] = 1.0
    for e in range(1, d + 1):
        rows = slice(mw.start[e - 1], mw.start[e])
        cols = np.arange(mx.start[e], mx.start[e + 1])
        src = S[:, rows][:, :, mx.parent[cols]]
        for i in range(n):
            S[:, mw.up[rows, i][:, None], cols] += src * L[:, None, mx.var[cols], i]
    return S


class PolynomialForm:
    """A boundary function that is a polynomial in the entries of U and conj(U).

    f(U) = sum over terms (P, G) of T_p(x) G conj(T_q(x))^T, where x lists the
    r k entries of U P (P is q x k, read row by row), T_p(x) is the row of
    its monomials of degree <= d_p (_monomial_table) and T_q(x) that of
    degree <= d_q. All terms share k and (d_p, d_q): P has shape
    (terms, q, k) and G (terms, n_p, n_q). The K-translate U -> f(U R) is the
    same form with P -> R P. moments and center_matrices split
    transform_radial's node sum (module docstring).
    """

    def __init__(self, P, G, degrees):
        self.P = np.asarray(P, dtype=np.complex128)
        self.G = np.asarray(G, dtype=np.complex128)
        self.degrees = tuple(degrees)

    def translated(self, rotations, weights) -> "PolynomialForm":
        """The form of U -> sum_j weights[j] f(U rotations[j])."""
        P = np.concatenate([R @ self.P for R in rotations])
        G = np.concatenate([w * self.G for w in weights])
        return PolynomialForm(P, G, self.degrees)

    def _prefixes(self, n: int):
        """Number of monomials of n variables of degree <= d_p and <= d_q."""
        start = _monomials(n, max(self.degrees)).start
        return tuple(start[d + 1] for d in self.degrees)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.complex128)
        Uf = U.reshape((-1,) + U.shape[-2:])
        n = U.shape[-2] * self.P.shape[-1]
        n_p, n_q = self._prefixes(n)
        out = np.zeros(len(Uf), dtype=np.complex128)
        for P, G in zip(self.P, self.G):
            T = _monomial_table((Uf @ P).reshape(len(Uf), n), max(self.degrees))
            out += np.einsum("na,na->n", T[:, :n_p] @ G, T[:, :n_q].conj())
        return out.reshape(U.shape[:-2])

    def evaluator(self) -> Callable:
        """The pointwise evaluator, carrying this form as `polynomial_form`.

        transform_radial reads that attribute to take the moment route; it
        survives functools.wraps, which copies the evaluator's __dict__.
        """

        def ev(U: np.ndarray) -> np.ndarray:
            return self(U)

        ev.polynomial_form = self
        return ev

    def moments(self, W: np.ndarray, cw: np.ndarray) -> np.ndarray:
        """mu = T_p(w)^T diag(cw) conj(T_q(w)), w the r q entries of each node of W (N, r, q)."""
        n = W.shape[-2] * W.shape[-1]
        T = _monomial_table(W.reshape(-1, n), max(self.degrees))
        n_p, n_q = self._prefixes(n)
        return (T[:, :n_p].T * cw) @ T[:, :n_q].conj()

    def center_matrices(self, M: np.ndarray, r: int) -> np.ndarray:
        """H_k = sum over terms of S_p G conj(S_q)^T for each right factor M_k (K, q, q).

        x = L_k w with L_k = I_r (x) (M_k P)^T, so T(x) = T(w) S_k (_symmetric_power)
        and sum_V cw(V) f(W_V M_k) = sum H_k . mu, mu from moments.
        """
        Q = M[:, None] @ self.P
        K, terms, q, k = Q.shape
        L = np.zeros((K, terms, r * k, r * q), dtype=np.complex128)
        for i in range(r):
            L[:, :, i * k : (i + 1) * k, i * q : (i + 1) * q] = np.swapaxes(Q, -1, -2)
        S = _symmetric_power(L.reshape(K * terms, r * k, r * q), max(self.degrees))
        S = S.reshape(K, terms, *S.shape[1:])
        n_p, n_q = self._prefixes(r * k)
        m_p, m_q = self._prefixes(r * q)
        B = np.swapaxes(S[..., :m_p, :n_p] @ self.G, 1, 2).reshape(K, m_p, terms * n_q)
        C = np.swapaxes(S[..., :m_q, :n_q], 1, 2).reshape(K, m_q, terms * n_q)
        return B @ np.swapaxes(C, 1, 2).conj()


def _as_evaluator(f):
    """A boundary function as a callable on (..., r, q) stacks; a number is that constant."""
    if callable(f):
        return f
    c = complex(f)
    return lambda U: np.full(U.shape[:-2], c)


def _require_admissible(sp: SpectralParam):
    if not sp.admissible:
        raise AdmissibilityError(
            "s = %s is not admissible: need Re(s) > %g" % (sp.s, sp.sd.admissibility_threshold)
        )


def _finite_t(t, message: str = "the radii t must be non-empty and finite",
              shape_ok=None) -> np.ndarray:
    """t (one radius or a grid) as a float array; DomainError(message) unless it is
    real, non-empty and finite and, when shape_ok is given, shape_ok(t) holds."""
    t = np.asarray(t)
    if (t.dtype.kind not in "biuf" or not t.size or not np.all(np.isfinite(t))
            or (shape_ok is not None and not shape_ok(t))):
        raise DomainError(message)
    return t.astype(float, copy=False)


def kernel(sp: SpectralParam, Z: np.ndarray, U: np.ndarray):
    """Poisson kernel K_s(Z, U).

    Z is one r x q point, and U may carry leading batch dimensions; or Z is
    an (N, r, q) stack paired with U of the same shape, giving K_s(Z_i, U_i).
    """
    sd = sp.sd
    Z = np.asarray(Z, dtype=np.complex128)
    U = np.asarray(U, dtype=np.complex128)
    if Z.shape[-2:] != (sd.r, sd.q) or Z.ndim not in (2, 3):
        raise MembershipError("Z must be an r x q matrix or a stack of them, got %s" % (Z.shape,))
    if Z.ndim == 3 and U.shape != Z.shape:
        raise MembershipError("a stack of Z %s needs U of the same shape, got %s" % (Z.shape, U.shape))
    if not group.is_domain_point(Z):
        raise MembershipError("Z must lie in the open matrix ball (I - Z Z^H > 0)")
    if not group.is_shilov_point(U, tol=1e-8):
        raise MembershipError("U must satisfy U U^H = I")
    base = _kernels.logdet_ipzz(Z)
    cross = _kernels.logabsdet_izuh(Z, U)  # one Z broadcasts against every U
    if np.any(np.exp(2.0 * cross) < BOUNDARY_DEGENERACY_TOL):
        raise DegeneracyError("det(I - Z U^H) is numerically degenerate")
    vals = np.exp(sp.sigma * (base - 2.0 * cross))
    return vals if vals.shape else complex(vals)


def transform(sp: SpectralParam, f, Z: np.ndarray, rule: QuadratureRule):
    """Direct quadrature of P_s f at an interior point Z.

    Defined for any s (the kernel is bounded on S for interior Z);
    admissibility only matters for boundary limits, not for the integral.
    """
    sd = sp.sd
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.shape != (sd.r, sd.q):
        raise MembershipError("Z must be an r x q matrix, got %s" % (Z.shape,))
    if not group.is_domain_point(Z):
        raise MembershipError("Z must lie in the open matrix ball")
    _require_shilov_rule(sd, rule)
    ev = _as_evaluator(f)
    base = _kernels.logdet_ipzz(Z[None])[0]
    cross = _kernels.cross_logabsdet(Z[None], rule.nodes)[0]
    logk = np.real(sp.sigma) * (base - 2.0 * cross)
    spread = float(np.max(logk) - np.min(logk))
    if spread > math.log(DYNAMIC_RANGE_WARN):
        warnings.warn(
            "Poisson kernel dynamic range exp(%.1f) exceeds 1e12; "
            "consider the radial pushforward evaluation" % spread,
            stacklevel=2,
        )
    vals = np.exp(sp.sigma * (base - 2.0 * cross)) * ev(rule.nodes)
    return complex(np.dot(rule.weights, vals))


def _require_shilov_rule(sd, rule: QuadratureRule):
    """DomainError unless the rule's nodes are Shilov points of the domain, (N, r, q)."""
    if rule.kind not in SHILOV_RULES or rule.nodes.shape[1:] != (sd.r, sd.q):
        raise DomainError("integration over the Shilov boundary at (r, q) = (%d, %d) needs a "
                          "Shilov-point rule with nodes (N, %d, %d), got a %s rule with nodes %s"
                          % (sd.r, sd.q, sd.r, sd.q, rule.kind, rule.nodes.shape))


def _radial_coefficients(sd, rule: QuadratureRule):
    """Coefficients of det(I + tau V_1) over the rule's nodes, built once per call.

    The rule must fit the domain: a Shilov-point rule (_require_shilov_rule)
    or the rank-one disk rule of the same b. Anything else raises DomainError.
    """
    if rule.kind == "deterministic-disk":
        if sd.r != 1 or rule.aux.get("b") != sd.b:
            raise DomainError("a disk rule for b = %s does not fit (r, b) = (%d, %d)"
                              % (rule.aux.get("b"), sd.r, sd.b))
        return _kernels.radial_coefficients(rule.nodes[:, None, None])
    _require_shilov_rule(sd, rule)
    return _kernels.radial_coefficients(rule.nodes[..., :, : sd.r])


def _radial_pushforward(sp: SpectralParam, t: float, rule: QuadratureRule):
    """Pushed nodes a_t . V = T^-1 [cosh t V_1 + sinh t I | V_2], T = cosh t I + sinh t V_1, and
    complex weights w * |det T|^(s - n/r) from the same T. The push is a division at r = 1, the
    adjugate of T over det T at r = 2 and one r x r solve above, not a q x q solve, whose
    cancellation grows as e^(2t)."""
    sd = sp.sd
    V1, eye = rule.nodes[..., : sd.r], np.eye(sd.r)
    T = math.sinh(t) * V1 + math.cosh(t) * eye
    W = np.concatenate([math.cosh(t) * V1 + math.sinh(t) * eye, rule.nodes[..., sd.r :]], axis=-1)
    if sd.r == 2:
        a, b, c, d = (T[..., i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        det = a * d - b * c
        W = np.stack([d * W[..., 0, :] - b * W[..., 1, :], a * W[..., 1, :] - c * W[..., 0, :]], -2)
        W, lw = W / det[..., None], np.log(np.abs(det[..., 0]))
    else:
        W, lw = (W / T if sd.r == 1 else np.linalg.solve(T, W)), _kernels._logabsdet_small(T)
    return W, rule.weights * np.exp((sp.s - sd.harmonic_s) * lw)


def _transform_at(sp: SpectralParam, ev, M: np.ndarray, t: float, rule: QuadratureRule):
    """P_s f at k a_t . 0 for each right factor M_k (K, q, q) at one radius t, with
    f evaluated at every pushed point (the pointwise route)."""
    sd = sp.sd
    W, cw = _radial_pushforward(sp, t, rule)
    W = W.reshape(-1, sd.q)
    out = np.empty(len(M), dtype=np.complex128)
    chunk = max(1, POINTWISE_POINTS // len(cw))
    for lo in range(0, len(M), chunk):
        Mc = M[lo : lo + chunk]
        pushed = np.matmul(W, Mc)  # (n, m r, q), already contiguous
        out[lo : lo + len(Mc)] = ev(pushed.reshape(-1, sd.r, sd.q)).reshape(len(Mc), len(cw)) @ cw
    return out


def transform_radial(sp: SpectralParam, f, centers, t, rule: QuadratureRule):
    """P_s f at the points k_U a_t . 0 for a batch of Shilov centers U.

    centers: an (N, r, q) stack of Shilov points, required (the base point
    U0 = group.base_point(sd)[None] gives a_t . 0); anything else raises
    MembershipError. t: one radius, or a 1-D grid of radii; the centers are
    checked and their right factors M_k computed once for the whole grid; on
    the moment route, so are the center matrices, per block of centers whose
    S and H hold about MOMENT_BLOCK complex entries.
    Returns a length-N complex array for one radius and an (N, T) array for a grid.
    """
    sd = sp.sd
    ev = _as_evaluator(f)
    form = getattr(ev, "polynomial_form", None)
    centers = np.asarray(centers, dtype=np.complex128)  # None becomes a 0-d nan
    if (centers.ndim != 3 or centers.shape[1:] != (sd.r, sd.q)
            or not group.is_shilov_point(centers, tol=1e-8)):
        raise MembershipError("centers must be an (N, %d, %d) stack of Shilov points (U U^H = I), "
                              "got shape %s" % (sd.r, sd.q, centers.shape))
    M = group.kappa_right_factors(centers)  # (N, q, q), boundary action V -> V M
    t_grid = _finite_t(t)
    _require_shilov_rule(sd, rule)
    out = np.empty((len(M), t_grid.size), dtype=np.complex128)
    if form is None:
        for j, tj in enumerate(t_grid.reshape(-1)):
            out[:, j] = _transform_at(sp, ev, M, float(tj), rule)
    else:
        # one contiguous row of moments per t, so each column is the single-t call's
        mus = np.stack([form.moments(*_radial_pushforward(sp, float(tj), rule)).ravel()
                        for tj in t_grid.reshape(-1)])
        # per center, S holds terms * n_w * n_x complex entries and H one row of mus
        d = max(form.degrees)
        n_w, n_x = (len(_monomials(n, d).exponents) for n in (sd.r * sd.q, sd.r * form.P.shape[-1]))
        chunk = max(1, MOMENT_BLOCK // (len(form.P) * n_w * n_x + mus.shape[1]))
        for lo in range(0, len(M), chunk):
            H = form.center_matrices(M[lo : lo + chunk], sd.r).reshape(-1, mus.shape[1])
            for j, mu in enumerate(mus):
                out[lo : lo + len(H), j] = H @ mu
    return out.reshape(out.shape[:1] + t_grid.shape)


def phi_s(sp: SpectralParam, t, rule: QuadratureRule):
    """Spherical-type radial value phi_s(a_t) = P_s 1 (a_t . 0).

    t: one radius, giving a complex, or an array of radii, giving a complex
    array of the same shape.
    """
    t_grid = _finite_t(t)
    vals = _phi_profile([sp], t_grid.reshape(-1), rule)[0]
    return vals.reshape(t_grid.shape)[()]  # [()] reads a 0-d array as its scalar


def _spectral_axis(sps) -> list:
    """A sequence of SpectralParams as a list; it must be non-empty and share one domain."""
    sps = list(sps)
    if not sps or any(x.sd != sps[0].sd for x in sps):
        raise DomainError("an s axis needs at least one s, all on one domain")
    return sps


def _phi_profile(sps, t_grid, rule: QuadratureRule) -> np.ndarray:
    """phi_s on t_grid for each SpectralParam of sps (one domain), one complex128 row per s.

    The rule is a Shilov-point rule or the rank-one disk rule; the radial
    weights come from coefficients built once for the whole grid, and each t's
    log-weights are computed once, in cache-sized blocks into one reused
    buffer, and shared by every s, which then costs one exponential and one
    mean over the whole buffer. For real s the weights and their mean are
    real, so they are computed in float64.
    """
    sps = _spectral_axis(sps)
    t_grid = _finite_t(t_grid)
    sd = sps[0].sd
    coefs = _radial_coefficients(sd, rule)
    sigmas = [x.s - sd.harmonic_s for x in sps]
    sigmas = [sigma.real if sigma.imag == 0 else sigma for sigma in sigmas]
    vals = np.empty((len(sps), len(t_grid)), dtype=np.complex128)
    lw = np.empty(len(rule.weights))
    for i, t in enumerate(t_grid):
        for lo in range(0, len(lw), _kernels.BLOCK):
            block = tuple(c[lo : lo + _kernels.BLOCK] for c in coefs)
            lw[lo : lo + _kernels.BLOCK] = _kernels.radial_logweight(block, float(t))
        for k, sigma in enumerate(sigmas):
            vals[k, i] = np.dot(rule.weights, np.exp(sigma * lw))
    return vals


def _default_radial_rule(sd, t_max: float):
    if sd.r == 1:
        panels = max(6, int(math.ceil(2.0 * t_max / math.log(2.0))) + 3)
        return boundary.disk_rule(sd, level=18, panels=panels)
    return boundary.stiefel_rule(sd, samples=400000, seed=20240801)


def _fatou_grid_step(t_grid) -> float:
    """The step of a t grid the extrapolation accepts: finite, strictly increasing, uniform, >= 4 points."""
    t_grid = _finite_t(t_grid, "fatou extrapolation needs a finite, strictly increasing, "
                       "uniform t grid with >= 4 points",
                       lambda t: t.ndim == 1 and len(t) >= 4 and np.all(np.diff(t) > 0)
                       and np.allclose(np.diff(t), t[1] - t[0], rtol=1e-12, atol=1e-12))
    return float(t_grid[1] - t_grid[0])


def _correction_exponents(sp: SpectralParam) -> list:
    """Decay rates of the corrections to the renormalized radial profile, in elimination order."""
    return [2.0 * sp.s - 2.0 * sp.sd.harmonic_s, 2.0] if sp.sd.r == 1 else [2.0, 4.0]


def _richardson_limit(y: np.ndarray, dt: float, exponents):
    """Eliminate known correction exponents from each row y_k = c + sum A e^(-kappa t_k) of y (..., T).

    Returns the last two extrapolants of each row, (previous, last): the last
    is the estimate of c and their difference tests its convergence.
    """
    z = np.asarray(y, dtype=complex)
    for kap in exponents:
        rho = np.exp(-kap * dt)
        if abs(1.0 - rho) < 1e-6:
            # the correction branch coincides with the limit (harmonic point)
            continue
        z = (z[..., 1:] - rho * z[..., :-1]) / (1.0 - rho)
    return z[..., -2], z[..., -1]


def _fatou_limit(sp: SpectralParam, y: np.ndarray, dt: float) -> np.ndarray:
    """The limit of each row of a renormalized radial profile y (..., T) on a grid of step dt.

    A row's limit is its last Richardson extrapolant with the correction
    exponents the theory fixes; it has converged when its last two
    extrapolants differ by at most FATOU_REL_TOL times the largest final
    value of y. A row that has not raises ConvergenceError, which names the
    admissibility condition when s fails it and the grid's radii otherwise.
    """
    previous, limits = _richardson_limit(y, dt, _correction_exponents(sp))
    scale = max(float(np.max(np.abs(y[..., -1]))), 1e-300)
    converged = np.abs(limits - previous) <= FATOU_REL_TOL * scale
    if not np.all(converged):
        threshold = sp.sd.admissibility_threshold
        if sp.admissible:
            why = "s is admissible (Re s = %g > %g); the grid has %d radii at step %g" % (
                sp.s.real, threshold, y.shape[-1], dt)
        else:
            why = "the limit requires admissible s (Re s > %g, here Re s = %g)" % (
                threshold, sp.s.real)
        raise ConvergenceError("renormalized tail fails to converge at %d of %d nodes; %s"
                               % (np.count_nonzero(~converged), converged.size, why))
    return limits


def _cs_fatou(sps, t_grid=None, rule=None) -> list:
    """c_s as the Fatou limit (_fatou_limit) of the renormalized radial profile of P_s 1.

    One value per SpectralParam of sps (one domain), all from one rule and one
    radial pass (_phi_profile). A profile that has not converged raises
    ConvergenceError naming its Re s.
    """
    sps = _spectral_axis(sps)
    sd = sps[0].sd
    if t_grid is None:
        t_grid = np.arange(0.0, 8.01, 0.5)
    t_grid = np.asarray(t_grid)
    dt = _fatou_grid_step(t_grid)
    if rule is None:
        rule = _default_radial_rule(sd, float(t_grid[-1]))
    return [complex(_fatou_limit(x, np.exp(-x.growth * t_grid) * phi, dt))
            for x, phi in zip(sps, _phi_profile(sps, t_grid, rule))]


def _cs_direct(sp: SpectralParam, chart: QuadratureRule) -> complex:
    """c_s as an integral over the rank-one opposite unipotent group, on a Heisenberg chart."""
    sd = sp.sd
    if sd.r != 1:
        raise DegeneracyError("direct c_s route uses the rank-one unipotent chart")
    h1v = chart.aux["h1"]
    w = chart.weights
    num = np.dot(w, np.exp(-(sp.s + sd.n) * h1v))
    den = np.dot(w, np.exp(-2.0 * sd.n * h1v))
    return complex(num / den)


def _loggamma(z: complex) -> complex:
    """A logarithm of Gamma(z), z not a pole, up to a multiple of 2 pi i.

    Gamma(z) = Gamma(z + 1) / z moves z to Re z >= 15, where Stirling's series
    (B_2k / (2k (2k - 1) z^(2k - 1)), k <= 6) is good to 1e-17.
    """
    z, prod = complex(z), 1.0
    while z.real < 15.0:
        prod *= z
        z += 1.0
    stirling = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
    series = sum(c / z ** (2 * k + 1) for k, c in enumerate(stirling))
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series - cmath.log(prod)


def c_s(sp: SpectralParam) -> complex:
    """The boundary-limit constant c_s, as the closed-form Gamma product.

    _cs_fatou and, at rank one, _cs_direct reach it independently;
    suite.check_cs compares the routes.
    """
    _require_admissible(sp)
    sd = sp.sd

    def log_prod(s):
        lam = lambda_coefficients(s, sd)
        total = 0.0 + 0.0j
        for x in lam:
            total += -x * math.log(2.0) + _loggamma(x) - 2.0 * _loggamma(0.5 * (x + sd.b + 1))
        for j in range(sd.r):
            for k in range(j + 1, sd.r):
                total += -np.log(np.sqrt(np.pi) * (0.5 * (lam[j] + lam[k])))
        return total

    return complex(np.exp(log_prod(sp.s) - log_prod(sd.harmonic_s)))


def _lp_exponents(p) -> list:
    """A sequence of exponents as a list of floats; each must be finite and > 1."""
    p_list = [float(x) for x in p]
    if not all(math.isfinite(x) and x > 1 for x in p_list):
        raise DomainError("the L^p norm needs finite p > 1, got %r" % (p,))
    return p_list


def hardy_profile(sp: SpectralParam, f, p, t_grid, rule: QuadratureRule) -> np.ndarray:
    """Renormalized L^p slice norms e^(-t(r Re s - n)) ||P_s f(. a_t)||_p on t_grid.

    The slices P_s f(k_U a_t . 0) on the rule's nodes come from one
    transform_radial call over the grid. p is a sequence of exponents, giving
    one row per p; every row shares the slices.
    """
    p_list = _lp_exponents(p)
    t_grid = _finite_t(t_grid, "the Hardy profile needs a non-empty, finite 1-D t grid",
                       lambda t: t.ndim == 1)
    renorm = np.exp(-float(np.real(sp.growth)) * t_grid)
    lift = transform_radial(sp, f, rule.nodes, t_grid, rule)
    lift_abs = np.ascontiguousarray(np.abs(lift).T)  # (T, N): one slice per row
    return np.array([renorm * np.dot(lift_abs**px, rule.weights) ** (1.0 / px) for px in p_list])


def hardy_norm(sp: SpectralParam, f, p, t_grid, rule: QuadratureRule) -> np.ndarray:
    """Hardy-type norm: the sup of hardy_profile on the grid, one per p of the sequence p."""
    return np.max(hardy_profile(sp, f, p, t_grid, rule), axis=-1)


def gamma_estimate(sp: SpectralParam, t_grid, rule: QuadratureRule) -> float:
    """Upper constant in the norm sandwich: sup_t e^(-t(r Re s - n)) ||kernel||_1.

    The L^1 boundary mass of the kernel at radius t equals phi_(Re s)(a_t), so
    this is the renormalized sup of the real-parameter radial profile.
    """
    from .structure import spectral_param

    t_grid = _finite_t(t_grid, "gamma_estimate needs a non-empty, finite 1-D t grid",
                       lambda t: t.ndim == 1)
    if 0.0 not in t_grid:
        t_grid = np.concatenate([[0.0], t_grid])
    sp_re = spectral_param(float(np.real(sp.s)), sp.sd)
    _require_admissible(sp_re)
    vals = _phi_profile([sp_re], t_grid, rule)[0]
    return float(np.max(np.exp(-np.real(sp_re.growth) * t_grid) * np.real(vals)))
