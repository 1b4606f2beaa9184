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
boundary instead of collapsing toward the image of a_t, so deep t stays
numerically tame.

Boundary functions that are polynomials in the entries of U and conj(U)
(band-limited functions and their K-translates, the inversion interpolant,
trace-affine functions) are built as PolynomialForm.evaluator(), a callable
tagged with its form, and transform_radial sums them in another order. With
w the entries of a_t . V and x those of (a_t . V) M_k P, every monomial of x
is a combination of monomials of w whose coefficients depend on the center
only: T(x) = T(w) S_k. The node sum then splits into moments
mu = sum_V cw(V) T(w)^T conj(T(w)), taken once per (s, t), and a small
contraction with S_k per center, so a call costs O(N_nodes + N_centers)
instead of O(N_nodes N_centers) evaluations. Any other callable is
evaluated at every pushed point.

c_s is computed three independent ways: a closed-form Gamma product, the
renormalized limit of the radial profile of P_s 1 (Richardson-accelerated with
the known correction exponents), and for rank one a direct integral over the
opposite unipotent group.

The Hua-Hardy norm sup_t e^(-(r Re s - n)t) ||P_s f(. a_t)||_p is read from
one transform_radial call over the whole t grid on the rule's nodes, shared
across exponents (hardy_profile, hardy_norm).
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import loggamma

from . import _kernels, boundary, group
from .boundary import QuadratureRule
from .errors import (
    AdmissibilityError, ConvergenceError, DegeneracyError, DomainError, MembershipError,
)
from .structure import SpectralParam, lambda_coefficients

__all__ = [
    "PolynomialForm",
    "CsReport",
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
RADIAL_CHUNK = 512  # centers per block of symmetric powers on transform_radial's moment route
POINTWISE_POINTS = 2 ** 18  # pushed points per block on transform_radial's pointwise route
SHILOV_RULES = ("deterministic-sphere", "monte-carlo-stiefel")  # rule kinds whose nodes are Shilov points
FATOU_REL_TOL = 1e-3  # largest difference of the last two Richardson extrapolants, relative to the limit


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
    same form with P -> R P.
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

    def contract(self, mu: np.ndarray, M: np.ndarray, r: int) -> np.ndarray:
        """sum_V cw(V) f(W_V M_k) for each right factor M_k (K, q, q), given mu of W.

        x = L_k w with L_k = I_r (x) (M_k P)^T, so T(x) = T(w) S_k
        (_symmetric_power) and the value is sum G . (S_p^T mu conj(S_q)).
        """
        Q = M[:, None] @ self.P
        K, terms, q, k = Q.shape
        L = np.zeros((K, terms, r * k, r * q), dtype=np.complex128)
        for i in range(r):
            L[:, :, i * k : (i + 1) * k, i * q : (i + 1) * q] = np.swapaxes(Q, -1, -2)
        S = _symmetric_power(L.reshape(K * terms, r * k, r * q), max(self.degrees))
        S = S.reshape(K, terms, *S.shape[1:])
        n_p, n_q = self._prefixes(r * k)
        m_p, m_q = mu.shape
        B = S[..., :m_p, :n_p] @ self.G
        A = mu @ S[..., :m_q, :n_q].conj()
        return np.einsum("ktab,ktab->k", B, A)


@dataclass
class CsReport:
    """The constant c_s by independent routes, with their spread."""

    s: complex
    cs_gk: complex
    cs_fatou: complex
    cs_direct: complex | None
    max_pairwise_rel_err: float


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
    if not group.is_domain_point(Z):
        raise MembershipError("Z must lie in the open matrix ball")
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


def _radial_coefficients(sd, rule: QuadratureRule, disk: bool = False):
    """Coefficients of det(I + tau V_1) over the rule's nodes, built once per call.

    The rule must fit the domain: a Shilov-point rule with (N, r, q) nodes, or,
    where disk is set, the rank-one disk rule of the same b. Anything else
    raises DomainError.
    """
    if disk and rule.kind == "deterministic-disk":
        if sd.r != 1 or rule.aux.get("b") != sd.b:
            raise DomainError("a disk rule for b = %s does not fit (r, b) = (%d, %d)"
                              % (rule.aux.get("b"), sd.r, sd.b))
        return _kernels.radial_coefficients(rule.nodes[:, None, None])
    if rule.kind not in SHILOV_RULES or rule.nodes.shape[1:] != (sd.r, sd.q):
        raise DomainError("radial evaluation at (r, q) = (%d, %d) needs a Shilov-point rule with "
                          "nodes (N, %d, %d), got a %s rule with nodes %s"
                          % (sd.r, sd.q, sd.r, sd.q, rule.kind, rule.nodes.shape))
    return _kernels.radial_coefficients(rule.nodes[..., :, : sd.r])


def _radial_pushforward(sp: SpectralParam, t: float, rule: QuadratureRule, coefs):
    """Pushed nodes a_t . V and complex weights w * |det(..)|^(s - n/r); coefs from _radial_coefficients."""
    sd = sp.sd
    lw = _kernels.radial_logweight(coefs, t)
    cw = rule.weights * np.exp((sp.s - sd.harmonic_s) * lw)
    at = group.radial(t, sd)
    W = _kernels.mobius_batch(at, rule.nodes, sd.r)
    return W, cw


def _transform_at(sp: SpectralParam, ev, form, M: np.ndarray, t: float, rule: QuadratureRule, coefs):
    """P_s f at k a_t . 0 for each right factor M_k (K, q, q) at one radius t."""
    sd = sp.sd
    W, cw = _radial_pushforward(sp, t, rule, coefs)
    if form is not None:
        mu = form.moments(W, cw)
    out = np.empty(len(M), dtype=np.complex128)
    chunk = RADIAL_CHUNK if form is not None else max(1, POINTWISE_POINTS // len(W))
    for lo in range(0, len(M), chunk):
        Mc = M[lo : lo + chunk]
        if form is not None:
            out[lo : lo + len(Mc)] = form.contract(mu, Mc, sd.r)
        else:
            pushed = np.matmul(W.reshape(-1, sd.q), Mc)  # (n, m r, q), already contiguous
            out[lo : lo + len(Mc)] = ev(pushed.reshape(-1, sd.r, sd.q)).reshape(len(Mc), len(W)) @ cw
    return out


def transform_radial(sp: SpectralParam, f, centers, t, rule: QuadratureRule):
    """P_s f at the points k_U a_t . 0 for a batch of Shilov centers U.

    centers: (N, r, q) Shilov points (or None for the single point a_t . 0).
    t: one radius, or a 1-D grid of radii; the centers are checked and their
    right factors M_k computed once for the whole grid.
    Returns a length-N complex array for one radius and an (N, T) array for a
    grid; with centers None, a scalar and a length-T array.
    """
    sd = sp.sd
    ev = _as_evaluator(f)
    form = getattr(ev, "polynomial_form", None)
    if centers is None:
        M = np.eye(sd.q, dtype=np.complex128)[None]
    else:
        centers = np.asarray(centers, dtype=np.complex128).reshape(-1, sd.r, sd.q)
        if not group.is_shilov_point(centers, tol=1e-8):
            raise MembershipError("centers must satisfy U U^H = I")
        M = group.kappa_right_factors(centers)  # (N, q, q), boundary action V -> V M
    coefs = _radial_coefficients(sd, rule)
    t_grid = np.asarray(t, dtype=float)
    out = np.empty((len(M), t_grid.size), dtype=np.complex128)
    for j, tj in enumerate(t_grid.reshape(-1)):
        out[:, j] = _transform_at(sp, ev, form, M, float(tj), rule, coefs)
    out = out.reshape(out.shape[:1] + t_grid.shape)
    if centers is None:
        return complex(out[0]) if t_grid.ndim == 0 else out[0]
    return out


def phi_s(sp: SpectralParam, t, rule: QuadratureRule):
    """Spherical-type radial value phi_s(a_t) = P_s 1 (a_t . 0).

    t: one radius, giving a complex, or an array of radii, giving a complex
    array of the same shape.
    """
    t_grid = np.asarray(t, dtype=float)
    vals = _phi_profile(sp, t_grid.reshape(-1), rule)
    return complex(vals[0]) if t_grid.ndim == 0 else vals.reshape(t_grid.shape)


def _spectral_axis(sp):
    """One SpectralParam or a sequence of them as (list, single); a sequence must share one domain."""
    single = isinstance(sp, SpectralParam)
    sps = [sp] if single else list(sp)
    if not sps or any(x.sd != sps[0].sd for x in sps):
        raise DomainError("an s axis needs at least one s, all on one domain")
    return sps, single


def _phi_profile(sp, t_grid, rule: QuadratureRule) -> np.ndarray:
    """phi_s on t_grid, as a complex128 array.

    sp is one SpectralParam, giving a length-T array, or a sequence of them on
    one domain, giving one row per s. The rule is a Shilov-point rule or the
    rank-one disk rule; the radial weights come from coefficients built once
    for the whole grid, and each t's log-weights are computed once and shared
    by every s, which then costs one exponential and one mean. For real s the
    weights and their mean are real, so they are computed in float64.
    """
    sps, single = _spectral_axis(sp)
    sd = sps[0].sd
    coefs = _radial_coefficients(sd, rule, disk=True)
    sigmas = [x.s - sd.harmonic_s for x in sps]
    sigmas = [sigma.real if sigma.imag == 0 else sigma for sigma in sigmas]
    vals = np.empty((len(sps), len(t_grid)), dtype=np.complex128)
    for i, t in enumerate(t_grid):
        lw = _kernels.radial_logweight(coefs, float(t))
        for k, sigma in enumerate(sigmas):
            vals[k, i] = np.dot(rule.weights, np.exp(sigma * lw))
    return vals[0] if single else vals


def _default_radial_rule(sd, t_max: float):
    if sd.r == 1:
        panels = max(6, int(math.ceil(2.0 * t_max / math.log(2.0))) + 3)
        return boundary.disk_rule(sd, level=18, panels=panels, phases=640)
    return boundary.stiefel_rule(sd, samples=400000, seed=20240801)


def _fatou_grid_step(t_grid) -> float:
    """The step of a t grid the extrapolation accepts: finite, strictly increasing, uniform, >= 4 points."""
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(np.atleast_1d(t_grid))
    if (t_grid.ndim != 1 or len(t_grid) < 4 or not np.all(np.isfinite(t_grid))
            or not np.all(dts > 0) or not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-12)):
        raise DomainError("fatou extrapolation needs a finite, strictly increasing, "
                          "uniform t grid with >= 4 points")
    return float(dts[0])


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


def _cs_gk(sp: SpectralParam) -> complex:
    sd = sp.sd

    def log_prod(s):
        lam = lambda_coefficients(s, sd)
        total = 0.0 + 0.0j
        for j in range(sd.r):
            x = lam[j]
            total += -x * math.log(2.0) + loggamma(x) - 2.0 * loggamma(0.5 * (x + sd.b + 1))
        for j in range(sd.r):
            for k in range(j + 1, sd.r):
                x = 0.5 * (lam[j] + lam[k])
                total += -np.log(np.sqrt(np.pi) * x)
        return total

    return complex(np.exp(log_prod(sp.s) - log_prod(sd.harmonic_s)))


def _cs_fatou(sp, t_grid=None, rule=None):
    """c_s as the Richardson limit of the renormalized radial profile of P_s 1.

    sp is one SpectralParam, giving a complex, or a sequence of them on one
    domain, giving a list with one value per s from one rule and one radial
    pass (_phi_profile). A profile that has not converged raises
    ConvergenceError naming its s.
    """
    sps, single = _spectral_axis(sp)
    sd = sps[0].sd
    if t_grid is None:
        t_grid = np.arange(0.0, 8.01, 0.5)
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _fatou_grid_step(t_grid)
    if rule is None:
        rule = _default_radial_rule(sd, float(t_grid[-1]))
    out = []
    for x, phi in zip(sps, _phi_profile(sps, t_grid, rule)):
        y = np.exp(-x.growth * t_grid) * phi
        a, c = _richardson_limit(y, dt, _correction_exponents(x))
        if abs(c) == 0 or abs(a - c) > FATOU_REL_TOL * abs(c):
            raise ConvergenceError(
                "renormalized radial profile at s = %s has not converged: last extrapolants "
                "differ by %.2e (tol %.2e)" % (x.s, abs(a - c) / max(abs(c), 1e-300), FATOU_REL_TOL)
            )
        out.append(complex(c))
    return out[0] if single else out


def _cs_direct(sp: SpectralParam, chart: QuadratureRule | None = None) -> complex:
    sd = sp.sd
    if sd.r != 1:
        raise DegeneracyError("direct c_s route uses the rank-one unipotent chart")
    if chart is None:
        chart = boundary.heisenberg_chart(sd)
    h1v = chart.aux["h1"]
    w = chart.weights
    num = np.dot(w, np.exp(-(sp.s + sd.n) * h1v))
    den = np.dot(w, np.exp(-2.0 * sd.n * h1v))
    return complex(num / den)


def c_s(sp: SpectralParam, method: str = "gk", **params):
    """The boundary-limit constant c_s.

    method: "gk" (closed-form Gamma product), "fatou" (renormalized radial
    limit of P_s 1), "direct" (rank-one unipotent chart integral), or "all"
    (every applicable route, returned as a CsReport).
    """
    _require_admissible(sp)
    if method == "gk":
        return _cs_gk(sp)
    if method == "fatou":
        return _cs_fatou(sp, **params)
    if method == "direct":
        return _cs_direct(sp, **params)
    if method == "all":
        fat = _cs_fatou(sp, **{k: v for k, v in params.items() if k in ("t_grid", "rule")})
        return _cs_report(sp, fat, params.get("chart"))
    raise ValueError("unknown c_s method %r" % method)


def _cs_report(sp: SpectralParam, fat: complex, chart: QuadratureRule | None = None) -> CsReport:
    """c_s by every route that applies, given the Fatou value fat, with their spread."""
    gk = _cs_gk(sp)
    direct = None
    vals = [gk, fat]
    if sp.sd.r == 1:
        direct = _cs_direct(sp, chart)
        vals.append(direct)
    scale = max(abs(v) for v in vals)
    worst = max(abs(u - v) for u in vals for v in vals) / scale
    return CsReport(
        s=sp.s, cs_gk=gk, cs_fatou=fat, cs_direct=direct, max_pairwise_rel_err=float(worst)
    )


def _lp_exponents(p) -> list:
    """One exponent or a sequence of them as a list; each must be finite and > 1."""
    p_list = [float(p)] if np.ndim(p) == 0 else [float(x) for x in p]
    if not all(math.isfinite(x) and x > 1 for x in p_list):
        raise DomainError("the L^p norm needs finite p > 1, got %r" % (p,))
    return p_list


def hardy_profile(sp: SpectralParam, f, p, t_grid, rule: QuadratureRule) -> np.ndarray:
    """Renormalized L^p slice norms e^(-t(r Re s - n)) ||P_s f(. a_t)||_p on t_grid.

    The slices P_s f(k_U a_t . 0) on the rule's nodes come from one
    transform_radial call over the grid. p is one exponent, giving a
    length-T array, or a sequence, giving one row per p that shares the slices.
    """
    p_list = _lp_exponents(p)
    t_grid = np.asarray(t_grid, dtype=float)
    renorm = np.exp(-float(np.real(sp.growth)) * t_grid)
    lift = transform_radial(sp, f, rule.nodes, t_grid, rule)
    lift_abs = np.ascontiguousarray(np.abs(lift).T)  # (T, N): one slice per row
    prof = np.array([renorm * np.dot(lift_abs**px, rule.weights) ** (1.0 / px) for px in p_list])
    return prof[0] if np.ndim(p) == 0 else prof


def hardy_norm(sp: SpectralParam, f, p, t_grid, rule: QuadratureRule):
    """Hardy-type norm: the sup of hardy_profile on the grid, a float or one per p."""
    norms = np.max(hardy_profile(sp, f, p, t_grid, rule), axis=-1)
    return float(norms) if np.ndim(p) == 0 else norms


def gamma_estimate(sp: SpectralParam, t_grid, rule: QuadratureRule) -> float:
    """Upper constant in the norm sandwich: sup_t e^(-t(r Re s - n)) ||kernel||_1.

    The L^1 boundary mass of the kernel at radius t equals phi_(Re s)(a_t), so
    this is the renormalized sup of the real-parameter radial profile.
    """
    from .structure import spectral_param

    t_grid = np.asarray(t_grid, dtype=float)
    if 0.0 not in t_grid:
        t_grid = np.concatenate([[0.0], t_grid])
    sp_re = spectral_param(float(np.real(sp.s)), sp.sd)
    _require_admissible(sp_re)
    vals = _phi_profile(sp_re, t_grid, rule)
    return float(np.max(np.exp(-np.real(sp_re.growth) * t_grid) * np.real(vals)))
