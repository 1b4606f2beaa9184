"""Boundary limits of radial profiles, L2 inversion, and norm estimates.

The renormalized transform e^(-(rs-n)t) P_s f(k a_t . 0) converges to
c_s f(u_k) as t grows; this module extracts that limit from profiles on a
t-grid (exponential tail fit), inverts the transform from a single deep
slice, checks the dominating-function bound behind the convergence proof,
and verifies the two-sided Hardy-norm estimate.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, group, poisson
from .boundary import QuadratureRule, integrate
from .errors import AdmissibilityError, ConvergenceError, DomainError
from .poisson import BoundaryFunction
from .structure import SpectralParam

__all__ = [
    "RadialProfile",
    "BoundaryLimitReport",
    "DominationReport",
    "SandwichReport",
    "radial_profile",
    "boundary_limit",
    "invert_l2",
    "domination_check",
    "norm_sandwich",
]


@dataclass
class RadialProfile:
    """Transform values on (node, t) with the growth-renormalized view."""

    t_grid: np.ndarray
    values: np.ndarray  # (N, T)
    nodes: np.ndarray  # (N, r, q)
    growth: complex

    @property
    def renormalized(self) -> np.ndarray:
        return self.values * np.exp(-self.growth * self.t_grid)[None, :]

    def tail_variation(self) -> float:
        """Relative sup-variation of the renormalized values on the last quarter."""
        y = self.renormalized
        k = max(2, len(self.t_grid) // 4)
        tail = y[:, -k:]
        spread = np.max(np.abs(tail - tail[:, -1:]), axis=1)
        scale = max(float(np.max(np.abs(tail))), 1e-300)
        return float(np.max(spread) / scale)


def radial_profile(sp: SpectralParam, f, nodes, t_grid, rule: QuadratureRule) -> RadialProfile:
    """P_s f along k a_t for each boundary node representative k.

    Inadmissible s only warns here: the profile itself is computable, and
    running it through boundary_limit is the negative control showing the
    renormalized tail does not converge.
    """
    if not sp.admissible:
        warnings.warn(
            "Re s = %g is at or below the admissibility threshold %g; the "
            "renormalized profile will not converge" % (sp.s.real, sp.sd.admissibility_threshold),
            RuntimeWarning,
            stacklevel=2,
        )
    nodes = np.asarray(nodes, dtype=np.complex128)
    if nodes.ndim == 2:
        nodes = nodes[None]
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be increasing with at least two points")
    vals = np.empty((nodes.shape[0], len(t_grid)), dtype=np.complex128)
    for j, t in enumerate(t_grid):
        vals[:, j] = poisson.transform_radial(sp, f, nodes, float(t), rule)
    return RadialProfile(t_grid=t_grid, values=vals, nodes=nodes, growth=sp.growth)


def zonal_profile(sp: SpectralParam, t_grid, rule: QuadratureRule | None = None) -> RadialProfile:
    """Radial profile of P_s 1 at the base node, via the zonal fast path.

    Uses the deep radial rule by default, which resolves the boundary
    concentration far past where generic node rules alias; this is the
    profile of choice for the inadmissible-s negative control.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not sp.admissible:
        warnings.warn(
            "Re s = %g is at or below the admissibility threshold %g; the "
            "renormalized profile will not converge" % (sp.s.real, sp.sd.admissibility_threshold),
            RuntimeWarning,
            stacklevel=2,
        )
    if rule is None:
        rule = poisson._default_radial_rule(sp.sd, t_max=float(t_grid[-1]))
    vals = np.array([poisson.phi_s(sp, float(t), rule) for t in t_grid])
    nodes = group.base_point(sp.sd)[None]
    return RadialProfile(t_grid=t_grid, values=vals[None, :], nodes=nodes, growth=sp.growth)


@dataclass
class BoundaryLimitReport:
    limits: np.ndarray  # (N,) estimates of f at the profile nodes
    kappas: np.ndarray  # (N,) fitted tail decay rates (inf when already flat)
    converged: np.ndarray  # (N,) bool
    tail_rel_dev: np.ndarray  # (N,) |extrapolant - last renormalized|/scale
    cs: complex
    f_estimate: BoundaryFunction = field(repr=False, default=None)
    sup_err: float | None = None
    lp_err: float | None = None


def _tail_fit(tg: np.ndarray, y: np.ndarray, atol: float):
    """Fit y ~ L + A e^(-kappa t) on the last four points.

    Returns (L, kappa, ok). Flat tails short-circuit to the last value; an
    unstable geometric ratio (|rho| near or above 1) is a failed fit.
    """
    y4 = y[-4:]
    t4 = tg[-4:]
    d = np.diff(y4)
    scale = max(np.max(np.abs(y4)), 1e-300)
    if np.max(np.abs(d)) <= atol:
        return y4[-1], np.inf, True
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = d[1] / d[0] if abs(d[0]) > 0 else np.nan
        r2 = d[2] / d[1] if abs(d[1]) > 0 else np.nan
    ratios = [r for r in (r1, r2) if np.isfinite(r)]
    if not ratios:
        return y4[-1], np.inf, True
    rho = np.mean(ratios)
    dt = t4[-1] - t4[-2]
    if abs(rho) >= 1.0 - 1e-9:
        return y4[-1], 0.0, False
    kappa0 = -math.log(abs(rho)) / dt
    L0 = y4[-1] + d[2] * rho / (1.0 - rho)
    A0 = (y4[-1] - L0) * np.exp(kappa0 * t4[-1])

    from scipy.optimize import least_squares

    def resid(x):
        L = x[0] + 1j * x[1]
        A = x[2] + 1j * x[3]
        model = L + A * np.exp(-x[4] * t4)
        dev = model - y4
        return np.concatenate([dev.real, dev.imag])

    x0 = np.array([L0.real, L0.imag, A0.real, A0.imag, kappa0])
    try:
        fit = least_squares(resid, x0, method="lm", max_nfev=200)
        L = fit.x[0] + 1j * fit.x[1]
        kappa = float(fit.x[4])
    except ValueError:  # non-finite residuals at the seed, e.g. an overflowing A0
        L, kappa = L0, kappa0
    if not np.isfinite(kappa) or kappa <= 0 or not np.isfinite(L):
        return y4[-1], 0.0, False
    return L, kappa, True


def boundary_limit(sp: SpectralParam, profile: RadialProfile, reference=None,
                   p: float = 2.0, rule: QuadratureRule | None = None,
                   rel_tol: float = 1e-3) -> BoundaryLimitReport:
    """Extrapolate the renormalized tail and divide by c_s to estimate f.

    Each node's tail is fit as L + A e^(-kappa t) on the last four grid
    points (nonlinear least squares seeded by the difference-ratio solve);
    flat tails fall back to the last value. Non-convergent tails raise, with
    the admissibility condition echoed. With a reference boundary function
    the report carries the sup and L^p node errors of the estimate.
    """
    if len(profile.t_grid) < 4:
        raise DomainError("boundary_limit needs at least four grid points")
    y = profile.renormalized
    scale = max(float(np.max(np.abs(y[:, -1]))), 1e-300)
    atol = rel_tol * scale
    N = y.shape[0]
    limits = np.empty(N, dtype=np.complex128)
    kappas = np.empty(N)
    converged = np.empty(N, dtype=bool)
    dev = np.empty(N)
    for i in range(N):
        L, kappa, ok = _tail_fit(profile.t_grid, y[i], atol)
        limits[i] = L
        kappas[i] = kappa
        converged[i] = ok
        dev[i] = abs(L - y[i, -1]) / scale
    if not np.all(converged):
        bad = int(np.count_nonzero(~converged))
        raise ConvergenceError(
            "renormalized tail fails to converge at %d of %d nodes; the limit "
            "requires admissible s (Re s > %g, here Re s = %g)"
            % (bad, N, sp.sd.admissibility_threshold, sp.s.real)
        )
    cs = poisson.c_s(sp, method="gk")
    est = limits / cs
    fn = _nearest_node_function(profile.nodes, est, "boundary_limit estimate")
    sup_err = lp_err = None
    if reference is not None:
        ref = poisson._as_evaluator(reference)(profile.nodes)
        diff = np.abs(est - ref)
        sup_err = float(np.max(diff))
        if rule is not None and len(rule) == N:
            lp_err = float(np.dot(rule.weights, diff**p) ** (1.0 / p))
        else:
            lp_err = float(np.mean(diff**p) ** (1.0 / p))
    return BoundaryLimitReport(
        limits=limits,
        kappas=kappas,
        converged=converged,
        tail_rel_dev=dev,
        cs=cs,
        f_estimate=fn,
        sup_err=sup_err,
        lp_err=lp_err,
    )


def _nearest_node_function(nodes: np.ndarray, values: np.ndarray, desc: str) -> BoundaryFunction:
    nodes = np.asarray(nodes)
    flat = nodes.reshape(nodes.shape[0], -1)

    def ev(U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.complex128)
        single = U.ndim == 2
        Uf = (U[None] if single else U).reshape(-1, flat.shape[1])
        d2 = np.abs(Uf[:, None, :] - flat[None, :, :]).sum(axis=2)
        idx = np.argmin(d2, axis=1)
        out = values[idx]
        return out[0] if single else out

    return BoundaryFunction(evaluator=ev, description=desc)


def _monomial_design(U: np.ndarray, degree: int):
    """Monomials u^a conj(u)^c of total degree <= degree, u = the q entries.

    Rank one only; returns (matrix of shape (N, n_mono), list of exponents).
    """
    import itertools

    q = U.shape[-1]
    Uf = U.reshape(U.shape[0], q)
    cols, expo = [], []
    for total in range(degree + 1):
        for ex in itertools.product(range(total + 1), repeat=2 * q):
            if sum(ex) != total:
                continue
            col = np.ones(len(Uf), dtype=np.complex128)
            for j in range(q):
                if ex[j]:
                    col = col * Uf[:, j] ** ex[j]
                if ex[q + j]:
                    col = col * np.conj(Uf[:, j]) ** ex[q + j]
            cols.append(col)
            expo.append(ex)
    return np.stack(cols, axis=1), expo


def _band_limited_interpolant(rule: QuadratureRule, values: np.ndarray, degree: int):
    """Weighted least-squares polynomial fit of boundary samples (rank one).

    Returns (evaluator, relative L2 residual of the fit on the nodes).
    """
    M, expo = _monomial_design(rule.nodes, degree)
    sw = np.sqrt(rule.weights)
    coef, *_ = np.linalg.lstsq(M * sw[:, None], values * sw, rcond=None)
    resid = M @ coef - values
    rel = float(
        math.sqrt(max(np.dot(rule.weights, np.abs(resid) ** 2), 0.0))
        / max(math.sqrt(np.dot(rule.weights, np.abs(values) ** 2)), 1e-300)
    )
    q = rule.nodes.shape[-1]
    dmax = degree + 1

    def ev(U: np.ndarray) -> np.ndarray:
        Uf = np.asarray(U, dtype=np.complex128).reshape(-1, q)
        out = np.empty(len(Uf), dtype=np.complex128)
        block = 1 << 18
        for lo in range(0, len(Uf), block):
            Ub = Uf[lo : lo + block]
            pw = np.empty((q, dmax, len(Ub)), dtype=np.complex128)
            pw[:, 0] = 1.0
            for j in range(q):
                for e in range(1, dmax):
                    pw[j, e] = pw[j, e - 1] * Ub[:, j]
            pwc = np.conj(pw)
            acc = np.zeros(len(Ub), dtype=np.complex128)
            for c, ex in zip(coef, expo):
                if c == 0:
                    continue
                col = pw[0, ex[0]] * pwc[0, ex[q]]
                for j in range(1, q):
                    col = col * (pw[j, ex[j]] * pwc[j, ex[q + j]])
                acc += c * col
            out[lo : lo + block] = acc
        return out.reshape(np.asarray(U).shape[:-2])

    return ev, rel


def invert_l2(sp: SpectralParam, F, t: float, rule: QuadratureRule,
              centers=None, degree: int = 6) -> BoundaryFunction:
    """Recover f from one radial slice of its transform.

    g_t(k) = |c_s|^-2 e^(2(n - r Re s)t) sum_h w_h conj(K_s(Z_t(k), U_h)) F(U_h, t)
    with Z_t(k) = tanh(t) U_k = mobius(k a_t, 0).

    Realization: F is sampled once on the rule nodes (the data the literal
    node sum uses). A raw node sum aliases once the kernel peak, of width
    ~ e^(-t), drops below the node spacing; instead the slice is rebuilt as
    a band-limited polynomial (exact when f is band-limited, least-squares
    otherwise, residual warned about) and the h-integral is evaluated with
    the recentered radial pushforward, whose accuracy is uniform in t.
    conj(K_s) = K_conj(s) since the kernel's log-arguments are real, so the
    h-integral is the Poisson transform of the slice at conj(s). Real part
    of s is used in the renormalization (moduli are what converge).

    centers: boundary points at which to report g_t (default: rule nodes).
    """
    poisson._require_admissible(sp)
    from .structure import spectral_param

    sd = sp.sd
    if sd.r != 1:
        raise DomainError("invert_l2 slice reconstruction is rank-one only")
    if t < 1.0:
        warnings.warn("small t biases the inversion (t = %.2f)" % t, RuntimeWarning, stacklevel=2)
    if centers is None:
        centers = rule.nodes
    Fvals = np.asarray(F(rule.nodes, float(t)), dtype=np.complex128).reshape(-1)
    if Fvals.shape != (len(rule),):
        raise DomainError("F must return one value per rule node")
    slice_ev, fit_rel = _band_limited_interpolant(rule, Fvals, degree)
    if fit_rel > 1e-6:
        warnings.warn(
            "transform slice is not band-limited within degree %d "
            "(fit residual %.2e); inversion is biased" % (degree, fit_rel),
            RuntimeWarning,
            stacklevel=2,
        )
    slice_f = BoundaryFunction(slice_ev, "reconstructed transform slice")
    sp_conj = spectral_param(np.conj(sp.s), sd)
    vals = poisson.transform_radial(sp_conj, slice_f, centers, float(t), rule)
    pref = abs(poisson.c_s(sp, method="gk")) ** -2 * math.exp(
        2.0 * (sd.n - sd.r * sp.s.real) * float(t)
    )
    gv = pref * np.asarray(vals, dtype=np.complex128).reshape(-1)
    return _nearest_node_function(centers, gv, "invert_l2 at t = %g" % t)


@dataclass
class DominationReport:
    t_list: list
    branch: str
    violations: list  # per t: count of nodes with Psi - Phi > 1e-10
    max_excess: float
    phi_integral: float
    n_nodes: int

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violations) and np.isfinite(self.phi_integral)


def domination_check(sp: SpectralParam, t_list, chart: QuadratureRule) -> DominationReport:
    """Pointwise |Psi_t| <= Phi on the opposite-unipotent chart, and Phi in L1.

    Psi_t(nbar) carries exponent -(Re s . r + n) h1(nbar) + (Re s . r - n)
    h1(a_t nbar a_-t); the majorant Phi is e^(-2n h1) for Re s above
    (a/2)(r-1) + b + 1 and e^(-(Re s . r + n) h1) otherwise.
    """
    poisson._require_admissible(sp)
    sd = sp.sd
    if "h1" not in chart.aux:
        raise DomainError("domination_check needs a heisenberg chart rule")
    h1n = chart.aux["h1"]
    res = sp.s.real
    large = res > 0.5 * sd.a * (sd.r - 1) + sd.b + 1
    branch = "large-s" if large else "small-s"
    log_phi = (-2.0 * sd.n * h1n) if large else (-(res * sd.r + sd.n) * h1n)
    phi = np.exp(log_phi)
    phi_integral = float(np.dot(chart.weights, phi))
    violations = []
    max_excess = 0.0
    for t in t_list:
        at = group.radial(float(t), sd)
        at_inv = group.radial(-float(t), sd)
        conj = np.einsum("ij,njk,kl->nil", at, chart.nodes, at_inv)
        h1t = _kernels.h1_batch(np.ascontiguousarray(conj), sd.r)
        log_psi = -(res * sd.r + sd.n) * h1n + (res * sd.r - sd.n) * h1t
        excess = np.exp(log_psi) - phi
        bad = int(np.count_nonzero(excess > 1e-10))
        violations.append(bad)
        max_excess = max(max_excess, float(np.max(excess)))
    return DominationReport(
        t_list=list(t_list),
        branch=branch,
        violations=violations,
        max_excess=max_excess,
        phi_integral=phi_integral,
        n_nodes=len(chart),
    )


@dataclass
class SandwichReport:
    p: float
    cs_abs: float
    gamma: float
    f_norms: list
    hardy_norms: list
    lower_ok: list
    upper_ok: list
    slack: float

    @property
    def all_ok(self) -> bool:
        return all(self.lower_ok) and all(self.upper_ok)


def norm_sandwich(sp: SpectralParam, p, f_list, t_grid, rule: QuadratureRule,
                  slack: float = 0.02):
    """Check |c_s| ||f||_p <= hardy_norm(P_s f) <= gamma_s ||f||_p per f.

    p may be a single exponent or a sequence; with a sequence the lifted
    boundary values are computed once per (f, t) and shared across all the
    exponents, and a list of reports (one per p) comes back in order.
    """
    poisson._require_admissible(sp)
    p_list = [float(p)] if np.isscalar(p) else [float(x) for x in p]
    if any(x <= 1 for x in p_list):
        raise DomainError("the sandwich needs p > 1")
    t_grid = np.asarray(t_grid, dtype=float)
    cs_abs = abs(poisson.c_s(sp, method="gk"))
    gamma = poisson.gamma_estimate(sp, t_grid, rule)
    growth = float(np.real(sp.growth))
    renorm = np.exp(-growth * t_grid)
    f_norms = [[] for _ in p_list]
    hardy_norms = [[] for _ in p_list]
    for f in f_list:
        ev = poisson._as_evaluator(f)
        fabs = np.abs(ev(rule.nodes))
        F = poisson.poisson_lift(sp, f, rule)
        lift_abs = np.stack([np.abs(F(rule.nodes, float(t))) for t in t_grid])
        for i, px in enumerate(p_list):
            fnorm = float(np.dot(rule.weights, fabs**px) ** (1.0 / px))
            prof = renorm * np.dot(lift_abs**px, rule.weights) ** (1.0 / px)
            f_norms[i].append(fnorm)
            hardy_norms[i].append(float(np.max(prof)))
    reports = []
    for i, px in enumerate(p_list):
        reports.append(
            SandwichReport(
                p=px,
                cs_abs=cs_abs,
                gamma=gamma,
                f_norms=f_norms[i],
                hardy_norms=hardy_norms[i],
                lower_ok=[cs_abs * fn <= hn * (1.0 + slack) for fn, hn in zip(f_norms[i], hardy_norms[i])],
                upper_ok=[hn <= gamma * fn * (1.0 + slack) for fn, hn in zip(f_norms[i], hardy_norms[i])],
                slack=slack,
            )
        )
    return reports[0] if np.isscalar(p) else reports
