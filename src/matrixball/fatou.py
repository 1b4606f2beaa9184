"""Boundary limits of radial profiles, L2 inversion, and norm estimates.

The renormalized transform e^(-(rs-n)t) P_s f(k a_t . 0) converges to
c_s f(u_k) as t grows; this module extracts that limit from profiles on a
uniform t-grid (poisson._fatou_limit, the one Fatou limit c_s's Fatou route
also takes, applied to every node at once), inverts the transform from a
single deep slice, checks the dominating-function bound behind the
convergence proof, and verifies the two-sided Hardy-norm estimate.

Results on the boundary are node values, not callables: boundary_limit
reports f's estimate at the profile nodes (limits / cs), invert_l2 takes the
slice F(., t) on the rule nodes and returns g_t there, and norm_sandwich reads
the Hardy norms from poisson.hardy_profile.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, group, poisson
from .boundary import QuadratureRule
from .errors import DomainError
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

INVERSION_DEGREE = 6  # degree of the band-limited polynomial invert_l2 fits to a slice
SANDWICH_SLACK = 0.02  # relative slack of each norm_sandwich bound


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


def _warn_inadmissible(sp: SpectralParam):
    """Warn, at the caller of the public profile function, that the tail cannot converge."""
    if not sp.admissible:
        warnings.warn(
            "Re s = %g is at or below the admissibility threshold %g; the "
            "renormalized profile will not converge" % (sp.s.real, sp.sd.admissibility_threshold),
            RuntimeWarning,
            stacklevel=3,
        )


def _profile_grid(t_grid) -> np.ndarray:
    """A profile's t grid as an array: finite, strictly increasing, at least two points."""
    return poisson._finite_t(
        t_grid, "t_grid must be a finite, increasing 1-D grid with at least two points",
        lambda t: t.ndim == 1 and len(t) >= 2 and np.all(np.diff(t) > 0))


def radial_profile(sp: SpectralParam, f, nodes, t_grid, rule: QuadratureRule) -> RadialProfile:
    """P_s f along k a_t for each boundary node representative k.

    Inadmissible s only warns here: the profile itself is computable, and
    running it through boundary_limit is the negative control showing the
    renormalized tail does not converge.
    """
    t_grid = _profile_grid(t_grid)
    _warn_inadmissible(sp)
    nodes = np.asarray(nodes, dtype=np.complex128)
    vals = poisson.transform_radial(sp, f, nodes, t_grid, rule)
    return RadialProfile(t_grid=t_grid, values=vals, nodes=nodes, growth=sp.growth)


def zonal_profile(sp: SpectralParam, t_grid, rule: QuadratureRule | None = None) -> RadialProfile:
    """Radial profile of P_s 1 at the base node, via the zonal fast path.

    Uses the deep radial rule by default, which resolves the boundary
    concentration far past where generic node rules alias; this is the
    profile of choice for the inadmissible-s negative control.
    """
    t_grid = _profile_grid(t_grid)
    _warn_inadmissible(sp)
    if rule is None:
        rule = poisson._default_radial_rule(sp.sd, t_max=float(t_grid[-1]))
    vals = poisson._phi_profile(sp, t_grid, rule)
    nodes = group.base_point(sp.sd)[None]
    return RadialProfile(t_grid=t_grid, values=vals[None, :], nodes=nodes, growth=sp.growth)


@dataclass
class BoundaryLimitReport:
    limits: np.ndarray  # (N,) limits of the renormalized tails; limits / cs estimates f at the nodes
    converged: np.ndarray  # (N,) bool, all true: an unconverged tail raises
    cs: complex
    sup_err: float | None = None
    lp_err: float | None = None


def boundary_limit(sp: SpectralParam, profile: RadialProfile, reference=None,
                   p: float = 2.0, rule: QuadratureRule | None = None) -> BoundaryLimitReport:
    """Extrapolate the renormalized tail at each profile node; limits / cs estimates f there.

    The tails go through the Fatou limit of c_s's Fatou route
    (poisson._fatou_limit), which removes the corrections at the exponents
    the spherical-function expansion fixes; the grid must be uniform with at
    least four points. A tail that has not converged raises ConvergenceError,
    so every node of a returned report has converged. With a reference
    boundary function the report carries the sup and L^p node errors of the
    estimate; p must be finite and at least 1.
    """
    if not (math.isfinite(p) and p >= 1):
        raise DomainError("the L^p error needs a finite p >= 1, got %r" % (p,))
    dt = poisson._fatou_grid_step(profile.t_grid)
    limits = poisson._fatou_limit(sp, profile.renormalized, dt)
    cs = poisson.c_s(sp)
    sup_err = lp_err = None
    if reference is not None:
        ref = poisson._as_evaluator(reference)(profile.nodes)
        diff = np.abs(limits / cs - ref)
        sup_err = float(np.max(diff))
        if rule is not None and len(rule) == len(limits):
            lp_err = float(np.dot(rule.weights, diff**p) ** (1.0 / p))
        else:
            lp_err = float(np.mean(diff**p) ** (1.0 / p))
    return BoundaryLimitReport(
        limits=limits,
        converged=np.ones(len(limits), dtype=bool),
        cs=cs,
        sup_err=sup_err,
        lp_err=lp_err,
    )


def _band_limited_interpolant(rule: QuadratureRule, values: np.ndarray, degree: int):
    """Weighted least-squares polynomial fit of boundary samples (rank one).

    The design columns are T(u)[i] conj(T(u))[j] for the monomial table T of
    the q entries u (poisson._monomial_table) and deg i + deg j <= degree; the
    coefficient of column (i, j) is entry G[i, j] of a one-term form with P = I.
    values is one slice (N,), giving (evaluator, relative L2 residual of the
    fit on the nodes), or a stack (N, K) whose columns share one factorisation
    of the design, giving a list of K evaluators and a (K,) array of residuals.
    """
    q = rule.nodes.shape[-1]
    T = poisson._monomial_table(rule.nodes.reshape(-1, q), degree)
    start = poisson._monomials(q, degree).start
    deg = np.repeat(np.arange(degree + 1), np.diff(start))
    I, J = np.nonzero(deg[:, None] + deg[None, :] <= degree)
    M = T[:, I] * T[:, J].conj()
    sw = np.sqrt(rule.weights)
    V = values.reshape(len(M), -1)
    coef, *_ = np.linalg.lstsq(M * sw[:, None], V * sw[:, None], rcond=None)
    rel = [math.sqrt(max(np.dot(rule.weights, np.abs(M @ c - v) ** 2), 0.0))
           / max(math.sqrt(np.dot(rule.weights, np.abs(v) ** 2)), 1e-300)
           for c, v in zip(coef.T, V.T)]
    G = np.zeros((len(rel), len(deg), len(deg)), dtype=np.complex128)
    G[:, I, J] = coef.T
    evs = [poisson.PolynomialForm(np.eye(q)[None], g[None], (degree, degree)).evaluator()
           for g in G]
    return (evs[0], rel[0]) if values.ndim == 1 else (evs, np.array(rel))


def invert_l2(sp: SpectralParam, values, t, rule: QuadratureRule):
    """Recover f on the rule nodes from one radial slice of its transform, or from a stack of them.

    g_t(k) = |c_s|^-2 e^(2(n - r Re s)t) sum_h w_h conj(K_s(Z_t(k), U_h)) F(U_h, t)
    with Z_t(k) = tanh(t) U_k = mobius(k a_t, 0).

    values: the slice F(U_h, t) = P_s f(k_h a_t . 0), one value per rule node
    U_h (the data the literal node sum uses). A raw node sum aliases once the
    kernel peak, of width ~ e^(-t), drops below the node spacing; instead the
    slice is rebuilt as a polynomial of degree INVERSION_DEGREE (exact when f
    is band-limited within it, least-squares otherwise, residual warned
    about) and the h-integral is evaluated with the recentered radial
    pushforward, whose accuracy is uniform in t.
    conj(K_s) = K_conj(s) since the kernel's log-arguments are real, so the
    h-integral is the Poisson transform of the slice at conj(s). Real part
    of s is used in the renormalization (moduli are what converge). With one
    radius t, values is (N,) and g_t at the rule nodes comes back, an (N,)
    array. With t a 1-D grid of K radii, values is an (N, K) stack, one slice
    per column, fitted with one factorisation of the design, and the call
    returns (g, fit): g of shape (N, K), and the relative residual of each
    column's fit, a (K,) array.
    """
    poisson._require_admissible(sp)
    from .structure import spectral_param

    sd = sp.sd
    if sd.r != 1:
        raise DomainError("invert_l2 slice reconstruction is rank-one only")
    t = poisson._finite_t(t, "invert_l2 needs one finite t or a finite 1-D grid of them",
                          lambda t: t.ndim <= 1)
    if np.min(t) < 1.0:
        warnings.warn("small t biases the inversion (t = %.2f)" % np.min(t), RuntimeWarning,
                      stacklevel=2)
    Fvals = np.asarray(values, dtype=np.complex128)
    if Fvals.shape != (len(rule),) + t.shape:
        raise DomainError("the slice needs one value per rule node (and a column per t), got "
                          "shape %s for %d radii" % (Fvals.shape, t.size))
    slices, fit_rel = _band_limited_interpolant(rule, Fvals, INVERSION_DEGREE)
    if np.max(fit_rel) > 1e-6:
        warnings.warn(
            "transform slice is not band-limited within degree %d "
            "(fit residual %.2e); inversion is biased" % (INVERSION_DEGREE, np.max(fit_rel)),
            RuntimeWarning,
            stacklevel=2,
        )
    sp_conj = spectral_param(np.conj(sp.s), sd)
    cs2 = abs(poisson.c_s(sp)) ** -2
    g = [cs2 * math.exp(2.0 * (sd.n - sd.r * sp.s.real) * tk)
         * poisson.transform_radial(sp_conj, f, rule.nodes, tk, rule)
         for f, tk in zip(slices if t.ndim else [slices], t.reshape(-1).tolist())]
    return g[0] if t.ndim == 0 else (np.stack(g, axis=1), fit_rel)


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


def domination_check(sp, t_list, chart: QuadratureRule):
    """Pointwise |Psi_t| <= Phi on the opposite-unipotent chart, and Phi in L1.

    Psi_t(nbar) carries exponent -(Re s . r + n) h1(nbar) + (Re s . r - n)
    h1(a_t nbar a_-t); the majorant Phi is e^(-2n h1) for Re s above
    (a/2)(r-1) + b + 1 and e^(-(Re s . r + n) h1) otherwise.

    sp may be one spectral parameter or a sequence of them on one domain; with
    a sequence the heights h1(a_t nbar a_-t) are computed once per t and shared
    across all the parameters, and a list of reports (one per parameter) comes
    back in order.
    """
    sp_list, single = poisson._spectral_axis(sp)
    for x in sp_list:
        poisson._require_admissible(x)
    poisson._finite_t(t_list, "domination_check needs a non-empty, finite 1-D t list",
                      lambda t: t.ndim == 1)
    sd = sp_list[0].sd
    if "h1" not in chart.aux:
        raise DomainError("domination_check needs a heisenberg chart rule")
    h1n = chart.aux["h1"]
    h1t_list = []
    for t in t_list:  # h1 reads only the lower block row of a_t nbar a_-t
        low = (group.radial(float(t), sd)[sd.r :] @ chart.nodes) @ group.radial(-float(t), sd)
        h1t_list.append(_kernels.h1_batch(low, sd.r))
    reports = []
    for x in sp_list:
        res = x.s.real
        large = res > 0.5 * sd.a * (sd.r - 1) + sd.b + 1
        log_phi = (-2.0 * sd.n * h1n) if large else (-(res * sd.r + sd.n) * h1n)
        phi = np.exp(log_phi)
        violations = []
        max_excess = 0.0
        for h1t in h1t_list:
            log_psi = -(res * sd.r + sd.n) * h1n + (res * sd.r - sd.n) * h1t
            excess = np.exp(log_psi) - phi
            violations.append(int(np.count_nonzero(excess > 1e-10)))
            max_excess = max(max_excess, float(np.max(excess)))
        reports.append(DominationReport(
            t_list=list(t_list),
            branch="large-s" if large else "small-s",
            violations=violations,
            max_excess=max_excess,
            phi_integral=float(np.dot(chart.weights, phi)),
            n_nodes=len(chart),
        ))
    return reports[0] if single else reports


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


def norm_sandwich(sp: SpectralParam, p, f_list, t_grid, rule: QuadratureRule):
    """Check |c_s| ||f||_p <= hardy_norm(P_s f) <= gamma_s ||f||_p per f, each
    bound within a relative SANDWICH_SLACK.

    p may be a single exponent or a sequence, each finite and > 1; with a
    sequence poisson.hardy_norm shares each f's transform across the
    exponents, and a list of reports (one per p) comes back in order.
    """
    poisson._require_admissible(sp)
    p_list = poisson._lp_exponents(p)
    cs_abs = abs(poisson.c_s(sp))
    f_abs = [np.abs(poisson._as_evaluator(f)(rule.nodes)) for f in f_list]
    h_norms = [poisson.hardy_norm(sp, f, p_list, t_grid, rule) for f in f_list]
    gamma = poisson.gamma_estimate(sp, t_grid, rule)  # after hardy_norm has checked the grid
    reports = []
    for i, px in enumerate(p_list):
        fn = [float(np.dot(rule.weights, fa**px) ** (1.0 / px)) for fa in f_abs]
        hn = [float(h[i]) for h in h_norms]
        reports.append(SandwichReport(
            p=px, cs_abs=cs_abs, gamma=gamma, f_norms=fn, hardy_norms=hn,
            lower_ok=[cs_abs * x <= y * (1.0 + SANDWICH_SLACK) for x, y in zip(fn, hn)],
            upper_ok=[y <= gamma * x * (1.0 + SANDWICH_SLACK) for x, y in zip(fn, hn)],
            slack=SANDWICH_SLACK))
    return reports[0] if np.ndim(p) == 0 else reports
