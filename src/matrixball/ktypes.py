"""Rank-one K-type machinery: disk polynomials, projections, Phi_{s,delta}.

L^2 of the sphere S^(2b+1) splits into bidegree-(p, q) harmonics V_(p,q); the
zonal representative of V_(p,q) as a function of the first coordinate is the
disk polynomial

    R_(p,q)(u) = u^(p-q) * P_k^(b-1, |p-q|)(2|u|^2 - 1) / binom(k + b - 1, k)

with k = min(p, q) (conj(u) powers when q > p), normalized so R(1) = 1. Its
L^2(S) norm is 1/sqrt(dim V_(p,q)) in closed form (zonal_norm). The
generalized spherical profile Phi_{s,delta}(a_t) is the Poisson transform of
the zonal function evaluated on the radial flow, and Schur diagonality says
P_s f(k a_t . 0) = Phi_{s,delta}(a_t) f(k) for any f in V_delta.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels, group, poisson
from .boundary import QuadratureRule
from .errors import DomainError
from .structure import SpectralParam, StructureData

__all__ = [
    "KTypeIndex",
    "SphericalProfile",
    "SchurReport",
    "ktype_range",
    "zonal",
    "zonal_function",
    "zonal_norm",
    "ktype_spectrum",
    "spherical_profile",
    "schur_diagonality",
    "band_limited",
    "random_band_limited",
]


@dataclass(frozen=True)
class KTypeIndex:
    """Bidegree of a K-type on the sphere in C^(1+b)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise DomainError("K-type bidegree must be non-negative")

    @property
    def order(self):
        return (self.p + self.q, self.p)


@dataclass
class SphericalProfile:
    delta: KTypeIndex
    t_grid: np.ndarray
    values: np.ndarray  # Phi_{s,delta}(a_t) per grid point


@dataclass
class SchurReport:
    delta: KTypeIndex
    t: float
    ratio_mean: complex
    cv: float
    phi_reference: complex
    n_used: int

    @property
    def ratio_matches_phi(self) -> bool:
        return abs(self.ratio_mean - self.phi_reference) <= 1e-6 + 5e-2 * abs(self.phi_reference)


def ktype_range(max_p: int, max_q: int):
    """All bidegrees with p <= max_p, q <= max_q, ordered by p+q then p."""
    out = [KTypeIndex(p, q) for p in range(max_p + 1) for q in range(max_q + 1)]
    return sorted(out, key=lambda d: d.order)


def zonal(delta: KTypeIndex, u, b: int):
    """Disk polynomial R_(p,q) at u (vectorized), normalized R(1) = 1."""
    u = np.asarray(u, dtype=np.complex128)
    p, q = delta.p, delta.q
    k, d = min(p, q), abs(p - q)
    alpha = b - 1
    jac = _kernels.jacobi_batch(k, float(alpha), float(d), 2.0 * (u.real**2 + u.imag**2) - 1.0)
    jac = jac / math.comb(k + alpha, k)
    ang = u**(p - q) if p >= q else np.conj(u) ** (q - p)
    return jac * ang


def zonal_function(delta: KTypeIndex, sd: StructureData) -> Callable:
    """phi_delta as a boundary function: the disk polynomial of U_1."""
    if sd.r != 1:
        raise DomainError("K-type machinery is rank-one only")
    return _first_entry_form(_zonal_monomials(delta, sd.b, delta.p, delta.q), sd).evaluator()


def _first_entry_form(C: np.ndarray, sd: StructureData) -> poisson.PolynomialForm:
    """The polynomial sum C[i, j] u^i conj(u)^j of u = U[0, 0] as a PolynomialForm."""
    P = np.zeros((1, sd.q, 1))
    P[0, 0, 0] = 1.0
    return poisson.PolynomialForm(P, C[None], (C.shape[0] - 1, C.shape[1] - 1))


def zonal_norm(delta: KTypeIndex, b: int) -> float:
    """L^2(S) norm of the zonal function phi_delta: 1/sqrt(dim V_(p,q)).

    With R(1) = 1 the reproducing property gives ||R||^2 = 1/dim, and on the
    sphere of C^(1+b) dim V_(p,q) = (p+q+b) C(p+b-1, p) C(q+b-1, q) / b
    (Rudin, Function Theory in the Unit Ball of C^n, Ch. 12).
    """
    p, q = delta.p, delta.q
    dim = (p + q + b) * math.comb(p + b - 1, p) * math.comb(q + b - 1, q) // b
    return 1.0 / math.sqrt(dim)


def ktype_spectrum(f, max_p: int, max_q: int, rule: QuadratureRule):
    """All zonal coefficients up to (max_p, max_q) plus the Parseval defect (warned above 5%)."""
    b = rule.nodes.shape[-1] - 1
    ev = poisson._as_evaluator(f)
    fv = ev(rule.nodes)
    total = float(np.real(np.dot(rule.weights, np.abs(fv) ** 2)))
    coeffs = {}
    for delta in ktype_range(max_p, max_q):
        zv = zonal(delta, rule.nodes[..., 0, 0], b)
        coeffs[delta] = complex(np.dot(rule.weights, fv * np.conj(zv))) / zonal_norm(delta, b)
    captured = sum(abs(c) ** 2 for c in coeffs.values())
    defect = abs(total - captured) / total if total > 0 else 0.0
    if defect > 0.05:
        warnings.warn(
            "K-type expansion up to (%d,%d) misses %.1f%% of ||f||^2 "
            "(f has non-zonal or higher components)" % (max_p, max_q, 100 * defect),
            stacklevel=2,
        )
    return coeffs, defect


def spherical_profile(sp: SpectralParam, delta: KTypeIndex, t_grid, rule: QuadratureRule) -> SphericalProfile:
    t_grid = poisson._finite_t(t_grid)
    base = group.base_point(sp.sd)[None]
    vals = poisson.transform_radial(sp, zonal_function(delta, sp.sd), base, t_grid, rule)[0]
    return SphericalProfile(delta=delta, t_grid=t_grid, values=vals)


def _random_unitary(q: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    from .linalg import qr_unitary

    Q, _ = qr_unitary(G)
    return Q


def schur_diagonality(
    sp: SpectralParam,
    delta: KTypeIndex,
    t: float,
    nodes: np.ndarray,
    rule: QuadratureRule,
    seed: int = 11,
) -> SchurReport:
    """Constancy of P_s f(k a_t . 0) / f(k) over k for a translated zonal f.

    The translate keeps f inside V_delta, so the ratio must be the Schur
    scalar Phi_{s,delta}(a_t) wherever f is bounded away from zero.
    """
    sd = sp.sd
    M0 = _random_unitary(sd.q, seed)
    f = _first_entry_form(_zonal_monomials(delta, sd.b, delta.p, delta.q), sd).translated(
        [M0], [1.0]
    ).evaluator()
    fv = f(nodes)
    Fv = poisson.transform_radial(sp, f, nodes, t, rule)
    mask = np.abs(fv) > 0.1 * np.max(np.abs(fv))
    ratios = Fv[mask] / fv[mask]
    mean = complex(np.mean(ratios))
    cv = float(np.std(ratios) / max(abs(mean), 1e-300))
    ref = complex(spherical_profile(sp, delta, [t], rule).values[0])
    return SchurReport(
        delta=delta, t=t, ratio_mean=mean, cv=cv, phi_reference=ref, n_used=int(mask.sum())
    )


def band_limited(coeffs: dict, sd: StructureData) -> Callable:
    """f = sum a_delta * (zonal_delta / ||zonal_delta||): ||f||_2^2 = sum |a|^2."""
    return _band_limited_form(coeffs, sd).evaluator()


def _band_limited_form(coeffs: dict, sd: StructureData) -> poisson.PolynomialForm:
    """sum a_delta R_delta / ||R_delta|| expanded in the monomials u^i conj(u)^j of u = U[0, 0]."""
    if sd.r != 1:
        raise DomainError("band-limited builders are rank-one only")
    max_p = max((d.p for d in coeffs), default=0)
    max_q = max((d.q for d in coeffs), default=0)
    C = np.zeros((max_p + 1, max_q + 1), dtype=np.complex128)
    for d, a in coeffs.items():
        C += complex(a) / zonal_norm(d, sd.b) * _zonal_monomials(d, sd.b, max_p, max_q)
    return _first_entry_form(C, sd)


def _zonal_monomials(delta: KTypeIndex, b: int, max_p: int, max_q: int) -> np.ndarray:
    """R_delta as a matrix C of monomial coefficients: R_delta(u) = sum C[i, j] u^i conj(u)^j.

    The Jacobi factor comes from the same recurrence as zonal, run on the
    polynomial 2y - 1 in y = |u|^2 = u conj(u); y^m times u^(p-q) (or
    conj(u)^(q-p)) is then the monomial u^(m+p-q) conj(u)^m (or u^m conj(u)^(m+q-p)).
    """
    p, q = delta.p, delta.q
    k, d = min(p, q), abs(p - q)
    alpha = b - 1
    y = np.polynomial.Polynomial([-1.0, 2.0])
    # Polynomial([1]) * turns k = 0's plain 1 into a polynomial too
    jac = np.polynomial.Polynomial([1.0]) * _kernels.jacobi_batch(k, float(alpha), float(d), y)
    C = np.zeros((max_p + 1, max_q + 1))
    for m, c in enumerate(jac.coef.astype(float) / math.comb(k + alpha, k)):
        C[m + p - k, m + q - k] = c
    return C


def random_band_limited(sd: StructureData, seed: int, max_p: int = 3, max_q: int = 3,
                        translates: int = 0) -> Callable:
    """Seeded random combination of normalized zonals, optionally K-translated.

    With translates > 0 the function mixes rotated copies (still band-limited
    with the same bidegree bound, but with non-zonal components), which is the
    honest test family for norm inequalities.
    """
    rng = np.random.default_rng(seed)
    deltas = ktype_range(max_p, max_q)
    amps = rng.normal(size=len(deltas)) + 1j * rng.normal(size=len(deltas))
    amps /= np.linalg.norm(amps)
    coeffs = {d: a for d, a in zip(deltas, amps)}
    if translates == 0:
        return band_limited(coeffs, sd)
    rots = [_random_unitary(sd.q, seed + 101 + j) for j in range(translates)]
    mix = rng.normal(size=translates + 1)
    mix /= np.linalg.norm(mix)
    return _band_limited_form(coeffs, sd).translated([np.eye(sd.q)] + rots, mix).evaluator()
