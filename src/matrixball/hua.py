"""Hua-type invariant differential operators via group finite differences.

The second-order operator is assembled from a basis {v_i} of p+ and its dual
{v*_i} under a trace pairing on sl(m, C):

    H = sum_{i,j} (v_i v*_j F) * proj_k1([v_j, v*_i])

acting on lifts F(g) = F(g . 0). On Poisson kernels it acts diagonally:
H K_s = (1/4)(s^2 - (r+b)^2) K_s I_r. Third-order companions U and W are the
triple sums below; on kernels their entrywise ratio is a fixed rational
function of the spectral parameter.

Derivatives are left-invariant: (v_1..v_k F)(g) = d/dt_1 .. d/dt_k F(g e^(t_1 x_1) .. e^(t_k x_k))
evaluated by central differences with precomputed stencil exponentials; each
complexified direction v splits as v = X + iY over the real form.

The duals are taken under the plain trace pairing <X, Y> = tr(XY), the
normalization in which the eigenvalue law above holds; proj_k1 keeps the
leading r x r block.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, group, linalg
from .errors import DegeneracyError, DomainError
from .structure import SpectralParam, StructureData

__all__ = [
    "LieBasis",
    "FDScheme",
    "ThirdOrderReport",
    "build_basis",
    "hua_basis",
    "lie_derivative",
    "hua_second",
    "hua_third_U",
    "hua_third_W",
    "third_order_ratio",
    "lift_kernel",
    "eigen_residual",
]

@dataclass
class LieBasis:
    """p+ basis and its duals under the (possibly rescaled) trace pairing."""

    sd: StructureData
    pplus: np.ndarray  # (n, m, m)
    pminus: np.ndarray  # (n, m, m)
    dual_scale: float

    def pairing(self, X: np.ndarray, Y: np.ndarray) -> complex:
        return self.dual_scale * complex(np.trace(X @ Y))

    def validate(self, tol: float = 1e-13):
        n, m = self.sd.n, self.sd.m
        P = self.dual_scale * np.einsum("aij,bji->ab", self.pplus, self.pminus)
        if np.max(np.abs(P - np.eye(n))) > tol:
            raise DomainError("p+/p- pairing is not the identity")
        r = self.sd.r
        for vj in self.pplus:
            for vi in self.pminus:
                B = vj @ vi - vi @ vj
                off = np.abs(B[:r, r:]).max() + np.abs(B[r:, :r]).max()
                if off > tol:
                    raise DomainError("bracket [p+, p-] leaves the block diagonal")


def build_basis(sd: StructureData, dual_scale: float = 1.0) -> LieBasis:
    """Elementary p+ basis e_(j, r+k) with duals e_(r+k, j) / dual_scale."""
    r, q, m = sd.r, sd.q, sd.m
    pplus = np.zeros((sd.n, m, m), dtype=np.complex128)
    pminus = np.zeros((sd.n, m, m), dtype=np.complex128)
    idx = 0
    for j in range(r):
        for k in range(q):
            pplus[idx, j, r + k] = 1.0
            pminus[idx, r + k, j] = 1.0 / dual_scale
            idx += 1
    basis = LieBasis(sd=sd, pplus=pplus, pminus=pminus, dual_scale=dual_scale)
    basis.validate()
    return basis


def remix_basis(basis: LieBasis, A: np.ndarray) -> LieBasis:
    """Change of p+ basis v' = A v with duals recomputed for the same pairing."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (basis.sd.n, basis.sd.n):
        raise DomainError("mixing matrix must be n x n")
    Ainv = np.linalg.inv(A)
    pplus = np.einsum("ac,cij->aij", A, basis.pplus)
    pminus = np.einsum("ca,cij->aij", Ainv, basis.pminus)
    out = LieBasis(sd=basis.sd, pplus=pplus, pminus=pminus, dual_scale=basis.dual_scale)
    out.validate()
    return out


@dataclass
class FDScheme:
    """Central-difference plan for group derivatives."""

    step: float = 1e-2
    order: int = 4
    richardson: bool = True

    def __post_init__(self):
        if not (1e-4 <= self.step <= 1e-1):
            raise DomainError("FD step must lie in [1e-4, 1e-1]")
        if self.order not in (2, 4):
            raise DomainError("FD order must be 2 or 4")

    @property
    def offsets(self):
        return (-2.0, -1.0, 1.0, 2.0) if self.order == 4 else (-1.0, 1.0)

    @property
    def coeffs(self):
        if self.order == 4:
            return (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
        return (-0.5, 0.5)


def _tau(w: np.ndarray, J: np.ndarray) -> np.ndarray:
    return -J @ w.conj().T @ J


def _split_real(v: np.ndarray, J: np.ndarray):
    """v = X + iY with X, Y in the real form su(r, q)."""
    t = _tau(v, J)
    X = 0.5 * (v + t)
    Y = (v - t) / 2j
    return X, Y


def _as_batch(F):
    """Evaluate F on a stack of group elements.

    F is called on the whole stack first; if the result does not hold one value
    per element (an F written for single elements), F is called per element.
    Exceptions raised by F propagate.
    """

    def Fb(stack: np.ndarray) -> np.ndarray:
        out = np.asarray(F(stack))
        if out.shape == stack.shape[:1]:
            return out
        return np.array([F(g) for g in stack], dtype=np.complex128)

    return Fb


@functools.lru_cache(maxsize=1024)
def _step_exp(R_bytes: bytes, m: int, t: float) -> np.ndarray:
    """expm(t R) for a real-form direction R given by its bytes, read-only.

    A stencil exponential depends only on (R, t = h * offset), never on the
    point g, the kernel parameters or U, so each one is computed once.
    """
    E = linalg.expm(t * np.frombuffer(R_bytes, dtype=np.complex128).reshape(m, m))
    E.flags.writeable = False
    return E


class _StencilPlan:
    """Evaluation points and coefficients for one iterated derivative.

    Each direction v = X + iY contributes the exponentials of its real parts at
    every offset; the points are the products e^(t_1 R_1) .. e^(t_k R_k) over all
    X/Y choices (combo) and offsets (sel), ordered combo-major with the first
    axis slowest. Products and weights are formed left to right, one axis at a
    time, for the whole batch.
    """

    def __init__(self, sd: StructureData, dirs, scheme: FDScheme, h: float):
        J = group.jmatrix(sd)
        m = sd.m
        ts = [h * o for o in scheme.offsets]
        units = np.array([1.0, 1j])
        cfs = np.array(scheme.coeffs)
        mats = None  # (combos, sels, m, m)
        ccoef = np.array([1.0 + 0.0j])  # (combos,)
        for v in dirs:
            parts = _split_real(np.asarray(v, dtype=np.complex128), J)
            E = np.array([[_step_exp(R.tobytes(), m, t) for t in ts] for R in parts])
            if mats is None:
                mats = E
            else:
                mats = (mats[:, None, :, None] @ E[None, :, None, :]).reshape(2 * len(mats), -1, m, m)
            ccoef = (ccoef[:, None] * units).ravel()
        w = ccoef[:, None]
        for _ in dirs:
            w = (w[:, :, None] * cfs).reshape(len(ccoef), -1)
        self.mats = mats.reshape(-1, m, m)
        self.coeffs = w.ravel() / h ** len(dirs)

    def points(self, g: np.ndarray) -> np.ndarray:
        return g @ self.mats


def _derivative(Fb, g, sd, dirs, scheme: FDScheme) -> complex:
    def at(h):
        plan = _StencilPlan(sd, dirs, scheme, h)
        vals = Fb(plan.points(g))
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DegeneracyError(
                "non-finite F value in FD stencil (offset index %d of %d)" % (bad, len(vals))
            )
        return complex(np.dot(plan.coeffs, vals))

    d = at(scheme.step)
    if scheme.richardson:
        d2 = at(scheme.step / 2.0)
        fac = 2.0 ** scheme.order
        return (fac * d2 - d) / (fac - 1.0)
    return d


def lie_derivative(F, g: np.ndarray, dirs, scheme: FDScheme | None = None,
                   sd: StructureData | None = None) -> complex:
    """Iterated left-invariant derivative (v_1 ... v_k F)(g), k <= 3.

    Complex directions are handled through the split v = X + iY over the real
    form, which needs the signature; pass sd when the block support of the
    directions does not determine it.
    """
    if scheme is None:
        scheme = FDScheme()
    if not 1 <= len(dirs) <= 3:
        raise DomainError("between one and three directions are supported")
    if sd is None:
        sd = _sd_from_matrices(np.asarray(g).shape[-1], dirs)
    return _derivative(_as_batch(F), np.asarray(g, dtype=np.complex128), sd, dirs, scheme)


def _sd_from_matrices(m: int, dirs) -> StructureData:
    """Infer r from the p+/p- block support of the directions (fallback r=1)."""
    from .structure import structure_data

    arr = np.stack([np.asarray(d) for d in dirs])
    for r in range(1, (m - 1) // 2 + 1):
        b = m - 2 * r
        if b < 1:
            break
        off = abs(np.abs(arr[:, :r, :r]).max()) + abs(np.abs(arr[:, r:, r:]).max())
        if off < 1e-12:
            return structure_data(r, b)
    return structure_data(1, m - 2)


def _operator_points(sd, terms, scheme, h):
    """Concatenate stencil plans for many terms; returns plans + slices."""
    plans = [_StencilPlan(sd, dirs, scheme, h) for dirs, _ in terms]
    sizes = [len(p.coeffs) for p in plans]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return plans, bounds


def _assemble(Fb, g, sd, terms, scheme: FDScheme):
    """Sum_k (iterated derivative along dirs_k) * weight_matrix_k, batched."""

    def at(h):
        plans, bounds = _operator_points(sd, terms, scheme, h)
        stack = np.concatenate([p.points(g) for p in plans], axis=0)
        vals = Fb(stack)
        if not np.all(np.isfinite(vals)):
            raise DegeneracyError("non-finite F value in operator stencil")
        out = None
        for k, plan in enumerate(plans):
            seg = vals[bounds[k] : bounds[k + 1]]
            d = complex(np.dot(plan.coeffs, seg))
            term = d * terms[k][1]
            out = term if out is None else out + term
        return out

    A = at(scheme.step)
    if scheme.richardson:
        B = at(scheme.step / 2.0)
        fac = 2.0 ** scheme.order
        return (fac * B - A) / (fac - 1.0)
    return A


def hua_second(F, g: np.ndarray, basis: LieBasis, scheme: FDScheme | None = None) -> np.ndarray:
    """The r x r block of sum_{i,j} (v_i v*_j F)(g) [v_j, v*_i]."""
    if scheme is None:
        scheme = FDScheme()
    sd = basis.sd
    terms = []
    for i in range(sd.n):
        for j in range(sd.n):
            B = basis.pplus[j] @ basis.pminus[i] - basis.pminus[i] @ basis.pplus[j]
            terms.append(((basis.pplus[i], basis.pminus[j]), B[: sd.r, : sd.r]))
    return _assemble(_as_batch(F), np.asarray(g, dtype=np.complex128), sd, terms, scheme)


def _third_terms(basis: LieBasis, which: str):
    sd = basis.sd
    vp, vm = basis.pplus, basis.pminus
    terms = []
    for i in range(sd.n):
        for j in range(sd.n):
            for k in range(sd.n):
                if which == "U":
                    dirs = (vm[i], vm[j], vp[k])
                    inner = vp[j] @ vm[k] - vm[k] @ vp[j]
                    W = vp[i] @ inner - inner @ vp[i]
                else:
                    # derivative triple v_k v*_i v*_j: the j-slot must pair a
                    # starred derivative with the unstarred bracket weight to
                    # form a basis-independent contraction; with v_j in both
                    # slots the ratio law fails (checked numerically).
                    dirs = (vp[k], vm[i], vm[j])
                    inner = vm[k] @ vp[i] - vp[i] @ vm[k]
                    W = inner @ vp[j] - vp[j] @ inner
                terms.append((dirs, W))
    return terms


def _third(F, g, basis: LieBasis, scheme: FDScheme | None, which: str) -> np.ndarray:
    if scheme is None:
        scheme = FDScheme(step=2e-2)
    sd = basis.sd
    if sd.n > 6:
        raise DomainError("third-order operators are limited to n <= 6 (got n = %d)" % sd.n)
    terms = _third_terms(basis, which)
    return _assemble(_as_batch(F), np.asarray(g, dtype=np.complex128), sd, terms, scheme)


def hua_third_U(F, g, basis: LieBasis, scheme: FDScheme | None = None) -> np.ndarray:
    """sum_{i,j,k} (v*_i v*_j v_k F)(g) [v_i, [v_j, v*_k]] (full m x m matrix)."""
    return _third(F, g, basis, scheme, "U")


def hua_third_W(F, g, basis: LieBasis, scheme: FDScheme | None = None) -> np.ndarray:
    """sum_{i,j,k} (v_k v*_i v_j F)(g) [[v*_k, v_i], v_j] (full m x m matrix)."""
    return _third(F, g, basis, scheme, "W")


def lift_kernel(sp: SpectralParam, U: np.ndarray):
    """F(g) = K_s(g . 0, U) as a batched function on stacks of group elements."""
    sd = sp.sd
    r = sd.r
    U = np.asarray(U, dtype=np.complex128).reshape(1, sd.r, sd.q)

    def F(stack: np.ndarray) -> np.ndarray:
        stack = np.asarray(stack, dtype=np.complex128)
        single = stack.ndim == 2
        gs = stack[None] if single else stack
        B = gs[:, :r, r:]
        D = gs[:, r:, r:]
        Z = np.linalg.solve(np.swapaxes(D, -1, -2), np.swapaxes(B, -1, -2))
        Z = np.ascontiguousarray(np.swapaxes(Z, -1, -2))
        base = _kernels.logdet_ipzz(Z)
        cross = _kernels.cross_logabsdet(Z, U)[:, 0]
        out = np.exp(sp.sigma * (base - 2.0 * cross))
        return out[0] if single else out

    return F


def eigen_residual(sp: SpectralParam, g: np.ndarray, U: np.ndarray, basis: LieBasis,
                   scheme: FDScheme | None = None) -> float:
    """Relative residual of H K_s = (1/4)(s^2 - (r+b)^2) K_s I_r at g."""
    sd = sp.sd
    F = lift_kernel(sp, U)
    H = hua_second(F, g, basis, scheme)
    Fg = complex(F(np.asarray(g)[None])[0])
    target = sp.hua_eigenvalue * Fg * np.eye(sd.r)
    scale = max(abs(sp.hua_eigenvalue) * abs(Fg), abs(Fg))
    return float(np.max(np.abs(H - target)) / scale)


def measure_fd_order(sp: SpectralParam, basis: LieBasis, order: int = 4,
                     steps=(4e-2, 2e-2), seed: int = 23) -> float:
    """Observed convergence order: log2 of the residual drop per step halving.

    Richardson is disabled so the raw truncation order of the stencil is what
    is measured; with it enabled the residual sits on the roundoff floor.
    """
    sd = sp.sd
    g = group.random_group_element(seed, 0.3, sd)
    rng = np.random.default_rng(seed + 1)
    v = rng.normal(size=(sd.q, sd.r)) + 1j * rng.normal(size=(sd.q, sd.r))
    Q, _ = linalg.qr_unitary(v)
    U = Q[:, : sd.r].conj().T
    res = []
    for h in steps:
        scheme = FDScheme(step=h, order=order, richardson=False)
        res.append(eigen_residual(sp, g, U, basis, scheme))
    slopes = [
        math.log2(res[i] / res[i + 1]) / math.log2(steps[i] / steps[i + 1])
        for i in range(len(steps) - 1)
    ]
    return float(np.mean(slopes))


def hua_basis(sd: StructureData) -> LieBasis:
    """The basis all Hua checks use: duals under the plain trace pairing."""
    return build_basis(sd)


@dataclass
class ThirdOrderReport:
    s_values: list
    sigmas: list
    ratios: list
    cvs: list
    p_fit: float
    c_fit: float
    d_fit: float
    p_denominator: float
    c_expected: float
    genus_candidate: int
    fit_residual: float

    @property
    def c_rel_err(self) -> float:
        return abs(self.c_fit - self.c_expected) / abs(self.c_expected)


def _sample_pairs(sd: StructureData, samples: int, seed: int):
    out = []
    for i in range(samples):
        g = group.random_group_element(seed + 7 * i, 0.25, sd)
        rng = np.random.default_rng(seed + 7 * i + 3)
        v = rng.normal(size=(sd.q, sd.r)) + 1j * rng.normal(size=(sd.q, sd.r))
        Q, _ = linalg.qr_unitary(v)
        out.append((g, Q[:, : sd.r].conj().T))
    return out


def third_order_ratio(sp_list, samples: int = 10, scheme: FDScheme | None = None,
                      seed: int = 77) -> ThirdOrderReport:
    """Entrywise U/W ratios on kernels across s, and the (p, c) fit.

    For each spectral parameter the ratio of the two third-order operators on
    Poisson kernels is checked for constancy across sample points and p+
    entries (coefficient of variation per s). The s-dependence is then fit to

        ratio(sigma) = sigma (2 sigma - d) / (2 sigma^2 - 2 p sigma - c)

    with sigma = (s + n/r)/2, a reciprocal-and-sign normalization of the
    rational law kappa (-2 sigma^2 + 2 p sigma + c) / (sigma (2 sigma - d))
    with kappa = -1 and the pole parameter d decoupled from p (a single
    shared p cannot represent the measured curve; see the report fields).
    c is compared against 2(n+1); p_fit and p_denominator = d - b are both
    reported alongside the genus candidate 2r + b, not asserted.

    Avoid s = n/r and s = n/r + 2 in sp_list: the ratio has a zero and a
    pole there and contributes no fit information.
    """
    if len(sp_list) < 3:
        raise DomainError("need at least three spectral parameters for the fit")
    sd = sp_list[0].sd
    basis = hua_basis(sd)
    if scheme is None:
        scheme = FDScheme(step=2e-2)
    pairs = _sample_pairs(sd, samples, seed)
    r = sd.r
    sigmas, ratios, cvs = [], [], []
    for sp in sp_list:
        entry_ratios = []
        for g, U in pairs:
            F = lift_kernel(sp, U)
            Umat = hua_third_U(F, g, basis, scheme)[:r, r:]
            Wmat = hua_third_W(F, g, basis, scheme)[:r, r:]
            floor = 0.1 * np.max(np.abs(Wmat))
            mask = np.abs(Wmat) > floor
            entry_ratios.extend((Umat[mask] / Wmat[mask]).ravel().tolist())
        entry_ratios = np.asarray(entry_ratios)
        mean = complex(np.mean(entry_ratios))
        cvs.append(float(np.std(entry_ratios) / max(abs(mean), 1e-300)))
        ratios.append(mean)
        sigmas.append(complex(sp.sigma))
    sig = np.asarray(sigmas)
    rat = np.asarray(ratios)

    def model(x):
        d, p, c = x
        return sig * (2.0 * sig - d) / (2.0 * sig**2 - 2.0 * p * sig - c)

    def resid(x):
        dev = model(x) - rat
        return np.concatenate([dev.real, dev.imag])

    from scipy.optimize import least_squares

    x0 = np.array([2.0 * (sd.r + sd.b), float(sd.r + sd.b), 2.0 * (sd.n + 1)])
    fit = least_squares(resid, x0, method="lm")
    d_fit, p_fit, c_fit = (float(v) for v in fit.x)
    residual = float(np.max(np.abs(model(fit.x) - rat)))
    return ThirdOrderReport(
        s_values=[sp.s for sp in sp_list],
        sigmas=list(sig),
        ratios=list(rat),
        cvs=cvs,
        p_fit=p_fit,
        c_fit=c_fit,
        d_fit=d_fit,
        p_denominator=d_fit - sd.b,
        c_expected=2.0 * (sd.n + 1),
        genus_candidate=sd.genus_candidate,
        fit_residual=residual,
    )
