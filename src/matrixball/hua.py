"""Hua-type invariant differential operators via group finite differences.

The second-order operator is assembled from a basis {v_i} of p+ and its dual
{v*_i} under a trace pairing on sl(m, C):

    H = sum_{i,j} (v_i v*_j F) * proj_k1([v_j, v*_i])

acting on lifts F(g) = F(g . 0). On Poisson kernels it acts diagonally:
H K_s = (1/4)(s^2 - (r+b)^2) K_s I_r. Third-order companions U and W are the
triple sums below; on kernels their p+ entries stand in one ratio, which
with nu = n/r is the rational function

    U K_s / W K_s = (s^2 - nu^2) / (s^2 - nu^2 - 4(n + 1))

of the spectral parameter (ratio_law), with a zero at s = nu and a pole at
s^2 = nu^2 + 4(n + 1).

Derivatives are left-invariant: (v_1..v_k F)(g) = d/dt_1 .. d/dt_k F(g e^(t_1 x_1) .. e^(t_k x_k))
evaluated by fourth-order central differences (FD_OFFSETS, FD_WEIGHTS) with
precomputed stencil exponentials; each complexified direction v splits as
v = X + iY over the real form. An operator's stencil (_Stencil) is built once
per call and step as one block of P points, stored side by side as one m x Pm
matrix, so pushing the block to g is one matrix product. One function
(_stencil_sums) reduces the values on a step's block and Richardson-combines
the two steps, for an F on (P, m, m) stacks of group elements (_assemble) as
for kernels. On Poisson kernels (on_kernels) that block serves every (g, U)
pair and s: each pair pushes its points and takes the kernel's
log-determinant once, and each s costs one exponential and one contraction.

The kernel on a group element g = [[A, B], [C, D]] is one q x q determinant.
g^H J g = J gives D^H D - B^H B = I_q, so at Z = g . 0 = B D^-1

    det(I - Z Z^H) = |det D|^-2,   det(I - Z U^H) = det(D - U^H B) / det D,

and log K_s(g . 0, U) = -2 sigma log|det(D - U^H B)|: no solve, no Z, and no
cancellation between the two logarithms far from the kernel's peak.

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
    "hua_basis",
    "hua_second",
    "hua_third_U",
    "hua_third_W",
    "third_order_ratio",
    "ratio_law",
    "lift_kernel",
    "on_kernels",
    "eigen_residual",
    "eigen_residuals",
]

@dataclass
class LieBasis:
    """p+ basis and its duals under the trace pairing <X, Y> = tr(XY)."""

    sd: StructureData
    pplus: np.ndarray  # (n, m, m)
    pminus: np.ndarray  # (n, m, m)

    def validate(self):
        n = self.sd.n
        P = np.einsum("aij,bji->ab", self.pplus, self.pminus)
        if np.max(np.abs(P - np.eye(n))) > 1e-13:
            raise DomainError("p+/p- pairing is not the identity")
        r = self.sd.r
        for vj in self.pplus:
            for vi in self.pminus:
                B = vj @ vi - vi @ vj
                off = np.abs(B[:r, r:]).max() + np.abs(B[r:, :r]).max()
                if off > 1e-13:
                    raise DomainError("bracket [p+, p-] leaves the block diagonal")


def hua_basis(sd: StructureData) -> LieBasis:
    """The basis all Hua checks use: the elementary p+ basis e_(j, r+k) with
    duals e_(r+k, j) under the plain trace pairing."""
    r, q, m = sd.r, sd.q, sd.m
    pplus = np.zeros((sd.n, m, m), dtype=np.complex128)
    pminus = np.zeros((sd.n, m, m), dtype=np.complex128)
    idx = 0
    for j in range(r):
        for k in range(q):
            pplus[idx, j, r + k] = 1.0
            pminus[idx, r + k, j] = 1.0
            idx += 1
    basis = LieBasis(sd=sd, pplus=pplus, pminus=pminus)
    basis.validate()
    return basis


# the fourth-order central difference of a first derivative: offsets in steps, and weights
FD_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
FD_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
FD_ORDER = 4


@dataclass
class FDScheme:
    """Step of the fourth-order central differences, and whether to Richardson-extrapolate."""

    step: float = 1e-2
    richardson: bool = True

    def __post_init__(self):
        if not (1e-4 <= self.step <= 1e-1):
            raise DomainError("FD step must lie in [1e-4, 1e-1]")


def _split_real(v: np.ndarray, J: np.ndarray):
    """v = X + iY with X, Y in the real form su(r, q)."""
    t = -J @ v.conj().T @ J
    X = 0.5 * (v + t)
    Y = (v - t) / 2j
    return X, Y


@functools.lru_cache(maxsize=1024)
def _step_exps(parts_bytes: bytes, m: int, ts: tuple) -> np.ndarray:
    """expm(t R), (2, len(ts), m, m) read-only, for the two real parts R of a direction.

    A stencil exponential depends only on (R, t = h * offset), never on the point
    g, the kernel parameters or U, so each direction's come from one expm call.
    """
    parts = np.frombuffer(parts_bytes, dtype=np.complex128).reshape(2, 1, m, m)
    E = linalg.expm(np.array(ts)[:, None, None] * parts)
    E.flags.writeable = False
    return E


class _Stencil:
    """Every term's stencil of one operator at one step h, in one (m, P, m) block.

    Term k owns the points bounds[k]:bounds[k+1]: the products e^(t_1 R_1) ..
    e^(t_k R_k) of the real parts R of its directions v = X + iY at every
    offset, over all X/Y choices (combo) and offsets (sel), combo-major with
    the first axis slowest, formed left to right one axis at a time. Point k is
    the matrix wide[:, k, :], so one product g @ wide.reshape(m, P m) pushes all
    P points.
    """

    def __init__(self, sd: StructureData, terms, h: float):
        J = group.jmatrix(sd)
        m = sd.m
        ts = tuple(h * o for o in FD_OFFSETS)
        units = np.array([1.0, 1j])
        cfs = np.array(FD_WEIGHTS)
        sizes = [(2 * len(ts)) ** len(dirs) for dirs, _ in terms]
        self.bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.weights = [weight for _, weight in terms]
        self.wide = np.empty((m, self.bounds[-1], m), dtype=np.complex128)
        self.coeffs = np.empty(self.bounds[-1], dtype=np.complex128)
        for (dirs, _), lo, hi in zip(terms, self.bounds[:-1], self.bounds[1:]):
            mats = None  # (combos, sels, m, m)
            ccoef = np.array([1.0 + 0.0j])  # (combos,)
            for v in dirs:
                parts = _split_real(np.asarray(v, dtype=np.complex128), J)
                E = _step_exps(np.array(parts).tobytes(), m, ts)
                mats = E if mats is None else (
                    mats[:, None, :, None] @ E[None, :, None, :]).reshape(2 * len(mats), -1, m, m)
                ccoef = (ccoef[:, None] * units).ravel()
            w = ccoef[:, None]
            for _ in dirs:
                w = (w[:, :, None] * cfs).reshape(len(ccoef), -1)
            self.wide[:, lo:hi] = mats.reshape(-1, m, m).transpose(1, 0, 2)
            self.coeffs[lo:hi] = w.ravel() / h ** len(dirs)

    def points(self, g: np.ndarray) -> np.ndarray:
        """The pushed points g M_k as a (P, m, m) view of one (m, P m) product."""
        m, P, _ = self.wide.shape
        return (g @ self.wide.reshape(m, P * m)).reshape(m, P, m).transpose(1, 0, 2)

    def reduce(self, vals: np.ndarray):
        """Sum_k (coeffs_k . vals_k) * weight_k, summed left to right."""
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise DegeneracyError(
                "non-finite F value in FD stencil (point %d of %d)" % (bad, len(vals))
            )
        out = None
        for weight, lo, hi in zip(self.weights, self.bounds[:-1], self.bounds[1:]):
            term = complex(np.dot(self.coeffs[lo:hi], vals[lo:hi])) * weight
            out = term if out is None else out + term
        return out


def _stencil_sums(sd, terms, scheme: FDScheme, blocks) -> list:
    """The reduced sum of every value block that blocks(stencil) yields, one per block.

    The stencil is built at the scheme's step h; with Richardson on, also at
    h/2, and the two lists A and B combine to (2^FD_ORDER B - A) / (2^FD_ORDER - 1).
    """
    sums = []
    for h in (scheme.step, scheme.step / 2.0) if scheme.richardson else (scheme.step,):
        stencil = _Stencil(sd, terms, h)
        sums.append(list(map(stencil.reduce, blocks(stencil))))  # holds no block past its reduce
    if not scheme.richardson:
        return sums[0]
    fac = 2.0 ** FD_ORDER
    return [(fac * b - a) / (fac - 1.0) for a, b in zip(*sums)]


def _assemble(F, g, sd, terms, scheme: FDScheme):
    """Sum_k (iterated derivative along dirs_k) * weight_k at g, all stencils in one call
    of F, which maps a (P, m, m) stack of group elements to P values."""

    def blocks(stencil):
        stack = stencil.points(g)
        vals = np.asarray(F(stack))
        if vals.shape != stack.shape[:1]:
            raise DomainError("F must return one value per stacked element")
        return [vals]

    return _stencil_sums(sd, terms, scheme, blocks)[0]


def _second_terms(basis: LieBasis):
    sd = basis.sd
    terms = []
    for i in range(sd.n):
        for j in range(sd.n):
            B = basis.pplus[j] @ basis.pminus[i] - basis.pminus[i] @ basis.pplus[j]
            if np.any(B[: sd.r, : sd.r]):
                terms.append(((basis.pplus[i], basis.pminus[j]), B[: sd.r, : sd.r]))
    return terms


def hua_second(F, g: np.ndarray, basis: LieBasis, scheme: FDScheme | None = None) -> np.ndarray:
    """The r x r block of sum_{i,j} (v_i v*_j F)(g) [v_j, v*_i]."""
    return _apply("second", F, g, basis, scheme)


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
                if np.any(W):
                    terms.append((dirs, W))
    return terms


def _operator(basis: LieBasis, which: str, scheme: FDScheme | None):
    """Terms of the operator `which` ("second", "U" or "W") and its scheme, default if None."""
    if which == "second":
        return _second_terms(basis), FDScheme() if scheme is None else scheme
    return _third_terms(basis, which), FDScheme(step=2e-2) if scheme is None else scheme


def _apply(which: str, F, g, basis: LieBasis, scheme: FDScheme | None):
    terms, scheme = _operator(basis, which, scheme)
    return _assemble(F, np.asarray(g, dtype=np.complex128), basis.sd, terms, scheme)


def hua_third_U(F, g, basis: LieBasis, scheme: FDScheme | None = None) -> np.ndarray:
    """sum_{i,j,k} (v*_i v*_j v_k F)(g) [v_i, [v_j, v*_k]] (full m x m matrix)."""
    return _apply("U", F, g, basis, scheme)


def hua_third_W(F, g, basis: LieBasis, scheme: FDScheme | None = None) -> np.ndarray:
    """sum_{i,j,k} (v_k v*_i v_j F)(g) [[v*_k, v_i], v_j] (full m x m matrix)."""
    return _apply("W", F, g, basis, scheme)


def _kernel_exponent(stack: np.ndarray, U: np.ndarray, sd: StructureData) -> np.ndarray:
    """log K_s(g . 0, U) / sigma = -2 log|det(D - U^H B)| for g = [[A, B], [C, D]].

    This is log det(I - Z Z^H) - 2 log|det(I - Z U^H)| at Z = g . 0 = B D^-1,
    with no Z formed; see the module docstring.
    """
    r = sd.r
    Uc = np.asarray(U, dtype=np.complex128).conj()
    X = stack[:, r:, r:].copy()
    for k in range(r):  # X -= U^H B, one row of B at a time
        X -= Uc[k, :, None] * stack[:, None, k, r:]
    return -2.0 * _kernels._logabsdet_small(X)


def lift_kernel(sp: SpectralParam, U: np.ndarray):
    """F(g) = K_s(g . 0, U) as a function on (P, m, m) stacks of group elements."""

    def F(stack: np.ndarray) -> np.ndarray:
        return np.exp(sp.sigma * _kernel_exponent(np.asarray(stack, dtype=np.complex128), U, sp.sd))

    return F


def on_kernels(which: str, sp_list, pairs, basis: LieBasis,
               scheme: FDScheme | None = None) -> np.ndarray:
    """The operator `which` ("second", "U" or "W") on K_s(., U) at g, for every pair and s.

    Entry [j, i] equals hua_second (or hua_third_U, hua_third_W) of
    lift_kernel(sp_list[i], U_j) at g_j bit for bit. The stencil of each step is
    built once; each (g, U) pair pushes its points and takes the exponent of
    the kernel once, shared by every s.
    """
    sd = basis.sd
    terms, scheme = _operator(basis, which, scheme)
    pairs = [(np.asarray(g, dtype=np.complex128), U) for g, U in pairs]

    def blocks(stencil):
        for g, U in pairs:
            expo = _kernel_exponent(stencil.points(g), U, sd)
            for sp in sp_list:
                yield np.exp(sp.sigma * expo)

    vals = _stencil_sums(sd, terms, scheme, blocks)
    return np.array(vals).reshape((len(pairs), len(sp_list)) + np.shape(vals[0]))


def eigen_residuals(sp_list, pairs, basis: LieBasis, scheme: FDScheme | None = None) -> list:
    """Relative residuals of H K_s = (1/4)(s^2 - (r+b)^2) K_s I_r, one row per s.

    Entry [i][j] is taken at the pair (g_j, U_j), relative to
    max(|eigenvalue|, 1) |K_s(g_j . 0, U_j)|; one on_kernels call gives H.
    """
    H = on_kernels("second", sp_list, pairs, basis, scheme)
    out = []
    for i, sp in enumerate(sp_list):
        row = []
        for j, (g, U) in enumerate(pairs):
            Fg = complex(lift_kernel(sp, U)(np.asarray(g)[None])[0])
            target = sp.hua_eigenvalue * Fg * np.eye(sp.sd.r)
            scale = max(abs(sp.hua_eigenvalue) * abs(Fg), abs(Fg))
            row.append(float(np.max(np.abs(H[j, i] - target)) / scale))
        out.append(row)
    return out


def eigen_residual(sp: SpectralParam, g: np.ndarray, U: np.ndarray, basis: LieBasis,
                   scheme: FDScheme | None = None) -> float:
    """Relative residual of H K_s = (1/4)(s^2 - (r+b)^2) K_s I_r at g."""
    return eigen_residuals([sp], [(g, U)], basis, scheme)[0][0]


def _shilov_point(sd: StructureData, seed: int) -> np.ndarray:
    """A seeded Shilov point U: a complex Gaussian q x r draw made unitary, conjugate-transposed."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(sd.q, sd.r)) + 1j * rng.normal(size=(sd.q, sd.r))
    Q, _ = linalg.qr_unitary(v)
    return Q[:, : sd.r].conj().T


def measure_fd_order(sp: SpectralParam, basis: LieBasis, seed: int = 23) -> float:
    """Observed convergence order: log2 of the residual drop from step 4e-2 to 2e-2.

    Richardson is disabled so the raw truncation order of the stencil is what
    is measured; with it enabled the residual sits on the roundoff floor.
    """
    sd = sp.sd
    g = group.random_group_element(seed, 0.3, sd)
    U = _shilov_point(sd, seed + 1)
    res = [eigen_residual(sp, g, U, basis, FDScheme(step=h, richardson=False))
           for h in (4e-2, 2e-2)]
    return math.log2(res[0] / res[1])


@dataclass
class ThirdOrderReport:
    s_values: list
    ratios: list
    cvs: list
    law_errs: list


def _sample_pairs(sd: StructureData, samples: int, seed: int):
    """`samples` seeded (g, U) pairs: g a group element, U a point of the Stiefel boundary."""
    if samples < 1:
        raise DomainError("need at least one sample point (got %d)" % samples)
    gs = group.random_group_element([seed + 7 * i for i in range(samples)], 0.25, sd)
    return [(g, _shilov_point(sd, seed + 7 * i + 3)) for i, g in enumerate(gs)]


def ratio_law(s, sd: StructureData) -> complex:
    """(s^2 - nu^2) / (s^2 - nu^2 - 4(n + 1)) with nu = n/r: U/W on kernels at s."""
    x = complex(s) ** 2 - sd.harmonic_s ** 2
    return x / (x - 4.0 * (sd.n + 1))


def third_order_ratio(sp_list, samples: int = 10, seed: int = 77) -> ThirdOrderReport:
    """Entrywise U/W ratios on kernels per s, their spread, and their error against ratio_law.

    For each spectral parameter the ratio of the two third-order operators on
    Poisson kernels is taken at every sample point and p+ entry: cvs holds
    its coefficient of variation, and law_errs the relative error of its mean
    against ratio_law. Avoid the law's zero s = n/r and its pole
    s^2 = (n/r)^2 + 4(n + 1) in sp_list, where the relative error is
    undefined or ill-conditioned.

    U and W are one on_kernels call each: each builds one stencil per
    step, and the stencil points and kernel exponents of each sample are
    shared by every s.
    """
    if not sp_list:
        raise DomainError("need at least one spectral parameter")
    sd = sp_list[0].sd
    basis = hua_basis(sd)
    pairs = _sample_pairs(sd, samples, seed)
    r = sd.r
    Us = on_kernels("U", sp_list, pairs, basis)[..., :r, r:]
    Ws = on_kernels("W", sp_list, pairs, basis)[..., :r, r:]
    ratios, cvs, law_errs = [], [], []
    for i, sp in enumerate(sp_list):
        entry_ratios = []
        for Umat, Wmat in zip(Us[:, i], Ws[:, i]):
            floor = 0.1 * np.max(np.abs(Wmat))
            mask = np.abs(Wmat) > floor
            entry_ratios.extend((Umat[mask] / Wmat[mask]).ravel().tolist())
        entry_ratios = np.asarray(entry_ratios)
        mean = complex(np.mean(entry_ratios))
        cvs.append(float(np.std(entry_ratios) / max(abs(mean), 1e-300)))
        ratios.append(mean)
        law = ratio_law(sp.s, sd)
        law_errs.append(abs(mean - law) / abs(law))
    return ThirdOrderReport(s_values=[sp.s for sp in sp_list], ratios=ratios, cvs=cvs,
                            law_errs=law_errs)
