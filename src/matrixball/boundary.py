"""Measures and quadrature on the Shilov boundary S = {U : U U^H = I_r}.

Three rule families:

* ``sphere_rule``   - deterministic product rule on S^(2b+1) (rank one), a
  stick-breaking simplex times uniform phases. Exact for polynomials in
  (U, conj U) up to degree 2*level; an optional composite-panel refinement of
  the |U_1|^2 coordinate resolves the boundary layer of deep radial weights.
* ``stiefel_rule``  - seeded Haar Monte Carlo: the first r columns of the
  unitary factor of a complex q x q Gaussian matrix (phase-fixed QR). Only
  those r columns are drawn into the matrix that is factored; the stream is
  the same q x q draw, and Gram-Schmidt QR is column-sequential, so the nodes
  equal those of a full q x q QR bit for bit.
* ``heisenberg_chart`` - rank-one rule on the opposite horospherical group
  N1bar: a fixed tan-mapped Gauss-Legendre grid in the two M-invariant
  coordinates (|x|, |y|) of nbar = exp(x, y), with weights calibrated so the
  pushforward normalization integral equals one.

A rank-one helper ``disk_rule`` integrates functions of the single matrix
entry U_1 against the pushforward measure (b/pi)(1-|u|^2)^(b-1) dA on the
unit disk; it is the cheap marginal used by radial profiles.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, group, linalg
from .errors import DomainError
from .structure import StructureData

__all__ = [
    "QuadratureRule",
    "sphere_rule",
    "disk_rule",
    "stiefel_rule",
    "heisenberg_chart",
]


@dataclass
class QuadratureRule:
    """Weighted node set with its kind.

    nodes: (N, r, q) Shilov points for boundary rules, (N, m, m) group
    elements for the Heisenberg chart, or (N,) complex disk points for the
    rank-one marginal rule. Weights of boundary rules sum to one. aux holds
    what a rule's consumers read: the disk rule's b and the chart's heights h1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    aux: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.weights)


def _gauss_legendre01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_points(n_gl: int, panels: int):
    """Nodes/weights on [0, 1], geometrically refined toward 1 when panels > 1."""
    x, w = _gauss_legendre01(n_gl)
    if panels <= 1:
        return x, w
    edges = [0.0] + [1.0 - 2.0 ** (-k) for k in range(1, panels)] + [1.0]
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(a + (b - a) * x)
        ws.append((b - a) * w)
    return np.concatenate(xs), np.concatenate(ws)


def _require_level(level: int):
    if level < 0:
        raise DomainError("a quadrature level must be non-negative, got %r" % (level,))


def sphere_rule(sd: StructureData, level: int, panels: int = 1) -> QuadratureRule:
    """Deterministic product rule on the unit sphere of C^(1+b) (rank one).

    Exact for polynomials in (U, conj U) of total degree <= 2*level. With
    panels > 1 the radial coordinate |U_1|^2 is integrated on geometric
    subintervals accumulating at 1, which resolves integrands that develop a
    boundary layer at U_1 = -1 (deep radial Poisson weights). A negative
    level raises DomainError.
    """
    if sd.r != 1:
        raise DomainError("sphere_rule is rank-one only; use stiefel_rule for r >= 2")
    _require_level(level)
    b = sd.b
    n_gl = level + b + 1
    n_ph = 2 * level + 1

    # stick-breaking simplex coordinates for (|U_1|^2, ..., |U_{b+1}|^2)
    x1, w1 = _panel_points(n_gl, panels)
    axes_x = [x1] + [_gauss_legendre01(n_gl)[0] for _ in range(b - 1)]
    axes_w = [w1] + [_gauss_legendre01(n_gl)[1] for _ in range(b - 1)]
    grids = np.meshgrid(*axes_x, indexing="ij") if b > 1 else [axes_x[0]]
    wgrids = np.meshgrid(*axes_w, indexing="ij") if b > 1 else [axes_w[0]]
    xi = np.stack([g.ravel() for g in grids], axis=0)  # (b, Nx)
    wx = np.ones_like(xi[0])
    dens = np.ones_like(xi[0])
    for i in range(b):
        wx = wx * wgrids[i].ravel()
        dens = dens * (1.0 - xi[i]) ** (b - i - 1)
    wx = wx * dens * math.factorial(b)

    c = np.empty((b + 1, xi.shape[1]))
    rem = np.ones_like(xi[0])
    for i in range(b):
        c[i] = rem * xi[i]
        rem = rem * (1.0 - xi[i])
    c[b] = rem

    th = 2.0 * np.pi * np.arange(n_ph) / n_ph
    phase = np.exp(1j * th)

    # assemble nodes: radii sqrt(c_j) times independent phases per coordinate
    radii = np.sqrt(c)  # (b+1, Nx)
    ph_grids = np.meshgrid(*([phase] * (b + 1)), indexing="ij")
    ph = np.stack([g.ravel() for g in ph_grids], axis=0)  # (b+1, Nph)
    Nx, Nph = radii.shape[1], ph.shape[1]
    nodes = (radii[:, :, None] * ph[:, None, :]).reshape(b + 1, Nx * Nph)
    nodes = np.ascontiguousarray(nodes.T)[:, None, :]  # (N, 1, 1+b)
    weights = np.repeat(wx, Nph) / float(Nph)

    return QuadratureRule(nodes=nodes.astype(np.complex128), weights=weights,
                          kind="deterministic-sphere")


def disk_rule(sd: StructureData, level: int, panels: int = 1, phases: int | None = None) -> QuadratureRule:
    """Rank-one marginal rule: the law of U_1 on the closed unit disk.

    Integrates h(U_1) against (b/pi)(1-|u|^2)^(b-1) dA exactly for polynomial
    h in (u, conj u) up to degree 2*level; composite radial panels as in
    sphere_rule. Nodes are complex scalars. Weights with a near-boundary
    cusp alias the uniform phase grid with error ~ phases^(-s), so deep
    radial profiles want phases well above the default 2*level + 1. A
    negative level or fewer than one phase raises DomainError.
    """
    if sd.r != 1:
        raise DomainError("disk_rule is rank-one only")
    _require_level(level)
    b = sd.b
    n_gl = level + b + 1
    n_ph = int(phases) if phases is not None else 2 * level + 1
    if n_ph < 1:
        raise DomainError("disk_rule needs at least one phase, got %r" % (phases,))
    x, wx = _panel_points(n_gl, panels)  # x = |u|^2
    dens = b * (1.0 - x) ** (b - 1)
    th = 2.0 * np.pi * np.arange(n_ph) / n_ph
    u = np.sqrt(x)[:, None] * np.exp(1j * th)[None, :]
    w = (wx * dens)[:, None] * np.full(n_ph, 1.0 / n_ph)[None, :]
    return QuadratureRule(
        nodes=u.ravel().astype(np.complex128),
        weights=w.ravel(),
        kind="deterministic-disk",
        aux={"b": b},
    )


def stiefel_rule(sd: StructureData, samples: int, seed: int) -> QuadratureRule:
    """Seeded Haar sample of Shilov points: first r rows of Haar unitaries.

    Each node is the conjugate transpose of the first r columns of the
    phase-fixed QR factor of a q x q complex Gaussian (all real parts drawn
    first, then all imaginary parts). Those columns depend only on the first r
    columns of the Gaussian, so only they are kept, stored column-major across
    the samples, and factored by one vectorised linalg.qr_unitary call over the
    whole stack. A sample count that is not a positive integer raises
    DomainError before any allocation.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise DomainError("stiefel samples must be a positive integer, got %r" % (samples,))
    rng = np.random.default_rng(seed)
    q, r = sd.q, sd.r
    draw = np.empty((samples, q, q))
    G = np.empty((r, q, samples), dtype=np.complex128)  # column-major, as qr_unitary works
    rng.standard_normal(out=draw)
    G.real = draw[:, :, :r].T
    rng.standard_normal(out=draw)
    G.imag = draw[:, :, :r].T
    del draw
    Q = linalg.qr_unitary(G.T)[0]
    del G
    U = np.ascontiguousarray(np.swapaxes(Q, -1, -2))
    np.conjugate(U, out=U)
    return QuadratureRule(nodes=U, weights=np.full(samples, 1.0 / samples),
                          kind="monte-carlo-stiefel")


CHART_NODES_PER_AXIS = 128


def heisenberg_chart(sd: StructureData) -> QuadratureRule:
    """Rule on the opposite unipotent group N1bar (rank one) in two coordinates.

    N1bar = {exp(x, y)}: x in R^(2b) spans the ad(X_0)-eigenspace of eigenvalue
    -1, y in R that of eigenvalue -2. The chart's integrands (c_s and the L^1
    majorant) are invariant under M, the centraliser of a_t in K, so they depend
    on nbar only through |x| and |y|; the rule integrates functions of (|x|, |y|)
    only. It is a fixed tensor Gauss-Legendre rule of CHART_NODES_PER_AXIS^2 =
    128^2 = 16,384 nodes in (rho = |x|, y >= 0) at every b, each axis mapped
    from [0, 1] by tan(pi u / 2), with weight rho^(2b-1) from the polar
    coordinates of x. The size is fixed: at 256 per axis the map puts the
    outermost nodes so far out that h1_batch returns NaN there, while 96 to
    192 stay finite; at 128, c_s agrees with the Gamma product to 3e-7 at
    b = 1, 2, 3 and s = 1.5, 2, 2.5, 3 + 0.5i. Nodes are the group
    elements exp(rho E_x + y E_y) = I + A + A^2/2 with E_y the grade -2 and E_x
    the first grade -1 element of nbar_basis. Weights are scaled so the
    pushforward normalization sum(w * exp(-2 n h1)) equals one.
    """
    if sd.r != 1:
        raise DomainError("heisenberg_chart is rank-one only")
    E = group.nbar_basis(sd)  # E[0]: grade -2, E[1:]: grade -1
    u, wu = _gauss_legendre01(CHART_NODES_PER_AXIS)
    v = np.tan(0.5 * np.pi * u)
    dv = wu * 0.5 * np.pi / np.cos(0.5 * np.pi * u) ** 2
    rho, y = (g.ravel() for g in np.meshgrid(v, v, indexing="ij"))
    w = np.outer(dv * v ** (2 * sd.b - 1), dv).ravel()
    A = rho[:, None, None] * E[1] + y[:, None, None] * E[0]  # step-2 nilpotent
    nodes = np.eye(sd.m) + A + 0.5 * (A @ A)
    h1v = _kernels.h1_batch(nodes, sd.r)
    w /= np.dot(w, np.exp(-2.0 * sd.n * h1v))
    return QuadratureRule(nodes=nodes, weights=w, kind="heisenberg-chart", aux={"h1": h1v})
