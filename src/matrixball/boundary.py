"""Measures and quadrature on the Shilov boundary S = {U : U U^H = I_r}.

Three rule families:

* ``sphere_rule``   - deterministic product rule on S^(2b+1) (rank one), a
  stick-breaking simplex times uniform phases. Exact for polynomials in
  (U, conj U) up to degree 2*level; an optional composite-panel refinement of
  the |U_1|^2 coordinate resolves the boundary layer of deep radial weights.
* ``stiefel_rule``  - seeded Haar Monte Carlo: the first r columns of the
  unitary factor of a complex q x q Gaussian matrix (phase-fixed QR). Only
  those r columns are drawn into the matrix that is factored; the stream is
  the same q x q draw, so the nodes equal those of a full q x q QR.
* ``heisenberg_chart`` - rank-one chart of the opposite horospherical group
  N1bar in exponential coordinates, with Lebesgue weights calibrated so the
  pushforward normalization integral equals one.

A rank-one helper ``disk_rule`` integrates functions of the single matrix
entry U_1 against the pushforward measure (b/pi)(1-|u|^2)^(b-1) dA on the
unit disk; it is the cheap marginal used by radial profiles.
"""

import functools
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
    "integrate",
]


@dataclass
class QuadratureRule:
    """Weighted node set with provenance.

    nodes: (N, r, q) Shilov points for boundary rules, (N, m, m) group
    elements for the Heisenberg chart, or (N,) complex disk points for the
    rank-one marginal rule. Weights of boundary rules sum to one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    seed: int | None = None
    estimated_accuracy: float = 0.0
    aux: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.weights)


def integrate(rule: QuadratureRule, f) -> complex:
    """Apply the rule to a vectorized function or a precomputed value array."""
    vals = f if isinstance(f, np.ndarray) else f(rule.nodes)
    return complex(np.dot(rule.weights, vals))


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


def sphere_rule(sd: StructureData, level: int, panels: int = 1) -> QuadratureRule:
    """Deterministic product rule on the unit sphere of C^(1+b) (rank one).

    Exact for polynomials in (U, conj U) of total degree <= 2*level. With
    panels > 1 the radial coordinate |U_1|^2 is integrated on geometric
    subintervals accumulating at 1, which resolves integrands that develop a
    boundary layer at U_1 = -1 (deep radial Poisson weights).
    """
    if sd.r != 1:
        raise DomainError("sphere_rule is rank-one only; use stiefel_rule for r >= 2")
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

    rule = QuadratureRule(
        nodes=nodes.astype(np.complex128),
        weights=weights,
        kind="deterministic-sphere",
        seed=None,
        aux={"level": level, "panels": panels},
    )
    # first aliased phase mode: the rule sees Re(U_1^(2*level+2)) as nonzero
    probe = np.real(nodes[:, 0, 0] ** (2 * level + 2))
    rule.estimated_accuracy = abs(float(np.dot(weights, probe)))
    return rule


def disk_rule(sd: StructureData, level: int, panels: int = 1, phases: int | None = None) -> QuadratureRule:
    """Rank-one marginal rule: the law of U_1 on the closed unit disk.

    Integrates h(U_1) against (b/pi)(1-|u|^2)^(b-1) dA exactly for polynomial
    h in (u, conj u) up to degree 2*level; composite radial panels as in
    sphere_rule. Nodes are complex scalars. Weights with a near-boundary
    cusp alias the uniform phase grid with error ~ phases^(-s), so deep
    radial profiles want phases well above the default 2*level + 1.
    """
    if sd.r != 1:
        raise DomainError("disk_rule is rank-one only")
    b = sd.b
    n_gl = level + b + 1
    n_ph = int(phases) if phases is not None else 2 * level + 1
    x, wx = _panel_points(n_gl, panels)  # x = |u|^2
    dens = b * (1.0 - x) ** (b - 1)
    th = 2.0 * np.pi * np.arange(n_ph) / n_ph
    u = np.sqrt(x)[:, None] * np.exp(1j * th)[None, :]
    w = (wx * dens)[:, None] * np.full(n_ph, 1.0 / n_ph)[None, :]
    return QuadratureRule(
        nodes=u.ravel().astype(np.complex128),
        weights=w.ravel(),
        kind="deterministic-disk",
        seed=None,
        aux={"b": b, "level": level, "panels": panels, "phases": n_ph},
    )


def stiefel_rule(sd: StructureData, samples: int, seed: int) -> QuadratureRule:
    """Seeded Haar sample of Shilov points: first r rows of Haar unitaries.

    Each node is the conjugate transpose of the first r columns of the
    phase-fixed QR factor of a q x q complex Gaussian (all real parts drawn
    first, then all imaginary parts). Those columns depend only on the first r
    columns of the Gaussian, so only they are kept and factored. A sample count
    that is not a positive integer raises DomainError before any allocation.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise DomainError("stiefel samples must be a positive integer, got %r" % (samples,))
    rng = np.random.default_rng(seed)
    q, r = sd.q, sd.r
    draw = np.empty((samples, q, q))
    G = np.empty((samples, q, r), dtype=np.complex128)
    rng.standard_normal(out=draw)
    G.real = draw[:, :, :r]
    rng.standard_normal(out=draw)
    G.imag = draw[:, :, :r]
    del draw
    Q = linalg.qr_unitary(G)[0]
    del G
    U = np.ascontiguousarray(np.swapaxes(Q, -1, -2))
    np.conjugate(U, out=U)
    weights = np.full(samples, 1.0 / samples)
    rule = QuadratureRule(
        nodes=U,
        weights=weights,
        kind="monte-carlo-stiefel",
        seed=seed,
        aux={"samples": samples},
    )
    probe = np.abs(U[:, 0, 0]) ** 2
    rule.estimated_accuracy = float(np.std(probe) / np.sqrt(samples))
    return rule


def _chart_axes(grid: int, radius: float, panels: int):
    """Symmetric composite GL nodes on [-radius, radius], refined toward 0."""
    x, w = _gauss_legendre01(grid)
    edges = [0.0] + [radius * 2.0 ** (-k) for k in range(panels - 1, 0, -1)] + [radius]
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(a + (b - a) * x)
        ws.append((b - a) * w)
    xp = np.concatenate(xs)
    wp = np.concatenate(ws)
    return np.concatenate([-xp[::-1], xp]), np.concatenate([wp[::-1], wp])


# The largest chart the acceptance battery builds has 512,000 nodes (criterion 6:
# 80^3 at b = 1 and grid 4; criterion 8's grid-2 chart has 40^3 = 64,000), and
# its build peaks at about 0.18 GB of numpy allocations. Memory grows linearly
# in the node count and with m^2, so a chart past this cap is refused.
CHART_MAX_NODES = 2_000_000


def heisenberg_chart(sd: StructureData, grid: int, radius: float | None = None) -> QuadratureRule:
    """Exponential-coordinate rule on the opposite unipotent group (rank one).

    Nodes are group elements nbar = exp(sum y_i E_i) over a composite grid in
    the 2b+1 real coordinates; E_i span the ad(X_0)-eigenspaces with
    eigenvalues -1 (dimension 2b) and -2 (dimension 1). Weights carry the
    Lebesgue measure of the coordinates, scaled so the pushforward
    normalization sum(w * exp(-2 n h1)) equals one. When radius is None it is
    doubled adaptively until the outermost shell contributes < 1e-4; the axes
    at 2R are those at R plus one outer panel per side, so each doubling keeps
    the previous grid as its centre block and evaluates only the new shell. A
    grid of more than CHART_MAX_NODES nodes raises DomainError before it is
    allocated, as do a grid below 1 and a radius that is not finite and positive.
    """
    if sd.r != 1:
        raise DomainError("heisenberg_chart is rank-one only")
    if not isinstance(grid, (int, np.integer)) or grid < 1:
        raise DomainError("chart grid must be a positive integer, got %r" % (grid,))
    if radius is not None and not (math.isfinite(radius) and radius > 0.0):
        raise DomainError("chart radius must be finite and positive, got %r" % (radius,))
    E = group.nbar_basis(sd)  # (dim, m, m)
    dim = 2 * sd.b + 1
    if len(E) != dim:
        raise DomainError("unexpected chart dimension %d" % len(E))

    def build(R: float, prev=None):
        """Chart at radius R; prev, the (nodes, h1) grid at R/2, fills the centre block."""
        panels = max(4, int(round(math.log2(R))) + 3)
        ax, aw = _chart_axes(grid, R, panels)
        n = len(ax)
        if n ** dim > CHART_MAX_NODES:
            raise DomainError(
                "heisenberg chart of %d^%d = %.3g nodes exceeds the cap of %d (b = %d, grid = %d, "
                "radius %g)" % (n, dim, n ** dim, CHART_MAX_NODES, sd.b, grid, R))
        shell = np.ones((n,) * dim, dtype=bool)
        if prev is not None:
            shell[(slice(grid, n - grid),) * dim] = False
        y = np.stack([ax[i] for i in np.nonzero(shell)], axis=-1)  # (N_shell, dim)
        A = np.tensordot(y, E, axes=(1, 0))  # (N_shell, m, m), step-2 nilpotent
        nodes = np.eye(sd.m) + A + 0.5 * (A @ A)
        h1v = _kernels.h1_batch(nodes, sd.r)
        if prev is not None:
            shell = shell.ravel()
            grown_nodes = np.empty((n ** dim, sd.m, sd.m), dtype=np.complex128)
            grown_nodes[~shell], grown_nodes[shell] = prev[0], nodes
            grown_h1 = np.empty(n ** dim)
            grown_h1[~shell], grown_h1[shell] = prev[1], h1v
            nodes, h1v = grown_nodes, grown_h1
        w = np.ones(n ** dim)
        for g in np.meshgrid(*([aw] * dim), indexing="ij"):
            w = w * g.ravel()
        dens = np.exp(-2.0 * sd.n * h1v)
        mass = float(np.dot(w, dens))
        # truncation estimate: extrapolate the dyadic shell decay past R
        yinf = functools.reduce(np.maximum, np.ix_(*([np.abs(ax)] * dim))).ravel()
        out = yinf > R / 2.0
        mid = (yinf > R / 4.0) & ~out
        s_out = float(np.dot(w[out], dens[out]))
        s_in = float(np.dot(w[mid], dens[mid]))
        rho = min(s_out / s_in, 0.75) if s_in > 0 else 0.5
        tail = s_out * rho / (1.0 - rho)
        return nodes, w, h1v, mass, tail

    if radius is None:
        R = 16.0
        nodes, w, h1v, mass, tail = build(R)
        for _ in range(5):
            if tail < 1e-4 * mass:
                break
            R *= 2.0
            nodes, w, h1v, mass, tail = build(R, (nodes, h1v))
    else:
        R = float(radius)
        nodes, w, h1v, mass, tail = build(R)

    w = w / mass  # calibration: sum w exp(-2 n h1) = 1
    return QuadratureRule(
        nodes=nodes,
        weights=w,
        kind="heisenberg-chart",
        seed=None,
        estimated_accuracy=tail / mass,
        aux={"h1": h1v, "radius": R, "grid": grid},
    )
