"""Measures and quadrature on the Shilov boundary S = {U : U U^H = I_r}.

Three rule families:

* ``sphere_rule``   - deterministic product rule on S^(2b+1) (rank one), a
  stick-breaking simplex times uniform phases. Exact for polynomials in
  (U, conj U) up to degree 2*level; an optional composite-panel refinement of
  the |U_1|^2 coordinate resolves the boundary layer of deep radial weights.
* ``stiefel_rule``  - seeded Haar Monte Carlo via the unitary factor of a
  complex Gaussian matrix (phase-fixed QR), first r rows.
* ``heisenberg_chart`` - rank-one chart of the opposite horospherical group
  N1bar in exponential coordinates, with Lebesgue weights calibrated so the
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
        aux={"level": level, "panels": panels, "phases": n_ph},
    )


def stiefel_rule(sd: StructureData, samples: int, seed: int) -> QuadratureRule:
    """Seeded Haar sample of Shilov points: first r rows of Haar unitaries."""
    rng = np.random.default_rng(seed)
    q = sd.q
    G = rng.normal(size=(samples, q, q)) + 1j * rng.normal(size=(samples, q, q))
    Q, _ = linalg.qr_unitary(G)
    U = np.swapaxes(Q[:, :, : sd.r], -1, -2).conj()
    weights = np.full(samples, 1.0 / samples)
    rule = QuadratureRule(
        nodes=np.ascontiguousarray(U),
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


# The largest chart the acceptance battery builds has 512,000 nodes (criteria 6
# and 8: 80^3 at b = 1), with a peak of about 0.4 GB. Memory grows linearly in
# the node count and with m^2, so a chart past this cap is refused.
CHART_MAX_NODES = 2_000_000


def heisenberg_chart(sd: StructureData, grid: int, radius: float | None = None) -> QuadratureRule:
    """Exponential-coordinate rule on the opposite unipotent group (rank one).

    Nodes are group elements nbar = exp(sum y_i E_i) over a composite grid in
    the 2b+1 real coordinates; E_i span the ad(X_0)-eigenspaces with
    eigenvalues -1 (dimension 2b) and -2 (dimension 1). Weights carry the
    Lebesgue measure of the coordinates, scaled so the pushforward
    normalization sum(w * exp(-2 n h1)) equals one. When radius is None it is
    doubled adaptively until the outermost shell contributes < 1e-4. A grid of
    more than CHART_MAX_NODES nodes raises DomainError before it is allocated.
    """
    if sd.r != 1:
        raise DomainError("heisenberg_chart is rank-one only")
    E = group.nbar_basis(sd)  # (dim, m, m)
    dim = 2 * sd.b + 1
    if len(E) != dim:
        raise DomainError("unexpected chart dimension %d" % len(E))

    def build(R: float):
        panels = max(4, int(round(math.log2(R))) + 3)
        ax, aw = _chart_axes(grid, R, panels)
        n_nodes = len(ax) ** dim
        if n_nodes > CHART_MAX_NODES:
            raise DomainError(
                "heisenberg chart of %d^%d = %.3g nodes exceeds the cap of %d (b = %d, grid = %d, "
                "radius %g)" % (len(ax), dim, n_nodes, CHART_MAX_NODES, sd.b, grid, R))
        grids = np.meshgrid(*([ax] * dim), indexing="ij")
        wgrids = np.meshgrid(*([aw] * dim), indexing="ij")
        y = np.stack([g.ravel() for g in grids], axis=-1)  # (N, dim)
        w = np.ones_like(y[:, 0])
        for g in wgrids:
            w = w * g.ravel()
        A = np.tensordot(y, E, axes=(1, 0))  # (N, m, m), step-2 nilpotent
        nodes = np.eye(sd.m) + A + 0.5 * (A @ A)
        h1v = _kernels.h1_batch(nodes, sd.r)
        dens = np.exp(-2.0 * sd.n * h1v)
        mass = float(np.dot(w, dens))
        # truncation estimate: extrapolate the dyadic shell decay past R
        yinf = np.abs(y).max(axis=1)
        s_out = float(np.dot(w[yinf > R / 2.0], dens[yinf > R / 2.0]))
        s_in = float(np.dot(w[(yinf > R / 4.0) & (yinf <= R / 2.0)], dens[(yinf > R / 4.0) & (yinf <= R / 2.0)]))
        rho = min(s_out / s_in, 0.75) if s_in > 0 else 0.5
        tail = s_out * rho / (1.0 - rho)
        return nodes, w, h1v, mass, tail

    if radius is None:
        R = 16.0
        for _ in range(6):
            nodes, w, h1v, mass, tail = build(R)
            if tail < 1e-4 * mass:
                break
            R *= 2.0
    else:
        R = float(radius)
        nodes, w, h1v, mass, tail = build(R)

    w = w / mass  # calibration: sum w exp(-2 n h1) = 1
    rule = QuadratureRule(
        nodes=nodes,
        weights=w,
        kind="heisenberg-chart",
        seed=None,
        estimated_accuracy=tail / mass,
        aux={"h1": h1v, "radius": R, "grid": grid},
    )
    # boundary images kappa(nbar).U0 = nbar.U0, cached for change-of-variables
    U0 = group.base_point(sd)
    Bblk = nodes[:, : sd.r, sd.r:]
    Dblk = nodes[:, sd.r:, sd.r:]
    CU = np.einsum("npj,jq->npq", nodes[:, sd.r:, : sd.r], U0) + Dblk
    AU = np.einsum("nij,jq->niq", nodes[:, : sd.r, : sd.r], U0) + Bblk
    img = np.swapaxes(np.linalg.solve(np.swapaxes(CU, -1, -2), np.swapaxes(AU, -1, -2)), -1, -2)
    rule.aux["boundary"] = np.ascontiguousarray(img)
    return rule
