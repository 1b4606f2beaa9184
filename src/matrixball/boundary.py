"""Measures and quadrature on the Shilov boundary S = {U : U U^H = I_r}.

Three rule families:

* ``sphere_rule``   - deterministic product rule on S^(2b+1) (rank one), a
  stick-breaking simplex times uniform phases. Exact for polynomials in
  (U, conj U) up to degree 2*level; an optional composite-panel refinement of
  the |U_1|^2 coordinate resolves the boundary layer of deep radial weights.
* ``stiefel_rule``  - seeded randomized quasi-Monte Carlo Haar sample: a
  scrambled Sobol point in 2qr coordinates per node, mapped through the
  inverse normal CDF to a complex q x r Gaussian whose phase-fixed QR factor
  gives the first r columns of a Haar unitary; made in cache-sized blocks.
* ``heisenberg_chart`` - rank-one rule on the opposite horospherical group
  N1bar: a fixed tan-mapped Gauss-Legendre grid in the two M-invariant
  coordinates (|x|, |y|) of nbar = exp(x, y), with weights calibrated so the
  pushforward normalization integral equals one.

A rank-one helper ``disk_rule`` integrates functions of the single matrix
entry U_1 against the pushforward measure (b/pi)(1-|u|^2)^(b-1) dA on the
unit disk; it is the cheap marginal used by radial profiles. With panels > 1
both its axes are graded toward the kernel's cusp at U_1 = -1: |u|^2 toward 1
and the phase toward pi.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

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
    x, w = leggauss(n)
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


# largest node count of sphere_rule and stiefel_rule: 2^22 nodes of a b = 3 sphere rule
# and their weights hold 300 MB, before a transform pushes copies of them
MAX_NODES = 2 ** 22


def _require_budget(rule: str, nodes: int):
    if nodes > MAX_NODES:
        raise DomainError("%s would build %d nodes, over the budget of %d (MAX_NODES)"
                          % (rule, nodes, MAX_NODES))


def sphere_rule(sd: StructureData, level: int, panels: int = 1) -> QuadratureRule:
    """Deterministic product rule on the unit sphere of C^(1+b) (rank one).

    Exact for polynomials in (U, conj U) of total degree <= 2*level. With
    panels > 1 the radial coordinate |U_1|^2 is integrated on geometric
    subintervals accumulating at 1, which resolves integrands that develop a
    boundary layer at U_1 = -1 (deep radial Poisson weights). A negative
    level, or a rule of more than MAX_NODES nodes, raises DomainError before
    any allocation.
    """
    if sd.r != 1:
        raise DomainError("sphere_rule is rank-one only; use stiefel_rule for r >= 2")
    _require_level(level)
    b = sd.b
    n_gl = level + b + 1
    n_ph = 2 * level + 1
    _require_budget("sphere_rule", n_gl * max(panels, 1) * n_gl ** (b - 1) * n_ph ** (b + 1))

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

    return QuadratureRule(nodes=nodes, weights=weights, kind="deterministic-sphere")


# disk_rule's phase ladder when panels > 1: PHASE_POINTS Gauss-Legendre nodes on
# each panel of |theta - pi| between pi 2^-(k+1) and pi 2^-k, k < PHASE_HALVINGS,
# plus [0, pi 2^-PHASE_HALVINGS]. At t_max = 8, c_s's Fatou limit at s = 1.5 errs
# by 4.4e-10 here, 2.6e-9 at 12 halvings and 1.7e-7 at 8; 20 x 10 is no better.
PHASE_HALVINGS = 16
PHASE_POINTS = 8


def disk_rule(sd: StructureData, level: int, panels: int = 1) -> QuadratureRule:
    """Rank-one marginal rule: the law of U_1 on the closed unit disk.

    Integrates h(U_1) against (b/pi)(1-|u|^2)^(b-1) dA. With panels = 1 it has
    2*level + 1 uniform phases and is exact for polynomial h in (u, conj u) up
    to degree 2*level. With panels > 1 both axes resolve the boundary layer
    that deep radial weights form at U_1 = -1: |u|^2 on the composite panels
    of sphere_rule, and the phase theta on Gauss-Legendre panels graded toward
    theta = pi (PHASE_HALVINGS, PHASE_POINTS), mirrored about pi, each node
    weighted d theta / 2 pi. That rule is not exact for polynomials
    (e^(i k theta) integrates to ~1e-11 for |k| <= 4), but it resolves the
    cusp that a uniform grid aliases with error ~ phases^(-s). Nodes are
    complex scalars. A negative level raises DomainError.
    """
    if sd.r != 1:
        raise DomainError("disk_rule is rank-one only")
    _require_level(level)
    b = sd.b
    n_gl = level + b + 1
    x, wx = _panel_points(n_gl, panels)  # x = |u|^2
    dens = b * (1.0 - x) ** (b - 1)
    if panels > 1:  # theta = pi v on [0, pi] and pi (2 - v) on [pi, 2 pi], graded toward pi
        v, wv = _panel_points(PHASE_POINTS, PHASE_HALVINGS + 1)
        th, wth = np.pi * np.concatenate([v, 2.0 - v]), 0.5 * np.concatenate([wv, wv])
    else:
        th = 2.0 * np.pi * np.arange(2 * level + 1) / (2 * level + 1)
        wth = np.full(len(th), 1.0 / len(th))
    u = np.sqrt(x)[:, None] * np.exp(1j * th)[None, :]
    w = (wx * dens)[:, None] * wth[None, :]
    return QuadratureRule(
        nodes=u.ravel().astype(np.complex128),
        weights=w.ravel(),
        kind="deterministic-disk",
        aux={"b": b},
    )


# Joe & Kuo (2008) Sobol direction numbers for the first 24 dimensions, enough
# for 2qr <= 24 (the battery's largest domain, (3, 1), needs 24): each primitive
# polynomial as an integer whose bit k is the coefficient of x^k, then the
# initial m_1, ..., m_s. Dimension 1 is van der Corput's (every m_k = 1).
SOBOL_DIRECTIONS = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)),
)
SOBOL_BITS = 32


def _sobol_generator(dim: int, seed) -> tuple:
    """Direction numbers V (SOBOL_BITS, dim) and the digital shift of a Sobol sequence.

    V[k] holds m_k 2^(SOBOL_BITS - 1 - k), with m_k from the Joe-Kuo recurrence.
    With seed None the sequence is the plain one; otherwise the seed draws a
    linear matrix scramble (a unit lower-triangular binary matrix per coordinate,
    acting on the digits most significant first) and a digital shift. Both keep
    the first 2^m points one to each interval [k 2^-m, (k + 1) 2^-m) of every
    coordinate.
    """
    V = np.empty((dim, SOBOL_BITS), dtype=np.int64)
    for d, (poly, m) in enumerate(SOBOL_DIRECTIONS[:dim]):
        s = poly.bit_length() - 1
        m = list(m) if s else [1] * SOBOL_BITS
        for k in range(len(m), SOBOL_BITS):  # m_k = m_(k-s) ^ sum_j a_j 2^j m_(k-j)
            m.append(m[k - s])
            for j in range(1, s + 1):
                if poly >> (s - j) & 1:
                    m[k] ^= m[k - j] << j
        V[d] = np.array(m) << np.arange(SOBOL_BITS - 1, -1, -1)
    shift = np.zeros(dim, dtype=np.int64)
    if seed is not None:
        rng = np.random.default_rng(seed)
        L = np.tril(rng.integers(0, 2, size=(dim, SOBOL_BITS, SOBOL_BITS)), -1)
        L += np.eye(SOBOL_BITS, dtype=np.int64)
        place = np.arange(SOBOL_BITS - 1, -1, -1)
        digits = V[:, :, None] >> place & 1  # (dim, k, digit), most significant first
        V = (np.einsum("dij,dkj->dki", L, digits) & 1) @ (1 << place)
        shift = rng.integers(0, 1 << SOBOL_BITS, size=dim)
    return np.ascontiguousarray(V.T, dtype=np.uint32), shift.astype(np.uint32)


def _sobol_block(V, shift, lo: int, hi: int, out=None) -> np.ndarray:
    """Points lo, ..., hi - 1 of the Gray-code Sobol sequence, strictly inside (0, 1).

    Point i is the shift xor'ed with V[k] for every bit k of i's Gray code
    i ^ (i >> 1), so point i follows point i - 1 by one xor with V[k], k the
    number of trailing zeros of i. Each SOBOL_BITS-bit integer x maps to the
    centre (x + 1/2) 2^-SOBOL_BITS of its cell.
    """
    gray = lo ^ (lo >> 1)
    x = np.empty((hi - lo, V.shape[1]), dtype=V.dtype)
    x[0] = shift ^ np.bitwise_xor.reduce(V[[k for k in range(SOBOL_BITS) if gray >> k & 1]], axis=0)
    i = np.arange(lo + 1, hi)
    x[1:] = V[np.bitwise_count((i & -i) - 1)]
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    out = np.add(x, 0.5, out=out)
    out *= 2.0 ** -SOBOL_BITS
    return out


# Wichura's AS241 (PPND16): numerator and denominator, highest degree first, of the rational
# approximations in 0.180625 - (p - 1/2)^2, sqrt(-log p) - 1.6 and sqrt(-log p) - 5
_NDTRI_CENTRAL, _NDTRI_NEAR, _NDTRI_FAR = np.array([
    [[2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
      13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665],
     [5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
      5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0]],
    [[7.745450142783414e-4, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
      3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835],
     [1.0507500716444169e-9, 5.475938084995345e-4, 0.015198666563616457, 0.14810397642748008,
      0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0]],
    [[2.0103343992922881e-7, 2.7115555687434876e-5, 0.0012426609473880784, 0.026532189526576124,
      0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103],
     [2.0442631033899397e-15, 1.421511758316446e-7, 1.8463183175100548e-5, 7.868691311456133e-4,
      0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0]]])
NDTRI_CHUNK = 2 ** 15  # points per pass: each of ndtri's ~35 array passes stays in L2 cache


def _ratio(coeffs, x):
    """P(x) / Q(x) for coeffs = [P, Q], both by Horner's rule in one (2, len(x)) array."""
    y = np.repeat(coeffs[:, :1], len(x), axis=1)
    for c in coeffs[:, 1:].T:
        y *= x
        y += c[:, None]
    return y[0] / y[1]


def ndtri(p, out=None) -> np.ndarray:
    """Inverse of the standard normal CDF for p strictly inside (0, 1), into out (may be p).

    Wichura's AS241 (Appl. Statist. 37, 1988), good to about 1e-16 relative, NDTRI_CHUNK
    points at a time; the tail branch runs only where |p - 1/2| > 0.425.
    """
    with np.nditer([p, out], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["writeonly", "allocate"]], [np.float64, np.float64],
                   buffersize=NDTRI_CHUNK) as chunks:
        for p, z in chunks:
            q = p - 0.5
            tail = np.flatnonzero(np.abs(q) > 0.425)
            pt = p.take(tail)  # a copy, taken before z (perhaps p itself) is written
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
            np.multiply(q, _ratio(_NDTRI_CENTRAL, 0.180625 - q * q), out=z)
            zt = _ratio(_NDTRI_NEAR, r - 1.6)
            zt[r > 5.0] = _ratio(_NDTRI_FAR, r[r > 5.0] - 5.0)
            z[tail] = np.copysign(zt, q.take(tail))
        return chunks.operands[1]


def stiefel_rule(sd: StructureData, samples: int, seed: int) -> QuadratureRule:
    """Scrambled Sobol sample of Haar Shilov points: first r rows of Haar unitaries.

    Node i takes point i of a Sobol sequence in 2qr coordinates, scrambled by
    `seed` (_sobol_generator), and maps them through the inverse normal CDF to
    the real and imaginary parts of a complex q x r Gaussian, row by row. The
    node is the conjugate transpose of the phase-fixed QR factor of that
    Gaussian: the first r columns of a Haar unitary (Zyczkowski & Sommers
    2000). Points and Gaussians are made _kernels.BLOCK nodes at a time in
    the node array's own bytes, then factored one block at a time by
    linalg.qr_unitary, which works on each node alone, so the nodes do not
    depend on the block size. At 2^m nodes each coordinate puts one point in
    every interval of length 2^-m. A sample count that is not a positive
    integer or exceeds MAX_NODES, or a domain whose 2qr exceeds the embedded
    table of SOBOL_DIRECTIONS, raises DomainError before any allocation.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise DomainError("stiefel samples must be a positive integer, got %r" % (samples,))
    _require_budget("stiefel_rule", int(samples))
    q, r, block = sd.q, sd.r, _kernels.BLOCK
    if 2 * q * r > len(SOBOL_DIRECTIONS):
        raise DomainError("stiefel_rule needs 2qr = %d Sobol coordinates; the embedded Joe-Kuo "
                          "table has %d" % (2 * q * r, len(SOBOL_DIRECTIONS)))
    V, shift = _sobol_generator(2 * q * r, seed)
    U = np.empty((samples, r, q), dtype=np.complex128)
    G = U.reshape(samples, q, r)  # the Gaussian columns, until their block is factored
    X = U.reshape(samples, -1).view(np.float64)  # their real and imaginary parts, interleaved
    for lo in range(0, samples, block):
        x = _sobol_block(V, shift, lo, min(lo + block, samples), out=X[lo : lo + block])
        ndtri(x, out=x)
        Q = linalg.qr_unitary(G[lo : lo + block])[0]  # on its own copy, so Q may overwrite the block
        np.conjugate(np.swapaxes(Q, -1, -2), out=U[lo : lo + len(Q)])
    return QuadratureRule(nodes=U, weights=np.full(samples, 1.0 / samples), kind="sobol-stiefel")


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
    coordinates of x. The size is fixed at 128, where c_s agrees with the
    Gamma product to 3e-7 at b = 1, 2, 3 and s = 1.5, 2, 2.5, 3 + 0.5i; the
    heights (h1_batch) stay finite on the far-out nodes of 256 per axis too.
    Nodes are the group elements exp(rho E_x + y E_y) = I + A + A^2/2 with E_y
    the grade -2 and E_x the first grade -1 element of nbar_basis. Weights are
    scaled so the pushforward normalization sum(w * exp(-2 n h1)) equals one.
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
