"""The benchmark's workloads: closed loops of calls into matrixball's public API.

A workload is built from its seed into a list of operations that one caller
runs one after another. An operation is one suite criterion call, one
`fatou.norm_sandwich` call for one s, or criterion 7's rank-two recovery
called directly. Each returns an Outcome: whether it passed, and its `worst`
value against `tol` (the inputs of the worst/tol accuracy ratio).

Sizes are chosen so one pass of a workload takes about 5-20 s on a 2-core
host, a 20 s benchmark run holds at least one whole pass, and the peak
memory of a worker stays under 1 GB. `SMOKE` holds the same workloads at
test sizes.

Why each workload exists:
  sandwich   - criterion 9's computation: boundary-function evaluation at
               N_centers x N_nodes pushed points dominates, and the pushed
               points and lifted values are shared across s and p.
  recovery   - criteria 7 and 11 plus criterion 7's rank-two Monte Carlo
               recovery: the fatou tail fits, the inversion interpolant and
               the rank-two pushforward, which the other workloads bypass.
  hua-fd     - criteria 4 and 5: finite-difference stencils (hua + expm);
               bypasses the boundary, evaluation and pushforward layers.
  quadrature - criteria 2, 3, 6 and 8: quadrature construction (repeated
               Heisenberg charts, 10^6-sample Stiefel rule) and _kernels
               batches over all six domains; bypasses evaluation and hua.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Outcome:
    passed: bool
    worst: float
    tol: float


@dataclass(frozen=True)
class Workload:
    modules: tuple  # matrixball modules whose import is the set-up
    build: object  # build(seed, sizes) -> list of (op name, zero-arg callable -> Outcome)
    sizes: dict


def _criterion(index: int, seed: int, profile: str):
    def op():
        from matrixball import suite

        res = suite.CRITERIA[index](seed=seed, profile=profile)
        return Outcome(bool(res.passed), float(res.worst), float(res.tol))

    return ("crit%d" % index, op)


def _criteria(seed: int, sizes: dict):
    return [_criterion(i, seed, profile) for i, profile in sizes["criteria"]]


def _sandwich(seed: int, sizes: dict):
    """fatou.norm_sandwich for each s, as criterion 9 calls it, on seeded functions."""
    from matrixball import boundary, fatou, ktypes
    from matrixball.structure import spectral_param, structure_data

    sd = structure_data(1, 1)
    rule = boundary.sphere_rule(sd, level=sizes["level"])
    t_grid = np.linspace(0.0, 5.0, 6)
    p_list = (1.5, 2.0, 4.0)
    fs = [ktypes.random_band_limited(sd, seed=seed + 500 + 7 * j, max_p=2, max_q=2,
                                     translates=1) for j in range(sizes["functions"])]

    def make(s):
        def op():
            reps = fatou.norm_sandwich(spectral_param(s, sd), p_list, fs, t_grid, rule)
            slack_used = max(
                float(max(np.max(np.asarray(r.f_norms) * r.cs_abs / np.asarray(r.hardy_norms)),
                          np.max(np.asarray(r.hardy_norms) / (r.gamma * np.asarray(r.f_norms))))
                      - 1.0)
                for r in reps)
            return Outcome(all(r.all_ok for r in reps), slack_used, reps[0].slack)

        return ("sandwich-s%g" % s, op)

    return [make(s) for s in (2.0, 2.5)]


def _rank_two_recovery(seed: int, samples: int):
    """Criterion 7's rank-two Fatou recovery (full profile) at `samples` MC nodes."""

    def op():
        from matrixball import boundary, fatou
        from matrixball.structure import spectral_param, structure_data

        sd2 = structure_data(2, 1)
        sp2 = spectral_param(4.0, sd2)
        rule2 = boundary.stiefel_rule(sd2, samples=samples, seed=seed + 91)
        rng = np.random.default_rng(seed + 92)
        C = rng.normal(size=(sd2.q, sd2.r)) + 1j * rng.normal(size=(sd2.q, sd2.r))
        C /= np.linalg.norm(C)

        def f2(U):
            tr = np.einsum("...ij,ji->...", np.asarray(U, dtype=complex), C)
            return 1.0 + tr + 0.25 * np.conj(tr)

        t2 = np.arange(0.0, 4.01, 0.5)
        prof2 = fatou.radial_profile(sp2, f2, rule2.nodes[:160], t2, rule2)
        rep2 = fatou.boundary_limit(sp2, prof2, reference=f2, p=2.0, rule=rule2)
        return Outcome(bool(np.all(rep2.converged)) and rep2.lp_err <= 5e-2,
                       float(rep2.lp_err), 5e-2)

    return ("rank2-recovery", op)


def _recovery(seed: int, sizes: dict):
    crit7, crit11 = (_criterion(i, seed, sizes["profile"]) for i in (7, 11))
    return [crit7, _rank_two_recovery(seed, sizes["rank2_samples"]), crit11]


_SUITE = ("suite",)

WORKLOADS = {
    "sandwich": Workload(("boundary", "fatou", "ktypes", "structure"), _sandwich,
                         {"level": 5, "functions": 1}),
    "recovery": Workload(_SUITE, _recovery, {"profile": "quick", "rank2_samples": 10000}),
    "hua-fd": Workload(_SUITE, _criteria, {"criteria": ((4, "full"), (5, "quick"))}),
    "quadrature": Workload(_SUITE, _criteria,
                           {"criteria": ((2, "full"), (3, "full"), (6, "full"), (8, "full"))}),
}

SMOKE = {
    "sandwich": {"level": 3, "functions": 1},
    "recovery": {"profile": "quick", "rank2_samples": 2000},
    "hua-fd": {"criteria": ((4, "quick"), (5, "quick"))},
    "quadrature": {"criteria": ((2, "quick"), (3, "quick"), (6, "quick"), (8, "quick"))},
}
