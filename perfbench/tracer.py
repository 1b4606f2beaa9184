"""Span tracer that times matrixball's layers from outside the library.

The tracer replaces public functions of each matrixball module with wrappers
that record one span per call (layer, start, end, parent span, run id) and
bump the work counters of that layer. Spans stay in memory until the run
ends. A layer's self time is the summed duration of its spans minus the time
covered by their child spans, so time spent in a nested layer is charged
only to that layer.

The wrappers pass arguments and results through unchanged; criterion
`worst` values of a traced run must equal those of an untraced run bit for
bit. The span stack assumes one thread, which holds while
MATRIXBALL_WORKERS is left at its default of 1.
"""

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

# Layer name -> (module, wrapped public functions). Metric names must start
# with a letter, so the `_kernels` module is reported as the `kernels` layer.
LAYERS = {
    "structure": ("structure", ("structure_data", "spectral_param", "root_decomposition",
                                "restricted_roots")),
    "group": ("group", ("radial", "mobius", "kappa_factor", "kappa_right_factors",
                        "h1_scalar", "random_group_element")),
    "boundary": ("boundary", ("sphere_rule", "disk_rule", "stiefel_rule", "heisenberg_chart")),
    "poisson": ("poisson", ("transform_radial", "phi_s", "c_s", "kernel", "transform",
                            "hardy_profile", "gamma_estimate")),
    "ktypes": ("ktypes", ("zonal", "zonal_norm", "spherical_profile", "schur_diagonality")),
    "fatou": ("fatou", ("radial_profile", "boundary_limit", "invert_l2", "norm_sandwich",
                        "domination_check", "zonal_profile")),
    "hua": ("hua", ("hua_second", "hua_third_U", "hua_third_W", "eigen_residual",
                    "third_order_ratio", "hua_basis", "measure_fd_order", "lift_kernel")),
    "linalg": ("linalg", ("expm", "qr_unitary")),
    "kernels": ("_kernels", ("logdet_ipzz", "logabsdet_izuh", "logabsdet_izu0",
                             "radial_logweight", "mobius_batch", "h1_batch",
                             "cross_logabsdet", "jacobi_batch")),
}

# Every span layer, including the two that wrap callables rather than module
# functions: suite criteria and the boundary functions handed to
# poisson.transform_radial.
SPAN_LAYERS = ("suite",) + tuple(LAYERS) + ("evaluator",)

COUNTERS = (
    "group.calls",
    "boundary.rules", "boundary.rules_repeat", "boundary.nodes",
    "poisson.transform_calls", "poisson.pushed_points",
    "evaluator.points",
    "ktypes.zonal_points",
    "fatou.tail_fits",
    "hua.kernel_points",
    "linalg.expm_calls", "linalg.expm_repeat",
    "kernels.calls", "kernels.elements",
)


def _batch(shape, trailing: int) -> int:
    """Number of stacked items in an array whose last `trailing` axes are one item."""
    return math.prod(shape[: len(shape) - trailing]) if len(shape) >= trailing else 1


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder with per-layer counters.

    clock: a zero-argument function returning seconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (layer, start, end, parent index or -1, run id)
        self.stack = []
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.run_id = -1
        self._rule_keys = set()
        self._expm_args = set()

    def wrap(self, layer: str, fn, before=None, after=None):
        """fn with a span per call; before(args, kwargs) may return new (args, kwargs)."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(args, kwargs, out)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.run_id)

        return traced

    # -- per-function work counters -----------------------------------------

    def _hooks(self, layer: str, name: str):
        c = self.counts
        if layer == "group":
            def before(args, kwargs):
                c["group.calls"] += 1
                return args, kwargs
            return before, None
        if layer == "kernels":
            def after(args, kwargs, out):
                c["kernels.calls"] += 1
                shape = np.shape(out)
                c["kernels.elements"] += _batch(shape, 2) if name == "mobius_batch" else math.prod(shape)
                return out
            return None, after
        if layer == "boundary":
            def after(args, kwargs, rule):
                c["boundary.rules"] += 1
                c["boundary.nodes"] += len(rule)
                # rule constructors take StructureData and numbers, whose reprs are exact
                key = (name, repr(args), repr(sorted(kwargs.items())))
                if key in self._rule_keys:
                    c["boundary.rules_repeat"] += 1
                self._rule_keys.add(key)
                return rule
            return None, after
        if (layer, name) == ("poisson", "transform_radial"):
            def before(args, kwargs):
                args, kwargs = list(args), dict(kwargs)
                f = _arg(args, kwargs, 1, "f")
                centers = _arg(args, kwargs, 2, "centers")
                rule = _arg(args, kwargs, 4, "rule")
                n_centers = 1 if centers is None else _batch(np.shape(centers), 2)
                c["poisson.transform_calls"] += 1
                c["poisson.pushed_points"] += n_centers * len(rule)
                ev = self.evaluator(f)
                if len(args) > 1:
                    args[1] = ev
                else:
                    kwargs["f"] = ev
                return tuple(args), kwargs
            return before, None
        if (layer, name) == ("poisson", "transform"):
            def before(args, kwargs):
                c["poisson.transform_calls"] += 1
                return args, kwargs
            return before, None
        if (layer, name) == ("ktypes", "zonal"):
            def before(args, kwargs):
                c["ktypes.zonal_points"] += int(np.size(_arg(args, kwargs, 1, "u")))
                return args, kwargs
            return before, None
        if (layer, name) == ("fatou", "boundary_limit"):
            def before(args, kwargs):
                c["fatou.tail_fits"] += int(_arg(args, kwargs, 1, "profile").values.shape[0])
                return args, kwargs
            return before, None
        if (layer, name) == ("hua", "lift_kernel"):
            def count_points(args, kwargs):
                c["hua.kernel_points"] += _batch(np.shape(args[0]), 2)
                return args, kwargs

            def after(args, kwargs, F):
                return self.wrap("hua", F, before=count_points)
            return None, after
        if (layer, name) == ("linalg", "expm"):
            def before(args, kwargs):
                X = np.asarray(_arg(args, kwargs, 0, "X"), dtype=np.complex128)
                key = (X.shape, X.tobytes())
                c["linalg.expm_calls"] += 1
                if key in self._expm_args:
                    c["linalg.expm_repeat"] += 1
                self._expm_args.add(key)
                return args, kwargs
            return before, None
        return None, None

    def evaluator(self, f):
        """A boundary function as a plain callable with an `evaluator` span per call."""
        from matrixball import poisson

        c = self.counts

        def count_points(args, kwargs):
            c["evaluator.points"] += _batch(np.shape(args[0]), 2)
            return args, kwargs

        return self.wrap("evaluator", poisson._as_evaluator(f), before=count_points)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS plus the suite criteria, in place.

        Modules that bound a function with `from .x import f` hold their own
        reference; each such copy inside the matrixball package is replaced
        too, so calls through either name are traced.
        """
        import importlib

        from matrixball import suite

        replaced = {}
        for layer, (module, names) in LAYERS.items():
            mod = importlib.import_module("matrixball." + module)
            for name in names:
                orig = getattr(mod, name)
                before, after = self._hooks(layer, name)
                replaced[id(orig)] = (orig, self.wrap(layer, orig, before, after))
        for idx, fn in list(suite.CRITERIA.items()):
            wrapped = self.wrap("suite", fn)
            replaced[id(fn)] = (fn, wrapped)
            suite.CRITERIA[idx] = wrapped
        for modname, mod in list(sys.modules.items()):
            if modname != "matrixball" and not modname.startswith("matrixball."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- results -------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer self times, counters and the time outside every span."""
        selfs = self_times(self.spans)
        top = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        out = {"%s.self_s" % layer: selfs.get(layer, 0.0) for layer in SPAN_LAYERS}
        out.update(self.counts)
        out["trace.unspanned_s"] = wall_s - top
        out["trace.spans"] = len(self.spans)
        return out


def self_times(spans) -> dict:
    """Self time per layer: span durations minus the durations of their children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for i, (layer, start, end, _, _) in enumerate(spans):
        out[layer] += (end - start) - child[i]
    return dict(out)
