"""Span tracing of the bosonic_bounds layers, installed from outside the library.

The layers are the package modules.  ``Tracer.install`` wraps the public
functions of each module and rebinds the wrapper at every place the original
is bound: the defining module, every module that imported it by name
(``experiments`` and ``cli`` do), and the package namespace.  Wrapping by
rebinding keeps ``fock.beam_splitter_block``'s ``lru_cache``: the wrapper
calls the cached function, so hits and misses are unchanged.

Spans stay in memory as ``[name, parent index, start, end]`` and are written
out only when the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.  Spans assume one thread, which
holds because every workload runs with ``--jobs 1``.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("symplectic", "gaussian", "fock", "bounds", "experiments", "cli")

# Scalar helpers called thousands of times inside every bisection; a span on
# each would cost more than the work it times, so their time is charged to
# the caller's self time.
UNWRAPPED = {"bounds.g", "bounds.g_prime"}

# Public callables not listed in a module's __all__.
EXTRA_FUNCTIONS = {"cli": ("main",)}
CLASSMETHODS = (("fock", "FockDensityOperator", "from_pure"),)

# The inequality evaluators whose self time forms bounds.checks.self_s.
BOUND_CHECKS = (
    "bounds.theorem_symmetric_bound",
    "bounds.theorem_split_bound",
    "bounds.split_bound_asymptotic",
    "bounds.gaussian_pure_bound",
    "bounds.mtn_floor_from_entanglement",
    "bounds.log_negativity_qcs_bound",
    "bounds.log_negativity_qcs_refined",
    "bounds.qcs_implication_report",
)

# Spans under which a covariance validation or spectrum belongs to one
# measured Gaussian state: its construction and its gaussian_measures call.
_STATE_SPANS = {
    "gaussian.random_gaussian_state",
    "gaussian.gaussian_from_dict",
    "gaussian.gaussian_measures",
}


def _written_bytes(args, result):
    return sum(os.path.getsize(path) for path in result)


# Values recorded from a wrapped call's arguments or result, for counts that
# spans alone do not give.
OBSERVERS = {
    "fock.beam_splitter_block": lambda args, result: int(args[0]),
    "bounds.solve_na_star": lambda args, result: int(result.iterations),
    "experiments.write_sweep": _written_bytes,
}


class Tracer:
    """Collects spans and observations from wrapped library functions."""

    def __init__(self):
        self.spans = []
        self.observed = defaultdict(list)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        seen = self.observed[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if observe is not None:
                seen.append(observe(args, result))
            return result

        return traced

    def install(self, package="bosonic_bounds"):
        """Wrap every public function of every layer at all its binding sites."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            names = tuple(getattr(mod, "__all__", ())) + EXTRA_FUNCTIONS.get(layer, ())
            for attr in names:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if isinstance(fn, type) or not callable(fn) or name in UNWRAPPED:
                    continue
                wrapped = self.wrap(name, fn)
                for site in modules:
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, key, wrapped)
                            self._undo.append((site, key, fn))
        for layer, cls_name, meth in CLASSMETHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            wrapped = self.wrap(f"{layer}.{cls_name}.{meth}", original.__func__)
            setattr(cls, meth, classmethod(wrapped))
            self._undo.append((cls, meth, original))

    def uninstall(self):
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = defaultdict(list)
    for idx, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, idx, names):
    parent = spans[idx][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


def _per_state(spans, name, within, states):
    hits = sum(
        1 for idx, span in enumerate(spans)
        if span[0] == name and _has_ancestor(spans, idx, within)
    )
    return hits / states if states else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one repetition, keyed by metric name."""
    spans = tracer.spans
    calls = Counter(span[0] for span in spans)
    own = defaultdict(float)
    for span, dt in zip(spans, self_times(spans)):
        own[span[0]] += dt
    m = {f"{layer}.self_s": sum(v for k, v in own.items() if k.split(".")[0] == layer)
         for layer in LAYERS}
    for name in (
        "symplectic.validate_covariance",
        "symplectic.symplectic_eigenvalues",
        "gaussian.gaussian_measures",
        "fock.beam_splitter_block",
        "fock.schmidt_coefficients",
        "fock.qcs2_fock",
        "bounds.solve_na_star",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = own[name]
    for name in (
        "gaussian.random_gaussian_state",
        "fock.apply_beam_splitter_fock",
        "fock.quadrature_moments",
        "fock.FockDensityOperator.from_pure",
        "experiments.random_audit",
        "experiments.write_sweep",
        "cli.main",
    ):
        m[f"{name}.self_s"] = own[name]
    m["gaussian.gaussian_to_dict.calls"] = calls["gaussian.gaussian_to_dict"]
    states = calls["gaussian.gaussian_measures"]
    m["symplectic.spectra_per_state"] = _per_state(
        spans, "symplectic.symplectic_eigenvalues", {"gaussian.gaussian_measures"}, states)
    m["symplectic.validations_per_state"] = _per_state(
        spans, "symplectic.validate_covariance", _STATE_SPANS, states)
    blocks = tracer.observed["fock.beam_splitter_block"]
    distinct = set(blocks)
    m["fock.beam_splitter_block.distinct_M"] = len(distinct)
    m["fock.beam_splitter_block.max_M"] = max(distinct, default=0)
    m["fock.beam_splitter_block.reuse_ratio"] = (
        (len(blocks) - len(distinct)) / len(blocks) if blocks else 0.0)
    m["fock.beam_splitter_block.retained_bytes_computed"] = sum(
        8 * (M + 1) ** 2 for M in distinct)
    m["bounds.solve_na_star.iterations"] = sum(tracer.observed["bounds.solve_na_star"])
    m["bounds.checks.self_s"] = sum(own[name] for name in BOUND_CHECKS)
    m["experiments.write_sweep.bytes"] = sum(tracer.observed["experiments.write_sweep"])
    return m


def merge_repetitions(per_rep):
    """Combine per-repetition layer metrics: exact counts must agree, times take the median.

    Returns (metrics, mismatched names).  A count that differs between
    repetitions of one seed is reported by its median and named.
    """
    merged, mismatched = {}, []
    for name in per_rep[0]:
        values = [rep[name] for rep in per_rep]
        if name.endswith("self_s") or len(set(values)) > 1:
            merged[name] = statistics.median(values)
            if not name.endswith("self_s"):
                mismatched.append(name)
        else:
            merged[name] = values[0]
    return merged, mismatched
