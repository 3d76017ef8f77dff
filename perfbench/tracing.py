"""Per-layer spans and counts, recorded from outside the package.

The tracer replaces public names of ``flmc`` where their callers look them
up (``flmc.sampler.full_drift`` rather than ``flmc.drift.full_drift``,
because the sampler calls the name bound in its own module) with wrappers
that time each call. A name that no longer exists is recorded as a missing
span instead of raising, so the traced run survives refactors of the
package; its time then shows up as self time of the calling layer.

Hot names (a gradient is called millions of times in one round) make it
impossible to keep one record per call, so spans are aggregated as they
close: per name, the number of calls, the number of entries from another
layer, and self time, which is the span's duration minus the time of the
spans it caused. A span's wrapper costs time of its own (about a
microsecond): a part inside the span's measured duration, charged to the
span's layer, and a part outside it, charged to the caller. Both parts are
measured by calibrate(), on an empty function called from a traced loop,
and taken off with each span, so that a layer which calls millions of spans
(the sampler's step loop) is charged less for the tracer. The correction is
an estimate: in a real round a span costs somewhat more than in the
calibration loop.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, layer) for every name the traced run wraps. Callers:
# the sampler's chain loop, the cli report builders and `flmc sample`, and
# the benchmark's own calls into flmc.cli.
PATCHES = (
    ("flmc.sampler", "sample_sas_vector", "stable"),
    ("flmc.sampler", "full_drift", "drift"),
    ("flmc.cli", "kappa", "drift"),
    ("flmc.sampler", "sg_gradient", "targets"),
    ("flmc.sampler", "run_chain", "sampler"),
    ("flmc.cli", "run_chain", "sampler"),
    ("flmc.cli", "run_repeats", "sampler"),
    ("flmc.oracle", "quadrature_expectation", "oracle"),
    ("flmc.cli", "write_report", "cli"),
    ("flmc.cli", "main", "cli"),
    ("flmc.cli", "alpha_sweep_report", "cli"),
    ("flmc.cli", "bias_sweep_report", "cli"),
    ("flmc.cli", "kappa_report", "cli"),
    ("flmc.cli", "mf_rmse_curve", "cli"),
)

# The sampler picks the drift variant once per chain through this private
# factory and then calls what it returns on every step; wrapping the
# returned callable gives the drift layer a span for the simplified drift
# too, which has no public name of its own.
DRIFT_FACTORY = ("flmc.sampler", "_drift_fn")

# cmd_sample builds its own target; wrapping the factory lets the traced
# run see that target's callables as well.
TARGET_FACTORY = ("flmc.cli", "build_target")

TARGET_CALLABLES = ("potential", "gradient", "prior_grad", "loglik_batch")


class Tracer:
    """Aggregated spans for the names in PATCHES, installed and removed as a unit."""

    def __init__(self):
        self._stack = []            # open spans: [layer, child_seconds]
        self._undo = []             # (module, attribute, original)
        self.missing = []           # "module.attribute" names that were absent
        # cleared in place by reset(): the span closures hold these objects
        self.calls = defaultdict(int)       # span name -> calls
        self.entries = defaultdict(int)     # layer -> calls from another layer
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.cost = [0.0, 0.0]  # [inside, outside] a span's duration, seconds
        self.reset()

    def reset(self):
        for table in (self.calls, self.entries, self.self_s):
            table.clear()
        self.chains = 0
        self.chains_failed = 0
        self.steps = 0

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        """Wrap fn so that each call is a span of `layer` named `name`."""
        stack = self._stack
        calls, entries, self_s = self.calls, self.entries, self.self_s
        cost = self.cost
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[layer] += dur - frame[1] - cost[0]
                if parent is None or parent[0] != layer:
                    entries[layer] += 1
                if parent is not None:
                    parent[1] += dur + cost[1]

        return traced

    def calibrate(self, calls=20_000, repeats=7):
        """Set `cost` to the seconds an empty span adds to its own measured
        duration and to its caller's: medians over `repeats` loops of `calls`
        calls of a two-argument function, as the sampler's drift makes. The
        machine's speed drifts, so this runs just before each traced round."""
        def empty(x, n):
            return None

        def loop(fn):
            for n in range(calls):
                fn(0.0, n)

        def bare():
            for n in range(calls):
                pass

        self.cost[:] = [0.0, 0.0]
        inner = self.span("calibration.inner", "calibration.inner", empty)
        outer = self.span("calibration.outer", "calibration.outer", loop)
        clock = time.perf_counter
        inside, outside = [], []
        for _ in range(repeats):
            self.reset()
            t0 = clock()
            bare()
            t_bare = clock() - t0
            t0 = clock()
            loop(empty)
            t_plain = clock() - t0
            t0 = clock()
            outer(inner)
            t_traced = clock() - t0
            call = (t_plain - t_bare) / calls          # one plain call of `empty`
            total = (t_traced - t_plain) / calls       # all a span adds
            inside.append(self.self_s["calibration.inner"] / calls - call)
            outside.append(total - inside[-1])
        self.cost[:] = [statistics.median(inside), statistics.median(outside)]
        self.reset()

    def traced_target(self, target):
        """A copy of a flmc Target whose callables are targets-layer spans."""
        wrapped = {name: self.span("targets", f"target.{name}", getattr(target, name))
                   for name in TARGET_CALLABLES if getattr(target, name, None) is not None}
        return dataclasses.replace(target, **wrapped)

    # -- installation --------------------------------------------------------

    def _lookup(self, module_name, attr):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if module is None or not hasattr(module, attr):
            self.missing.append(f"{module_name}.{attr}")
            return None, None
        return module, getattr(module, attr)

    def _set(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Replace every traced name; absent names are recorded in `missing`."""
        self.missing = []
        for module_name, attr, layer in PATCHES:
            module, fn = self._lookup(module_name, attr)
            if module is None:
                continue
            if attr == "run_chain":
                fn = self._counting_run_chain(fn)
            self._set(module, attr, self.span(layer, f"{module_name}.{attr}", fn))

        module, factory = self._lookup(*DRIFT_FACTORY)
        if module is not None:
            def drift_fn(*args, _factory=factory, **kwargs):
                return self.span("drift", "drift.step", _factory(*args, **kwargs))
            self._set(module, DRIFT_FACTORY[1], drift_fn)

        module, factory = self._lookup(*TARGET_FACTORY)
        if module is not None:
            def build_target(*args, _factory=factory, **kwargs):
                return self.traced_target(_factory(*args, **kwargs))
            self._set(module, TARGET_FACTORY[1], build_target)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _counting_run_chain(self, run_chain):
        # an empty tuple catches nothing if the exception class is renamed
        failure = getattr(importlib.import_module("flmc.sampler"), "ChainFailure", ())

        def counted(config, *args, **kwargs):
            try:
                out = run_chain(config, *args, **kwargs)
            except failure as e:
                self.chains += 1
                self.chains_failed += 1
                self.steps += int(getattr(e, "n", 0))
                raise
            self.chains += 1
            self.steps += int(getattr(config, "iterations", 0))
            return out

        return counted

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-round layer figures from the spans recorded since reset()."""
        sampler_self = self.self_s["sampler"]
        return {
            "stable.self_s": self.self_s["stable"],
            "stable.calls": self.entries["stable"],
            "drift.self_s": self.self_s["drift"],
            "drift.calls": self.entries["drift"],
            "targets.self_s": self.self_s["targets"],
            "targets.gradient_calls": (self.calls["target.gradient"]
                                       + self.calls["flmc.sampler.sg_gradient"]),
            "targets.potential_calls": self.calls["target.potential"],
            "sampler.steps": self.steps,
            "sampler.chains": self.chains,
            "sampler.chains_failed": self.chains_failed,
            "sampler.self_s": sampler_self,
            "sampler.step_overhead_us": (sampler_self / self.steps * 1e6
                                         if self.steps else 0.0),
            "cli.self_s": self.self_s["cli"],
        }
