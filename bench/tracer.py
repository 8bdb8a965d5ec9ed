"""Per-layer tracing from outside the package.

The tracer rebinds public functions in the namespace of every hawkdeco
module (and the package itself) that holds them, so calls made inside the
package go through the wrapper too; `restore` puts the originals back.
Each wrapped call records a span (layer, parent span, start, end) in
memory; calls of quadrature.gk15_batch also add the number of intervals
they integrate to `gk15_intervals`.  After every operation the benchmark
folds the spans into per-layer call counts and self times, self time
being a span's duration minus the time its child spans cover, and clears
them.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs traced, named <module>.<function> in the metrics.
LAYERS = (
    ("cli", "main"),
    ("rates", "vacuum_rate"),
    ("rates", "vacuum_overlap"),
    ("rates", "one_minus_overlap"),
    ("rates", "thermal_bh_rate"),
    ("special", "trigamma_complex"),
    ("spectrum", "total_emission_rate"),
    ("spectrum", "bose_spectral_kernel"),
    ("evolution", "evolve_coherence"),
    ("blackhole", "mass_at_time"),
    ("numeric", "rate_numeric"),
    ("numeric", "overlap_numeric"),
    ("quadrature", "integrate_adaptive"),
    ("quadrature", "gk15_batch"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self.calls = {f"{m}.{f}": 0 for m, f in LAYERS}
        self.self_s = {f"{m}.{f}": 0.0 for m, f in LAYERS}
        self.gk15_intervals = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_intervals = name == "quadrature.gk15_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_intervals:
                # gk15_batch(f, a, b): one GK15 rule per entry of a
                self.gk15_intervals += len(args[1] if len(args) > 1 else kwargs["a"])
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a hawkdeco namespace holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hawkdeco" or n.startswith("hawkdeco.")]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"hawkdeco.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def fold(self) -> None:
        """Add the recorded spans to the per-layer totals and clear them."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, _, start, end) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child[i]
        self.spans.clear()
