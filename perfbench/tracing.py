"""Spans and work counters recorded from outside the library.

A Tracer wraps the library's layer entry points (module attributes and
class methods) for the length of a traced run and restores them after.
Each wrapped call opens a span; self time is computed online as the
span's duration minus the time its child spans cover, and it is charged
to the span's bucket. Counts and self times are gathered per op and
merged into the run totals only for ops that ran to completion, because
where a deadline cuts an op depends on timing.

Spans are kept in memory as (op, parent, name, start, end) and written
out when the run ends. The per-panel integrand spans and the per-piece
adaptive quadrature spans are too many to keep; they still count toward
self time and the panel counters.
"""

import dataclasses
import time
import types
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter

# spans that are aggregated but not kept
_HOT = frozenset({"family.integrand", "quadrature.adaptive"})
# the family entry points that own the integrand work done on their behalf
_INTEGRAND_OWNERS = frozenset({"family.expect", "family.tau"})


class _Frame:
    __slots__ = ("name", "start", "child", "index", "owner")

    def __init__(self, name, start, index, owner):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.owner = owner


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.moment_laws = set()
        self._stack = []
        self._op = -1
        self._counts = Counter()
        self._self = defaultdict(float)
        self._incl = defaultdict(float)
        self._laws = set()
        self._patches = []

    # -- op bookkeeping --------------------------------------------------

    def begin_op(self, op):
        self._op = op
        self._stack.clear()
        self._counts = Counter()
        self._self = defaultdict(float)
        self._incl = defaultdict(float)
        self._laws = set()

    def end_op(self, keep):
        """Close the op; keep=False drops its counts and times."""
        self._stack.clear()
        if keep:
            self.totals.update(self._counts)
            for k, v in self._self.items():
                self.self_s[k] += v
            for k, v in self._incl.items():
                self.incl_s[k] += v
            self.moment_laws |= self._laws

    def count(self, key, n=1):
        self._counts[key] += n

    def note_moment(self, law, order):
        self._laws.add((law, order))

    # -- spans -----------------------------------------------------------

    def _push(self, name):
        stack = self._stack
        parent = stack[-1] if stack else None
        if name in _INTEGRAND_OWNERS:
            owner = name
        else:
            owner = parent.owner if parent is not None else None
        index = -1
        if name not in _HOT:
            index = len(self.spans)
            self.spans.append(
                [self._op, parent.index if parent is not None else -1, name, 0.0, 0.0]
            )
        frame = _Frame(name, _clock(), index, owner)
        stack.append(frame)
        return frame

    def _pop(self, frame):
        end = _clock()
        stack = self._stack
        # a deadline can unwind past frames that never reached their pop
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        bucket = frame.name
        if bucket == "family.integrand" and frame.owner is not None:
            bucket = frame.owner
        self._self[bucket] += dur - frame.child
        self._incl[frame.name] += dur
        if frame.index >= 0:
            rec = self.spans[frame.index]
            rec[3] = frame.start
            rec[4] = end

    def outermost(self, name):
        """True when no enclosing span has this name."""
        return not any(f.name == name for f in self._stack[:-1])

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span. Inside it, before(args) runs on entry,
        so calls that raise are counted too, and after(result) runs when
        fn returns."""

        def wrapper(*args, **kwargs):
            frame = self._push(name)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self._pop(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing wrappers into the library ----------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, lib):
        """Wrap the layer entry points the library's modules call."""
        family, specfun, quadrature, fit = lib.family, lib.specfun, lib.quadrature, lib.fit

        def inverse(n_points):
            def before(args):
                if self.outermost("specfun.inverse"):
                    self.count("specfun.inverse.calls")
                    self.count("specfun.inverse.points", n_points(args))
            return before

        scalar = inverse(lambda args: 1)
        vector = inverse(lambda args: int(np.size(args[1])))
        # family imports the inverses by name; expgamma imports them from
        # specfun at call time, and specfun's own routing calls go through
        # its module globals
        for mod in (family, specfun):
            for attr in ("inv_reg_upper_gamma", "inv_reg_lower_gamma"):
                self._patch(mod, attr, self.wrap("specfun.inverse", getattr(mod, attr), scalar))
        for attr in ("_inv_reg_upper_gamma_vec", "_inv_reg_lower_gamma_vec"):
            self._patch(family, attr, self.wrap("specfun.inverse", getattr(family, attr), vector))

        self._patch(
            family, "windowed_quad",
            self.wrap("quadrature.windowed", family.windowed_quad,
                      lambda args: self.count("quadrature.windowed.calls")),
        )
        self._patch(quadrature, "adaptive_quad", self._adaptive(quadrature.adaptive_quad))

        cls = family.GammaRatioDist

        def moment_call(args):
            d, m = args[0], args[1]
            self.count("family.moment_quadrature.calls")
            self.note_moment((d.alpha, d.beta, d.base.name, d.base.params), int(m))

        def series_after(result):
            k_used, j_used = result.terms_used
            self.count("family.series.terms", int(k_used) * int(j_used))
            self.count("family.series.converged", int(bool(result.converged)))

        self._patch(cls, "moment_quadrature",
                    self.wrap("family.moment_quadrature", cls.moment_quadrature, moment_call))
        self._patch(cls, "_expect", self.wrap("family.expect", cls._expect))
        self._patch(cls, "tau", self.wrap(
            "family.tau", cls.tau, lambda args: self.count("family.tau.calls")))
        for attr in ("moment_series", "renyi_series"):
            self._patch(cls, attr, self.wrap("family.series", getattr(cls, attr),
                                             after=series_after))

        # fit calls optimize.minimize for its simplex fallback
        minimize = self.wrap(
            "fit.simplex", fit.optimize.minimize,
            lambda args: self.count("fit.simplex_runs"),
        )
        self._patch(fit, "optimize", types.SimpleNamespace(minimize=minimize))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _adaptive(self, adaptive_quad):
        def wrapper(f, *args, **kwargs):
            panels = 0
            integrand = self.wrap("family.integrand", f)

            def counted(x):
                nonlocal panels
                panels += 1
                return integrand(x)

            frame = self._push("quadrature.adaptive")
            try:
                return adaptive_quad(counted, *args, **kwargs)
            finally:
                self._pop(frame)
                self.count("quadrature.panels", panels)
                cap = kwargs.get("max_panels")
                if cap is not None and panels >= cap:
                    self.count("quadrature.budget_hits")

        return wrapper

    # -- model and fit wrappers used by the benchmark's own op code -------

    def model(self, model):
        """A copy of a FittableModel whose callables open model spans."""
        score = model.analytic_score
        return dataclasses.replace(
            model,
            log_pdf=self.wrap("models.log_pdf", model.log_pdf,
                              lambda args: self.count("models.log_pdf.calls")),
            cdf=self.wrap("models.cdf", model.cdf),
            analytic_score=None if score is None else self.wrap(
                "models.score", score, lambda args: self.count("models.score.calls")),
        )

    def mle_fit(self, mle_fit):
        def after(result):
            self.count("fit.iterations", int(result.iterations))
            self.count("fit.converged", int(bool(result.converged)))

        return self.wrap("fit.mle_fit", mle_fit,
                         lambda args: self.count("fit.mle_fit.calls"), after)

    def gof_report(self, gof_report):
        wrapped = self.wrap("gof.report", gof_report, lambda args: self.count("gof.calls"))

        def call(*args, **kwargs):
            try:
                return wrapped(*args, **kwargs)
            except Exception:
                self.count("gof.errors")
                raise

        return call

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tparent\tname\tstart_s\tend_s\n")
            for op, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def layer_metrics(self):
        """The per-layer metrics; a layer that did no work reports zeros."""
        c, s, incl = self.totals, self.self_s, self.incl_s

        def ratio(num, den):
            return num / den if den else 0.0

        fit_calls = c["fit.mle_fit.calls"]
        return {
            "specfun.inverse.calls": (c["specfun.inverse.calls"], "count"),
            "specfun.inverse.points": (c["specfun.inverse.points"], "count"),
            "specfun.inverse.self_s": (s["specfun.inverse"], "s"),
            "quadrature.windowed.calls": (c["quadrature.windowed.calls"], "count"),
            "quadrature.panels": (c["quadrature.panels"], "count"),
            "quadrature.budget_hits": (c["quadrature.budget_hits"], "count"),
            "quadrature.self_s": (s["quadrature.windowed"] + s["quadrature.adaptive"], "s"),
            "family.moment_quadrature.calls": (c["family.moment_quadrature.calls"], "count"),
            "family.expect.self_s": (s["family.expect"], "s"),
            "family.moment_reuse": (
                ratio(len(self.moment_laws), c["family.moment_quadrature.calls"]), "ratio"),
            "family.tau.calls": (c["family.tau.calls"], "count"),
            "family.tau.self_s": (s["family.tau"], "s"),
            "family.series.terms": (c["family.series.terms"], "count"),
            "family.series.converged": (c["family.series.converged"], "count"),
            "expgamma.cdf.points_per_s": (
                ratio(c["expgamma.cdf.points"], incl["expgamma.cdf"]), "1/s"),
            "expgamma.log_pdf.points_per_s": (
                ratio(c["expgamma.log_pdf.points"], incl["expgamma.log_pdf"]), "1/s"),
            "expgamma.sample.draws_per_s": (
                ratio(c["expgamma.sample.draws"], incl["expgamma.sample"]), "1/s"),
            "expgamma.sample.capped": (c["expgamma.sample.capped"], "count"),
            "expgamma.quantile_sf.calls": (c["expgamma.quantile_sf.calls"], "count"),
            "expgamma.quantile_sf.self_s": (s["expgamma.quantile_sf"], "s"),
            "models.log_pdf.calls": (c["models.log_pdf.calls"], "count"),
            "models.score.calls": (c["models.score.calls"], "count"),
            "models.self_s": (s["models.log_pdf"] + s["models.score"] + s["models.cdf"], "s"),
            "fit.mle_fit.calls": (fit_calls, "count"),
            "fit.self_s": (s["fit.mle_fit"] + s["fit.simplex"], "s"),
            "fit.iterations": (c["fit.iterations"], "count"),
            "fit.simplex_runs": (c["fit.simplex_runs"], "count"),
            "fit.converged_ratio": (ratio(c["fit.converged"], fit_calls), "ratio"),
            "gof.calls": (c["gof.calls"], "count"),
            "gof.self_s": (s["gof.report"], "s"),
            "gof.errors": (c["gof.errors"], "count"),
        }
