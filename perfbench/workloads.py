"""The four workloads: seeded inputs, one op each, and the op's checks.

Each workload turns (seed, op index) into an op input with its own
numpy Generator, so op i is the same whichever mode runs it and however
many ops came before. run() is the timed part and calls only the
library; check() runs afterwards, outside the timing, against the
oracles and returns None or the failure type.

The parameter boxes are stratified by a Latin-hypercube design: the op
index picks a cell (cells visited in a fixed interleaved order) and the
seed places the point log-uniformly inside that cell. A run covers
whole design cycles, so every run sweeps the same mix of regimes, which
keeps the figures of runs with different seeds comparable.
"""

import math

import numpy as np

import oracles

# maximum-likelihood m2 fit of the Wheaton data, pinned so that the
# bootstrap inputs do not depend on the fitting code under test
WHEATON_M2 = (0.131311028817586, 0.17910085290278077, 0.5389212676467791)
# published flood-study log-likelihoods, (2k - AIC)/2 from the reference
# AIC values 508.689 (m1, k=3), 505.030 (m2, k=3), 506.997 (m6, k=2)
WHEATON_LOGLIK = {"m1": -251.3445, "m2": -249.515, "m6": -251.4985}
FLOOD_MODELS = ("m1", "m2", "m6")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _interleave(cells):
    """Cell visiting order (bit reversal) that spreads every prefix
    across the range."""
    return sorted(range(cells), key=lambda c: (format(c, "08b")[::-1], c))


def _design_point(rng, box, i, cells):
    """Point of op i in a Latin-hypercube design over a log box.

    The op's cell takes alpha stratum c, beta stratum (5c + 1) mod cells
    and lam stratum (7c + 3) mod cells (cells coprime to 5 and 7), and
    the point is log-uniform inside that cell.
    """
    c = _interleave(cells)[i % cells]
    point = []
    for name, stratum in (("alpha", c), ("beta", (5 * c + 1) % cells),
                          ("lam", (7 * c + 3) % cells)):
        lo, hi = (math.log(v) for v in box[name])
        point.append(math.exp(lo + (stratum + rng.uniform()) * (hi - lo) / cells))
    return tuple(point)


def _params_text(theta):
    return ",".join(f"{t:.6g}" for t in theta)


class Untraced:
    """The tracer interface with no tracing: op code runs unchanged."""

    def model(self, model):
        return model

    def mle_fit(self, fn):
        return fn

    def gof_report(self, fn):
        return fn

    def timed(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, n=1):
        pass


class Workload:
    """Defaults shared by the workloads: a point of the design per op."""

    cells = 1

    def prepare(self, lib, tr):
        self.lib = lib
        self.tr = tr

    def make(self, seed, i):
        rng = np.random.default_rng([seed, i])
        return {"theta": _design_point(rng, self.box, i, self.cells), "rng": rng}

    def params(self, inp):
        return {"theta": inp["theta"]}


class FloodBootstrap(Workload):
    name = "flood-bootstrap"
    op_size = "one replicate: 72 draws, mle_fit + gof_report for m1, m2, m6"
    deadline_s = 5.0
    trace_ops = 40
    nominal_op_s = 0.08

    def cli(self, seed):
        return ["compare"]

    def make(self, seed, i):
        if i == 0:
            # op 0 is the unresampled data, checked against the paper
            x = np.asarray(self.lib.wheaton().values, dtype=float)
        else:
            x = oracles.oe_draws(*WHEATON_M2, 72, np.random.default_rng([seed, i]))
        return {"i": i, "x": x}

    def prepare(self, lib, tr):
        super().prepare(lib, tr)
        self.models = [(mid, tr.model(lib.get_model(mid))) for mid in FLOOD_MODELS]
        self.fit = tr.mle_fit(lib.mle_fit)
        self.gof = tr.gof_report(lib.gof_report)

    def run(self, inp):
        x = inp["x"]
        out = []
        for mid, model in self.models:
            res = self.fit(model, x)
            rep = self.gof(model, x, res.theta_hat, res.loglik)
            out.append((mid, res, rep))
        return out

    def check(self, inp, out, tr):
        x = inp["x"]
        nonconverged = False
        for mid, res, rep in out:
            ll = oracles.loglik(mid, res.theta_hat, x)
            if not abs(ll - res.loglik) <= 1e-8 * abs(ll):
                return "oracle"
            if not abs(rep.aic - (2.0 * rep.k - 2.0 * ll)) <= 1e-8 * abs(rep.aic):
                return "oracle"
            if inp["i"] == 0 and not abs(res.loglik - WHEATON_LOGLIK[mid]) <= 0.01:
                return "oracle"
            nonconverged = nonconverged or not res.converged
        return "nonconverged" if nonconverged else None

    def params(self, inp):
        return {"i": inp["i"]}


def _propagated_tols(ref, rtol=1e-7, atol=1e-9):
    """Tolerances for the payload, raw moments |d| <= rtol |m| + atol
    and that error carried linearly into skewness and kurtosis."""
    m1, m2, m3, m4 = (ref[k] for k in ("m1", "m2", "m3", "m4"))
    d1, d2, d3, d4 = (rtol * abs(m) + atol for m in (m1, m2, m3, m4))
    var = m2 - m1 * m1
    d_var = d2 + 2.0 * abs(m1) * d1
    d_mu3 = d3 + 3.0 * abs(m1) * d2 + abs(3.0 * m2 - 6.0 * m1 * m1) * d1
    d_mu4 = (d4 + 4.0 * abs(m1) * d3 + 6.0 * m1 * m1 * d2
             + abs(4.0 * m3 - 12.0 * m1 * m2 + 12.0 * m1**3) * d1)
    skew, kurt = ref["skewness"], ref["kurtosis"]
    return {
        "m1": d1, "m2": d2, "m3": d3, "m4": d4,
        "skewness": d_mu3 / var**1.5 + 1.5 * abs(skew) * d_var / var + rtol * abs(skew),
        "kurtosis": d_mu4 / var**2 + 2.0 * abs(kurt) * d_var / var + rtol * abs(kurt),
        "renyi2": 1e-6,
    }


class MomentsGrid(Workload):
    name = "moments-grid"
    op_size = "one payload: raw moments 1..4, skewness, kurtosis, Renyi eta=2"
    deadline_s = 5.0
    trace_ops = 12
    nominal_op_s = 1.7
    box = {"alpha": (0.01, 10.0), "beta": (0.05, 20.0), "lam": (2.0, 20.0)}
    cells = 24

    def cli(self, seed):
        rng = np.random.default_rng([seed, 1 << 20])
        theta = [t * _log_uniform(rng, 0.9, 1.1) for t in (2.0, 1.0, 3.0)]
        return ["moments", "--params", _params_text(theta), "--order", "4", "--eta", "2"]

    def run(self, inp):
        d = self.lib.OEGammaDist(*inp["theta"])
        out = {f"m{m}": d.moment_quadrature(m) for m in (1, 2, 3, 4)}
        out["skewness"] = d.general_coefficient(3)
        out["kurtosis"] = d.general_coefficient(4)
        out["renyi2"] = d.renyi_entropy(2.0)
        return out

    def check(self, inp, out, tr):
        ref = oracles.moments_payload(*inp["theta"])
        tols = _propagated_tols(ref)
        for key, want in ref.items():
            if not abs(out[key] - want) <= tols[key]:
                return "oracle"
        return None


class SimulateTail(Workload):
    name = "simulate-tail"
    op_size = "200000 draws with cdf and log_pdf at each, 100 scalar quantile_sf calls"
    deadline_s = 10.0
    trace_ops = 12
    nominal_op_s = 0.25
    draws = 200_000
    levels = 100
    box = {"alpha": (0.1, 2.0), "beta": (0.1, 2.0), "lam": (0.2, 2.0)}
    cells = 8

    def cli(self, seed):
        return ["sample", "--params", _params_text(WHEATON_M2), "--n", "100000",
                "--seed", str(seed)]

    def make(self, seed, i):
        inp = super().make(seed, i)
        lo, hi = math.log(1e-12), math.log(0.5)
        strata = (np.arange(self.levels) + inp["rng"].uniform(size=self.levels)) / self.levels
        inp["probs"] = np.exp(lo + strata * (hi - lo))
        inp["sample_rng"] = np.random.default_rng([seed, i, 1])
        return inp

    def run(self, inp):
        tr = self.tr
        d = self.lib.OEGammaDist(*inp["theta"])
        x = tr.timed("expgamma.sample", d.sample, self.draws, inp["sample_rng"])
        cdf = tr.timed("expgamma.cdf", d.cdf, x)
        log_pdf = tr.timed("expgamma.log_pdf", d.log_pdf, x)
        levels = [tr.timed("expgamma.quantile_sf", d.quantile_sf, float(s))
                  for s in inp["probs"]]
        return {"x": x, "cdf": cdf, "log_pdf": log_pdf, "levels": np.array(levels)}

    def check(self, inp, out, tr):
        a, b, lam = inp["theta"]
        x = out["x"]
        n = x.size
        tr.count("expgamma.sample.draws", n)
        tr.count("expgamma.cdf.points", n)
        tr.count("expgamma.log_pdf.points", n)
        tr.count("expgamma.quantile_sf.calls", len(inp["probs"]))
        cap = np.log1p(1.0 / np.finfo(float).tiny) / lam
        tr.count("expgamma.sample.capped", int(np.count_nonzero(x == cap)))
        sf = oracles.survival(a, b, lam, x)
        if n != self.draws or not np.all(np.abs(out["cdf"] + sf - 1.0) <= 1e-12):
            return "oracle"
        if oracles.ks_distance(x, 1.0 - sf) > oracles.ks_critical(n):
            return "oracle"
        ref = oracles.log_density(a, b, lam, x)
        finite = np.isfinite(ref)
        err = np.abs(out["log_pdf"][finite] - ref[finite])
        if not np.all(err <= 1e-9 * np.maximum(1.0, np.abs(ref[finite]))):
            return "oracle"
        got = oracles.survival(a, b, lam, out["levels"])
        if not np.all(np.abs(got - inp["probs"]) <= 1e-8 * inp["probs"]):
            return "oracle"
        return None


class SeriesTau(Workload):
    name = "series-tau"
    op_size = "moment_series(1), moment_series(2), renyi_series(2) at one point"
    deadline_s = 10.0
    trace_ops = 8
    nominal_op_s = 1.4
    box = {"alpha": (0.1, 0.95), "beta": (0.05, 5.0), "lam": (0.5, 2.0)}
    cells = 6

    def cli(self, seed):
        rng = np.random.default_rng([seed, 1 << 20])
        theta = [t * _log_uniform(rng, 0.9, 1.1) for t in WHEATON_M2]
        return ["curves", "--params", _params_text(theta), "--grid", "0.1:30:200"]

    def run(self, inp):
        a, b, lam = inp["theta"]
        d = self.lib.GammaRatioDist(a, b, self.lib.make_exponential(lam))
        return {"m1": d.moment_series(1), "m2": d.moment_series(2),
                "renyi2": d.renyi_series(2.0)}

    def check(self, inp, out, tr):
        a, b, lam = inp["theta"]
        for key, res in out.items():
            if not res.converged:
                if not res.diagnostic:
                    return "oracle"
                continue
            if key == "renyi2":
                want, tol = oracles.renyi2(a, b, lam), 1e-6
            else:
                want = oracles.raw_moment(a, b, lam, int(key[1]))
                tol = 1e-6 * abs(want) + 1e-9
            if not abs(res.value - want) <= tol:
                return "oracle"
        return None


WORKLOADS = {w.name: w for w in (FloodBootstrap, MomentsGrid, SimulateTail, SeriesTau)}
