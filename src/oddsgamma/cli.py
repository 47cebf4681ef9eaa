"""Command-line front end: fit, compare, curves, sample, moments, gof.

Exit codes: 0 success, 2 when any requested fit failed or did not
converge (failed rows are marked, the report still renders), 64 usage
errors, 65 data errors, 70 numerical failures. Reports are JSON by
default (numbers at 10 significant digits) or TSV; identical command
lines produce byte-identical output.
"""

import argparse
import json
import math
import sys

import numpy as np

from .data import _positive_observations, load_csv, wheaton
from .errors import DataError, NumericalError
from .expgamma import OEGammaDist
from .family import _TINY, _hazard
from .fit import mle_fit
from .gof import gof_report
from .models import get_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERIC = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through 64 instead
    def error(self, message):
        raise _UsageError(message)


# the largest 10-digit value inside the float range: 10 digits of a
# float above it round to 1.797693135e+308, which parses as inf
_EDGE10 = 1.797693134e308


def _digits10(f):
    """A finite f to 10 significant digits, toward zero past _EDGE10."""
    return f"{f:.10g}" if abs(f) <= _EDGE10 else f"{math.copysign(_EDGE10, f):.10g}"


def _round10(v):
    f = float(v)
    if not math.isfinite(f):
        return None
    return float(_digits10(f))


def _fmt10(v):
    f = float(v)
    return _digits10(f) if math.isfinite(f) else "nan"


def _rows10(columns, as_json=False):
    """Rows of the numbers in columns (equal-length 1-d arrays), cells
    tab-separated and each row ending in a newline: the _fmt10 of each,
    or with as_json the json.dumps of its _round10, from one C-level
    ("%.10g" * n) % values pass.

    %.10g is _fmt10's text of every finite |v| <= _EDGE10. For a normal
    v it is also repr(float(f"{v:.10g}")): ten significant digits name
    a normal double uniquely, so repr's shortest digits are those, and
    both write e-05 below 1e-4 and e+16 from 1e16 up; but below 1e16
    repr writes a 10-digit integer out with ".0" ("1.0" for "1",
    "10000000000.0" for "1e+10"), and |v - rint(v)| <= 1e-9 |v| holds
    for each such v. Those, the non-finite, those past _EDGE10 and the
    subnormal (whose repr can be shorter than 10 digits) are rewritten
    one by one, splitting the text into lines only then."""
    k = len(columns)
    flat = np.column_stack([np.asarray(c, dtype=float) for c in columns]).ravel()
    vals = flat.tolist()
    text = (("\t".join(["%.10g"] * k) + "\n") * (len(vals) // k)) % tuple(vals)
    a = np.abs(flat)
    with np.errstate(invalid="ignore"):
        odd = ~((a >= _TINY) & (a <= _EDGE10))
        if as_json:
            odd |= (a < 1e16) & (np.abs(flat - np.rint(flat)) <= 1e-9 * a)
    odd = np.flatnonzero(odd).tolist()
    if not odd:
        return text
    lines = text.split("\n")
    for i in odd:
        r, c = divmod(i, k)
        cells = lines[r].split("\t")
        cells[c] = json.dumps(_round10(vals[i])) if as_json else _fmt10(vals[i])
        lines[r] = "\t".join(cells)
    return "\n".join(lines)


def _build_parser():
    p = _Parser(prog="oddsgamma", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")

    def common(sp, data=True):
        if data:
            sp.add_argument("--data", default="wheaton",
                            help='CSV path or "wheaton" (default)')
            sp.add_argument("--column", default=None, help="CSV column name")
        sp.add_argument("--format", choices=("json", "tsv"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("fit", help="maximum-likelihood fit of one model")
    sp.add_argument("--model", required=True)
    common(sp)

    sp = sub.add_parser("compare", help="fit several models, rank by AIC")
    sp.add_argument("--model", default="m1,m2,m6",
                    help="comma-separated ids (default m1,m2,m6)")
    common(sp)

    sp = sub.add_parser("curves", help="emit x, pdf, cdf, hazard on a grid")
    sp.add_argument("--model", default="m2")
    sp.add_argument("--params", required=True, help='comma list, e.g. "0.131,0.179,0.539"')
    sp.add_argument("--grid", required=True, help='"start:stop:count"')
    common(sp, data=False)

    sp = sub.add_parser("sample", help="draw from the proposed model")
    sp.add_argument("--model", default="m2")
    sp.add_argument("--params", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=42)
    common(sp, data=False)

    sp = sub.add_parser("moments", help="quadrature moments of the proposed model")
    sp.add_argument("--params", required=True)
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--eta", type=float, default=None,
                    help="also report the entropy of this order")
    common(sp, data=False)

    sp = sub.add_parser("gof", help="fit one model and report criteria + EDF statistics")
    sp.add_argument("--model", required=True)
    common(sp)
    return p


def _load_data(args):
    if args.data == "wheaton":
        return wheaton()
    return load_csv(args.data, column=args.column)


def _get_model_or_usage(name):
    try:
        return get_model(name)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None


def _parse_params(text, model):
    try:
        theta = tuple(float(c) for c in text.split(","))
    except ValueError:
        raise _UsageError(f"--params must be a comma list of numbers, got {text!r}") from None
    if len(theta) != model.n_free:
        raise _UsageError(
            f"model {model.name} takes {model.n_free} parameters "
            f"({', '.join(model.param_names)}), got {len(theta)}"
        )
    if any(not (math.isfinite(t) and t > 0) for t in theta):
        raise _UsageError("all parameters must be positive finite numbers")
    return theta


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f'--grid must be "start:stop:count", got {text!r}')
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise _UsageError(f"--grid fields do not parse: {text!r}") from None
    if count < 1:
        raise _UsageError("--grid count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)) or stop < start:
        raise _UsageError("--grid needs finite start <= stop")
    return np.linspace(start, stop, count) if count > 1 else np.array([start])


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _json_list_last(doc):
    """_json(doc) for a doc whose last entry is a long list of numbers,
    each written as its _round10 (None as null). indent=2 sends every
    number through json's pure-Python encoder; this writes the list by
    _rows10, one number on a line, inside the frame indent=2 gives it:
    the same bytes."""
    *head, (key, values) = doc.items()
    if not len(values):
        return _json({**doc, key: []})
    frame = json.dumps(dict(head), indent=2)[:-2]  # drop the closing "\n}"
    items = _rows10([values], as_json=True)[:-1].replace("\n", ",\n    ")
    return f"{frame},\n  {json.dumps(key)}: [\n    {items}\n  ]\n}}\n"


def _kv_tsv(pairs):
    return "".join(f"{k}\t{v}\n" for k, v in pairs)


# the fitted statistics of a report row, in column order
_STATS = ("loglik", "aic", "aicc", "bic", "hqic", "a_squared", "w_squared")


def _fit_row(model, values):
    """Fit one model to values and assemble a report row of rounded numbers."""
    result = mle_fit(model, values)
    report = gof_report(model, values, result.theta_hat, result.loglik)
    display = model.display_params(result.theta_hat, result.std_errors)
    row = {
        "model": model.name,
        "converged": result.converged,
        "params": {name: _round10(v) for name, v, _ in display},
        "std_errors": {name: _round10(se) for name, _, se in display},
        "loglik": _round10(result.loglik),
        **{k: _round10(getattr(report, k)) for k in _STATS[1:]},
        "k": report.k,
        "warnings": list(result.warnings),
    }
    return row, result


def _cmd_fit(args):
    model = _get_model_or_usage(args.model)
    dataset = _load_data(args)
    result = mle_fit(model, np.asarray(dataset.values, dtype=float))
    display = model.display_params(result.theta_hat, result.std_errors)
    doc = {
        "model": model.name,
        "data": dataset.name,
        "n": dataset.n,
        "converged": result.converged,
        "loglik": _round10(result.loglik),
        "params": {name: _round10(v) for name, v, _ in display},
        "std_errors": {name: _round10(se) for name, _, se in display},
        "iterations": result.iterations,
        "grad_sup_norm": _round10(result.grad_sup_norm),
        "warnings": list(result.warnings),
    }
    if args.format == "json":
        _emit(args, _json(doc))
    else:
        pairs = [("model", doc["model"]), ("converged", str(doc["converged"]).lower()),
                 ("loglik", _fmt10(result.loglik))]
        pairs += [(f"param.{n}", _fmt10(v)) for n, v, _ in display]
        pairs += [(f"stderr.{n}", _fmt10(se)) for n, _, se in display]
        _emit(args, _kv_tsv(pairs))
    return EXIT_OK if result.converged else EXIT_PARTIAL


def _cmd_compare(args):
    names = [s.strip() for s in args.model.split(",") if s.strip()]
    if not names:
        raise _UsageError("--model must select at least one model")
    models = [_get_model_or_usage(nm) for nm in names]
    dataset = _load_data(args)
    # the data are the same for every model: a data error is not a row
    values = _positive_observations(dataset.values, "compare")
    rows = []
    any_failed = False
    for model in models:
        try:
            row, result = _fit_row(model, values)
            if not result.converged:
                any_failed = True
        except (NumericalError, ValueError) as exc:
            row = {"model": model.name, "converged": False, "error": str(exc)}
            any_failed = True
        rows.append(row)
    # ranked by AIC; rows without one (failures) go last in input order
    rows.sort(key=lambda r: (0, r["aic"]) if "aic" in r else (1, 0.0))
    doc = {"data": dataset.name, "n": dataset.n, "models": rows}
    if args.format == "json":
        _emit(args, _json(doc))
    else:
        lines = ["\t".join(["model", "converged", *_STATS, "params", "error"]) + "\n"]
        for r in rows:
            packed = ";".join(f"{k}={_fmt10(v)}" for k, v in r.get("params", {}).items())
            cells = [r["model"], str(r["converged"]).lower()]
            cells += [_fmt10(r[k]) if k in r else "" for k in _STATS]
            cells += [packed, r.get("error", "")]
            lines.append("\t".join(cells) + "\n")
        _emit(args, "".join(lines))
    return EXIT_PARTIAL if any_failed else EXIT_OK


def _cmd_curves(args):
    model = _get_model_or_usage(args.model)
    theta = _parse_params(args.params, model)
    x = _parse_grid(args.grid)
    inside = x > 0.0
    if not np.all(inside):
        sys.stderr.write(
            "warning: grid points outside the support emit all-zero rows\n"
        )
    with np.errstate(all="ignore"):
        lp = np.asarray(model.log_pdf(x, theta), dtype=float)
        pdf = np.where(inside, np.exp(lp), 0.0)
        cdf = np.where(inside, np.asarray(model.cdf(x, theta), dtype=float), 0.0)
        hazard = _hazard(lp, np.asarray(model.sf(x, theta), dtype=float))
    _emit(args, "x\tpdf\tcdf\thazard\n" + _rows10([x, pdf, cdf, hazard]))
    return EXIT_OK


def _require_oe(args):
    model = _get_model_or_usage(args.model)
    if model.name != "oe-gamma":
        raise _UsageError(f"this command supports the proposed model only, got {model.name}")
    return model


def _cmd_sample(args):
    model = _require_oe(args)
    theta = _parse_params(args.params, model)
    if args.n < 0:
        raise _UsageError("--n must be >= 0")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    dist = OEGammaDist(*theta)
    draws = dist.sample(args.n, np.random.default_rng(args.seed))
    if args.format == "json":
        doc = {
            "model": model.name,
            "seed": args.seed,
            "n": args.n,
            "values": draws,
        }
        _emit(args, _json_list_last(doc))
    else:
        _emit(args, _rows10([draws]))
    return EXIT_OK


def _cmd_moments(args):
    model = get_model("m2")
    theta = _parse_params(args.params, model)
    if args.order < 1:
        raise _UsageError("--order must be >= 1")
    dist = OEGammaDist(*theta)
    dist.moment_quadrature(args.order)  # one pass fills orders 1..order
    moments = {f"m{m}": _round10(dist.moment_quadrature(m))
               for m in range(1, args.order + 1)}
    doc = {
        "params": dict(zip(model.param_names, (_round10(t) for t in theta))),
        "moments": moments,
        "skewness": _round10(dist.general_coefficient(3)),
        "kurtosis": _round10(dist.general_coefficient(4)),
    }
    if args.eta is not None:
        doc["renyi_entropy"] = {
            "eta": _round10(args.eta),
            "value": _round10(dist.renyi_entropy(args.eta)),
        }
    if args.format == "json":
        _emit(args, _json(doc))
    else:
        pairs = list(moments.items())
        pairs += [("skewness", doc["skewness"]), ("kurtosis", doc["kurtosis"])]
        if args.eta is not None:
            pairs.append((f"renyi_entropy.eta={args.eta:g}",
                          doc["renyi_entropy"]["value"]))
        _emit(args, _kv_tsv((k, _fmt10(v)) for k, v in pairs))
    return EXIT_OK


def _cmd_gof(args):
    model = _get_model_or_usage(args.model)
    dataset = _load_data(args)
    row, result = _fit_row(model, dataset.values)
    doc = {"model": model.name, "data": dataset.name, "n": dataset.n, "k": row["k"],
           **{k: row[k] for k in _STATS}, "converged": result.converged}
    if args.format == "json":
        _emit(args, _json(doc))
    else:
        _emit(args, _kv_tsv(
            (k, _fmt10(doc[k]) if isinstance(doc[k], float) else str(doc[k]).lower()
             if isinstance(doc[k], bool) else str(doc[k]))
            for k in doc if k != "data"
        ))
    return EXIT_OK if result.converged else EXIT_PARTIAL


_DISPATCH = {
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "curves": _cmd_curves,
    "sample": _cmd_sample,
    "moments": _cmd_moments,
    "gof": _cmd_gof,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except (NumericalError, ValueError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
