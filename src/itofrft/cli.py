"""Command-line interface.

Subcommands: hermite, kernel, transform, spectrum, verify.  Structured output
is JSON on stdout (complex numbers as {re, im} records, never strings);
spectra additionally go to CSV.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 verification failure.
"""

import argparse
import csv
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import ito_hermite, spectral
from .kernels import TransformParams, bergman_kernel, frft_kernel, mehler_closed
from .specfun import scipy_special
from .transforms import CoeffFunction, dual_apply_coeff, frft_apply, hankel_apply

OUT_DIR_ENV = "ITOFRFT_OUT_DIR"


def _cnum(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _add_complex(parser, *names):
    """Declare the float flags --NAME-re and --NAME-im, default 0, of each
    complex value NAME."""
    for name in names:
        for part in ("re", "im"):
            parser.add_argument("--%s-%s" % (name, part), type=float, default=0.0)


def _complex(args, name):
    """The complex value NAME of the flags that `_add_complex` declared."""
    return complex(getattr(args, name + "_re"), getattr(args, name + "_im"))


def _is_number(x):
    # a JSON number: Python's bool is an int, but JSON's true is not a number
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x):
    # a JSON integer as the schema reads it: 2 and 2.0 are, 1.7 is not
    return _is_number(x) and (isinstance(x, int) or x.is_integer())


def _check_keys(obj, allowed, what):
    # additionalProperties: false in the schema
    for key in obj:
        if key not in allowed:
            raise ValueError("%s has unknown key %r; allowed: %s" % (what, key, ", ".join(allowed)))


def load_coeff_file(path):
    """Read and validate a CoeffFile JSON document as its schema does,
    unknown keys included; raises ValueError on any fault of the file."""

    def reject_constant(name):
        # json.load would read the non-JSON literals NaN, Infinity and -Infinity as floats
        raise ValueError(
            "coefficient file %s is not valid JSON: %s is not a JSON number; "
            "nu, re and im are finite numbers" % (path, name)
        )

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=reject_constant)
    except OSError as exc:
        raise ValueError("cannot read coefficient file %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("coefficient file %s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict) or "nu" not in doc or "coeffs" not in doc:
        raise ValueError("coefficient file must be an object with 'nu' and 'coeffs'")
    _check_keys(doc, ("nu", "coeffs"), "coefficient file")
    nu, records = doc["nu"], doc["coeffs"]
    if not _is_number(nu):
        raise ValueError("'nu' must be a number")
    if not isinstance(records, list):
        raise ValueError("'coeffs' must be a list of coefficient records")
    coeffs = {}
    for rec in records:
        rec = rec if isinstance(rec, dict) else {}
        _check_keys(rec, ("m", "n", "re", "im"), "coefficient record")
        m, n, re_part, im_part = (rec.get(k) for k in ("m", "n", "re", "im"))
        if not (_is_integer(m) and _is_integer(n) and _is_number(re_part) and _is_number(im_part)):
            raise ValueError("coefficient records need integer m, n and numbers re, im")
        m, n = int(m), int(n)
        if (m, n) in coeffs:
            raise ValueError("duplicate coefficient index (%d, %d)" % (m, n))
        coeffs[(m, n)] = complex(re_part, im_part)
    return CoeffFunction(nu=float(nu), coeffs=coeffs)


def cmd_hermite(args):
    if args.action == "eval":
        val = ito_hermite.hermite_ito(args.nu, args.m, args.n, _complex(args, "z"))
        print(json.dumps({"value": _cnum(val)}))
    elif args.action == "zeros":
        zs = ito_hermite.zero_radii(args.nu, args.m, args.n)
        print(json.dumps({"radii": list(zs.radii), "origin": zs.includes_origin}))
    else:  # nullset
        w = _complex(args, "w")
        idx = ito_hermite.null_index_set(args.nu, w, args.max_m, args.max_n, args.tol)
        print(json.dumps({"indices": sorted([list(i) for i in idx])}))
    return 0


def cmd_kernel(args):
    z, w = _complex(args, "z"), _complex(args, "w")
    if args.kind == "bergman":
        b = (_complex(args, "z2"), _complex(args, "w2"))
        val = bergman_kernel(args.alpha, args.beta, (z, w), b)
    else:
        p = TransformParams(args.nu, _complex(args, "u"), _complex(args, "v"))
        fn = mehler_closed if args.kind == "mehler" else frft_kernel
        val = fn(p, z, w)
    print(json.dumps({"value": _cnum(val)}))
    return 0


def _axis(center, half, count):
    if count == 1:
        return np.array([center])
    # an axis beyond double precision holds inf or NaN, for the library to reject
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(center - half, center + half, count)


def cmd_transform(args):
    f = load_coeff_file(args.input)
    u, v = _complex(args, "u"), _complex(args, "v")
    center = args.grid_center_re
    if center is None:
        # hankel radii start at 0; the frft and dual grids are centred at 0
        center = args.grid_half if args.kind == "hankel" else 0.0
    xs = _axis(center, args.grid_half, args.grid_count)
    ys = _axis(args.grid_center_im, args.grid_half, args.grid_count)
    # one library call over each whole grid, x (or u) down the rows
    if args.kind == "frft":
        xis = np.empty((len(xs), len(ys)), dtype=complex)
        xis.real, xis.imag = xs[:, None], ys
        vals = frft_apply(TransformParams(f.nu, u, v), f, xis)
        points = [_cnum(xi) for xi in xis.ravel()]
    elif args.kind == "dual":
        vals = dual_apply_coeff(f.nu, _complex(args, "w"), f, (xs[:, None], ys))
        points = [{"u": uu, "v": vv} for uu in xs for vv in ys]
    else:  # hankel, at the order of f's one angular mode; hankel_apply rejects any other
        order = max((abs(m - n) for m, n in f.coeffs), default=0)
        vals = hankel_apply(f.nu, order, u, v, f, xs)
        points = [{"y": y} for y in xs]
    records = [{"point": pt, "value": _cnum(val)} for pt, val in zip(points, vals.ravel())]
    print(json.dumps(records))
    return 0


def _out_dir(args):
    """The output directory, created if missing: $ITOFRFT_OUT_DIR where it is
    set, else --out-dir."""
    out_dir = os.environ.get(OUT_DIR_ENV, args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def cmd_spectrum(args):
    # every computation comes before the first file is written; one table
    # covers the box and the Schatten cuts, and each is a slice of it
    w = _complex(args, "w")
    point = (args.nu, args.alpha, args.beta, w)
    kw = spectral.kw_constant(*point)
    table = spectral.spectrum(*point, max(args.max_m, 40), max(args.max_n, 40))

    def box(max_m, max_n):
        return spectral.Spectrum(table.params, table.values[: max_m + 1, : max_n + 1])

    spec = box(args.max_m, args.max_n)
    summary = {
        "params": {
            "nu": args.nu,
            "alpha": args.alpha,
            "beta": args.beta,
            "w": _cnum(w),
            "max_m": args.max_m,
            "max_n": args.max_n,
        },
        "top": [
            {"m": m, "n": n, "s": s} for (m, n), s in spec.sorted_values()[:10]
        ],
        "schatten_partial": {
            str(cut): spectral.schatten_partial(box(cut, cut), args.schatten)
            for cut in (10, 20, 40)
        },
        "schatten_p": args.schatten,
        "kw": {"value": kw.value, "lower": kw.lower, "upper": kw.upper},
    }
    out_dir = _out_dir(args)
    csv_path = os.path.join(out_dir, "spectrum.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "s"])
        writer.writerows(
            [m, n, repr(s)] for m, row in enumerate(spec.values.tolist()) for n, s in enumerate(row)
        )
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"csv": csv_path, "summary": os.path.join(out_dir, "summary.json")}))
    return 0


def cmd_verify(args):
    from . import verify  # loaded by this subcommand only

    out_dir = _out_dir(args)
    cold = scipy_special.import_s is None
    results = verify.run_checks(args.check)
    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "checks": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
        "scipy_import_s": scipy_special.import_s if cold else 0.0,
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for r in results:
        print(
            "%-28s %s  observed=%.3e  tolerance=%.3e"
            % (r.name, "PASS" if r.passed else "FAIL", r.observed, r.tolerance)
        )
    return 0 if report["passed"] else 3


def _flag(convert, ok, rule):
    """An argparse type: `convert` the text, then require `ok` of the value,
    so that a bad flag is a usage error (exit 2) before anything runs."""

    def parse(text):
        val = convert(text)
        if not ok(val):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (rule, val))
        return val

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_INDEX = _flag(int, lambda n: n >= 0, ">= 0")
_FINITE_POSITIVE = _flag(float, lambda x: 0 < x < math.inf, "finite and > 0")
_FINITE_NONNEGATIVE = _flag(float, lambda x: 0 <= x < math.inf, "finite and >= 0")


def _is_check(name):
    from . import verify  # only the verify subcommand has this flag

    return name in {verify._name(fn) for fn in verify.ACCEPTANCE_CHECKS + verify.INVARIANT_CHECKS}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports a usage error in one stderr line, and that
    reads a value such as -1e-05 after a flag as a negative number: the
    negative-number pattern of argparse up to at least Python 3.11 has no
    exponent form and takes such a value for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="itofrft",
        description="2D fractional Fourier transform for complex Hermite "
        "polynomials, its Bergman-space dual, and the associated spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hermite", help="evaluate polynomials, zeros, null sets")
    ph.add_argument("action", choices=["eval", "zeros", "nullset"])
    ph.add_argument("--nu", type=_FINITE_POSITIVE, default=1.0)
    ph.add_argument("--m", type=_INDEX, default=0)
    ph.add_argument("--n", type=_INDEX, default=0)
    _add_complex(ph, "z", "w")
    ph.add_argument("--max-m", type=_INDEX, default=5)
    ph.add_argument("--max-n", type=_INDEX, default=5)
    ph.add_argument("--tol", type=_FINITE_POSITIVE, default=1e-10)
    ph.set_defaults(fn=cmd_hermite)

    pk = sub.add_parser("kernel", help="evaluate kernel functions at a point")
    pk.add_argument("--kind", choices=["mehler", "frft", "bergman"], required=True)
    pk.add_argument("--nu", type=_FINITE_POSITIVE, default=1.0)
    pk.add_argument("--alpha", type=float, default=1.0)
    pk.add_argument("--beta", type=float, default=1.0)
    _add_complex(pk, "u", "v", "z", "w", "z2", "w2")
    pk.set_defaults(fn=cmd_kernel)

    pt = sub.add_parser("transform", help="apply a transform over a grid")
    pt.add_argument("--kind", choices=["frft", "dual", "hankel"], required=True)
    pt.add_argument("--input", required=True, help="CoeffFile JSON path")
    _add_complex(pt, "u", "v", "w", "grid-center")
    pt.add_argument("--grid-half", type=_FINITE_NONNEGATIVE, default=0.5)
    pt.add_argument("--grid-count", type=_flag(int, lambda n: n >= 1, ">= 1"), default=3)
    pt.set_defaults(fn=cmd_transform, grid_center_re=None)

    ps = sub.add_parser("spectrum", help="tabulate singular values")
    ps.add_argument("--nu", type=_FINITE_POSITIVE, default=1.0)
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--beta", type=float, required=True)
    _add_complex(ps, "w")
    ps.add_argument("--max-m", type=_INDEX, default=20)
    ps.add_argument("--max-n", type=_INDEX, default=20)
    ps.add_argument("--schatten", type=_FINITE_POSITIVE, default=2.0)
    ps.add_argument("--out-dir", default=".")
    ps.set_defaults(fn=cmd_spectrum)

    pv = sub.add_parser("verify", help="run the self-verification suite")
    pv.add_argument("--check", type=_flag(str, _is_check, "the name of a check"), action="append",
                    help="run only this check (repeatable); default: every check")
    pv.add_argument("--out-dir", default=".")
    pv.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, RuntimeError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
