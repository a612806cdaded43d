"""Command-line interface.

Subcommands: hermite, kernel, transform, spectrum, verify.  Structured output
is JSON on stdout (complex numbers as {re, im} records, never strings);
spectra additionally go to CSV.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 verification failure.
"""

import argparse
import csv
import json
import os
import re
import sys
import time

import numpy as np

from . import ito_hermite, spectral, verify as verify_mod
from .kernels import TransformParams, bergman_kernel, frft_kernel, mehler_closed
from .quadrature import plane_rule
from .transforms import (
    CoeffFunction,
    RadialFunction,
    dual_apply_coeff,
    frft_apply,
    hankel_apply,
)

OUT_DIR_ENV = "ITOFRFT_OUT_DIR"


class DomainError(Exception):
    pass


def _cnum(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def load_coeff_file(path):
    """Read and validate a CoeffFile JSON document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError("cannot read coefficient file %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise DomainError("coefficient file %s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict) or "nu" not in doc or "coeffs" not in doc:
        raise DomainError("coefficient file must be an object with 'nu' and 'coeffs'")
    nu = doc["nu"]
    if not isinstance(nu, (int, float)) or not nu > 0:
        raise DomainError("'nu' must be a positive number")
    coeffs = {}
    for rec in doc["coeffs"]:
        try:
            m, n = int(rec["m"]), int(rec["n"])
            val = complex(float(rec["re"]), float(rec["im"]))
        except (KeyError, TypeError, ValueError):
            raise DomainError("coefficient records need integer m, n and re, im")
        if (m, n) in coeffs:
            raise DomainError("duplicate coefficient index (%d, %d)" % (m, n))
        coeffs[(m, n)] = val
    try:
        return CoeffFunction(nu=float(nu), coeffs=coeffs)
    except ValueError as exc:
        raise DomainError(str(exc))


def save_coeff_file(path, f):
    doc = {
        "nu": f.nu,
        "coeffs": [
            {"m": m, "n": n, "re": a.real, "im": a.imag}
            for (m, n), a in sorted(f.coeffs.items())
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_hermite(args):
    if min(args.m, args.n, args.max_m, args.max_n) < 0 or args.nu <= 0 or args.tol <= 0:
        print("invalid flag value: indices must be >= 0, nu and tol > 0", file=sys.stderr)
        return 2
    z = complex(args.z_re, args.z_im)
    if args.action == "eval":
        val = ito_hermite.hermite_ito(args.nu, args.m, args.n, z)
        print(json.dumps({"value": _cnum(val)}))
    elif args.action == "zeros":
        zs = ito_hermite.zero_radii(args.nu, args.m, args.n)
        print(json.dumps({"radii": list(zs.radii), "origin": zs.includes_origin}))
    else:  # nullset
        w = complex(args.w_re, args.w_im)
        idx = ito_hermite.null_index_set(args.nu, w, args.max_m, args.max_n, args.tol)
        print(json.dumps({"indices": sorted([list(i) for i in idx])}))
    return 0


def cmd_kernel(args):
    z = complex(args.z_re, args.z_im)
    w = complex(args.w_re, args.w_im)
    if args.kind == "bergman":
        z2 = complex(args.z2_re, args.z2_im)
        w2 = complex(args.w2_re, args.w2_im)
        val = bergman_kernel(args.alpha, args.beta, (z, w), (z2, w2))
    else:
        p = TransformParams(args.nu, complex(args.u_re, args.u_im), complex(args.v_re, args.v_im))
        fn = mehler_closed if args.kind == "mehler" else frft_kernel
        val = fn(p, z, w)
    print(json.dumps({"value": _cnum(val)}))
    return 0


def _axis(center, half, count):
    if count == 1:
        return np.array([center])
    return np.linspace(center - half, center + half, count)


def cmd_transform(args):
    f = load_coeff_file(args.input)
    records = []
    if args.kind in ("frft", "dual"):
        u = complex(args.u_re, args.u_im)
        v = complex(args.v_re, args.v_im)
        if abs(u) >= 1 or abs(v) >= 1:
            raise DomainError("fractional parameters must lie in the open unit disk")
        if args.kind == "frft":
            p = TransformParams(f.nu, u, v)
            rule = plane_rule(f.nu, args.n_radial, args.n_angular)
            for xr in _axis(args.grid_center_re, args.grid_half, args.grid_count):
                for xi_im in _axis(args.grid_center_im, args.grid_half, args.grid_count):
                    xi = complex(xr, xi_im)
                    val = frft_apply(p, f, xi, rule)
                    records.append({"point": _cnum(xi), "value": _cnum(val)})
        else:
            w = complex(args.w_re, args.w_im)
            for uu in _axis(args.grid_center_re, args.grid_half, args.grid_count):
                for vv in _axis(args.grid_center_im, args.grid_half, args.grid_count):
                    if abs(uu) >= 1 or abs(vv) >= 1:
                        continue
                    val = dual_apply_coeff(f.nu, w, f, (uu, vv))
                    records.append({"point": {"u": uu, "v": vv}, "value": _cnum(val)})
    else:  # hankel
        if not (0.0 < args.u_re < 1.0 and 0.0 < args.v_re < 1.0):
            raise DomainError("hankel transforms require real u, v in (0, 1)")
        prof = RadialFunction.from_coeff(f)
        for y in _axis(args.grid_center_re, args.grid_half, args.grid_count):
            if y < 0:
                continue
            val = hankel_apply(f.nu, args.order, args.u_re, args.v_re, prof, y)
            records.append({"point": {"y": y}, "value": _cnum(val)})
    print(json.dumps(records))
    return 0


def _sub_spectrum(spec, max_m, max_n):
    """The [0, max_m] x [0, max_n] corner of a tabulated spectrum."""
    return spectral.Spectrum(
        params=spec.params,
        values=spec.values[: max_m + 1, : max_n + 1],
        cutoff=(max_m, max_n),
    )


def cmd_spectrum(args):
    if args.alpha <= 0 or args.beta <= 0:
        print(
            "spectrum requires the bounded regime alpha > 0 and beta > 0",
            file=sys.stderr,
        )
        return 1
    w = complex(args.w_re, args.w_im)
    # one table serves the requested box and every Schatten cut: an entry of
    # the recurrence does not depend on the size of the box around it
    cuts = (10, 20, 40)
    box = max(args.max_m, args.max_n, *cuts)
    table = spectral.spectrum(args.nu, args.alpha, args.beta, w, box, box)
    spec = _sub_spectrum(table, args.max_m, args.max_n)
    out_dir = os.environ.get(OUT_DIR_ENV, args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "spectrum.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "s"])
        for m in range(args.max_m + 1):
            for n in range(args.max_n + 1):
                writer.writerow([m, n, repr(spec[m, n])])
    kw = spectral.kw_constant(args.nu, args.alpha, args.beta, w)
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
            str(cut): spectral.schatten_partial(_sub_spectrum(table, cut, cut), args.schatten)
            for cut in cuts
        },
        "schatten_p": args.schatten,
        "kw": {"value": kw.value, "lower": kw.lower, "upper": kw.upper},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"csv": csv_path, "summary": os.path.join(out_dir, "summary.json")}))
    return 0


def cmd_verify(args):
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            print("cannot read config: %s" % exc, file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print("config is not valid JSON: %s" % exc, file=sys.stderr)
            return 2
    else:
        config = {}
    sizes = config.get("sizes", {})
    if any(v < 8 for v in sizes.values()):
        print("config sizes must be >= 8", file=sys.stderr)
        return 2
    tolerances = config.get("tolerances", {})
    if any(t <= 0 for t in tolerances.values()):
        print("config tolerances must be positive", file=sys.stderr)
        return 2
    names = config.get("checks")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(s, str) for s in names)
    ):
        print("config 'checks' must be a list of check names", file=sys.stderr)
        return 2
    out_dir = os.environ.get(OUT_DIR_ENV, config.get("out_dir", "."))
    os.makedirs(out_dir, exist_ok=True)
    try:
        results = verify_mod.run_checks(sizes=sizes, tolerances=tolerances, names=names)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "checks": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
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


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a value such as -1e-05 after a flag as a
    negative number: the negative-number pattern of argparse up to at least
    Python 3.11 has no exponent form and takes such a value for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser():
    parser = _Parser(
        prog="itofrft",
        description="2D fractional Fourier transform for complex Hermite "
        "polynomials, its Bergman-space dual, and the associated spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hermite", help="evaluate polynomials, zeros, null sets")
    ph.add_argument("action", choices=["eval", "zeros", "nullset"])
    ph.add_argument("--nu", type=float, default=1.0)
    ph.add_argument("--m", type=int, default=0)
    ph.add_argument("--n", type=int, default=0)
    ph.add_argument("--z-re", type=float, default=0.0)
    ph.add_argument("--z-im", type=float, default=0.0)
    ph.add_argument("--w-re", type=float, default=0.0)
    ph.add_argument("--w-im", type=float, default=0.0)
    ph.add_argument("--max-m", type=int, default=5)
    ph.add_argument("--max-n", type=int, default=5)
    ph.add_argument("--tol", type=float, default=1e-10)
    ph.set_defaults(fn=cmd_hermite)

    pk = sub.add_parser("kernel", help="evaluate kernel functions at a point")
    pk.add_argument("--kind", choices=["mehler", "frft", "bergman"], required=True)
    pk.add_argument("--nu", type=float, default=1.0)
    pk.add_argument("--alpha", type=float, default=1.0)
    pk.add_argument("--beta", type=float, default=1.0)
    pk.add_argument("--u-re", type=float, default=0.0)
    pk.add_argument("--u-im", type=float, default=0.0)
    pk.add_argument("--v-re", type=float, default=0.0)
    pk.add_argument("--v-im", type=float, default=0.0)
    pk.add_argument("--z-re", type=float, default=0.0)
    pk.add_argument("--z-im", type=float, default=0.0)
    pk.add_argument("--w-re", type=float, default=0.0)
    pk.add_argument("--w-im", type=float, default=0.0)
    pk.add_argument("--z2-re", type=float, default=0.0)
    pk.add_argument("--z2-im", type=float, default=0.0)
    pk.add_argument("--w2-re", type=float, default=0.0)
    pk.add_argument("--w2-im", type=float, default=0.0)
    pk.set_defaults(fn=cmd_kernel)

    pt = sub.add_parser("transform", help="apply a transform over a grid")
    pt.add_argument("--kind", choices=["frft", "dual", "hankel"], required=True)
    pt.add_argument("--input", required=True, help="CoeffFile JSON path")
    pt.add_argument("--u-re", type=float, default=0.0)
    pt.add_argument("--u-im", type=float, default=0.0)
    pt.add_argument("--v-re", type=float, default=0.0)
    pt.add_argument("--v-im", type=float, default=0.0)
    pt.add_argument("--w-re", type=float, default=0.0)
    pt.add_argument("--w-im", type=float, default=0.0)
    pt.add_argument("--order", type=int, default=0)
    pt.add_argument("--grid-center-re", type=float, default=0.0)
    pt.add_argument("--grid-center-im", type=float, default=0.0)
    pt.add_argument("--grid-half", type=float, default=0.5)
    pt.add_argument("--grid-count", type=int, default=3)
    pt.add_argument("--n-radial", type=int, default=64)
    pt.add_argument("--n-angular", type=int, default=64)
    pt.set_defaults(fn=cmd_transform)

    ps = sub.add_parser("spectrum", help="tabulate singular values")
    ps.add_argument("--nu", type=float, default=1.0)
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--beta", type=float, required=True)
    ps.add_argument("--w-re", type=float, default=0.0)
    ps.add_argument("--w-im", type=float, default=0.0)
    ps.add_argument("--max-m", type=int, default=20)
    ps.add_argument("--max-n", type=int, default=20)
    ps.add_argument("--schatten", type=float, default=2.0)
    ps.add_argument("--out-dir", default=".")
    ps.set_defaults(fn=cmd_spectrum)

    pv = sub.add_parser("verify", help="run the self-verification suite")
    pv.add_argument("--config", default=None, help="RunConfig JSON path")
    pv.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ValueError, OverflowError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
