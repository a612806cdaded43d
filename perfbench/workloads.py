"""The benchmark's workloads: seeded inputs, the operations of one round, and
the check of every output against the oracles or the properties the method
must have.

A round is a fixed list of operations.  Its make-up does not depend on the
seed; the seed only draws the values (coefficients, points, parameters)
inside fixed ranges, so every seed does the same amount of work.
"""

import csv
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import jsonschema
import numpy as np

import oracles
from tracer import Tracer, merge, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# after its first round, api-sweep checks every DUAL_STRIDE-th entry of each
# dual_apply_coeff output (a prime, so the kept entries walk both axes)
DUAL_STRIDE = 37


@dataclass
class Op:
    """One operation as it ran: a process on verify, a call on api-sweep."""

    kind: str  # CLI subcommand or module.function
    wall_s: float
    evals: int  # values the operation computed
    error: str = None  # why the output is wrong; None when it is right
    known_fault: bool = False
    rss_kb: int = 0


@functools.cache
def schema(name):
    return json.loads((SCHEMAS / ("%s.schema.json" % name)).read_text())


def schema_error(doc, name):
    """Why `doc` does not validate against docs/schemas/<name>.schema.json."""
    try:
        jsonschema.validate(doc, schema(name))
    except jsonschema.ValidationError as exc:
        return "%s schema: %s" % (name, exc.message)
    return None


def cplx(rec):
    return complex(rec["re"], rec["im"])


def rel_err(got, want, scale):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)) / np.maximum(scale, 1e-300)))


def polar(rng, lo, hi):
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def random_coeffs(rng, count, max_deg):
    """`count` >= 2 coefficients whose index box is always max_deg x max_deg,
    so that every seed evaluates basis tables of the same size."""
    coeffs = {(max_deg, int(rng.integers(0, max_deg + 1))): 0j, (int(rng.integers(0, max_deg + 1)), max_deg): 0j}
    while len(coeffs) < count:
        coeffs[(int(rng.integers(0, max_deg + 1)), int(rng.integers(0, max_deg + 1)))] = 0j
    return {mn: complex(rng.standard_normal(), rng.standard_normal()) for mn in coeffs}


def single_mode_coeffs(rng, k):
    """Two coefficients on indices (n + k, n): one angular mode k."""
    return {(int(n) + k, int(n)): complex(rng.standard_normal(), rng.standard_normal())
            for n in rng.choice(4, size=2, replace=False)}


class Subprocesses:
    """Runs itofrft as child processes of one interpreter each, with output
    sent to a scratch directory."""

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = Path(tmp)
        self.out = self.tmp / "out"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), ITOFRFT_OUT_DIR=str(self.out))
        self.import_s = []
        self.cli_walls = {}  # subcommand -> wall seconds of its untraced calls

    def spawn(self, argv):
        """(exit code, stdout, stderr, wall seconds, peak RSS in KB) of argv."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_text(), err_path.read_text(), wall, usage.ru_maxrss

    def cli(self, args, stats):
        """One CLI call; traced through tracer.py when `stats` is a dict.  The
        output directory is emptied first, so that a call which writes
        nothing is never judged on an earlier call's files."""
        self.out.mkdir(exist_ok=True)
        for old in self.out.iterdir():
            old.unlink()
        if stats is None:
            res = self.spawn([sys.executable, "-m", "itofrft.cli", *args])
            self.cli_walls.setdefault(args[0], []).append(res[3])
            return res
        spans = self.tmp / "spans.json"
        res = self.spawn([sys.executable, str(TRACER), str(spans), *args])
        merge(stats, summarize(json.loads(spans.read_text())))
        return res

    def checked_cli(self, args, check, stats):
        """One CLI call whose JSON output goes through `check`."""
        rc, out, err, wall, rss = self.cli(args, stats)
        if rc != 0:
            error, evals = "exit %d: %s" % (rc, err.strip()[-300:]), 0
        else:
            try:
                error, evals = check(json.loads(out))
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                error, evals = "unreadable output: %r" % (exc,), 0
        return Op(args[0], wall, evals, error, rss_kb=rss)

    def fresh_import(self):
        code = "import time; t = time.perf_counter(); import itofrft; print(time.perf_counter() - t)"
        rc, out, err, _, _ = self.spawn([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError("import itofrft failed: %s" % err.strip())
        self.import_s.append(float(out))


class Verify(Subprocesses):
    """Full `itofrft verify` runs: the project's own run to a result of stated
    accuracy, dominated by the 4096 x 6400 kernel matrix of singular_values
    and the 1152 looped adjoint_apply calls of adjoint_identity.  Set-up
    warms up with one seeded call of each other subcommand, which also times
    the subcommands for the per-layer metrics."""

    EXPECTED_RED = "compactness_tail"

    def setup(self):
        calls = warm_up_calls(np.random.default_rng(self.seed), self.tmp)
        self.fresh_import()
        for args, check in calls:
            op = self.checked_cli(args, check, None)
            if op.error:
                raise RuntimeError("warm-up call %s: %s" % (" ".join(args), op.error))

    def round(self, stats):
        rc, out, err, wall, rss = self.cli(["verify"], stats)
        error, evals = self.check(rc, err)
        return [Op("verify", wall, evals, error, rss_kb=rss)]

    def check(self, rc, err):
        if rc != 3:
            return "verify exited %d (expected 3): %s" % (rc, err.strip()[-300:]), 0
        path = self.out / "report.json"
        if not path.is_file():
            return "verify wrote no report.json", 0
        report = json.loads(path.read_text())
        bad = schema_error(report, "report")
        if bad:
            return bad, 0
        for rec in report["checks"]:
            red = rec["name"] == self.EXPECTED_RED
            if red != (rec["status"] == "fail"):
                return "check %s is %s" % (rec["name"], rec["status"]), 0
            if red and rec["detail"] != "monotone decrease: True":
                return "compactness_tail detail: %s" % rec["detail"], 0
        if report["passed"]:
            return "report passed although compactness_tail is red", 0
        return None, len(report["checks"])

    def peak_rss_mb(self, ops):
        return max(op.rss_kb for op in ops) / 1024.0

    def latencies(self, rounds):
        """Wall times of single verify processes."""
        return [op.wall_s for ops in rounds for op in ops]

    def evals_per_s(self, ops):
        """Checks completed per second.  A round is one process with a fixed
        number of checks, so this is that number over the mean wall: on this
        workload it carries the same information as op_p50_s."""
        return sum(op.evals for op in ops if not op.error) / sum(op.wall_s for op in ops)


def warm_up_calls(rng, tmp):
    """One seeded call of each CLI subcommand other than verify, as
    (arguments, check)."""
    calls = []
    add = lambda args, check: calls.append((args, check))  # noqa: E731

    nu = float(rng.uniform(0.5, 2.0))
    m, n = (int(i) for i in rng.integers(0, 11, size=2))
    z = polar(rng, 0.0, 2.0)
    add(["hermite", "eval", *flags(nu=nu, m=m, n=n, z=z)], functools.partial(check_hermite_eval, nu, m, n, z))

    nu = float(rng.uniform(0.5, 2.0))
    u, v = polar(rng, 0.0, 0.6), polar(rng, 0.0, 0.6)
    z, w = polar(rng, 0.0, 1.5), polar(rng, 0.0, 1.5)
    add(["kernel", *flags(kind="frft", nu=nu, u=u, v=v, z=z, w=w)],
        functools.partial(check_frft_kernel, nu, u, v, z, w))

    nu = float(rng.uniform(0.5, 2.0))
    coeffs = random_coeffs(rng, 3, 6)
    u, v = polar(rng, 0.1, 0.6), polar(rng, 0.1, 0.6)
    center = polar(rng, 0.0, 1.0) / math.sqrt(nu)
    add(["transform", *flags(kind="frft", input=write_coeffs(tmp, "frft.json", nu, coeffs), u=u, v=v,
                             grid_center=center, grid_half=1.0 / math.sqrt(nu), grid_count=4)],
        functools.partial(check_transform_frft, nu, coeffs, u, v, 16))

    # box 200 stays where psi_table is accurate: sqrt(nu)|w| <= 0.6
    nu = float(rng.uniform(0.5, 2.0))
    alpha, beta = (float(x) for x in rng.uniform(0.5, 3.0, size=2))
    w = polar(rng, 0.1, 0.6) / math.sqrt(nu)
    add(["spectrum", *flags(nu=nu, alpha=alpha, beta=beta, w=w, max_m=200, max_n=200)],
        functools.partial(check_spectrum, tmp / "out", nu, alpha, beta, w, 200))
    return calls


def write_coeffs(tmp, name, nu, coeffs):
    doc = {"nu": nu, "coeffs": [{"m": m, "n": n, "re": a.real, "im": a.imag} for (m, n), a in coeffs.items()]}
    err = schema_error(doc, "coeff_file")
    if err:
        raise ValueError(err)
    path = tmp / name
    path.write_text(json.dumps(doc))
    return str(path)


def flags(**values):
    """CLI flags as --name=value, so that argparse cannot take a value such as
    -1e-05 for a flag; a complex value becomes its --name-re and --name-im."""
    out = []
    for name, val in values.items():
        name = name.replace("_", "-")
        if isinstance(val, complex):
            out += ["--%s-re=%.17g" % (name, val.real), "--%s-im=%.17g" % (name, val.imag)]
        else:
            out.append("--%s=%s" % (name, "%.17g" % val if isinstance(val, float) else val))
    return out


# Each check returns (error or None, number of values in the output).

def check_hermite_eval(nu, m, n, z, doc):
    bad = schema_error(doc, "value_output")
    if bad:
        return bad, 0
    want, scale = oracles.hermite_ito_mp(nu, m, n, z)
    err = abs(cplx(doc["value"]) - complex(want)) / float(scale)
    return (None if err < 1e-11 else "hermite eval (%d,%d) error %.2e" % (m, n, err)), 1


def check_frft_kernel(nu, u, v, z, w, doc):
    bad = schema_error(doc, "value_output")
    if bad:
        return bad, 0
    want = complex(oracles.frft_kernel_mp(nu, u, v, z, w))
    err = abs(cplx(doc["value"]) - want) / abs(want)
    return (None if err < 1e-12 else "kernel frft error %.2e" % err), 1


def check_transform_frft(nu, coeffs, u, v, count, doc):
    bad = schema_error(doc, "transform_output")
    if bad or len(doc) != count:
        return bad or "frft: %d records" % len(doc), 0
    pts = np.array([cplx(r["point"]) for r in doc])
    want, scale = eigen_oracle(nu, coeffs, pts, u, v)
    err = rel_err([cplx(r["value"]) for r in doc], want, scale)
    return (None if err < 1e-9 else "transform frft: relative error %.2e" % err), count


def check_spectrum(out_dir, nu, alpha, beta, w, box, doc):
    bad = schema_error(doc, "spectrum_paths")
    if bad:
        return bad, 0
    if Path(doc["csv"]).parent != out_dir or Path(doc["summary"]).parent != out_dir:
        return "spectrum wrote outside ITOFRFT_OUT_DIR", 0
    with open(doc["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["m", "n", "s"] or len(rows) != (box + 1) ** 2 + 1:
        return "spectrum.csv has the wrong shape", 0
    got = np.zeros((box + 1, box + 1))
    for m, n, s in rows[1:]:
        got[int(m), int(n)] = float(s)
    want = oracles.singular_values(nu, alpha, beta, w, box, box)
    err = rel_err(got, want, want.max())
    if err > 1e-10:
        return "spectrum box %d error %.2e" % (box, err), 0
    summary = json.loads(Path(doc["summary"]).read_text())
    bad = schema_error(summary, "spectrum_summary")
    if bad:
        return bad, 0
    top = np.sort(want, axis=None)[::-1][:10]
    if rel_err([t["s"] for t in summary["top"]], top, top[0]) > 1e-10:
        return "spectrum top values are wrong", 0
    p = summary["schatten_p"]
    for cut, val in summary["schatten_partial"].items():
        ref = np.sum(oracles.singular_values(nu, alpha, beta, w, int(cut), int(cut)) ** p)
        if abs(val - ref) > 1e-10 * ref:
            return "schatten partial at cut %s is wrong" % cut, 0
    return kw_error(summary["kw"], *oracles.kw_bracket(nu, alpha, beta, w)), got.size


def kw_error(kw, lower, upper):
    """k_w must lie inside its analytic bracket [lower, upper]."""
    if abs(kw["lower"] - lower) > 1e-12 * lower or abs(kw["upper"] - upper) > 1e-12 * upper:
        return "k_w bracket ends are wrong"
    if not kw["lower"] <= kw["value"] <= kw["upper"]:
        return "k_w = %r outside [%r, %r]" % (kw["value"], kw["lower"], kw["upper"])
    return None


def eigen_oracle(nu, coeffs, points, u, v):
    """Eigen-expansion value, and the scale an error is judged against: the
    terms' absolute sum plus 1e-3 of the coefficients' absolute sum, since
    quadrature error follows the input's size even where u^m v^n is tiny."""
    want, scale = oracles.eigen_value(nu, coeffs, points, u, v)
    return want, scale + 1e-3 * sum(abs(a) for a in coeffs.values())


@dataclass
class Call:
    """One API call of the sweep and the check of its result."""

    kind: str
    run: object  # () -> result
    check: object  # result -> error or None
    evals: int
    known_fault: bool = False


def make_sweep(rng):
    """The calls of one api-sweep round; sizes are fixed, values seeded."""
    import itofrft
    from itofrft import CoeffFunction, RadialFunction, TransformParams, plane_rule

    calls = []

    def add(kind, args, oracle, judge, evals, known_fault=False, cache=True):
        # looked up at call time, so that a traced round calls the wrapper;
        # oracles are computed on first use and, unless told not to, kept
        name = kind.split(".")[1]
        oracle = functools.cache(oracle) if cache else oracle
        calls.append(Call(kind, lambda: getattr(itofrft, name)(*args), lambda out: judge(out, *oracle()), evals,
                          known_fault))

    def frft_family(nu, coeffs, u, v, xis, known_fault=False):
        f, p, rule = CoeffFunction(nu, coeffs), TransformParams(nu, u, v), plane_rule(nu)
        for xi in xis:
            def judge(out, want, scale, xi=xi):
                err = abs(out - want) / scale
                return None if err < 1e-9 else "frft_apply at xi=%r, u=%r: relative error %.2e" % (xi, u, err)

            add("transforms.frft_apply", (p, f, xi, rule),
                functools.partial(eigen_oracle, nu, coeffs, xi, u, v), judge, 1, known_fault)

    for _ in range(5):
        nu = float(rng.uniform(0.5, 2.0))
        axis = np.linspace(-1.2, 1.2, 5) / math.sqrt(nu)
        frft_family(nu, random_coeffs(rng, 3, 6), polar(rng, 0.1, 0.6), polar(rng, 0.1, 0.6),
                    [complex(a, b) for a in axis for b in axis])
    # counted fault: quadrature misses the eigenrelation in the far field
    frft_family(1.0, {(2, 1): 1.0}, 0.9, 0.9, [5.0, 10.0], known_fault=True)
    frft_family(1.0, {(2, 1): 1.0}, 0.5, 0.5, [20.0], known_fault=True)

    radii = np.sqrt(np.linspace(0.05, 0.95, 16))
    disk = (radii[:, None] * np.exp(2j * math.pi * np.arange(24) / 24)[None, :]).ravel()
    U, V = disk[:, None], disk[None, :]
    def dual_call(nu, coeffs, w):
        # a whole 384^2 oracle kept for each of the 60 calls would be most of
        # the process's peak RSS; the first check compares every entry, and
        # only a fixed stride of the oracle is kept for later rounds
        kept = []

        def oracle():
            if kept:
                return kept[0]
            want, scale = eigen_oracle(nu, coeffs, w, U, V)
            kept.append((want.ravel()[::DUAL_STRIDE].copy(), scale.ravel()[::DUAL_STRIDE].copy()))
            return want, scale

        def judge(out, want, scale):
            got = out if np.shape(out) == np.shape(want) else np.ravel(out)[::DUAL_STRIDE]
            err = rel_err(got, want, scale)
            return None if err < 1e-10 else "dual_apply_coeff: relative error %.2e" % err

        add("transforms.dual_apply_coeff", (nu, w, CoeffFunction(nu, coeffs), (U, V)), oracle, judge,
            U.size * V.size, cache=False)

    for _ in range(60):
        nu = float(rng.uniform(0.5, 2.0))
        dual_call(nu, random_coeffs(rng, 3, 8), polar(rng, 0.0, 2.0) / math.sqrt(nu))

    for i in range(16):
        nu = float(rng.uniform(0.5, 2.0))
        k = i % 4
        coeffs = single_mode_coeffs(rng, k)
        u, v = (float(x) for x in rng.uniform(0.1, 0.6, size=2))
        profile = RadialFunction.from_coeff(CoeffFunction(nu, coeffs))
        for y in np.linspace(0.0, 2.4, 10) / math.sqrt(nu):
            def judge(out, want, scale, y=y):
                err = abs(out - want) / scale
                return None if err < 1e-9 else "hankel_apply at y=%r: relative error %.2e" % (y, err)

            add("transforms.hankel_apply", (nu, k, u, v, profile, float(y)),
                functools.partial(eigen_oracle, nu, coeffs, y, u, v), judge, 1)

    def spectrum_call(nu, alpha, beta, w, box, known_fault=False):
        def judge(out, want):
            err = rel_err(out.values, want, want.max())
            return None if err < 1e-10 else "spectrum box %d at w=%r: error %.2e of the largest value" % (box, w, err)

        add("spectral.spectrum", (nu, alpha, beta, w, box, box),
            lambda: (oracles.singular_values(nu, alpha, beta, w, box, box),), judge, (box + 1) ** 2, known_fault)

    # the psi_table recurrence drifts with box size and sqrt(nu)|w|; each
    # seeded box stays where it is accurate, the counted fault goes past it
    for box, rmax in ((200, 0.6), (40, 1.2), (40, 1.2), (8, 2.5), (8, 2.5), (8, 2.5), (8, 2.5)):
        nu = float(rng.uniform(0.5, 2.0))
        alpha, beta = (float(x) for x in rng.uniform(0.5, 3.0, size=2))
        spectrum_call(nu, alpha, beta, polar(rng, 0.1, rmax) / math.sqrt(nu), box)
    spectrum_call(1.0, 1.0, 1.0, 2.0, 100, known_fault=True)

    for _ in range(50):
        nu = float(rng.uniform(0.5, 2.0))
        alpha, beta = (float(x) for x in rng.uniform(0.5, 3.0, size=2))
        w = polar(rng, 0.0, 1.5)
        add("spectral.kw_constant", (nu, alpha, beta, w), functools.partial(oracles.kw_bracket, nu, alpha, beta, w),
            lambda out, lower, upper: kw_error(vars(out), lower, upper), 1)

    def tail_call(nu, alpha, beta, w, p, q, known_fault=False):
        def oracle():
            return (oracles.finite_rank_tail_partial(nu, alpha, beta, w, p, q, 200),
                    oracles.finite_rank_tail_closed(nu, alpha, beta, w, p, q))

        def judge(out, partial, closed):
            if known_fault:  # the documented upper-bound property
                ok = out >= closed * (1.0 - 1e-10)
            else:  # at least the sum capped at degree 200, at most the full tail
                ok = partial * (1.0 - 1e-10) <= out <= closed * (1.0 + 1e-10)
            return None if ok else "finite_rank_tail(p=%d, q=%d) = %r, full tail %r" % (p, q, out, closed)

        add("spectral.finite_rank_tail", (nu, alpha, beta, w, p, q), oracle, judge, 1,
            known_fault)

    for _ in range(60):
        nu = float(rng.uniform(0.5, 2.0))
        alpha, beta = (float(x) for x in rng.uniform(0.5, 3.0, size=2))
        p, q = (int(x) for x in rng.integers(0, 151, size=2))
        tail_call(nu, alpha, beta, polar(rng, 0.0, 1.5), p, q)
    # counted fault: the documented upper bound undershoots the true tail
    for p in (2, 20, 150):
        tail_call(1.0, 1.0, 1.0, 1.0, p, p, known_fault=True)
    return calls


class ApiSweep:
    """An in-process, warmed-up sweep of many small public calls."""

    def __init__(self, seed, tmp):
        self.seed = seed
        self.helper = Subprocesses(seed, tmp)
        self.import_s = self.helper.import_s
        self.cli_walls = {}
        self.calls = []

    def setup(self):
        import itofrft

        self.package = itofrft
        self.calls = make_sweep(np.random.default_rng(self.seed))
        self.helper.fresh_import()
        warm = {}
        for call in self.calls:
            warm.setdefault(call.kind, call)
        for call in warm.values():
            call.run()

    def round(self, stats):
        tracer = Tracer() if stats is not None else None
        undo = tracer.install(self.package) if tracer else []
        ops = []
        try:
            for call in self.calls:
                start = perf_counter()
                try:
                    out = call.run()
                except (ValueError, OverflowError, RuntimeError) as exc:
                    ops.append(Op(call.kind, perf_counter() - start, 0, "raised %r" % (exc,), call.known_fault))
                    continue
                wall = perf_counter() - start
                ops.append(Op(call.kind, wall, call.evals, call.check(out), call.known_fault))
        finally:
            Tracer.uninstall(undo)
        if tracer:
            merge(stats, summarize(tracer.spans))
        return ops

    def peak_rss_mb(self, ops):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def latencies(self, rounds):
        """Wall times of whole sweeps: single calls range from 50 us to
        0.1 s, so the median call would flip between families."""
        return [sum(op.wall_s for op in ops) for ops in rounds]

    def evals_per_s(self, ops):
        """Geometric mean over the call families of each family's correct
        evaluations per second.  Every family weighs the same, whatever its
        share of the round's time, so a gain in a cheap family shows here
        while it barely moves op_p50_s."""
        rates = []
        for kind in sorted({op.kind for op in ops}):
            fam = [op for op in ops if op.kind == kind]
            rates.append(sum(op.evals for op in fam if not op.error) / sum(op.wall_s for op in fam))
        return math.exp(statistics.fmean(map(math.log, rates)))


WORKLOADS = {"verify": Verify, "api-sweep": ApiSweep}
