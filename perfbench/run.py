"""Benchmark of itofrft: one workload per run, every output checked.

    python3 perfbench/run.py --workload verify|api-sweep --seed N --seconds S --trace 0|1

Run from the repository root; it imports the package from ./src.  A run
repeats whole rounds of the workload's operations until S seconds of rounds
have passed, and sets up SETUP_REPEATS times, spread evenly over those S
seconds so that the median set-up is not taken from a single moment of the
machine's speed.  It prints every metric by name and
unit, then, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 rounds alternate
between untraced and traced, and the metrics are its per-layer metrics.
Scratch files go to .bench_build/perfbench and are removed at the end.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# one BLAS thread in this process and every child: the workloads are single
# threaded by design, and on a 2-core machine a second OpenBLAS thread made
# small matrix products slower and far noisier
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# layers whose self time is reported; verify and cli have their own metrics
SELF_TIMED = ("kernels", "transforms", "ito_hermite", "specfun", "quadrature", "spectral")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "api-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "itofrft" / "__init__.py").is_file():
        print("run.py: no itofrft sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)
    print(json.dumps(result))
    return 0


def run(name, workload_cls, seed, seconds, trace, spec):
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        wl = workload_cls(seed, tmp)
        setup, plain, traced, stats = [], [], [], {}
        elapsed = 0.0  # seconds of rounds, set-ups left out
        while not plain or (trace and not traced) or elapsed < seconds or len(setup) < SETUP_REPEATS:
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                start = perf_counter()
                wl.setup()
                setup.append(perf_counter() - start)
                continue
            is_traced = bool(trace) and len(plain) > len(traced)
            start = perf_counter()
            (traced if is_traced else plain).append(wl.round(stats if is_traced else None))
            elapsed += perf_counter() - start
        plain_ops = [op for rnd in plain for op in rnd]
        if trace:
            values = layer_metrics(name, wl, plain, traced, stats, spec)
            metrics = spec["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup),
                "op_p50_s": statistics.median(wl.latencies(plain)),
                "evals_per_s": wl.evals_per_s(plain_ops),
                "peak_rss_mb": wl.peak_rss_mb(plain_ops),
            }
            metrics = spec["end_to_end"]
    every = [op for rnd in plain + traced for op in rnd]
    wrong = [op for op in every if op.error and not op.known_fault]
    faults = [op for op in every if op.error and op.known_fault]
    for msg in sorted({op.error for op in wrong})[:10]:
        print("WRONG: %s" % msg, file=sys.stderr)
    print("workload %s, seed %d, %d rounds: %d operations, %d failed (known faults), %d wrong"
          % (name, seed, len(plain) + len(traced), len(every), len(faults), len(wrong)))
    for msg in sorted({op.error for op in faults}):
        print("  known fault: %s" % msg)
    for m in metrics:
        print("  %-44s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    return {
        "correct": not wrong,
        "attempted": len(every),
        "failed": len(faults),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def round_wall(ops):
    return sum(op.wall_s for op in ops)


def layer_metrics(name, wl, plain, traced, stats, spec):
    """Per-layer metrics of the traced rounds, per round; rates are work over
    the inclusive time of the function that did it."""
    n = len(traced)

    def get(fn, key="incl_s"):
        return stats.get(fn, {}).get(key, 0) / n

    def rate(fn, key):
        return get(fn, key) / get(fn) if get(fn) else 0.0

    checks = {fn: s["incl_s"] / n for fn, s in stats.items() if fn.startswith("verify.") and fn != "verify.run_checks"}
    values = {m["name"]: 0.0 for m in spec["per_layer"] if m["name"].startswith("verify.")}
    values.update({"%s.wall_s" % fn: t for fn, t in checks.items()})
    for mod in SELF_TIMED:
        values[mod + ".self_s"] = sum(s["self_s"] for fn, s in stats.items() if fn.startswith(mod + ".")) / n
    import_s = statistics.median(wl.import_s)
    for sub in ("hermite", "kernel", "transform", "spectrum", "verify"):
        walls = wl.cli_walls.get(sub)
        values["cli.%s.wall_s" % sub] = statistics.median(walls) if walls else 0.0
    if name == "verify":
        values["verify.gap_s"] = statistics.mean(map(round_wall, traced)) - import_s - sum(checks.values())
    values.update({
        "kernels.frft_kernel_raw.calls": get("kernels.frft_kernel_raw", "calls"),
        "kernels.frft_kernel_raw.entries": get("kernels.frft_kernel_raw", "entries"),
        "kernels.frft_kernel_raw.bytes": 16 * get("kernels.frft_kernel_raw", "entries"),
        "transforms.adjoint_apply.calls": get("transforms.adjoint_apply", "calls"),
        "transforms.frft_apply.calls": get("transforms.frft_apply", "calls"),
        "transforms.frft_apply.points_per_s": rate("transforms.frft_apply", "points"),
        "transforms.dual_apply_coeff.points_per_s": rate("transforms.dual_apply_coeff", "points"),
        "transforms.hankel_apply.points_per_s": rate("transforms.hankel_apply", "points"),
        "spectral.spectrum.entries_per_s": rate("spectral.spectrum", "entries"),
        "ito_hermite.psi_table.calls": get("ito_hermite.psi_table", "calls"),
        "ito_hermite.psi_table.entries": get("ito_hermite.psi_table", "entries"),
        "specfun.bessel_i.calls": get("specfun.bessel_i", "calls"),
        "quadrature.rule_build_s": sum(get("quadrature.%s_rule" % k) for k in ("plane", "bidisk", "quadrant")),
        "quadrature.integrate.calls": get("quadrature.integrate", "calls"),
        "quadrature.integrate.nodes": get("quadrature.integrate", "nodes"),
        "cli.import_s": import_s,
        "trace.overhead_s": statistics.median(map(round_wall, traced)) - statistics.median(map(round_wall, plain)),
    })
    return values


if __name__ == "__main__":
    sys.exit(main())
