"""Spans around itofrft's public functions, installed from outside the package.

Every public function of the eight modules is replaced by a wrapper in every
module namespace that holds it: `verify` imports `frft_kernel_raw` directly
and `transforms` imports `psi_table`, so patching only the defining module
would miss those calls.  The check lists of `verify` are patched in place.
Spans are kept in memory as (name, start, end, parent, work) and written out
when the traced run ends; self time is derived from their nesting.

Run as a script, it traces one CLI call:

    python perfbench/tracer.py SPANS.json <itofrft cli arguments...>
"""

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("specfun", "ito_hermite", "quadrature", "kernels", "transforms", "spectral", "verify", "cli")


def _size(out):
    return int(getattr(out, "size", 1))


# work done per call, read from the arguments and the result
WORK = {
    "ito_hermite.psi_table": lambda args, out: {"entries": _size(out)},
    "kernels.frft_kernel_raw": lambda args, out: {"entries": _size(out)},
    "quadrature.integrate": lambda args, out: {"nodes": len(args[0].weights)},
    "transforms.frft_apply": lambda args, out: {"points": 1},
    "transforms.dual_apply_coeff": lambda args, out: {"points": _size(out)},
    "transforms.hankel_apply": lambda args, out: {"points": 1},
    "spectral.spectrum": lambda args, out: {"entries": out.values.size},
}


def _span_name(qualname, out):
    # a check is reported under the name in its CheckResult, not its function's
    if qualname.startswith("verify.check_"):
        return "verify." + out.name
    return qualname


class Tracer:
    """Collects spans while installed; `installed` patches and restores."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, qualname, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (qualname, start, perf_counter(), parent, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (_span_name(qualname, out), start, end, parent, work(args, out) if work else None)
            return out

        return traced

    def install(self, package):
        """Patch every namespace of `package`; returns the undo list."""
        mods = {name: importlib.import_module("%s.%s" % (package.__name__, name)) for name in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (short, name), obj))
        undo = []
        for mod in [package, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, name, wrappers[id(obj)][1])
                    undo.append((mod, name, obj))
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            obj[i] = wrappers[id(item)][1]
                            undo.append((obj, i, item))
        return undo

    @staticmethod
    def uninstall(undo):
        for holder, key, original in reversed(undo):
            if isinstance(holder, list):
                holder[key] = original
            else:
                setattr(holder, key, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans):
    """Per span name: calls, inclusive and self seconds, and summed work."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for (name, start, end, _, work), inner in zip(spans, child):
        s = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["incl_s"] += end - start
        s["self_s"] += end - start - inner
        for key, val in (work or {}).items():
            s[key] = s.get(key, 0) + val
    return stats


def merge(into, stats):
    for name, s in stats.items():
        acc = into.setdefault(name, {})
        for key, val in s.items():
            acc[key] = acc.get(key, 0) + val
    return into


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import itofrft
    import itofrft.cli

    tracer = Tracer()
    tracer.install(itofrft)
    try:
        code = itofrft.cli.main(cli_args)
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
