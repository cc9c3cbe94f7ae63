"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper in
every loaded ``carev`` module that binds it (``spectral`` and ``cli`` import
``splitting_field`` by name, for example), and ``remove()`` puts the
originals back.  A wrapper keeps a stack of open spans: a span's self time is
its duration minus the durations of the spans it opened.  No wrapper is
installed while the untraced timings are taken.
"""

from __future__ import annotations

import sys
import time

# The traced layers and functions: the modules under src/carev/.
TRACED = {
    "cli": ("cmd_check", "cmd_invert", "cmd_evolve", "cmd_reverse"),
    "serialize": ("read_rule", "read_pattern", "write_pattern", "write_matrix",
                  "write_pgm_slices"),
    "spectral": ("reversibility", "axis_spectra", "axis_char_poly",
                 "generalized_jordan", "jordan_axis", "invert_T"),
    "field": ("splitting_field", "factor_distinct_degree", "equal_degree_factor",
              "roots_with_multiplicity", "canonical_modulus"),
    "charpoly": ("g_poly",),
    "oracle": ("char_poly", "nullspace", "inverse"),
    "structmat": ("kron_dot", "dot_kron", "kron_sum"),
    "ca": ("build_T", "evolve_matrix", "apply_matrix", "evolve_local"),
    "kernels": ("matmul_mod", "evolve_step"),
}
TOP_LEVEL = {"cli.cmd_check", "cli.cmd_invert", "cli.cmd_evolve", "cli.cmd_reverse"}

# Work counts computed from argument and result shapes ("computed" counts).
COUNTERS = ("field.splitting_field.fail", "oracle.char_poly.fail", "ca.build_T.fail",
            "field.canonical_modulus.misses", "field.splitting_field.degree_max",
            "kernels.matmul_mod.mults", "kernels.matmul_mod.bytes",
            "structmat.kron_dot.mults", "ca.build_T.entries", "serialize.bytes_written")


def metric_names():
    """(name, unit) of every per-layer metric this module produces."""
    out = []
    for mod, fns in TRACED.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count"))
            out.append((f"{mod}.{fn}.self_s", "s"))
    units = {"degree_max": "degree", "bytes": "bytes", "bytes_written": "bytes"}
    for name in COUNTERS:
        out.append((name, units.get(name.rsplit(".", 1)[1], "count")))
    return out


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.fails = {}
        self.counts = {name: 0 for name in COUNTERS}
        self.top_s = 0.0  # summed duration of the top-level (cli.cmd_*) spans
        self._stack = []  # child-time accumulators of the open spans
        self._patches = []  # (module, attribute, original)
        self._miss0 = 0

    # -- work counts from shapes --------------------------------------------

    def _count(self, key, args, result):
        c = self.counts
        if key == "kernels.matmul_mod":
            a, b = args[0], args[1]
            c["kernels.matmul_mod.mults"] += a.shape[0] * a.shape[1] * b.shape[1]
            c["kernels.matmul_mod.bytes"] += 8 * (a.size + b.size + result.size)
        elif key == "structmat.kron_dot":
            factors, m = args[0], args[1]
            k = m.data.shape[2]
            c["structmat.kron_dot.mults"] += (
                sum(f.rows for f in factors) * m.rows * m.cols * k * k)
        elif key == "ca.build_T":
            c["ca.build_T.entries"] += result.rows * result.cols
        elif key == "field.splitting_field":
            c["field.splitting_field.degree_max"] = max(
                c["field.splitting_field.degree_max"], getattr(result, "k", 1))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s, fails = self.calls, self.self_s, self.fails
        clock = time.perf_counter
        top = key in TOP_LEVEL
        counted = key in ("kernels.matmul_mod", "structmat.kron_dot", "ca.build_T",
                          "field.splitting_field")

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                fails[key] = fails.get(key, 0) + 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + dt - child
                if top:
                    self.top_s += dt
            if counted:
                self._count(key, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self._miss0 = sys.modules["carev.field"].canonical_modulus.cache_info().misses
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "carev" or name.startswith("carev."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"carev.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        ser = sys.modules["carev.serialize"]
        write = ser.atomic_write_text

        def counting_write(path, text):
            self.counts["serialize.bytes_written"] += len(text.encode())
            return write(path, text)

        self._patches.append((ser, "atomic_write_text", write))
        ser.atomic_write_text = counting_write

    def remove(self):
        field = sys.modules["carev.field"]
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()
        self.counts["field.canonical_modulus.misses"] = (
            field.canonical_modulus.cache_info().misses - self._miss0)

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                key = f"{mod}.{fn}"
                out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
                out[f"{key}.self_s"] = (self.self_s.get(key, 0.0), "s")
        for name in ("field.splitting_field", "oracle.char_poly", "ca.build_T"):
            self.counts[f"{name}.fail"] = self.fails.get(name, 0)
        for name, unit in metric_names()[-len(COUNTERS):]:
            out[name] = (self.counts[name], unit)
        return out
