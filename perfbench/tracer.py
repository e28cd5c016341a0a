"""Outside-in layer tracing of hilbloc.

The tracer wraps the public functions of each layer, named after the
modules, and rebinds every module-level alias of them: `cli`, `universal`
and `verify` import `chern_numbers_hilb`, `chi_via_RR`, `hilb_series` and
others by name, so patching only the defining module would miss their
calls.  Each call is a span with a parent link, kept in memory; a layer's
self time is the duration of its spans minus the time their child spans
cover.  Spans are timed in the process's CPU time, so time the CPU spends
on another process is not counted.  Counters are call counts, return sizes and `cache_info()` deltas.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import process_time

# (layer, module, public functions); TruncSeries methods join "series" below.
LAYERS = (
    (
        "fixed_points",
        "hilbloc.localization",
        ("enumerate_fixed_points", "tangent_weights", "taut_weights", "det_taut_weight", "one_ps_ladder"),
    ),
    ("residue", "hilbloc.localization", ("integrate", "chi_via_RR", "chern_numbers_hilb", "hilb_cobordism_series")),
    (
        "cobordism",
        "hilbloc.cobordism",
        ("hilb_series", "to_cp_basis", "from_cp_basis", "basis_matrix", "multiply", "product_series"),
    ),
    ("genera", "hilbloc.genera", ("multiplicative_sequence", "genus_eval", "chi_y_hilb", "betti_hilb_model")),
    ("universal", "hilbloc.universal", ("fit_AB", "chi_twist_series", "universal_chern_poly", "fit_five_series")),
    ("series", "hilbloc.series", ("fg_series", "solve_v", "partition_product")),
    ("rings", "hilbloc.rings", ("gauss_solve",)),
    ("cli", "hilbloc.cli", ("main", "_emit")),
)
SERIES_METHODS = ("log", "exp", "pow", "inverse", "__mul__")
SELF_TIMED = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))  # verify reports per check
N_CHECKS = 10

# lru_cache functions whose hit/miss deltas are reported.
CACHED = {
    "chern": ("hilbloc.localization", "chern_numbers_hilb"),
    "basis": ("hilbloc.cobordism", "basis_matrix"),
    "mseq": ("hilbloc.genera", "multiplicative_sequence"),
}


class Tracer:
    """Records spans and counters for one CLI call in this process."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "module.name" or "check_NN"
        self.layers: list[str] = []  # function id -> layer
        self.calls: list[int] = []  # function id -> call count
        self.span_fn: list[int] = []
        self.span_parent: list[int] = []
        self.span_t0: list[float] = []
        self.span_t1: list[float] = []
        self._stack = [-1]
        self.enumerated = 0
        self.cp_coeffs = 0
        self.max_basis_dim = 0
        self.gauss_max_n = 0
        self._cached = {}  # key -> (lru_cache function, cache_info at install)

    # -- observers of arguments and results ----------------------------------

    def _seen_fixed_points(self, args, result):
        self.enumerated += len(result)

    def _seen_cp_coeffs(self, args, result):
        self.cp_coeffs += len(result)

    def _seen_basis_dim(self, args, result):
        self.max_basis_dim = max(self.max_basis_dim, args[0])

    def _seen_gauss(self, args, result):
        self.gauss_max_n = max(self.gauss_max_n, len(args[0]))

    def _wrap(self, layer: str, name: str, fn, observe=None):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        calls, stack = self.calls, self._stack
        span_fn, span_parent, span_t0, span_t1 = self.span_fn, self.span_parent, self.span_t0, self.span_t1

        def traced(*args, **kwargs):
            calls[fid] += 1
            idx = len(span_fn)
            span_fn.append(fid)
            span_parent.append(stack[-1])
            span_t1.append(0.0)
            stack.append(idx)
            t0 = process_time()
            span_t0.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_t1[idx] = process_time()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every layer function and rebind all of its aliases."""
        importlib.import_module("hilbloc.cli")
        verify = importlib.import_module("hilbloc.verify")
        series = importlib.import_module("hilbloc.series")
        observers = {
            "hilbloc.localization.enumerate_fixed_points": self._seen_fixed_points,
            "hilbloc.cobordism.to_cp_basis": self._seen_cp_coeffs,
            "hilbloc.cobordism.basis_matrix": self._seen_basis_dim,
            "hilbloc.rings.gauss_solve": self._seen_gauss,
        }
        wrappers = {}  # id(original) -> (original, wrapper)

        def add(layer, name, fn):
            wrappers[id(fn)] = (fn, self._wrap(layer, name, fn, observers.get(name)))

        for layer, modname, names in LAYERS:
            mod = sys.modules[modname]
            for name in names:
                add(layer, f"{modname}.{name}", getattr(mod, name))
        for name in SERIES_METHODS:
            add("series", f"hilbloc.series.TruncSeries.{name}", vars(series.TruncSeries)[name])
        if len(verify.CHECKS) != N_CHECKS:
            raise RuntimeError(f"expected {N_CHECKS} verify checks, found {len(verify.CHECKS)}")
        for i, fn in enumerate(verify.CHECKS, 1):
            add("verify", f"check_{i:02d}", fn)

        for key, (modname, name) in CACHED.items():
            fn = getattr(sys.modules[modname], name)
            self._cached[key] = (fn, fn.cache_info())

        rebound = set()
        for modname, mod in list(sys.modules.items()):
            if modname != "hilbloc" and not modname.startswith("hilbloc."):
                continue
            owners = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == modname
            ]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if id(val) in wrappers:
                        setattr(owner, attr, wrappers[id(val)][1])
                        rebound.add(id(val))
                    elif isinstance(val, tuple) and any(id(v) in wrappers for v in val):
                        setattr(owner, attr, tuple(wrappers.get(id(v), (v, v))[1] for v in val))
                        rebound.update(id(v) for v in val if id(v) in wrappers)
        missed = [fn for key, (fn, _) in wrappers.items() if key not in rebound]
        if missed:
            raise RuntimeError(f"no alias rebound for {missed}")

    # -- results -------------------------------------------------------------

    def _cache_delta(self, key: str):
        fn, before = self._cached[key]
        after = fn.cache_info()
        return after.hits - before.hits, after.misses - before.misses

    def _calls(self, *names) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n in names)

    def metrics(self, main_cpu_s: float, stdout_bytes: int, cpu_s: float) -> dict:
        """Per-layer metrics of the traced call; main_cpu_s is its CPU time, read outside the wrappers."""
        n = len(self.span_fn)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += dur[i]
        self_s = dict.fromkeys(SELF_TIMED + ("verify",), 0.0)
        checks = [0.0] * N_CHECKS
        for i in range(n):
            fid = self.span_fn[i]
            layer = self.layers[fid]
            self_s[layer] += dur[i] - covered[i]
            if layer == "verify":
                checks[int(self.names[fid][len("check_"):]) - 1] += dur[i]

        chern_hits, chern_misses = self._cache_delta("chern")
        _, basis_misses = self._cache_delta("basis")
        _, mseq_misses = self._cache_delta("mseq")
        series_names = [n for n, layer in zip(self.names, self.layers) if layer == "series"]
        out = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIMED}
        out.update(
            {
                "fixed_points.enumerated": self.enumerated,
                "fixed_points.ladder_calls": self._calls("hilbloc.localization.one_ps_ladder"),
                # one integral per `integrate` call or Chern-number vector computed
                "residue.integrals": self._calls("hilbloc.localization.integrate") + chern_misses,
                "residue.point_evals": self._calls("hilbloc.localization.tangent_weights"),
                "residue.chern_cache_hits": chern_hits,
                "cobordism.basis_builds": basis_misses,
                "cobordism.max_basis_dim": self.max_basis_dim,
                "cobordism.cp_coeffs": self.cp_coeffs,
                "genera.mseq_builds": mseq_misses,
                "universal.fits": self._calls("hilbloc.universal.fit_AB", "hilbloc.universal.fit_five_series"),
                "series.calls": self._calls(*series_names),
                "rings.gauss_solves": self._calls("hilbloc.rings.gauss_solve"),
                "rings.gauss_max_n": self.gauss_max_n,
            }
        )
        out.update({f"verify.check_{i + 1:02d}_s": checks[i] for i in range(N_CHECKS)})
        out["cli.stdout_bytes"] = stdout_bytes
        out["proc.cpu_s"] = cpu_s
        out["trace.unattributed_s"] = main_cpu_s - sum(self_s.values())
        return out
