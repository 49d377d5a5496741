"""Spans around cascadelab's public functions, recorded from outside.

``Tracer.install`` wraps each listed function on its home module and also
every other module's name for it (``interpolation`` imports
``build_cascade`` by name, ``cli`` imports almost everything), so a call is
seen whichever name it is made through.  ``uninstall`` puts the originals
back.  Spans are kept in memory and reduced to per-layer metrics at the
end; ``write`` dumps them as JSON lines.

A module's self time is the time of its spans minus the time of the spans
they called.  The chunk function a module hands to ``run_replicas`` gets a
span of that module, so ``seeding.self_s`` is the dispatch alone.  ``mixture``, ``functionals`` and ``stats`` are not wrapped, so
their time counts toward their callers; ``stats.identity_check`` is only
counted.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("seeding", "pd_process", "cascade", "recursion", "sk_model", "interpolation", "cli")

# The public entry points of each layer.  Dotted names are methods.
TRACED = {
    "seeding": ("derive_rng", "run_replicas"),
    "pd_process": ("sample_pd", "estimate_pair_sum", "verify_invariance", "corollary_moments", "MarkSpec.sample"),
    "cascade": (
        "build_cascade", "overlap_mass", "sample_marks", "leaf_functional", "log_partition_identity",
        "tilted_average", "weight_tilt_invariance", "attach_fields", "CascadeFields.all_fields",
        "field_covariance",
    ),
    "recursion": (
        "gauss_hermite", "smoothing_step", "phi0", "guerra_bound", "optimize_bound", "mark_chain_root",
        "mark_chain_tilted", "mark_chain_restricted", "mu_r_quadrature",
    ),
    "sk_model": ("sample_hamiltonian", "log_partition", "exact_free_energy", "hamiltonian_covariance", "verify_bound"),
    "interpolation": (
        "build_system", "build_coupled_system", "phi_t", "derivative_check", "gibbs_overlap_mass",
        "error_term_check",
    ),
    "cli": ("run",),
}
COUNTED = {"stats": ("identity_check",)}
PER_REPLICA = ("pd_process.estimate_pair_sum", "pd_process.corollary_moments", "pd_process.verify_invariance")
CLI_COMMANDS = ("pd", "cascade", "bound", "optimize", "sk-exact", "interpolate", "verify-all")
PACKAGE = "cascadelab"


def _modules():
    names = (*LAYERS, "mixture", "functionals", "stats")
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}


class Tracer:
    """Records spans and counts for the calls made while it is installed.

    ``pool_workers`` is the worker count of the untraced runs: a
    ``run_replicas`` call over more than one chunk takes the process-pool
    path there, although the traced run itself is serial.
    """

    def __init__(self, pool_workers: int = 1):
        self.pool_workers = pool_workers
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _note(self, name: str, fn, args, kwargs, result) -> None:
        """Counts that a span alone does not carry."""
        if name in PER_REPLICA:
            self.counts[f"{name}.replicas"] += inspect.signature(fn).bind(*args, **kwargs).arguments["replicas"]
        elif name == "recursion.optimize_bound":
            self.counts["recursion.optimize_bound.evaluations"] += result.evaluations
        elif name == "seeding.run_replicas":
            n_replicas = inspect.signature(fn).bind(*args, **kwargs).arguments["n_replicas"]
            chunk = importlib.import_module(f"{PACKAGE}.seeding").CHUNK_SIZE
            if self.pool_workers > 1 and n_replicas > chunk:
                self.counts["seeding.run_replicas.pool_calls"] += 1

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = name
            if name == "cli.run":
                argv = args[0] if args else kwargs.get("argv")
                span = f"cli.{argv[0]}" if argv else name
            elif name == "seeding.run_replicas":
                # The chunk function is the caller's work, not seeding's.
                chunk_fn = args[0]
                module = chunk_fn.__module__.rpartition(".")[2]
                args = (tracer._wrap(f"{module}.{chunk_fn.__name__}", chunk_fn), *args[1:])
            index = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            tracer._note(name, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        plans = [(self._wrap, TRACED), (self._wrap_count, COUNTED)]
        for make, table in plans:
            for mod_name, attrs in table.items():
                home = modules[mod_name]
                for attr in attrs:
                    owner_name, _, method = attr.rpartition(".")
                    name = f"{mod_name}.{attr}"
                    if owner_name:
                        owner = getattr(home, owner_name)
                        original = getattr(owner, method)
                        self._set(owner, method, make(name, original))
                        continue
                    original = getattr(home, attr)
                    wrapper = make(name, original)
                    # Replace the home name and every by-name import of it.
                    for module in modules.values():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, key, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, total seconds, and per-layer self seconds."""
        calls, total = Counter(), defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name.split(".", 1)[0]] += end - start - child[index]
        return {"calls": calls, "total": total, "self": self_s, "counts": Counter(self.counts)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics, by name: (value, unit)."""
    calls, total, counts = summary["calls"], summary["total"], summary["counts"]

    def mean(name: str, scale: float) -> float:
        return scale * total[name] / calls[name] if calls[name] else 0.0

    def per_replica(name: str) -> float:
        replicas = counts[f"{name}.replicas"]
        return 1e3 * total[name] / replicas if replicas else 0.0

    out = {
        "seeding.run_replicas.calls": (calls["seeding.run_replicas"], "count"),
        "seeding.run_replicas.pool_calls": (counts["seeding.run_replicas.pool_calls"], "count"),
        "seeding.derive_rng.calls": (calls["seeding.derive_rng"], "count"),
        "pd_process.estimate_pair_sum.ms_per_replica": (per_replica("pd_process.estimate_pair_sum"), "ms"),
        "pd_process.corollary_moments.ms_per_replica": (per_replica("pd_process.corollary_moments"), "ms"),
        "pd_process.verify_invariance.ms_per_replica": (per_replica("pd_process.verify_invariance"), "ms"),
        "pd_process.MarkSpec.sample.calls": (calls["pd_process.MarkSpec.sample"], "count"),
        "cascade.build_cascade.calls": (calls["cascade.build_cascade"], "count"),
        "cascade.build_cascade.ms": (mean("cascade.build_cascade", 1e3), "ms"),
        "cascade.sample_marks.ms": (mean("cascade.sample_marks", 1e3), "ms"),
        "cascade.CascadeFields.all_fields.ms": (mean("cascade.CascadeFields.all_fields", 1e3), "ms"),
        "cascade.overlap_mass.s": (total["cascade.overlap_mass"], "s"),
        "recursion.guerra_bound.calls": (calls["recursion.guerra_bound"], "count"),
        "recursion.guerra_bound.ms": (mean("recursion.guerra_bound", 1e3), "ms"),
        "recursion.smoothing_step.calls": (calls["recursion.smoothing_step"], "count"),
        "recursion.smoothing_step.ms": (mean("recursion.smoothing_step", 1e3), "ms"),
        "recursion.gauss_hermite.calls": (calls["recursion.gauss_hermite"], "count"),
        "recursion.optimize_bound.evaluations": (counts["recursion.optimize_bound.evaluations"], "count"),
        "recursion.mark_chain_restricted.ms": (mean("recursion.mark_chain_restricted", 1e3), "ms"),
        "recursion.mu_r_quadrature.ms": (mean("recursion.mu_r_quadrature", 1e3), "ms"),
        "sk_model.sample_hamiltonian.calls": (calls["sk_model.sample_hamiltonian"], "count"),
        "sk_model.sample_hamiltonian.us": (mean("sk_model.sample_hamiltonian", 1e6), "us"),
        "sk_model.exact_free_energy.s": (total["sk_model.exact_free_energy"], "s"),
        "interpolation.build_system.calls": (calls["interpolation.build_system"], "count"),
        "interpolation.build_system.ms": (mean("interpolation.build_system", 1e3), "ms"),
        "interpolation.build_coupled_system.calls": (calls["interpolation.build_coupled_system"], "count"),
        "interpolation.build_coupled_system.ms": (mean("interpolation.build_coupled_system", 1e3), "ms"),
        "interpolation.derivative_check.s": (total["interpolation.derivative_check"], "s"),
        "interpolation.gibbs_overlap_mass.s": (total["interpolation.gibbs_overlap_mass"], "s"),
        "interpolation.error_term_check.s": (total["interpolation.error_term_check"], "s"),
        "stats.identity_check.calls": (counts["stats.identity_check.calls"], "count"),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (total[f"cli.{command}"], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["self"][layer], "s")
    return out

