"""Outside-in per-layer tracing for the benchmark ledger.

One table, :data:`POINTS`, names every place the benchmark measures a
layer of ``src/repro``: ``(module, attribute, span, fires_on, counts)``.
:func:`install` replaces each attribute — *at the name its caller looks
it up under* (``repro.core.scf.chebyshev_filter``, not
``repro.core.chebyshev.chebyshev_filter``) — with a wrapper that records
an in-memory span and, where the table gives a ``counts`` hook, the work
counts read off the call's own arguments and return value.  Nothing in
``src/`` is edited; :func:`uninstall` puts the originals back.  A point
whose attribute no longer exists makes :func:`install` raise: a refactor
that moves a function fails loudly instead of reporting 0 s.

Span names are metric stems: ``core.cf`` yields ``core.cf_s`` (inclusive
seconds, outermost spans of that name only) and ``core.cf_calls``.  A
layer's *self* time is its duration minus the part its direct children
cover; ``core.unattributed_frac`` is the self time of the ``core.scf``
root over its duration, i.e. the share of a solve no named layer claims.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time

__all__ = [
    "POINTS",
    "LAYER_METRICS",
    "Recorder",
    "install",
    "uninstall",
    "summarize",
    "layer_metrics",
]

#: the benchmark's one clock (the ledger starts timing before ``repro`` is
#: importable, so it cannot borrow ``repro.obs.Stopwatch``)
clock = time.perf_counter  # reprolint: disable=R009

SCF = ("scf_h2o", "scf_mg32_k2", "scf_mg32_proc2", "scf_lih_mlxc")
SERIAL_SCF = ("scf_h2o", "scf_mg32_k2", "scf_lih_mlxc")
EVERY_SCF = SCF + ("pipeline_h2", "screen_h2_scan", "serve_wave")


# -- count hooks: (args, kwargs, result) -> {counter: increment} -------------
def _poisson_counts(args, kwargs, result):
    return {"fem.poisson_cg_iters": result.iterations}


def _ks_apply_counts(args, kwargs, result):
    x = args[1]
    return {"fem.ks_apply_cols": x.shape[1] if x.ndim == 2 else 1}


def _xc_counts(args, kwargs, result):
    # evaluate(self, rho_up, rho_dn, ...): every XC evaluation passes here once
    return {"xc.points": len(args[1])}


def _fci_counts(args, kwargs, result):
    return {"qmb.fci_dim": args[0].n_dets}


def _invdft_counts(args, kwargs, result):
    return {"invdft.iters": result.iterations}


def _adjoint_counts(args, kwargs, result):
    return {"invdft.minres_iters": result.iterations}


def _checkpoint_counts(args, kwargs, result):
    return {"io.checkpoint_bytes": os.path.getsize(args[0])}


#: (module, attribute, span, workloads it must fire on, count hook)
POINTS = [
    # fem
    ("repro.core.ksdft", "auto_mesh", "fem.setup",
     SCF + ("pipeline_h2", "serve_wave"), None),
    ("repro.screen.driver", "domain_mesh", "fem.setup", ("screen_h2_scan",), None),
    ("repro.fem.scatter", "ScatterMap.__init__", "fem.setup", EVERY_SCF, None),
    ("repro.fem.assembly", "CellStiffness.__init__", "fem.setup", EVERY_SCF, None),
    ("repro.fem.poisson", "PoissonSolver.solve", "fem.poisson_solve",
     EVERY_SCF, _poisson_counts),
    ("repro.fem.assembly", "CellStiffness.apply_full", "fem.stiffness_apply",
     EVERY_SCF, None),
    ("repro.fem.assembly", "KSOperator.apply", "fem.ks_apply",
     SERIAL_SCF + ("pipeline_h2", "screen_h2_scan", "serve_wave"),
     _ks_apply_counts),
    # core
    ("repro.core.hamiltonian", "Electrostatics.__init__",
     "core.electrostatics_setup", EVERY_SCF, None),
    ("repro.core.hamiltonian", "Electrostatics.solve", "core.ep", EVERY_SCF, None),
    ("repro.core.scf", "SCFDriver.run", "core.scf", EVERY_SCF, None),
    ("repro.core.scf", "chebyshev_filter", "core.cf", EVERY_SCF, None),
    ("repro.core.scf", "lanczos_upper_bound", "core.lanczos", EVERY_SCF, None),
    ("repro.core.scf", "cholesky_orthonormalize", "core.cholgs_rr", EVERY_SCF, None),
    ("repro.core.scf", "fused_cholgs_rr", "core.cholgs_rr", EVERY_SCF, None),
    ("repro.core.scf", "rayleigh_ritz", "core.cholgs_rr", (), None),
    ("repro.core.scf", "density_from_channels", "core.dc", EVERY_SCF, None),
    ("repro.core.scf", "find_fermi_level", "core.occ", EVERY_SCF, None),
    ("repro.core.scf", "total_energy", "core.energy", EVERY_SCF, None),
    ("repro.core.mixing", "AndersonMixer.mix", "core.mix", EVERY_SCF, None),
    # xc / ml
    ("repro.xc.base", "XCFunctional.potential_and_energy", "xc.eval",
     EVERY_SCF, None),
    ("repro.xc.base", "XCFunctional.evaluate", "xc.eval", EVERY_SCF, _xc_counts),
    ("repro.ml.nn", "MLP.forward", "ml.mlp_forward",
     ("scf_lih_mlxc", "pipeline_h2"), None),
    ("repro.ml.nn", "MLP.backward", "ml.mlp_backward", ("pipeline_h2",), None),
    # no workload reaches input_jacobian today (v_xc comes from six
    # complex-step forwards); the point waits for the change that uses it
    ("repro.ml.nn", "MLP.input_jacobian", "ml.mlp_input_jacobian", (), None),
    ("repro.ml.training", "MLXCTrainer.train", "ml.train", ("pipeline_h2",), None),
    ("repro.ml.training", "MLXCTrainer.loss_and_grad", "ml.train_epoch",
     ("pipeline_h2",), None),
    # qmb
    ("repro.pipeline", "compute_integrals", "qmb.integrals", ("pipeline_h2",), None),
    ("repro.qmb.fci", "FCISolver.ground_state", "qmb.fci",
     ("pipeline_h2",), _fci_counts),
    # invdft (its eigensolver looks the core kernels up in its own namespace)
    ("repro.invdft.inverse", "InverseDFT.run", "invdft.run",
     ("pipeline_h2",), _invdft_counts),
    ("repro.invdft.inverse", "InverseDFT._eigensolve", "invdft.eigensolve",
     ("pipeline_h2",), None),
    ("repro.invdft.inverse", "solve_adjoint", "invdft.adjoint",
     ("pipeline_h2",), _adjoint_counts),
    ("repro.invdft.inverse", "chebyshev_filter", "core.cf", ("pipeline_h2",), None),
    ("repro.invdft.inverse", "lanczos_upper_bound", "core.lanczos",
     ("pipeline_h2",), None),
    ("repro.invdft.inverse", "cholesky_orthonormalize", "core.cholgs_rr",
     ("pipeline_h2",), None),
    ("repro.invdft.inverse", "fused_cholgs_rr", "core.cholgs_rr",
     ("pipeline_h2",), None),
    ("repro.invdft.inverse", "find_fermi_level", "core.occ", ("pipeline_h2",), None),
    # hpc
    ("repro.hpc.distributed", "_make_cluster", "hpc.fork_setup",
     ("scf_mg32_proc2",), None),
    ("repro.hpc.distributed", "DistributedKSOperator.apply", "hpc.apply",
     ("scf_mg32_proc2",), None),
    ("repro.hpc.distributed", "DistributedKSOperator.apply_begin", "hpc.apply",
     ("scf_mg32_proc2",), None),
    ("repro.hpc.distributed", "DistributedKSOperator.apply_finish", "hpc.apply",
     ("scf_mg32_proc2",), None),
    # screen
    ("repro.screen.driver", "ScreenCampaign._choose_seed", "screen.seed_lookup",
     ("screen_h2_scan",), None),
    # serve
    ("repro.serve.server", "SimulationServer.submit", "serve.submit",
     ("serve_wave",), None),
    ("repro.serve.queue", "JobQueue.pop_dispatchable", "serve.queue_pop",
     ("serve_wave",), None),
    ("repro.serve.cache", "ResultCache.get", "serve.cache_get", ("serve_wave",), None),
    ("repro.serve.cache", "ResultCache.put", "serve.cache_put", ("serve_wave",), None),
    # io (the SCF loop's own names for the checkpoint calls)
    ("repro.core.scf", "save_scf_state", "io.checkpoint_write",
     ("serve_wave",), _checkpoint_counts),
    ("repro.core.scf", "load_scf_state", "io.checkpoint_read", ("serve_wave",), None),
]

#: every per-layer metric the ledger emits: name -> (unit, better)
LAYER_METRICS = {
    "energy_err_ha": ("Ha", "lower"),
    "failed_frac": ("frac", "lower"),
    # end-to-end by nature, per-layer by necessity (README: only serve_wave
    # gives them a meaning of their own, and its numbers follow the disk)
    "jobs_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "fem.poisson_solve_s": ("s", "lower"),
    "fem.poisson_solves": ("count", "lower"),
    "fem.poisson_cg_iters": ("count", "lower"),
    "fem.poisson_cg_iters_per_solve": ("count", "lower"),
    "fem.stiffness_apply_s": ("s", "lower"),
    "fem.ks_apply_s": ("s", "lower"),
    "fem.ks_apply_calls": ("count", "lower"),
    "fem.ks_apply_cols": ("count", "lower"),
    "fem.setup_s": ("s", "lower"),
    "core.cf_s": ("s", "lower"),
    "core.cf_calls": ("count", "lower"),
    "core.lanczos_s": ("s", "lower"),
    "core.cholgs_rr_s": ("s", "lower"),
    "core.dc_s": ("s", "lower"),
    "core.occ_s": ("s", "lower"),
    "core.energy_s": ("s", "lower"),
    "core.mix_s": ("s", "lower"),
    "core.ep_s": ("s", "lower"),
    "core.scf_iters": ("count", "lower"),
    "core.scf_s_per_iter": ("s", "lower"),
    "core.flops_counted": ("flop", "lower"),
    "core.gflops_rate": ("GFLOP/s", "higher"),
    "core.unattributed_frac": ("frac", "lower"),
    "core.electrostatics_setup_s": ("s", "lower"),
    "xc.eval_s": ("s", "lower"),
    "xc.eval_calls": ("count", "lower"),
    "xc.points_per_s": ("1/s", "higher"),
    "ml.mlp_forward_s": ("s", "lower"),
    "ml.mlp_input_jacobian_s": ("s", "lower"),
    "ml.train_epoch_s": ("s", "lower"),
    "ml.mlp_backward_s": ("s", "lower"),
    "ml.final_loss": ("loss", "lower"),
    "qmb.integrals_s": ("s", "lower"),
    "qmb.fci_s": ("s", "lower"),
    "qmb.fci_dim": ("count", "lower"),
    "invdft.iters": ("count", "lower"),
    "invdft.iter_s": ("s", "lower"),
    "invdft.adjoint_s": ("s", "lower"),
    "invdft.minres_iters": ("count", "lower"),
    "invdft.eigensolve_s": ("s", "lower"),
    "invdft.density_err_final": ("e2/bohr3", "lower"),
    "hpc.halo_bytes": ("B", "lower"),
    "hpc.halo_messages": ("count", "lower"),
    "hpc.allreduce_bytes": ("B", "lower"),
    "hpc.halo_wait_frac": ("frac", "lower"),
    "hpc.apply_s": ("s", "lower"),
    "hpc.fork_setup_s": ("s", "lower"),
    "hpc.speedup_vs_serial": ("x", "higher"),
    "hpc.energy_gap_vs_serial_ha": ("Ha", "lower"),
    "screen.member_s": ("s", "lower"),
    "screen.scf_iters": ("count", "lower"),
    "screen.iters_saved_frac": ("frac", "higher"),
    "screen.seed_hit_frac": ("frac", "higher"),
    "screen.setup_cache_hits": ("count", "higher"),
    "screen.seed_lookup_s": ("s", "lower"),
    "serve.submit_s": ("s", "lower"),
    "serve.queue_pop_s": ("s", "lower"),
    "serve.queue_depth_max": ("count", "lower"),
    "serve.cache_get_s": ("s", "lower"),
    "serve.cache_put_s": ("s", "lower"),
    "serve.cache_hit_frac": ("frac", "higher"),
    "serve.slices": ("count", "lower"),
    "serve.preemptions": ("count", "lower"),
    "serve.scf_batch_s": ("s", "lower"),
    "serve.burst_jobs_per_s": ("1/s", "higher"),
    "serve.warm_jobs_per_s": ("1/s", "higher"),
    "serve.open_p50_ms": ("ms", "lower"),
    "serve.open_p99_ms": ("ms", "lower"),
    "serve.open_gen_late_p99_ms": ("ms", "lower"),
    "serve.open_p99_ms_beside_scf": ("ms", "lower"),
    "io.checkpoint_write_s": ("s", "lower"),
    "io.checkpoint_read_s": ("s", "lower"),
    "io.checkpoint_bytes": ("B", "lower"),
    "obs.trace_overhead_frac": ("frac", "lower"),
}


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, point: int, stacked: bool = True) -> dict:
        stack = self._stack() if stacked else []
        span = {
            "name": name,
            "point": point,
            "workload": self.workload,
            "thread": threading.get_ident(),
            "parent": stack[-1] if stack else None,
            "counts": {},
            "start": clock(),
            "end": None,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        if stacked:
            stack.append(span["id"])
        return span

    def close(self, span: dict, stacked: bool = True) -> None:
        span["end"] = clock()
        if stacked:
            self._stack().pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def _wrap(original, point: int, recorder: Recorder):
    span_name, counts = POINTS[point][2], POINTS[point][4]
    if inspect.iscoroutinefunction(original):
        # coroutines of many tasks interleave on one thread, so they get
        # no place on the thread's stack: parentless, and not a parent
        @functools.wraps(original)
        async def awrapper(*args, **kwargs):
            span = recorder.open(span_name, point, stacked=False)
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.close(span, stacked=False)

        return awrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(span_name, point)
        try:
            result = original(*args, **kwargs)
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def _owner_and_name(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(recorder: Recorder) -> list:
    """Wrap every point of :data:`POINTS`; returns the undo list."""
    undo = []
    try:
        for point, (module, attribute, *_rest) in enumerate(POINTS):
            owner, name = _owner_and_name(module, attribute)
            original = inspect.getattr_static(owner, name)
            if not inspect.isfunction(original):
                raise TypeError(
                    f"{module}.{attribute} is {type(original).__name__}, not a "
                    "plain function: the patch table needs updating"
                )
            setattr(owner, name, _wrap(original, point, recorder))
            undo.append((owner, name, original))
    except (AttributeError, ImportError, TypeError):
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def summarize(spans: list[dict]) -> dict:
    """Per-name calls, inclusive and self seconds, and summed counts."""
    child_cover = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_cover[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for span in spans:
        dur = span["end"] - span["start"]
        entry = out.setdefault(
            span["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        entry["self_s"] += max(dur - child_cover[span["id"]], 0.0)
        # calls and inclusive time count a name once per nest: an xc.eval
        # opened inside an xc.eval is already inside the outer one
        ancestor = span["parent"]
        while ancestor is not None and spans[ancestor]["name"] != span["name"]:
            ancestor = spans[ancestor]["parent"]
        if ancestor is None:
            entry["calls"] += 1
            entry["incl_s"] += dur
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def layer_metrics(summary: dict, extras: dict) -> dict:
    """Every name of :data:`LAYER_METRICS` -> value (0.0 where a layer is idle).

    ``summary`` comes from :func:`summarize`; ``extras`` holds what the
    workload read off the program's public objects (``ServerStats``,
    ``op.traffic``, ``CampaignReport`` ...) or measured around a traced-only
    phase, keyed by metric name.
    """

    def incl(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def count(span, key):
        return summary.get(span, {}).get("counts", {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = dict.fromkeys(LAYER_METRICS, 0.0)
    for name in LAYER_METRICS:
        if name.endswith("_s") and name[:-2] in summary:
            m[name] = incl(name[:-2])
        elif name.endswith("_calls") and name[: -len("_calls")] in summary:
            m[name] = calls(name[: -len("_calls")])
    m["fem.poisson_solves"] = calls("fem.poisson_solve")
    m["fem.poisson_cg_iters"] = count("fem.poisson_solve", "fem.poisson_cg_iters")
    m["fem.poisson_cg_iters_per_solve"] = ratio(
        m["fem.poisson_cg_iters"], m["fem.poisson_solves"]
    )
    m["fem.ks_apply_cols"] = count("fem.ks_apply", "fem.ks_apply_cols")
    # the loop evaluates the energy once per iteration and each run once
    # more at the end; a resumed slice reports its cumulative count, so
    # SCFResult.n_iterations would count a sliced job's early steps twice
    m["core.scf_iters"] = calls("core.energy") - calls("core.scf")
    m["core.scf_s_per_iter"] = ratio(incl("core.scf"), m["core.scf_iters"])
    m["core.unattributed_frac"] = ratio(
        summary.get("core.scf", {}).get("self_s", 0.0), incl("core.scf")
    )
    m["xc.points_per_s"] = ratio(count("xc.eval", "xc.points"), incl("xc.eval"))
    m["ml.train_epoch_s"] = ratio(incl("ml.train_epoch"), calls("ml.train_epoch"))
    m["qmb.fci_dim"] = count("qmb.fci", "qmb.fci_dim")
    m["invdft.iters"] = count("invdft.run", "invdft.iters")
    m["invdft.iter_s"] = ratio(incl("invdft.run"), m["invdft.iters"])
    m["invdft.minres_iters"] = count("invdft.adjoint", "invdft.minres_iters")
    m["io.checkpoint_bytes"] = count("io.checkpoint_write", "io.checkpoint_bytes")
    m.update(extras)
    m["core.gflops_rate"] = 1e-9 * ratio(m["core.flops_counted"], incl("core.scf"))
    unknown = set(m) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"metrics not declared in LAYER_METRICS: {sorted(unknown)}")
    return m
