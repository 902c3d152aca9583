"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package, substrate and machine-model summary.
``scf MOLECULE``
    Ground-state SCF of a library molecule (LDA/PBE/MLXC).  With
    ``--checkpoint PATH`` the loop state is snapshotted every iteration
    (``--checkpoint-every N`` to thin), ready for ``resume``.
``resume PATH``
    Continue an interrupted ``scf --checkpoint`` run from its checkpoint
    file — the resumed trajectory matches the uninterrupted run bit for
    bit.  Chaos drills: set ``REPRO_FAULTS="site:iter[:kind]"`` to inject
    deterministic faults (see :mod:`repro.resilience`).
``perfmodel [SYSTEM]``
    Modeled Table-3 style breakdown for a paper workload (``--json`` for
    machine-readable output).
``trace MOLECULE``
    Run an SCF under the reproscope tracer and write a Chrome-trace JSON
    (load it in Perfetto / ``chrome://tracing``).
``systems``
    Build and tabulate the paper's benchmark systems.
``serve``
    Run a batch of jobs through the repro.serve runtime — priority
    queue, preemptive scheduler, content-addressed result cache — and
    print throughput/latency/cache statistics.
``lint [PATH ...]``
    Run the reprolint numerical-safety static analyzer (defaults to
    ``src/``).  Flags are forwarded to ``repro.tools.lint``.
"""

from __future__ import annotations

import argparse
import sys

#: registered subcommands: name -> (handler, one-line help).  ``info``
#: enumerates this table, so a new subcommand shows up there for free.
COMMANDS: dict[str, tuple] = {}


def _command(name: str, help_line: str):
    def deco(fn):
        COMMANDS[name] = (fn, help_line)
        return fn

    return deco


@_command("info", "package, substrate and machine-model summary")
def _cmd_info(_args) -> int:
    import os

    import repro
    from repro.atoms.library import MOLECULE_LIBRARY
    from repro.core import SCFOptions
    from repro.hpc.distributed import RANK_BACKENDS
    from repro.hpc.machine import MACHINES
    from repro.hpc.runtime import PAPER_WORKLOADS

    cores = os.cpu_count() or 1
    print(f"repro {repro.__version__} — SC'23 DFT-FE-MLXC reproduction")
    print(f"  molecules: {', '.join(sorted(MOLECULE_LIBRARY))}")
    print(f"  workloads: {', '.join(sorted(PAPER_WORKLOADS))}")
    print(f"  machines:  {', '.join(sorted(MACHINES))}")
    print(f"  backends:  serial, {', '.join(RANK_BACKENDS)} "
          f"(host cores: {cores}; default rank count: {SCFOptions.nranks})")
    print("  commands:")
    width = max(len(n) for n in COMMANDS)
    for name in sorted(COMMANDS):
        print(f"    {name:<{width}}  {COMMANDS[name][1]}")
    return 0


def _run_library_scf(args):
    """Build and run a DFTCalculation for a library molecule (CLI shared)."""
    import numpy as np

    from repro.atomicio import ArtifactError
    from repro.atoms.library import MOLECULE_LIBRARY
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions
    from repro.xc import LDA, PBE

    if args.molecule not in MOLECULE_LIBRARY:
        print(f"unknown molecule {args.molecule!r}; see `python -m repro info`")
        return None, None
    symbols, positions, *_ = MOLECULE_LIBRARY[args.molecule]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    xc = {"lda": LDA, "pbe": PBE}[args.xc]()
    backend = getattr(args, "backend", "serial")
    nranks = max(1, int(getattr(args, "ranks", 2)))
    checkpoint = getattr(args, "checkpoint", None)
    options = SCFOptions(
        max_iterations=args.max_scf, verbose=True,
        backend=backend, nranks=nranks,
        initial_rho_path=getattr(args, "initial_rho", None),
        checkpoint_path=checkpoint,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        # what `repro resume` rebuilds the calculation from
        checkpoint_metadata={
            "molecule": args.molecule, "xc": args.xc,
            "degree": args.degree, "cells": args.cells,
            "max_scf": args.max_scf, "backend": backend, "ranks": nranks,
        } if checkpoint else None,
    )
    calc = DFTCalculation(
        config, xc=xc, degree=args.degree, cells_per_axis=args.cells,
        options=options,
    )
    resume_from = getattr(args, "resume_from", None)
    with calc:  # tears down proc-backend worker fleets on exit
        try:
            return xc.name, calc.run(resume_from=resume_from)
        except ArtifactError as exc:
            # a refused file (missing, damaged, wrong kind, wrong mesh) is a
            # user error, not a traceback; the message names the path
            what = "resume" if resume_from else "seed from --initial-rho"
            print(f"cannot {what}: {exc}")
            return None, None


def _print_profile(agg) -> None:
    from repro.obs import TABLE3_ORDER, kernel_totals, render_tree

    print()
    print(render_tree(agg, title="reproscope profile"))
    totals = kernel_totals(agg)
    grand = sum(totals.values()) or 1.0
    print()
    print("Table-3 kernel totals:")
    for label in TABLE3_ORDER:
        sec = totals.get(label, 0.0)
        if sec == 0.0:
            continue
        print(f"  {label:<10} {sec:9.4f} s  {100.0 * sec / grand:5.1f} %")


@_command("scf", "ground-state SCF of a library molecule")
def _cmd_scf(args) -> int:
    from repro.core import homo_lumo_gap

    agg = None
    if args.profile:
        from repro.obs import InMemoryAggregator, get_tracer

        agg = InMemoryAggregator()
        get_tracer().add_sink(agg)
    xc_name, res = _run_library_scf(args)
    if res is None:
        return 2
    print(f"E({args.molecule}, {xc_name}) = {res.energy:+.6f} Ha  "
          f"gap = {homo_lumo_gap(res) * 27.2114:.2f} eV  "
          f"converged={res.converged}")
    if agg is not None:
        _print_profile(agg)
    return 0 if res.converged else 1


@_command("resume", "continue an scf --checkpoint run bit-for-bit")
def _cmd_resume(args) -> int:
    """Continue an interrupted ``scf --checkpoint`` run bit-for-bit."""
    from repro.atomicio import ArtifactError
    from repro.core import SCFOptions
    from repro.core.io import load_scf_state

    try:
        state = load_scf_state(args.checkpoint)
    except ArtifactError as exc:
        print(f"cannot resume: {exc}")
        return 2
    meta = state["metadata"]
    required = ("molecule", "xc", "degree", "cells", "max_scf")
    missing = [k for k in required if k not in meta]
    if missing:
        print(f"checkpoint {args.checkpoint!r} lacks CLI metadata {missing}; "
              "it was not written by `python -m repro scf --checkpoint`")
        return 2
    args.molecule = meta["molecule"]
    args.xc = meta["xc"]
    args.degree = int(meta["degree"])
    args.cells = int(meta["cells"])
    # checkpoints written before the backend was recorded resume serial
    args.backend = meta.get("backend", "serial")
    args.ranks = int(meta.get("ranks", SCFOptions.nranks))
    if args.max_scf is None:
        args.max_scf = int(meta["max_scf"])
    args.resume_from = args.checkpoint
    print(f"resuming {args.molecule} ({args.xc}) from iteration "
          f"{state['iteration']} of {args.checkpoint}")
    return _cmd_scf(args)


@_command("trace", "SCF under the reproscope tracer (Chrome trace)")
def _cmd_trace(args) -> int:
    from repro.obs import ChromeTraceSink, InMemoryAggregator, get_tracer

    tracer = get_tracer()
    chrome = ChromeTraceSink(args.output, epoch=tracer.epoch)
    agg = InMemoryAggregator()
    tracer.add_sink(chrome)
    tracer.add_sink(agg)
    try:
        _, res = _run_library_scf(args)
    finally:
        tracer.remove_sink(chrome)
        tracer.remove_sink(agg)
        chrome.close()
    if res is None:
        return 2
    print(f"wrote {len(chrome.events)} trace events ({agg.roots_seen} root "
          f"spans) to {args.output} — open in Perfetto or chrome://tracing")
    if args.profile:
        _print_profile(agg)
    return 0 if res.converged else 1


@_command("perfmodel", "modeled Table-3 breakdown for a paper workload")
def _cmd_perfmodel(args) -> int:
    from repro.hpc.machine import FRONTIER
    from repro.hpc.perfmodel import ModelOptions
    from repro.hpc.runtime import PAPER_WORKLOADS, scf_breakdown

    wl = PAPER_WORKLOADS[args.system]
    m = scf_breakdown(
        wl, FRONTIER, args.nodes, ModelOptions(optimal_routing=False)
    )
    if args.json:
        import json

        payload = {
            "workload": wl.name,
            "machine": "Frontier",
            "nodes": args.nodes,
            "peak_pflops": FRONTIER.system_peak_pflops(args.nodes),
            "kernels": [
                {"kernel": name, "seconds": sec, "pflop": pf, "pflops": pflops}
                for name, sec, pf, pflops in m.table_rows()
            ],
            "total": {
                "seconds": m.wall_time,
                "pflop": m.counted_pflop,
                "pflops": m.sustained_pflops,
                "peak_fraction": m.peak_fraction,
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{wl.name} on {args.nodes} Frontier nodes "
          f"({FRONTIER.system_peak_pflops(args.nodes):.1f} PF peak):")
    for name, sec, pf, pflops in m.table_rows():
        pf_s = f"{pf:10.1f}" if pf else "         -"
        print(f"  {name:<14} {sec:8.1f} s {pf_s} PFLOP {pflops:8.1f} PFLOPS")
    print(f"  TOTAL          {m.wall_time:8.1f} s {m.counted_pflop:10.1f} PFLOP "
          f"{m.sustained_pflops:8.1f} PFLOPS ({m.peak_fraction:.1%} of peak)")
    return 0


@_command("systems", "build and tabulate the paper benchmark systems")
def _cmd_systems(_args) -> int:
    from repro.materials.systems import SYSTEM_BUILDERS, build_system

    for name in SYSTEM_BUILDERS:
        s = build_system(name)
        print(f"{s.name:<18} {s.config.natoms:6d} atoms  "
              f"{s.electrons_per_kpoint:7d} e-/k x {s.n_kpoints} k  "
              f"= {s.supercell_electrons:7d} e-")
    return 0


@_command("serve", "batch jobs through the simulation service runtime")
def _cmd_serve(args) -> int:
    """Serve a request stream and print throughput / latency / cache stats."""
    import json

    from repro.serve import (
        SchedulerPolicy,
        probe_load,
        run_jobs,
        scf_load,
    )

    if args.molecules:
        requests = scf_load(
            [m.strip() for m in args.molecules.split(",") if m.strip()],
            repeats=args.repeats,
            degree=args.degree,
            cells=args.cells,
            max_scf=args.max_scf,
        )
    else:
        requests = probe_load(
            args.jobs, distinct=args.distinct, seed=args.seed
        )
    policy = SchedulerPolicy(
        total_ranks=args.ranks, slice_iterations=args.slice,
        backend=args.backend,
    )
    report = run_jobs(
        requests, workdir=args.workdir, policy=policy, workers=args.workers
    )
    stats = report.stats
    summary = {
        "jobs": len(report.jobs),
        "wall_seconds": report.wall_seconds,
        "jobs_per_second": (
            len(report.jobs) / report.wall_seconds
            if report.wall_seconds > 0
            else 0.0
        ),
        "latency_p50_s": stats.latency_percentile(0.50),
        "latency_p99_s": stats.latency_percentile(0.99),
        "cache_hit_rate": report.cache_stats.hit_rate,
        "coalesced": stats.coalesced,
        "preemptions": stats.preemptions,
        "failed": stats.failed,
        "max_queue_depth": stats.max_queue_depth,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0 if stats.failed == 0 else 1
    print(
        f"served {summary['jobs']} jobs in {summary['wall_seconds']:.3f} s "
        f"({summary['jobs_per_second']:.1f} jobs/s) with {args.workers} "
        f"workers on {args.ranks} ranks"
    )
    print(
        f"  latency p50 {1e3 * summary['latency_p50_s']:.2f} ms  "
        f"p99 {1e3 * summary['latency_p99_s']:.2f} ms"
    )
    print(
        f"  cache hit rate {summary['cache_hit_rate']:.1%}  "
        f"coalesced {stats.coalesced}  preemptions {stats.preemptions}  "
        f"failed {stats.failed}"
    )
    return 0 if stats.failed == 0 else 1


@_command("screen", "sweep a structure family with warm-start reuse")
def _cmd_screen(args) -> int:
    """Run a screening campaign over a declared structure family."""
    import json

    from repro.screen import (
        ScreenCampaign,
        chain_family,
        dimer_family,
        solute_chain_family,
    )

    def _floats(raw: str) -> tuple[float, ...]:
        return tuple(float(x) for x in raw.split(",") if x.strip())

    def _ints(raw: str) -> tuple[int, ...]:
        return tuple(int(x) for x in raw.split(",") if x.strip())

    if args.family == "dimer":
        family = dimer_family(args.symbol, _floats(args.bonds))
    elif args.family == "chain":
        family = chain_family(
            args.symbol, _ints(args.sizes), spacing=args.spacing
        )
    else:
        family = solute_chain_family(
            args.symbol, args.solute, args.chain_n, spacing=args.spacing
        )
    campaign = ScreenCampaign(
        family,
        xc=args.xc,
        degree=args.degree,
        cells_per_axis=args.cells,
        padding=args.padding,
        seeding=not args.cold,
        surrogate=args.surrogate,
        n_anchors=args.anchors,
    )
    report = campaign.run()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if all(o.converged for o in report.outcomes) else 1
    print(f"screened {len(report.outcomes)} members of {report.family} "
          f"in {report.wall_seconds:.2f} s")
    for o in report.outcomes:
        print(f"  {o.name:<18} E = {o.energy:+.10f} Ha  "
              f"{o.iterations:3d} iters  seed={o.seed_source}"
              f"{'' if o.converged else '  NOT CONVERGED'}")
    print(f"  total SCF iterations: {report.total_iterations}  "
          f"seeded: {report.seeded_fraction:.0%}  "
          f"sources: {report.counts_by_source()}")
    stats = report.seed_stats
    if stats:
        print(f"  seed store: {stats.get('deposits', 0):.0f} deposits, "
              f"hit rate {stats.get('hit_rate', 0.0):.0%}  "
              f"setup cache: {report.setup_cache}")
    return 0 if all(o.converged for o in report.outcomes) else 1


@_command("lint", "run the reprolint numerical-safety static analyzer")
def _cmd_lint(_args) -> int:
    # normally handled by the pass-through in main() (the linter owns its
    # own flags); this path serves a bare `lint` routed through argparse
    from repro.tools.lint import main as lint_main

    return lint_main(["src"])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        # pass-through subcommand: all flags belong to the linter's own CLI
        from repro.tools.lint import main as lint_main

        return lint_main(argv[1:] or ["src"])
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("info")

    def _add_scf_args(p) -> None:
        p.add_argument("molecule")
        p.add_argument("--xc", choices=("lda", "pbe"), default="lda")
        p.add_argument("--degree", type=int, default=4)
        p.add_argument("--cells", type=int, default=4)
        p.add_argument("--max-scf", type=int, default=40)
        p.add_argument(
            "--profile", action="store_true",
            help="print the reproscope kernel breakdown after the run",
        )
        p.add_argument(
            "--checkpoint", metavar="PATH", default=None,
            help="write a resumable mid-run checkpoint to PATH",
        )
        p.add_argument(
            "--initial-rho", metavar="PATH", default=None,
            help="warm-start the SCF from the density in a result or scf "
                 "checkpoint written on the same mesh",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=1, metavar="N",
            help="snapshot every N SCF iterations (default: 1)",
        )
        p.add_argument(
            "--backend", choices=("serial", "virtual", "proc"),
            default="serial",
            help="rank substrate: serial (golden reference), virtual "
                 "(metered in-process ranks) or proc (real shared-memory "
                 "rank processes; bitwise-identical energies)",
        )
        p.add_argument(
            "--ranks", type=int, default=2, metavar="P",
            help="rank count for the virtual/proc backends (default: 2)",
        )

    p = sub.add_parser("scf")
    _add_scf_args(p)
    p = sub.add_parser("trace")
    _add_scf_args(p)
    p.add_argument(
        "-o", "--output", default="repro_trace.json",
        help="Chrome-trace JSON output path (default: repro_trace.json)",
    )
    p = sub.add_parser("perfmodel")
    p.add_argument("system", nargs="?", default="TwinDislocMgY(C)")
    p.add_argument("--nodes", type=int, default=8000)
    p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p = sub.add_parser("resume", help="continue an scf --checkpoint run")
    p.add_argument("checkpoint", help="checkpoint written by scf --checkpoint")
    p.add_argument(
        "--max-scf", type=int, default=None,
        help="override the checkpointed iteration budget",
    )
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N")
    p.add_argument(
        "--profile", action="store_true",
        help="print the reproscope kernel breakdown after the run",
    )
    sub.add_parser("systems")
    p = sub.add_parser("serve", help="batch jobs through the serve runtime")
    p.add_argument(
        "--jobs", type=int, default=100,
        help="number of probe requests to generate (default: 100)",
    )
    p.add_argument(
        "--distinct", type=int, default=16,
        help="unique specs in the probe stream (default: 16)",
    )
    p.add_argument(
        "--molecules", default=None, metavar="A,B,...",
        help="serve SCF jobs for these library molecules instead of probes",
    )
    p.add_argument(
        "--repeats", type=int, default=2,
        help="submissions per molecule with --molecules (default: 2)",
    )
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--cells", type=int, default=3)
    p.add_argument("--max-scf", type=int, default=40)
    p.add_argument(
        "--workers", type=int, default=4, help="worker threads (default: 4)"
    )
    p.add_argument(
        "--ranks", type=int, default=8,
        help="virtual-cluster rank budget (default: 8)",
    )
    p.add_argument(
        "--backend", choices=("serial", "virtual", "proc"),
        default="serial",
        help="rank substrate for SCF/bands jobs (default: serial)",
    )
    p.add_argument(
        "--slice", type=int, default=None, metavar="N",
        help="preempt sliceable jobs every N driver iterations",
    )
    p.add_argument(
        "--workdir", default=None,
        help="cache + checkpoint directory (default: temporary)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p = sub.add_parser(
        "screen", help="sweep a structure family with warm-start reuse"
    )
    p.add_argument(
        "--family", choices=("dimer", "chain", "solute-chain"),
        default="dimer",
    )
    p.add_argument("--symbol", default="H", help="host element symbol")
    p.add_argument(
        "--bonds", default="1.2,1.3,1.4", metavar="A,B,...",
        help="dimer bond lengths in Bohr (family=dimer)",
    )
    p.add_argument(
        "--sizes", default="2,3,4", metavar="N,M,...",
        help="chain lengths in atoms (family=chain)",
    )
    p.add_argument(
        "--spacing", type=float, default=1.8,
        help="chain spacing in Bohr (default: 1.8)",
    )
    p.add_argument("--solute", default="He", help="solute symbol")
    p.add_argument(
        "--chain-n", type=int, default=4,
        help="host chain length for family=solute-chain (default: 4)",
    )
    p.add_argument("--xc", choices=("lda", "pbe"), default="lda")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--cells", type=int, default=2)
    p.add_argument("--padding", type=float, default=5.0)
    p.add_argument(
        "--cold", action="store_true",
        help="disable warm-start reuse (the benchmark baseline)",
    )
    p.add_argument(
        "--surrogate", action="store_true",
        help="train the ML density surrogate on solved members",
    )
    p.add_argument(
        "--anchors", type=int, default=1,
        help="members solved cold at the head of the plan (default: 1)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    sub.add_parser("lint", help="run the reprolint static analyzer")
    args = ap.parse_args(argv)
    return COMMANDS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
