"""The benchmark ledger's frozen hook table, checked in tier 1.

``benchmarks/ledger/layers.py`` names every ``src/repro`` attribute the
benchmark wraps.  ``pytest benchmarks/ledger`` exercises the table, but
tier 1 (``testpaths = tests``) never collects it — so a refactor that moves
a hooked name would pass here and break the benchmark.  This installs and
uninstalls the whole table once.
"""

import importlib.util
import inspect
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/ledger/layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("ledger_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_point_resolves_and_is_restored():
    layers = _load_layers()
    before = []
    for module, attribute, *_ in layers.POINTS:
        owner, name = layers._owner_and_name(module, attribute)
        before.append((owner, name, inspect.getattr_static(owner, name)))
    assert all(inspect.isfunction(original) for _, _, original in before)

    undo = layers.install(layers.Recorder("probe"))
    try:
        assert len(undo) == len(layers.POINTS)
        for owner, name, original in before:
            assert inspect.getattr_static(owner, name) is not original
    finally:
        layers.uninstall(undo)
    for owner, name, original in before:
        assert inspect.getattr_static(owner, name) is original, (owner, name)


def test_rank_backed_operator_is_told_apart_by_its_cluster():
    """``workloads.py`` splits the serial twin from the rank run by
    ``hasattr(op, "cluster")``, and reads traffic off the rank one."""
    from repro.fem.assembly import KSOperator
    from repro.fem.mesh import uniform_mesh
    from repro.hpc.distributed import DistributedKSOperator

    mesh = uniform_mesh((4.0,) * 3, (2,) * 3, degree=2)
    assert not hasattr(KSOperator(mesh), "cluster")
    op = DistributedKSOperator(mesh, 2)
    assert op.cluster.traffic is op.traffic
    assert op.clone().cluster is op.cluster
