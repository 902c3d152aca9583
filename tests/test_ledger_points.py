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


def test_no_functional_shadows_the_hooked_entry_points():
    """``XCFunctional.evaluate`` / ``.potential_and_energy`` are wrapped on the
    base class: a subclass defining its own would run unmeasured."""
    import pkgutil

    import repro.xc
    from repro.xc.base import XCFunctional

    for info in pkgutil.iter_modules(repro.xc.__path__):
        module = importlib.import_module(f"repro.xc.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ \
                    and cls is not XCFunctional:
                assert not {"evaluate", "potential_and_energy"} & set(vars(cls)), cls


def test_bands_and_invdft_fire_the_scf_kernel_points():
    """``band_structure`` and ``InverseDFT`` solve through
    ``repro.core.scf.chfes_step``, so one call of each fires the SCF's CF
    and fused CholGS/RR points: the ledger times them as ``core.cf`` /
    ``core.cholgs_rr`` only while the step looks the kernels up there."""
    from types import SimpleNamespace

    import numpy as np

    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core.bands import band_structure
    from repro.fem.mesh import uniform_mesh
    from repro.invdft import InverseDFT

    mesh = uniform_mesh((6.0,) * 3, (2,) * 3, degree=2)
    r2 = np.sum((mesh.node_coords - 3.0) ** 2, axis=1)
    rho = np.exp(-r2)
    rho *= 2.0 / float(mesh.integrate(rho))
    spin = np.stack([0.5 * rho, 0.5 * rho], axis=1)
    ground = SimpleNamespace(v_tot=-np.exp(-r2), v_xc_spin=np.zeros_like(spin))
    inv = InverseDFT(mesh, AtomicConfiguration(["He"], [[3.0, 3.0, 3.0]]), spin)

    layers = _load_layers()
    wanted = {"repro.core.scf.chebyshev_filter", "repro.core.scf.fused_cholgs_rr"}
    for run in (
        lambda: band_structure(mesh, ground, [(0.0, 0.0, 0.0)], nbands=2),
        lambda: inv.run(np.zeros_like(spin), max_iterations=1),
    ):
        recorder = layers.Recorder("probe")
        undo = layers.install(recorder)
        try:
            run()
        finally:
            layers.uninstall(undo)
        fired = {".".join(layers.POINTS[s["point"]][:2]) for s in recorder.spans}
        assert wanted <= fired, fired


def test_neural_functional_and_trainer_fire_their_points():
    """One MLXC potential fires ``xc.eval`` (with the node count) through the
    base-class entry points, ``ml.mlp_forward`` and ``ml.mlp_input_jacobian``;
    one ``loss_and_grad`` fires ``ml.mlp_backward``."""
    import numpy as np

    from repro.fem.mesh import uniform_mesh
    from repro.ml.training import MLXCTrainer, assemble_sample
    from repro.xc.mlxc import MLXC

    mesh = uniform_mesh((4.0,) * 3, (2,) * 3, degree=2)
    rho = np.exp(-np.sum((mesh.node_coords - 1.9) ** 2, axis=1))
    spin = np.stack([0.6 * rho, 0.4 * rho], axis=1)
    functional = MLXC(seed=0)
    sample = assemble_sample("probe", mesh, spin, np.zeros_like(spin), -0.1)

    layers = _load_layers()

    def fired(spans):
        return {".".join(layers.POINTS[span["point"]][:2]): span for span in spans}

    recorder = layers.Recorder("probe")
    undo = layers.install(recorder)
    try:
        functional.potential_and_energy(mesh, spin)
        n_potential = len(recorder.spans)
        MLXCTrainer([sample], functional).loss_and_grad()
    finally:
        layers.uninstall(undo)
    potential = fired(recorder.spans[:n_potential])
    training = fired(recorder.spans[n_potential:])

    assert {
        "repro.xc.base.XCFunctional.potential_and_energy",
        "repro.xc.base.XCFunctional.evaluate",
        "repro.ml.nn.MLP.forward",
        "repro.ml.nn.MLP.input_jacobian",
    } <= set(potential)
    evaluate = potential["repro.xc.base.XCFunctional.evaluate"]
    assert evaluate["counts"] == {"xc.points": mesh.nnodes}
    assert {
        "repro.ml.training.MLXCTrainer.loss_and_grad",
        "repro.xc.base.XCFunctional.evaluate",
        "repro.ml.nn.MLP.forward",
        "repro.ml.nn.MLP.backward",
    } <= set(training)
