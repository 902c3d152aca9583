"""The import contract: a process imports what its command executes.

Every check compares *sets of module names* read from a fresh interpreter
(``sys.executable -c``), never a timing, so none of them can flake.  The
rule they pin (DESIGN.md, "Import contract"): what every SCF executes —
``scipy.linalg``, ``scipy.sparse``, ``scipy.special``, ``fem``, the tracer,
``resilience`` — is imported at module level; what a default serial LDA SCF
never runs is not imported until a command reaches it.  A new module-level
``import scipy.<x>`` in ``core/``, ``fem/``, ``xc/`` or ``atoms/`` fails here.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: what the benchmark's SCF workloads import before they build anything
SCF_IMPORTS = (
    "import repro.core; from repro.pipeline import MOLECULE_LIBRARY; "
    "from repro.xc import LDA; "
)
#: scipy's public second-level names an SCF process may hold
SCIPY_EXECUTED = {"linalg", "sparse", "special", "version"}
#: loaded by nothing a default serial LDA SCF executes
NOT_IMPORTED = (
    "scipy.optimize", "scipy.spatial", "scipy.fft", "scipy.sparse.linalg",
    "repro.qmb.fci", "repro.invdft", "repro.ml",
    "repro.xc.gga", "repro.xc.hybrid", "repro.xc.mlxc",
    "repro.hpc.perfmodel", "repro.hpc.runtime", "repro.hpc.machine",
    "repro.hpc.cluster", "repro.tune", "repro.serve", "repro.screen",
    "repro.tools.lint",
)
#: the ``repro`` modules building and running an SCF may add: none
LOADED_BY_A_SOLVE: set[str] = set()

H2_SCF = (
    "import numpy as np; "
    "from repro.atoms.pseudo import AtomicConfiguration; "
    "from repro.core import DFTCalculation; "
    "symbols, positions, *_ = MOLECULE_LIBRARY['H2']; "
    "calc = DFTCalculation(AtomicConfiguration(list(symbols), "
    "np.asarray(positions, float)), xc=LDA(), degree=2, cells_per_axis=2); "
    "assert calc.run().converged; calc.close(); "
)


def _modules_after(*stages: str) -> list[set[str]]:
    """``sys.modules`` of one fresh interpreter after each of ``stages``."""
    code = "import json, sys; out = []\n" + "".join(
        f"{stage}\nout.append(sorted(sys.modules))\n" for stage in stages
    ) + "print(json.dumps(out))"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return [set(names) for names in json.loads(done.stdout.splitlines()[-1])]


@pytest.fixture(scope="module")
def scf_process() -> list[set[str]]:
    """Module sets after the SCF imports and after a small H2 LDA solve."""
    return _modules_after(SCF_IMPORTS, H2_SCF)


def _scipy_subpackages(modules: set[str]) -> set[str]:
    second = {m.split(".")[1] for m in modules if m.startswith("scipy.")}
    return {name for name in second if not name.startswith("_")}


def test_scf_imports_load_only_the_scipy_they_execute(scf_process):
    imported, _ = scf_process
    assert _scipy_subpackages(imported) == SCIPY_EXECUTED
    loaded = [
        m for m in imported
        if any(m == name or m.startswith(name + ".") for name in NOT_IMPORTED)
    ]
    assert loaded == []


def test_a_solve_imports_nothing_that_was_merely_deferred(scf_process):
    """Nothing an SCF executes was moved out of start-up into the first solve."""
    imported, solved = scf_process
    added = solved - imported
    assert {m for m in added if m.split(".")[0] == "scipy"} == set()
    assert {m for m in added if m.split(".")[0] == "repro"} <= LOADED_BY_A_SOLVE


def test_the_axis_kernel_brings_no_module_of_its_own():
    """``fem.fdm`` takes its accumulating GEMM / axpy wrappers from
    ``scipy.linalg.blas``, which ``import scipy.linalg`` (``core``'s
    ``solve_triangular``) loads anyway: the kernel adds no module to the
    ``scf`` command's set."""
    bare, with_kernel = _modules_after("import scipy.linalg", "import repro.fem.fdm")
    assert {"scipy.linalg.blas", "scipy.linalg._fblas"} <= bare
    assert {m for m in with_kernel if m.startswith("scipy.linalg")} == {
        m for m in bare if m.startswith("scipy.linalg")
    }


def test_lattice_builders_load_no_perf_model():
    (modules,) = _modules_after("from repro.materials.lattice import supercell")
    assert "repro.materials.lattice" in modules
    assert not {"repro.hpc.runtime", "repro.tune", "repro.materials.systems"} & modules


def test_validating_a_job_spec_loads_no_solver():
    (modules,) = _modules_after(
        "from repro.serve.jobs import SCFJobSpec; SCFJobSpec(molecule='H2O').validate()"
    )
    assert not {"repro.core", "repro.pipeline", "scipy"} & modules


def test_the_hooked_pipeline_name_is_a_module_attribute():
    """``benchmarks/ledger/layers.py`` wraps ``repro.pipeline.compute_integrals``
    through ``inspect.getattr_static``, which never calls a module
    ``__getattr__``: the name must be in the module's dict after import."""
    import repro.pipeline
    from repro.atoms.library import MOLECULE_LIBRARY
    from repro.qmb.integrals import compute_integrals

    assert vars(repro.pipeline)["compute_integrals"] is compute_integrals
    assert repro.pipeline.MOLECULE_LIBRARY is MOLECULE_LIBRARY


#: ``__all__`` of every package that resolves its exports on first access,
#: as listed by its eager ``__init__`` at the parent of the change
LAZY_PACKAGES = {
    "repro.xc": [
        "LDA", "MLXC", "PBE", "PBE0", "RHO_FLOOR", "XCFunctional", "XCOutput",
        "hf_exchange_energy",
    ],
    "repro.hpc": [
        "CRUSHER", "DistributedKSOperator", "FRONTIER", "FlopLedger", "KernelTally",
        "KernelTime", "MACHINES", "MachineSpec", "ModelOptions",
        "PAPER_WORKLOADS", "PERLMUTTER", "RANK_BACKENDS", "SUMMIT", "ScfModel",
        "TrafficReport", "VirtualCluster", "Workload",
        "cf_block_efficiency", "chebyshev_filter_flops", "gemm_flops", "kernel_times",
        "projected_step_flops", "scf_breakdown",
        "strong_scaling", "time_to_solution",
    ],
    "repro.qmb": [
        "FCIResult", "FCISolver", "OrbitalIntegrals", "compute_integrals",
        "density_from_rdm", "determinants", "excitation_sign", "excite", "occ_list",
    ],
    "repro.invdft": [
        "BlockMinresResult", "InverseDFT", "InverseDFTResult", "adjoint_rhs",
        "block_minres", "exact_xc_energy", "potential_gradient", "solve_adjoint",
    ],
    "repro.ml": [
        "MLP", "MLXCTrainer", "TrainingSample", "Adam",
        "descriptors_from_spin_density", "elu", "elu_prime", "feature_map",
        "assemble_sample", "network_inputs", "network_inputs_with_partials",
        "phi_spin_factor", "reduced_gradient",
    ],
    "repro.materials": [
        "MG_A", "MG_C", "SYSTEM_BUILDERS", "TAU", "BenchmarkSystem",
        "apply_screw_dislocation", "build_system", "cut_and_project",
        "edge_dislocation_displacement", "hcp_orthorhombic", "icosahedral_projectors",
        "kpoint_set", "radial_peak_profile", "rotational_symmetry_score",
        "reflection_twin", "screw_dislocation_displacement", "solute_at_core",
        "structure_factor", "substitute_solutes", "supercell", "ybcd_nanoparticle",
    ],
    "repro.obs": [
        "AggregatedNode", "CHFES_CHILDREN", "ChromeTraceSink", "InMemoryAggregator",
        "PAPER_KERNELS", "SCF_ITERATION", "Span", "Stopwatch",
        "TABLE3_ORDER", "Tracer", "add_counter", "add_event",
        "current_span", "get_tracer", "is_enabled", "kernel_region",
        "kernel_totals", "model_vs_measured", "paper_label",
        "render_tree", "set_enabled", "trace_region", "traced",
    ],
    #: not lazy — the runtime contracts, which have no off switch
    "repro.tools": ["ContractViolation", "dtype_contract", "shape_contract"],
    #: not lazy — one plain module, kept for the ledger's ``host_fingerprint``
    "repro.tune": ["blas_vendor", "host_fingerprint"],
    #: not lazy — screening runs in process only (no job kind, no seed files)
    "repro.screen": [
        "CampaignReport", "DensitySurrogate", "FamilyMember",
        "MemberOutcome", "ScreenCampaign", "SeedEntry", "SeedStore", "StructureFamily",
        "chain_family", "dimer_family", "domain_mesh", "family_domain", "meshes_match",
        "node_features", "solute_chain_family", "structure_descriptor",
    ],
    #: not lazy — two job kinds (``scf``, ``probe``) in literal tables
    "repro.serve": [
        "CacheStats", "JOB_TYPES", "Job", "JobQueue", "JobSpec", "JobState",
        "JobStateError", "ProbeJobSpec", "RUNNERS", "RankBudget", "ResultCache",
        "SCFJobSpec", "Scheduler", "SchedulerPolicy", "ServeReport", "ServeRequest",
        "ServerStats", "SimulationServer", "SliceContext", "SliceOutcome",
        "canonical_json", "probe_load", "run_jobs", "run_slice", "scf_load",
        "spec_from_dict",
    ],
}


@pytest.mark.parametrize("package", sorted(LAZY_PACKAGES))
def test_lazy_package_exports_what_the_eager_one_did(package):
    pkg = importlib.import_module(package)
    assert sorted(pkg.__all__) == sorted(LAZY_PACKAGES[package])
    assert set(pkg.__all__) <= set(dir(pkg))
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if package == "repro.tune":
            continue  # defined in place: there is no submodule to come from
        homes = [
            sub for sub in vars(pkg).values()
            if getattr(sub, "__package__", None) == package
            and vars(sub).get(name) is value
        ]
        assert homes, f"{package}.{name} is not its defining submodule's object"
        assert vars(pkg)[name] is value  # cached: the next access is a dict hit
    with pytest.raises(AttributeError, match=package):
        getattr(pkg, "no_such_name")
    star: dict = {}
    exec(f"from {package} import *", star)
    assert set(pkg.__all__) <= set(star)


def test_importing_a_submodule_leaves_its_siblings_alone():
    (modules,) = _modules_after("from repro.hpc.flops import FlopLedger")
    assert {m for m in modules if m.startswith("repro.hpc.")} == {"repro.hpc.flops"}
