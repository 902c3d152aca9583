"""ChFES on the distributed (virtual-cluster) operator vs the serial one."""

import numpy as np
import pytest

from repro.core.scf import chfes_step
from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh
from repro.hpc.cluster import VirtualCluster
from repro.hpc.distributed import DistributedKSOperator


def _eigensolve(op, nstates=4, passes=5, m=15, seed=0):
    evals, X, _ = chfes_step(
        op, None, None, None, b=op.spectral_upper_bound(), degree=m,
        passes=passes, block_size=2, nstates=nstates, seed=seed,
    )
    return evals, X


@pytest.fixture(scope="module")
def problem():
    mesh = uniform_mesh((8.0,) * 3, (3, 3, 3), degree=3)
    r = mesh.node_coords - 4.0
    v = -2.0 / np.sqrt(np.einsum("ij,ij->i", r, r) + 0.8)
    return mesh, v


def test_distributed_matches_serial_fp64(problem):
    mesh, v = problem
    serial = KSOperator(mesh)
    serial.set_potential(v)
    dist = DistributedKSOperator(mesh, nranks=6)
    dist.set_potential(v)
    e_ser, _ = _eigensolve(serial)
    e_dist, _ = _eigensolve(dist)
    assert np.allclose(e_ser, e_dist, atol=1e-10)
    assert dist.traffic.p2p_bytes > 0  # communication actually happened


def test_distributed_fp32_halo_spectrum_accuracy(problem):
    """Paper Sec 5.4.2: FP32 boundary communication retains FP64-level
    eigenvalue accuracy (error orders below the 1e-4 Ha discretization
    target)."""
    mesh, v = problem
    serial = KSOperator(mesh)
    serial.set_potential(v)
    e_ref, _ = _eigensolve(serial)
    dist32 = KSOperator(mesh, ranks=VirtualCluster(mesh, 6, fp32_halo=True))
    dist32.set_potential(v)
    e_32, _ = _eigensolve(dist32)
    err = np.abs(e_32 - e_ref).max()
    assert 0 <= err < 1e-6


def test_distributed_diagonals_match(problem):
    mesh, v = problem
    serial = KSOperator(mesh)
    serial.set_potential(v)
    dist = DistributedKSOperator(mesh, nranks=4)
    dist.set_potential(v)
    assert np.allclose(serial.diagonal(), dist.diagonal(), atol=1e-12)
    assert np.allclose(
        serial.kinetic_diagonal(), dist.kinetic_diagonal(), atol=1e-12
    )


def test_distributed_nonlocal_matrix_hermitian(problem):
    """matrix(), out= and the projector term are inherited, not re-made."""
    from repro.atoms.nonlocal_psp import model_projectors
    from repro.atoms.pseudo import AtomicConfiguration

    mesh, v = problem
    projs = model_projectors(AtomicConfiguration(["He"], [[4.0, 4.0, 4.0]]))
    serial = KSOperator(mesh, nonlocal_projectors=projs)
    dist = DistributedKSOperator(mesh, nranks=3, nonlocal_projectors=projs)
    for op in (serial, dist):
        op.set_potential(v)
    H = dist.matrix()
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.allclose(H, serial.matrix(), atol=1e-12)
    assert np.allclose(dist.diagonal(), np.diag(H), atol=1e-11)
    assert dist.traffic.allreduce_calls > 0  # projections summed over ranks
    assert not hasattr(serial, "cluster")


def test_distributed_potential_validation(problem):
    mesh, _ = problem
    dist = DistributedKSOperator(mesh, nranks=2)
    with pytest.raises(ValueError):
        dist.set_potential(np.zeros(3))
