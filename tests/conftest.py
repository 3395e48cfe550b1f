"""Shared fixtures: meshes, parameters, traces and the study object.

Expensive objects (kernel traces, the optimization study) are session-scoped
so the machine-model tests don't re-trace the baseline kernel repeatedly.
"""

import numpy as np
import pytest

from repro.core import UnifiedAssembler
from repro.fem import box_tet_mesh, bolund_like_mesh, perturbed_box_mesh
from repro.physics import AssemblyParams


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """Point the generated kernels' C-form cache (``repro.core.native``)
    at a directory of this test session: no test reads or writes the
    user's ``~/.cache/repro``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        yield


@pytest.fixture(scope="session")
def cc(native_cache):
    """Skip unless ``$CC`` / ``cc`` builds and loads a shared object (the
    C form of the generated kernels, ``repro.core.native``)."""
    from repro.core import native

    source = "void probe(void) {}\n"
    proc = native.build(source)
    if proc is None or proc.wait() != 0 or native.load(source, {}) is None:
        pytest.skip("no working C compiler ($CC or cc)")


@pytest.fixture(scope="session")
def small_mesh():
    return box_tet_mesh(3, 3, 3)


@pytest.fixture(scope="session")
def medium_mesh():
    return box_tet_mesh(6, 6, 6)


@pytest.fixture(scope="session")
def jittered_mesh():
    return perturbed_box_mesh(4, 4, 4, amplitude=0.1, seed=3)


@pytest.fixture(scope="session")
def bolund_mesh():
    return bolund_like_mesh(nx=10, ny=8, nz=6)


@pytest.fixture(scope="session")
def params():
    return AssemblyParams(body_force=(0.05, -0.1, 0.2))


@pytest.fixture(scope="session")
def velocity(medium_mesh):
    rng = np.random.default_rng(42)
    return 0.1 * rng.standard_normal((medium_mesh.nnode, 3))


@pytest.fixture(scope="session")
def assembler(medium_mesh, params):
    return UnifiedAssembler(medium_mesh, params, vector_dim=32)


@pytest.fixture(scope="session")
def traces(assembler, velocity):
    """Kernel traces of all five variants (session-cached)."""
    return {
        name: assembler.trace(name, velocity)
        for name in ("B", "P", "RS", "RSP", "RSPR")
    }
