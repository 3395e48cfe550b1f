"""Shared fixtures: meshes, parameters, traces and the study object.

Expensive objects (kernel traces, the optimization study) are session-scoped
so the machine-model tests don't re-trace the baseline kernel repeatedly.
Every property test draws the same examples on every run: one hypothesis
profile, derandomized, with no example database and no deadline.
"""

import contextlib
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from repro.core import OptimizationStudy, UnifiedAssembler
from repro.fem import box_tet_mesh, bolund_like_mesh, perturbed_box_mesh
from repro.obs import MetricsRegistry, Tracer, get_registry, get_tracer, set_registry, set_tracer
from repro.physics import AssemblyParams

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """Point the generated kernels' C-form cache (``repro.core.native``)
    at a directory of this test session: no test reads or writes the
    user's ``~/.cache/repro``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        yield


@pytest.fixture(scope="session", autouse=True)
def native_builds_ahead(native_cache):
    """With a compiler, one child process builds the C forms the
    differential harness's native cells need (``build_ahead``) while the
    tests run, so ``cc`` runs on the second core instead of in the tests'
    critical path.  Yields the child (``None`` without a compiler); a test
    that tampers with cached files waits for it first.  Stopped with SIGINT
    at the end: its exit handler ends an unfinished compiler."""
    from tests.core.test_differential import have_cc

    if not have_cc():
        yield None
        return
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    child = subprocess.Popen(
        [sys.executable, "-c", "from tests.core.test_differential import build_ahead; "
         "build_ahead()"], cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    yield child
    child.send_signal(signal.SIGINT)
    child.wait(timeout=60)


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


@contextlib.contextmanager
def installed_telemetry():
    """Install a fresh tracer and registry process-wide, yield ``(tracer,
    registry)``, and restore the previous ones on exit."""
    old_tracer, old_registry = get_tracer(), get_registry()
    tracer, registry = Tracer(), MetricsRegistry()
    set_tracer(tracer)
    set_registry(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(old_tracer)
        set_registry(old_registry)


@pytest.fixture
def telemetry():
    """The ``(tracer, registry)`` every instrumented site of one test reads."""
    with installed_telemetry() as pair:
        yield pair


# -- the paper's tables: built once untraced, once traced ----------------------


@pytest.fixture(scope="session")
def study():
    """The optimization study at its default mesh, untraced."""
    return OptimizationStudy()


@pytest.fixture(scope="session")
def gpu_table(study):
    """Table II by variant."""
    return {c.variant: c for c in study.gpu_table()}


@pytest.fixture(scope="session")
def cpu_table(study):
    """Table I by variant."""
    return {c.variant: c for c in study.cpu_table()}


@pytest.fixture(scope="session")
def traced_study():
    """The same study, its GPU and CPU tables built under a tracer and a
    registry of their own: ``(study, gpu rows, cpu rows, tracer, registry)``."""
    study = OptimizationStudy()
    with installed_telemetry() as (tracer, registry):
        return study, study.gpu_table(), study.cpu_table(), tracer, registry
