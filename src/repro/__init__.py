"""repro: reproduction of "Alya towards Exascale: Optimal OpenACC
Performance of the Navier-Stokes Finite Element Assembly on GPUs"
(IPPS 2024).

Quick start::

    from repro.fem import box_tet_mesh
    from repro.physics import AssemblyParams
    from repro.core import UnifiedAssembler, OptimizationStudy

    mesh = box_tet_mesh(8, 8, 8)
    asm = UnifiedAssembler(mesh, AssemblyParams())
    rhs = asm.assemble("RSPR", velocity)      # any of B, P, RS, RSP, RSPR

    study = OptimizationStudy(mesh)
    print(study.format_gpu_table(study.gpu_table()))   # the paper's Table II

Subpackages: :mod:`repro.fem` (tetrahedral FEM substrate),
:mod:`repro.physics` (incompressible LES), :mod:`repro.core` (the kernel
variants + DSL + study), :mod:`repro.machine` (A100/Icelake execution
models), :mod:`repro.solvers` (CG/AMG), :mod:`repro.parallel` (MPI-style
decomposition), :mod:`repro.io` (VTK + reports), :mod:`repro.obs`
(telemetry: spans, metrics, profiler, exporters).
"""

__version__ = "1.0.0"

from . import core, fem, io, machine, obs, parallel, physics, solvers  # noqa: F401

__all__ = [
    "core", "fem", "io", "machine", "obs", "parallel", "physics", "solvers",
    "__version__",
]
