"""The paper's primary contribution: the kernel DSL, the five assembly
variants (B, P, RS, RSP, RSPR), the unified driver and the optimization
study that regenerates the paper's tables and figures."""

from .storage import AccessKind, MemoryEvent, Storage, TempSpec
from .dsl import (
    Backend,
    KernelContext,
    NumpyBackend,
    Temp,
    TraceReport,
    TracingBackend,
    Value,
    trace_kernel,
)
from .baseline import baseline_kernel, make_baseline_kernel, privatized_kernel
from .restructured import (
    make_specialized_kernel,
    rs_kernel,
    rsp_kernel,
    rspr_kernel,
    SPEC_DENSITY,
    SPEC_VISCOSITY,
    SPEC_VREMAN_C,
)
from .variants import VARIANTS, Variant, get_variant, variant_names
from .tape import (
    CompiledTape,
    RecordingBackend,
    TapeProgram,
    TapeReport,
    compiled_tape,
    record_program,
)
from .codegen import (
    CodegenProgram,
    GeneratedKernel,
    generate_program,
    generated_kernel,
)
from .batch import ScenarioBatch
from .unified import (
    CPU_VECTOR_DIM,
    GPU_VECTOR_DIM,
    SpecializationError,
    UnifiedAssembler,
)
from .study import OptimizationStudy, PAPER_NELEM

__all__ = [
    "AccessKind", "MemoryEvent", "Storage", "TempSpec",
    "Backend", "KernelContext", "NumpyBackend", "Temp", "TraceReport",
    "TracingBackend", "Value", "trace_kernel",
    "baseline_kernel", "make_baseline_kernel", "privatized_kernel",
    "make_specialized_kernel", "rs_kernel", "rsp_kernel", "rspr_kernel",
    "SPEC_DENSITY", "SPEC_VISCOSITY", "SPEC_VREMAN_C",
    "VARIANTS", "Variant", "get_variant", "variant_names",
    "CompiledTape", "RecordingBackend", "TapeProgram", "TapeReport",
    "compiled_tape", "record_program",
    "CodegenProgram", "GeneratedKernel", "generate_program",
    "generated_kernel",
    "ScenarioBatch",
    "CPU_VECTOR_DIM", "GPU_VECTOR_DIM", "SpecializationError",
    "UnifiedAssembler",
    "OptimizationStudy", "PAPER_NELEM",
]
