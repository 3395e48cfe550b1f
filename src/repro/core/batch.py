"""Scenario batches: parameter campaigns over one shared mesh.

A :class:`ScenarioBatch` is a struct-of-arrays view over ``S`` independent
:class:`~repro.physics.momentum.AssemblyParams`: one column per batchable
scalar parameter (density, viscosity, body-force components, the Vreman
constant).  Batched execution (``UnifiedAssembler.run_batch``) assembles
all ``S`` scenarios through **one** tape replay / generated kernel with
``(S, lanes)``-shaped buffers, so gather indices, scatter patterns,
geometry caches and Python dispatch are paid once per batch.

Broadcasting rules
------------------
* Scalars passed to :meth:`ScenarioBatch.from_arrays` broadcast to all
  ``S`` scenarios; arrays must have length ``S``.
* Enum-valued *flags* (turbulence model, convective form, material law)
  select code paths at record time, so they must be uniform across the
  batch -- mixing them raises :class:`ValueError`.  Split such campaigns
  into one batch per flag combination.
* A column whose ``S`` values are all equal is **folded** into the tape
  as a compile-time constant, exactly as a serial recording would fold
  it; only *varying* columns become per-scenario ``(S, 1)`` parameter
  rows.  Batched results stay bit-identical to serial per-scenario
  solves either way.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from ..physics.momentum import (
    BATCHABLE_PARAMS,
    FLAG_PARAMS,
    AssemblyParams,
)

__all__ = ["ScenarioBatch"]


class ScenarioBatch:
    """``S`` independent parameter sets sharing one mesh and one tape.

    Construct from per-scenario params (``ScenarioBatch(params_list)`` or
    :meth:`from_params`) or column-wise with broadcasting
    (:meth:`from_arrays`).  Indexing returns the per-scenario
    :class:`AssemblyParams` -- the interpreted batch and a campaign's
    detached row assemble with exactly those objects, so a scenario dropped
    from the batch is solved with the same parameters it was batched with.
    """

    def __init__(self, scenarios: Sequence[AssemblyParams]) -> None:
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("ScenarioBatch needs at least one scenario")
        for i, p in enumerate(scenarios):
            if not isinstance(p, AssemblyParams):
                raise TypeError(
                    f"scenario {i} is {type(p).__name__}, "
                    "expected AssemblyParams"
                )
        self.scenarios: Tuple[AssemblyParams, ...] = scenarios
        kps = [p.as_kernel_params() for p in scenarios]
        self.flags: Dict[str, int] = {}
        for name in FLAG_PARAMS:
            values = {kp[name] for kp in kps}
            if len(values) > 1:
                raise ValueError(
                    f"flag parameter {name!r} must be uniform across the "
                    f"batch (got {sorted(values)}); flags select code "
                    "paths at record time -- split into one batch per "
                    "flag combination"
                )
            self.flags[name] = kps[0][name]
        #: per-parameter (S,) float64 columns (struct-of-arrays)
        self.columns: Dict[str, np.ndarray] = {
            name: np.array([kp[name] for kp in kps], dtype=np.float64)
            for name in BATCHABLE_PARAMS
        }
        #: names whose column actually varies -- only these become
        #: per-scenario parameter rows in the batched tape
        self.varying: Tuple[str, ...] = tuple(
            name
            for name in BATCHABLE_PARAMS
            if not np.all(self.columns[name] == self.columns[name][0])
        )
        #: constant columns, folded into the tape at record time
        self.folded: Dict[str, float] = {
            name: float(self.columns[name][0])
            for name in BATCHABLE_PARAMS
            if name not in self.varying
        }

    # -- construction ------------------------------------------------

    @classmethod
    def from_params(
        cls, scenarios: Sequence[AssemblyParams]
    ) -> "ScenarioBatch":
        """Batch an explicit sequence of per-scenario parameters."""
        return cls(scenarios)

    @classmethod
    def from_arrays(
        cls,
        size: int = None,
        density=1.0,
        viscosity=1e-3,
        body_force=(0.0, 0.0, 0.0),
        vreman_c=None,
        turbulence_model=None,
        convective_form=None,
    ) -> "ScenarioBatch":
        """Build a batch column-wise; scalars broadcast to ``size``.

        ``body_force`` is either one ``(3,)`` force (broadcast) or an
        ``(S, 3)`` array of per-scenario forces.
        """
        lengths = []
        for v in (density, viscosity, vreman_c):
            if v is not None and np.ndim(v) == 1:
                lengths.append(len(v))
        bf = np.asarray(body_force, dtype=np.float64)
        if bf.ndim == 2:
            lengths.append(bf.shape[0])
        if size is None:
            if not lengths:
                raise ValueError(
                    "pass size= or at least one (S,)-shaped column"
                )
            size = lengths[0]
        if any(n != size for n in lengths):
            raise ValueError(
                f"column lengths {lengths} disagree with batch size {size}"
            )

        def col(v, default):
            if v is None:
                v = default
            a = np.broadcast_to(
                np.asarray(v, dtype=np.float64), (size,)
            )
            return a

        base = AssemblyParams()
        dens = col(density, base.density)
        visc = col(viscosity, base.viscosity)
        vrc = col(vreman_c, base.vreman_c)
        if bf.ndim == 1:
            bf = np.broadcast_to(bf, (size, 3))
        elif bf.shape != (size, 3):
            raise ValueError(
                f"body_force must be (3,) or ({size}, 3), got {bf.shape}"
            )
        extra = {}
        if turbulence_model is not None:
            extra["turbulence_model"] = turbulence_model
        if convective_form is not None:
            extra["convective_form"] = convective_form
        return cls(
            [
                AssemblyParams(
                    density=float(dens[s]),
                    viscosity=float(visc[s]),
                    body_force=tuple(float(x) for x in bf[s]),
                    vreman_c=float(vrc[s]),
                    **extra,
                )
                for s in range(size)
            ]
        )

    # -- container protocol ------------------------------------------

    @property
    def size(self) -> int:
        return len(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __getitem__(self, s: int) -> AssemblyParams:
        return self.scenarios[s]

    def __iter__(self) -> Iterator[AssemblyParams]:
        return iter(self.scenarios)

    def __repr__(self) -> str:
        return (
            f"ScenarioBatch(S={self.size}, "
            f"varying={list(self.varying) or 'none'})"
        )

    # -- batched-execution plumbing ----------------------------------

    def recording_params(self) -> Dict[str, float]:
        """Kernel params handed to the batched recording context.

        Flags and folded constants are read directly; varying names are
        intercepted by the batch recorder and turned into symbolic
        per-scenario parameter ops, so their value here never reaches
        the tape.
        """
        return self.scenarios[0].as_kernel_params()

    def param_rows(self) -> Dict[str, np.ndarray]:
        """``(S, 1)`` float64 rows for each *varying* parameter."""
        return {
            name: self.columns[name].reshape(-1, 1).copy()
            for name in self.varying
        }

    def cache_key(self) -> tuple:
        """Hashable identity of the batched tape this batch records.

        Two batches share a tape iff they agree on size, which columns
        vary, every folded constant and every flag -- the varying
        *values* live outside the tape (refreshed per execute).
        """
        return (
            self.size,
            self.varying,
            tuple(sorted(self.folded.items())),
            tuple(sorted(self.flags.items())),
        )
