"""Simulated communicator, partitioning, halo exchange, parallel assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import box_tet_mesh
from repro.parallel import (
    CommError,
    SimComm,
    assemble_partitioned,
    build_plans,
    element_adjacency,
    greedy_graph_partition,
    partition_quality,
    post_interface,
    rcb_partition,
    reduce_interface,
    run_ranks,
)
from repro.physics import AssemblyParams, assemble_momentum_rhs


# -- communicator -----------------------------------------------------------------


def test_send_recv_roundtrip():
    world = {}
    a = SimComm(0, 2, world)
    b = SimComm(1, 2, world)
    a.send(1, tag=5, payload={"x": 3})
    assert b.recv(0, tag=5) == {"x": 3}


def test_recv_without_send_raises():
    world = {}
    b = SimComm(1, 2, world)
    with pytest.raises(CommError, match="no message"):
        b.recv(0, tag=1)


def test_invalid_ranks():
    with pytest.raises(CommError):
        SimComm(5, 2, {})
    with pytest.raises(CommError):
        SimComm(0, 2, {}).send(7, 0, None)


def test_allreduce_sum():
    results = run_ranks(4, lambda c: c.allreduce_sum(c.rank + 1))
    assert results == [10, 10, 10, 10]


def test_allgather():
    results = run_ranks(3, lambda c: c.allgather(c.rank * 2))
    assert results == [[0, 2, 4]] * 3


# -- partitioning -----------------------------------------------------------------


@pytest.fixture(scope="module")
def mesh():
    return box_tet_mesh(5, 5, 5)


@pytest.mark.parametrize("fn", [rcb_partition, greedy_graph_partition])
@pytest.mark.parametrize("nparts", [1, 2, 3, 8])
def test_partition_covers_and_balances(fn, nparts, mesh):
    labels = fn(mesh, nparts)
    assert labels.shape == (mesh.nelem,)
    assert labels.min() >= 0 and labels.max() == nparts - 1
    q = partition_quality(mesh, labels)
    assert q["nparts"] == nparts
    assert q["imbalance"] < 1.4


def test_rcb_deterministic(mesh):
    assert np.array_equal(rcb_partition(mesh, 4), rcb_partition(mesh, 4))


def test_partition_rejects_zero(mesh):
    with pytest.raises(ValueError):
        rcb_partition(mesh, 0)
    with pytest.raises(ValueError):
        greedy_graph_partition(mesh, 0)


def test_element_adjacency_symmetric(mesh):
    offsets, adj = element_adjacency(mesh)
    pairs = {
        (e, int(n))
        for e in range(mesh.nelem)
        for n in adj[offsets[e] : offsets[e + 1]]
    }
    assert all((b, a) in pairs for (a, b) in pairs)
    # interior tets have 4 face neighbours at most
    assert max(offsets[1:] - offsets[:-1]) <= 4


def test_partition_quality_validates(mesh):
    with pytest.raises(ValueError, match="per element"):
        partition_quality(mesh, np.zeros(3, dtype=int))


# -- halo plans --------------------------------------------------------------------


def test_plans_cover_all_elements(mesh):
    labels = rcb_partition(mesh, 4)
    plans = build_plans(mesh, labels)
    all_eids = np.concatenate([p.element_ids for p in plans])
    assert np.array_equal(np.sort(all_eids), np.arange(mesh.nelem))


def test_interface_nodes_symmetric(mesh):
    labels = rcb_partition(mesh, 3)
    plans = build_plans(mesh, labels)
    for p in plans:
        for nbr, locals_ in p.neighbours.items():
            other = plans[nbr]
            mine = set(p.node_map[locals_])
            theirs = set(other.node_map[other.neighbours[p.rank]])
            assert mine == theirs


def test_halo_exchange_sums(mesh):
    labels = rcb_partition(mesh, 2)
    plans = build_plans(mesh, labels)
    world = {}
    comms = [SimComm(r, 2, world) for r in range(2)]
    fields = [np.full(len(p.node_map), float(p.rank + 1)) for p in plans]
    for c, p, f in zip(comms, plans, fields):
        post_interface(c, p, f)
    out = [
        reduce_interface(c, p, f) for c, p, f in zip(comms, plans, fields)
    ]
    # interface nodes hold 1 + 2 = 3 on both sides
    for p, o in zip(plans, out):
        assert np.allclose(o[p.interface_local], 3.0)
        mask = np.ones(len(p.node_map), dtype=bool)
        mask[p.interface_local] = False
        assert np.allclose(o[mask], p.rank + 1)


# -- partitioned assembly -------------------------------------------------------------


@pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
def test_partitioned_assembly_matches_serial(nranks, mesh):
    """The MPI-style reduction must be bit-compatible with serial assembly."""
    params = AssemblyParams(body_force=(0.1, 0.0, -0.2))
    rng = np.random.default_rng(nranks)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    serial = assemble_momentum_rhs(mesh, u, params)
    parallel = assemble_partitioned(mesh, u, params, nranks)
    assert np.abs(parallel - serial).max() < 1e-13


def test_partitioned_assembly_with_graph_partition(mesh):
    params = AssemblyParams()
    rng = np.random.default_rng(9)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    labels = greedy_graph_partition(mesh, 4)
    parallel = assemble_partitioned(mesh, u, params, 4, labels=labels)
    serial = assemble_momentum_rhs(mesh, u, params)
    assert np.allclose(parallel, serial, atol=1e-13)


@settings(max_examples=8, deadline=None)
@given(nranks=st.integers(1, 6), seed=st.integers(0, 100))
def test_property_partitioned_assembly(nranks, seed):
    mesh = box_tet_mesh(3, 3, 3)
    params = AssemblyParams()
    rng = np.random.default_rng(seed)
    u = 0.2 * rng.standard_normal((mesh.nnode, 3))
    assert np.allclose(
        assemble_partitioned(mesh, u, params, nranks),
        assemble_momentum_rhs(mesh, u, params),
        atol=1e-12,
    )


def test_partitioned_assembly_bitwise_unchanged_by_plan_scatter(mesh):
    """The precomputed-scatter local reduction must reproduce the seed
    ``np.add.at`` pipeline bit for bit (same partition, same halo order)."""
    from repro.physics.momentum import element_rhs

    params = AssemblyParams(body_force=(0.0, 0.3, -0.1))
    rng = np.random.default_rng(21)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    nranks = 4
    labels = rcb_partition(mesh, nranks)

    # seed-style reference: identical driver, np.add.at local scatter
    plans = build_plans(mesh, labels)
    world = {}
    comms = [SimComm(r, nranks, world) for r in range(nranks)]
    partials = []
    for comm, plan in zip(comms, plans):
        xel = mesh.coords[mesh.connectivity[plan.element_ids]]
        uel = u[mesh.connectivity[plan.element_ids]]
        elem = element_rhs(xel, uel, params)
        local = np.zeros((len(plan.node_map), 3))
        np.add.at(local, plan.local_connectivity.ravel(), elem.reshape(-1, 3))
        partials.append(local)
        post_interface(comm, plan, local)
    for i, (comm, plan) in enumerate(zip(comms, plans)):
        partials[i] = reduce_interface(comm, plan, partials[i])
    ref = np.zeros((mesh.nnode, 3))
    filled = np.zeros(mesh.nnode, dtype=bool)
    for plan in plans:
        sel = ~filled[plan.node_map]
        ref[plan.node_map[sel]] = partials[plan.rank][sel]
        filled[plan.node_map[sel]] = True

    got = assemble_partitioned(mesh, u, params, nranks, labels=labels)
    assert np.array_equal(got, ref)


# -- multiprocess runner baseline -------------------------------------------------


def test_runner_baseline_is_smallest_worker_count():
    """measure() must normalize to the smallest worker count even when it
    is not listed first (the seed silently used the first entry)."""
    from repro.parallel import MultiprocessRunner

    mesh = box_tet_mesh(3, 3, 3)
    runner = MultiprocessRunner(mesh, AssemblyParams(), repeats=1)
    points = runner.measure([2, 1])
    assert [p.workers for p in points] == [2, 1]
    assert all(p.baseline_workers == 1 for p in points)
    one = next(p for p in points if p.workers == 1)
    two = next(p for p in points if p.workers == 2)
    assert one.speedup == pytest.approx(1.0)
    assert one.efficiency == pytest.approx(1.0)
    assert two.speedup == pytest.approx(one.wall_seconds / two.wall_seconds)
    assert two.efficiency == pytest.approx(two.speedup / 2.0)


def test_runner_shares_element_arrays_via_shm():
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import MultiprocessRunner

    mesh = box_tet_mesh(3, 3, 3)
    registry = MetricsRegistry()
    runner = MultiprocessRunner(
        mesh, AssemblyParams(), repeats=1, metrics=registry
    )
    points = runner.measure([1, 2])
    assert len(points) == 2
    snap = registry.snapshot()
    # both packed arrays shared once, regardless of how many counts ran
    assert snap["runner.shm_bytes_shared"]["value"] == 2 * mesh.nelem * 4 * 3 * 8
    # the 2-worker point avoided pickling both packs
    assert snap["runner.pickle_bytes_saved"]["value"] == 2 * mesh.nelem * 4 * 3 * 8


# -- locality: halo/interior split, SFC partition, overlap --------------------


def test_halo_interior_split_partitions_elements(mesh):
    labels = rcb_partition(mesh, 4)
    for plan in build_plans(mesh, labels):
        h, i = plan.halo_elements, plan.interior_elements
        assert np.intersect1d(h, i).size == 0
        assert np.array_equal(
            np.sort(np.concatenate([h, i])),
            np.arange(len(plan.element_ids)),
        )
        # every halo element touches an interface node, no interior does
        iface = np.zeros(len(plan.node_map), dtype=bool)
        iface[plan.interface_local] = True
        assert iface[plan.local_connectivity[h]].any(axis=1).all()
        if i.size:
            assert not iface[plan.local_connectivity[i]].any(axis=1).any()


def test_single_rank_has_no_halo(mesh):
    (plan,) = build_plans(mesh, np.zeros(mesh.nelem, dtype=np.int64))
    assert plan.halo_elements.size == 0
    assert plan.interior_elements.size == mesh.nelem


def test_overlap_records_locality_metrics(mesh):
    from repro.obs.metrics import MetricsRegistry

    params = AssemblyParams()
    rng = np.random.default_rng(5)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    registry = MetricsRegistry()
    assemble_partitioned(mesh, u, params, 4, metrics=registry)
    snap = registry.snapshot()
    halo = snap["locality.halo_elements"]["value"]
    interior = snap["locality.interior_elements"]["value"]
    assert halo > 0 and interior > 0
    assert halo + interior == mesh.nelem
    assert 0.0 < snap["locality.overlap_efficiency"]["value"] < 1.0


def test_overlap_emits_halo_and_interior_spans(mesh):
    from repro.obs import Tracer

    params = AssemblyParams()
    rng = np.random.default_rng(6)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    tracer = Tracer()
    assemble_partitioned(mesh, u, params, 2, tracer=tracer)
    names = [s["name"] for s in tracer.export()]
    assert names.count("halo_assemble") == 2
    assert names.count("interior_assemble") == 2


def test_sfc_partition_balanced_and_correct(mesh):
    from repro.parallel import sfc_partition

    params = AssemblyParams()
    rng = np.random.default_rng(7)
    u = 0.1 * rng.standard_normal((mesh.nnode, 3))
    serial = assemble_momentum_rhs(mesh, u, params)
    for nparts in (2, 5):
        for strategy in ("hilbert", "morton"):
            labels = sfc_partition(mesh, nparts, strategy)
            counts = np.bincount(labels, minlength=nparts)
            assert counts.max() - counts.min() <= 1
            got = assemble_partitioned(mesh, u, params, nparts, labels=labels)
            assert np.abs(got - serial).max() < 1e-13
    with pytest.raises(ValueError, match="nparts"):
        sfc_partition(mesh, 0)


def test_runner_rejects_unknown_ordering():
    from repro.parallel import MultiprocessRunner

    with pytest.raises(ValueError, match="ordering"):
        MultiprocessRunner(
            box_tet_mesh(3, 3, 3), AssemblyParams(), ordering="zigzag"
        )


def test_runner_sfc_ordering_single_worker():
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import MultiprocessRunner

    mesh = box_tet_mesh(3, 3, 3)
    registry = MetricsRegistry()
    runner = MultiprocessRunner(
        mesh, AssemblyParams(), repeats=1, metrics=registry,
        ordering="hilbert",
    )
    points = runner.measure([1])
    assert len(points) == 1
    assert registry.snapshot()["locality.runner_reorders"]["value"] == 1


def test_runner_profiled_rank_folds_into_parent():
    """Profiled compiled runner: per-rank op profiles return with the
    results and fold into the parent profiler + metrics registry (the
    w==1 path runs in-process, so no spawn pool is needed)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import MultiprocessRunner

    mesh = box_tet_mesh(3, 3, 3)
    params = AssemblyParams(body_force=(0.0, 0.0, 0.1))
    plain = MultiprocessRunner(
        mesh, params, repeats=1, assembly_mode="compiled", variant="RS"
    )
    plain.measure([1])

    registry = MetricsRegistry()
    runner = MultiprocessRunner(
        mesh, params, repeats=1, assembly_mode="compiled", variant="RS",
        metrics=registry, profile=True,
    )
    runner.measure([1])
    # profiled chunk checksums match the unprofiled run bit-for-bit
    assert runner.chunk_checksums[1] == plain.chunk_checksums[1]
    prof = runner.profiler.profiles[("RS", 16, "compiled", "serial")]
    assert prof.executions == 1  # repeats=1, one rank
    assert prof.total_seconds > 0 and prof.total_bytes > 0
    snap = registry.snapshot()
    assert snap["profile.executions.RS.compiled"]["value"] == 1
    assert snap["profile.bytes.RS.compiled"]["value"] > 0


def test_runner_profile_requires_compiled_mode():
    from repro.parallel import MultiprocessRunner

    mesh = box_tet_mesh(3, 3, 3)
    with pytest.raises(ValueError, match="compiled"):
        MultiprocessRunner(
            mesh, AssemblyParams(), assembly_mode="reference", profile=True
        )
