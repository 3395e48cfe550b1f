"""Graceful-shutdown guarantees for the standalone runner.

The hard requirement: no matter how a sweep ends -- completion,
cooperative cancel, SIGTERM -- ``/dev/shm`` holds **zero** ``repro_<pid>_*``
segments afterwards.  Segments live in the kernel, not the process, so a
leak here survives until reboot.
"""

import glob
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.fem.meshgen import box_tet_mesh
from repro.parallel import (
    SHM_PREFIX,
    create_shared_memory,
    install_shutdown_handler,
    live_segment_names,
    purge_shared_memory,
    release_shared_memory,
)
from repro.parallel.runner import MultiprocessRunner
from repro.physics.momentum import AssemblyParams
from repro.resilience.cancel import CancelToken, CooperativeCancel

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)


def _dev_shm(pid):
    return glob.glob(f"/dev/shm/{SHM_PREFIX}_{pid}_*")


# ---------------------------------------------------------------------------
# unit: tracked segments
# ---------------------------------------------------------------------------

def test_create_release_tracks_registry_and_dev_shm():
    shm = create_shared_memory(1024)
    assert shm.name.startswith(f"{SHM_PREFIX}_{os.getpid()}_")
    assert shm.name in live_segment_names()
    assert os.path.exists(f"/dev/shm/{shm.name}")
    release_shared_memory(shm)
    assert shm.name not in live_segment_names()
    assert not os.path.exists(f"/dev/shm/{shm.name}")
    release_shared_memory(shm)  # idempotent


def test_purge_unlinks_everything_still_registered():
    names = [create_shared_memory(256).name for _ in range(3)]
    purged = purge_shared_memory()
    assert set(names) <= set(purged)
    assert live_segment_names() == []
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
    assert purge_shared_memory() == []  # nothing left


def _restore(previous):
    for signum, handler in previous.items():
        signal.signal(signum, handler)


def test_install_shutdown_handler_converts_sigterm():
    previous = install_shutdown_handler()
    try:
        assert set(previous) == {signal.SIGTERM, signal.SIGINT}
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
    finally:
        _restore(previous)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
def test_sigterm_between_create_and_register_leaks_nothing(monkeypatch, signum):
    """The window the mid-sweep test fell into once in four runs: the
    segment exists and the registry does not know it yet.  The signal --
    ``SIGTERM``, or Ctrl-C, whose stock handler raises right there -- is
    delivered *there*, not retried until it happens to land there."""
    from repro.parallel import shutdown

    real = shutdown.shared_memory.SharedMemory

    def create_then_signal(*args, **kwargs):
        shm = real(*args, **kwargs)
        os.kill(os.getpid(), signum)
        return shm

    monkeypatch.setattr(shutdown.shared_memory, "SharedMemory", create_then_signal)
    previous = install_shutdown_handler()
    try:
        with pytest.raises(KeyboardInterrupt):
            create_shared_memory(512)
        # held until the registry knew the segment, so the exit purge finds it
        assert len(purge_shared_memory()) == 1
        assert _dev_shm(os.getpid()) == []
    finally:
        _restore(previous)
        for path in _dev_shm(os.getpid()):
            os.unlink(path)


def test_install_shutdown_handler_noop_off_main_thread():
    import threading

    out = []
    t = threading.Thread(target=lambda: out.append(install_shutdown_handler()))
    t.start()
    t.join()
    assert out == [None]


# ---------------------------------------------------------------------------
# cooperative cancel: the finally path releases every segment
# ---------------------------------------------------------------------------

def test_cancelled_measure_releases_all_segments():
    runner = MultiprocessRunner(box_tet_mesh(2, 2, 2), AssemblyParams(),
                                repeats=1)
    token = CancelToken()
    token.cancel("drain")
    before = set(_dev_shm(os.getpid()))
    with pytest.raises(CooperativeCancel):
        runner.measure([1], cancel=token)
    runner.close()
    assert live_segment_names() == []
    assert set(_dev_shm(os.getpid())) == before


def test_close_is_idempotent_and_completed_sweep_is_clean():
    runner = MultiprocessRunner(box_tet_mesh(2, 2, 2), AssemblyParams(),
                                repeats=1)
    points = runner.measure([1])
    assert len(points) == 1 and np.isfinite(points[0].wall_seconds)
    assert live_segment_names() == []
    assert _dev_shm(os.getpid()) == []
    runner.close()
    runner.close()


# ---------------------------------------------------------------------------
# SIGTERM mid-sweep in a real subprocess: nothing leaks
# ---------------------------------------------------------------------------

_CHILD = r"""
import sys
from repro.fem.meshgen import box_tet_mesh
from repro.parallel import install_shutdown_handler
from repro.parallel.runner import MultiprocessRunner
from repro.physics.momentum import AssemblyParams

install_shutdown_handler()
runner = MultiprocessRunner(
    box_tet_mesh(6, 6, 6), AssemblyParams(), repeats=100000
)
try:
    runner.measure([2])
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(0)
print("FINISHED", flush=True)
"""


def test_sigterm_mid_sweep_leaves_no_shm_blocks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        # wait for the sweep's segments to appear, then pull the plug
        deadline = time.monotonic() + 120
        while not _dev_shm(proc.pid):
            if proc.poll() is not None or time.monotonic() > deadline:
                out, err = proc.communicate(timeout=10)
                raise AssertionError(
                    f"child never created segments: {out!r} {err!r}"
                )
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert "INTERRUPTED" in out, (out, err)
    assert proc.returncode == 0, (proc.returncode, err)
    leaked = _dev_shm(proc.pid)
    assert leaked == [], f"leaked /dev/shm segments: {leaked}"
