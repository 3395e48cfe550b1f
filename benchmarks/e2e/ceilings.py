"""Container ceilings, measured in the same run as the rows they scale.

numpy only: these are the rates a numpy program can reach on this
machine, which is what the assembly sweeps are made of.  Every streamed
or randomly-indexed array is at least four times the last-level cache
the OS reports (capped at an eighth of the available RAM); both sizes
are returned so the report can print them.  Each figure is the best of
seven passes after one untimed pass.
"""

import glob
import time

import numpy as np

PASSES = 7
INDEX_COUNT = 1 << 22  # random accesses per gather pass
BINS_PER_VALUE = 24    # bincount fan-in, about that of the P1 tet scatter


def last_level_cache_bytes():
    """Largest cache the OS reports for cpu0 (0 when sysfs has none)."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        with open(path, encoding="ascii") as fh:
            text = fh.read().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        best = max(best, int(digits) * scale)
    return best


def available_ram_bytes():
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no MemAvailable line in /proc/meminfo")


def best_of(fn, passes=PASSES):
    """Best wall of ``passes`` calls after one untimed call."""
    fn()
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(array_bytes=None):
    """Run the five microbenchmarks; returns a dict of named ceilings.

    ``array_bytes`` overrides the per-array size (the smoke run passes a
    small one); the default is ``4 x LLC`` capped at ``MemAvailable / 8``.
    """
    llc = last_level_cache_bytes()
    if array_bytes is None:
        array_bytes = min(max(4 * llc, 64 << 20), available_ram_bytes() // 8)
    n = -(-array_bytes // (8 * INDEX_COUNT)) * INDEX_COUNT  # whole index blocks
    rng = np.random.default_rng(0)

    a = np.zeros(n)
    b = np.full(n, 1.5)
    c = np.full(n, 0.25)

    def triad():  # a = b + 3 c as numpy spells it: two passes, five streams
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    t_triad = best_of(triad)
    t_copy = best_of(lambda: np.copyto(a, b))

    idx = rng.integers(0, n, size=INDEX_COUNT)
    out = np.empty(INDEX_COUNT)
    t_gather = best_of(lambda: np.take(b, idx, out=out))
    del c, out

    # one random block repeated to full length, written over ``a``: the
    # index stream is still n entries long, without n random draws or a
    # fourth array to page in
    bins = n // BINS_PER_VALUE
    idx = a.view(np.int64)
    idx.reshape(-1, INDEX_COUNT)[:] = rng.integers(0, bins, size=INDEX_COUNT)
    t_bincount = best_of(lambda: np.bincount(idx, weights=b, minlength=bins))
    del idx, a, b

    # in-cache multiply-add: 16 KiB operands stay in L1
    m = 2048
    x = np.full(m, 1.0001)
    y = np.full(m, 0.9999)
    z = np.empty(m)
    reps = 2000

    def fma():
        for _ in range(reps):
            np.multiply(x, y, out=z)
            np.add(z, x, out=z)

    t_fma = best_of(fma)

    return {
        "ceiling.llc_mb": llc / 2**20,
        "ceiling.array_mb": n * 8 / 2**20,
        "ceiling.triad_gbs": 5 * n * 8 / t_triad / 1e9,
        "ceiling.copy_gbs": 2 * n * 8 / t_copy / 1e9,
        "ceiling.gather_melem_per_s": INDEX_COUNT / t_gather / 1e6,
        "ceiling.bincount_melem_per_s": n / t_bincount / 1e6,
        "ceiling.incache_gflops": 2 * m * reps / t_fma / 1e9,
    }


if __name__ == "__main__":
    t0 = time.perf_counter()
    for name, value in measure().items():
        print(f"{name:32s} {value:12.3f}")
    print(f"measured in {time.perf_counter() - t0:.1f} s")
