"""The pressure iteration's sparse products as compiled lane loops.

With the element kernels in C the AMG-PCG iteration is the step, and it is
instruction-bound (scipy's scalar ``csr_matvec``, numpy temporaries around it).
The cure is the assembly's: vectorise *across* independent work items, each in
its own operation order.  A one-column block runs **rows as lanes** (SELL-8: 8
rows a chunk, entries k-major, one gather per 8 nonzeros, only live lanes stored
-- no zero padding ever meets a non-finite input); a ``k > 1`` block runs
**columns as lanes** straight off scipy's CSR arrays in fixed-width panels.  A
lane sums its row in scipy's ``jj`` order from ``+0.0``: the bits are scipy's.
Residual, Jacobi update, restriction and ``x += P c`` are epilogues of the product
feeding them, so a V-cycle is ``down`` and ``up`` around numpy's per-column coarse
gemv (a C loop there is not bit-equal), on per-call scratch: the hierarchy is
shared through the plan and ctypes drops the GIL.  :class:`NativeCycle` follows a
generated kernel's rule (``python -> building -> loaded -> adopted | rejected``,
same cache and flags; a cold cache forks ``cc`` at a first V-cycle and never waits):
served only after matching the scipy form to the byte, else scipy serves for good.

The same source holds CG's vector phase (:class:`~repro.solvers.cg.VectorPhase`: the
per-column dots, the two axpys, ``p = z + beta p``, the mean projection) as epilogues
CG calls around the product and the cycle of a ``k > 1`` block -- a column's sum is
numpy's pairwise ``add.reduce`` transcribed -- under the same rule, its own verdict
(``vector_phase``), and the step's other block products (:meth:`NativeCycle.matmul`).
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..core.native import build, load
from ..obs.metrics import get_registry
from ..obs.spans import get_tracer
from .cg import VectorPhase

__all__ = ["NativeCycle", "SOURCE", "SYMBOLS"]

SOURCE = r"""/* generated by repro.solvers.native -- do not edit */
#ifdef __AVX512VL__
#include <immintrin.h>
#endif
typedef long long i64; typedef const double *in;
typedef struct {  /* scipy's CSR arrays, then their SELL-8 copy: rows 8c .. 8c+7 are a */
  i64 n;          /* chunk, its entries k-major, those of live lanes (len > k) only    */
  const int *ptr, *col; in val; const int *len, *scol; in sval;
} Mat;            /* every member here and below is 8 bytes: Python fills an int64 table */
typedef struct { Mat A, P, R; in w; i64 off; } Level;  /* w = omega / diag(A) */
enum { SET, ADD, RES, JAC };  /* y = s | u + s | b - s | u + w (b - s), s a row of m x */

#define INLINE static inline __attribute__((always_inline)) void
INLINE finish(int mode, i64 cnt, in s, double *y, in u, in b, in w, int ws)
{
#define FIN(e) _Pragma("omp simd") for (i64 c = 0; c < cnt; ++c) y[c] = e; break;
  switch (mode) {
  case SET: FIN(s[c]) case ADD: FIN(u[c] + s[c]) case RES: FIN(b[c] - s[c])
  default: FIN(u[c] + w[c * ws] * (b[c] - s[c]))
  }
}

static void rows(const Mat *m, in x, double *y, int mode, in u, in b, in w)
{  /* one column: a lane is a row */
  for (i64 i = 0, p = 0; i < m->n; i += 8) {
    const int *len = m->len + i;
    double s[8] = {0};
#ifdef __AVX512VL__
    const __m256i vlen = _mm256_loadu_si256((const void *)len);
    __m512d a, acc = _mm512_setzero_pd();
    __m256i col; __mmask8 on;
    for (int j = 0; (on = _mm256_cmpgt_epi32_mask(vlen, _mm256_set1_epi32(j))); ++j) {
      in v = m->sval + p; const int *ci = m->scol + p;
      if (on == 255) { a = _mm512_loadu_pd(v); col = _mm256_loadu_si256((const void *)ci); }
      else { a = _mm512_maskz_expandloadu_pd(on, v); col = _mm256_maskz_expandloadu_epi32(on, ci); }
      acc = _mm512_mask_add_pd(acc, on, acc, _mm512_mul_pd(a, _mm512_i32gather_pd(col, x, 8)));
      p += __builtin_popcount(on);
    }
    _mm512_storeu_pd(s, acc);
#else
    for (int j = 0, live = 1; live; ++j)
      for (int l = live = 0; l < 8; ++l)
        if (j < len[l]) { s[l] += m->sval[p] * x[m->scol[p]]; ++p; live = 1; }
#endif
    if (m->n - i >= 8) finish(mode, 8, s, y + i, u + i, b + i, w + i, 1);
    else finish(mode, m->n - i, s, y + i, u + i, b + i, w + i, 1);
  }
}

INLINE panel(const Mat *m, i64 k, const int W, in x, double *y, int mode, in u, in b, in w)
{  /* W columns of a k-wide block: a lane is a column, W a compile-time constant */
  for (i64 i = 0; i < m->n; ++i) {
    double s[16] = {0};
    for (int j = m->ptr[i]; j < m->ptr[i + 1]; ++j) {
      const double a = m->val[j]; in xr = x + m->col[j] * k;
#define LANES(lo, n) _Pragma("omp simd") for (int c = lo; c < (lo) + (n); ++c) s[c] += a * xr[c];
      LANES(0, W & 24) LANES(W & 24, W & 4) LANES(W & 28, W & 2) LANES(W & 30, W & 1)
    }
    finish(mode, W, s, y + i * k, u + i * k, b + i * k, w + i, 0);
  }
}

static void prod(const Mat *m, i64 k, in x, double *y, int mode, in u, in b, in w)
{
  if (k == 1) { rows(m, x, y, mode, u, b, w); return; }
#define WIDTHS CASE(1) CASE(2) CASE(3) CASE(4) CASE(5) CASE(6) CASE(7) CASE(8) CASE(9) \
  CASE(10) CASE(11) CASE(12) CASE(13) CASE(14) CASE(15) CASE(16)
#define CASE(W) case W: panel(m, k, W, x + c, y + c, mode, u + c, b + c, w); break;
  for (i64 c = 0; c < k; c += 16)
    switch (k - c < 16 ? k - c : 16) { WIDTHS }
}

void product(const Mat *m, i64 k, in x, double *y) { prod(m, k, x, y, SET, y, y, y); }

/* level l's b, x, t in the call's scratch (level 0's b is the caller's, the coarsest
   level has a b only); x and t swap roles with every Jacobi sweep */
#define BUF(l, i) (S + (L[l].off + (i) * L[l].A.n) * k)

void down(const Level *L, i64 nlev, i64 k, i64 pre, in b, double *S)
{
  for (i64 l = 0; l + 1 < nlev; ++l, b = BUF(l, 0)) {
    double *x = BUF(l, 1), *t = BUF(l, 2), *r;
    for (i64 i = 0; pre && i < L[l].A.n; ++i)
      for (i64 c = 0; c < k; ++c) x[i * k + c] = L[l].w[i] * b[i * k + c];
    for (i64 s = 1; s < pre; ++s, r = x, x = t, t = r)
      prod(&L[l].A, k, x, t, JAC, x, b, L[l].w);
    if (pre) prod(&L[l].A, k, x, t, RES, t, b, t);
    prod(&L[l].R, k, pre ? t : b, BUF(l + 1, 0), SET, x, x, x);
  }
}

void up(const Level *L, i64 nlev, i64 k, i64 pre, i64 post, in b, double *S, in c, double *out)
{  /* c: the level below's finished x; level 0's last write goes to out */
  for (i64 l = nlev - 2; l >= 0; --l) {
    const int odd = pre && (pre - 1) % 2;
    double *x = BUF(l, 1 + odd), *t = BUF(l, 2 - odd), *y = l || post ? x : out;
    prod(&L[l].P, k, c, y, pre ? ADD : SET, x, x, x);
    for (i64 s = 0; s < post; ++s, t = x, x = y) {
      y = l || s + 1 < post ? t : out;
      prod(&L[l].A, k, x, y, JAC, x, l ? BUF(l, 0) : b, L[l].w);
    }
    c = y;
  }
}

/* CG's vector phase on (n, k) blocks.  sums: per column, numpy's add.reduce of the
   products u v down the column as a contiguous row -- halves (cut at a multiple of 8)
   down to blocks of <= 128, eight partial sums a block, their tree, the tail, and
   0.0 + the lot -- W columns abreast; kv = 0 reads v as one row (of ones: x * 1 = x) */
#define LANE(e) _Pragma("omp simd") for (int c = 0; c < W; ++c) e;
INLINE leaf(in u, in v, i64 kv, i64 n, i64 k, const int W, double *s)
{
  double r[8 * 16];
  i64 i = n < 8 ? 0 : n - n % 8;
  LANE(s[c] = 0.)
  if (n >= 8) {
    for (int j = 0; j < 8; ++j) LANE(r[j * W + c] = u[j * k + c] * v[j * kv + c])
    for (i64 h = 8; h < i; h += 8)
      for (int j = 0; j < 8; ++j) LANE(r[j * W + c] += u[(h + j) * k + c] * v[(h + j) * kv + c])
    LANE(s[c] = ((r[c] + r[W + c]) + (r[2 * W + c] + r[3 * W + c]))
              + ((r[4 * W + c] + r[5 * W + c]) + (r[6 * W + c] + r[7 * W + c])))
  }
  for (; i < n; ++i) LANE(s[c] += u[i * k + c] * v[i * kv + c])
}

static void pairwise(in u, in v, i64 kv, i64 n, i64 k, int W, double *s)
{
  if (n > 128) {
    const i64 h = n / 2 - n / 2 % 8; double t[16];
    pairwise(u, v, kv, h, k, W, s); pairwise(u + h * k, v + h * kv, kv, n - h, k, W, t);
    LANE(s[c] += t[c])
    return;
  }
#undef CASE
#define CASE(W) case W: leaf(u, v, kv, n, k, W, s); break;
  switch (W) { WIDTHS }
}

static void sums(in u, in v, i64 kv, i64 n, i64 k, double *s)
{
  for (i64 c = 0; c < k; c += 16)
    pairwise(u + c, kv ? v + c : v, kv, n, k, k - c < 16 ? k - c : 16, s + c);
  for (i64 c = 0; c < k; ++c) s[c] = 0. + s[c];
}

/* e at every entry m = i k + c of a block */
#define EACH(e) for (i64 i = 0; i < n; ++i) \
  _Pragma("omp simd") for (i64 c = 0; c < k; ++c) { const i64 m = i * k + c; e; }

void dots(i64 n, i64 k, in u, in v, double *s) { sums(u, v, k, n, k, s); }

void step(i64 n, i64 k, in p, in ap, in a, double *x, double *r, double *rr)
{ EACH((x[m] += a[c] * p[m], r[m] -= a[c] * ap[m])) sums(r, r, k, n, k, rr); }

void direction(i64 n, i64 k, in z, in b, double *p) { EACH(p[m] = z[m] + b[c] * p[m]) }

void project(i64 n, i64 k, in v, double *y)
{
  static const double one[16] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  double mean[k];
  sums(v, one, 0, n, k, mean);
  for (i64 c = 0; c < k; ++c) mean[c] /= (double)n;
  EACH(y[m] = v[m] - mean[c])
}
"""

_I64, _PTR = ctypes.c_longlong, ctypes.c_void_p
SYMBOLS = {"product": [_PTR, _I64, _PTR, _PTR], "down": [_PTR, _I64, _I64, _I64, _PTR, _PTR],
           "up": [_PTR, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR],
           "dots": [_I64, _I64] + [_PTR] * 3, "step": [_I64, _I64] + [_PTR] * 6,
           "direction": [_I64, _I64] + [_PTR] * 3, "project": [_I64, _I64, _PTR, _PTR]}


def _mat(m, keep: list, sell: bool = True) -> list:
    """The words of a C ``Mat``: ``m``'s CSR arrays (no copy), then their SELL-8
    copy (``sell``: only a one-column product reads it); ``keep`` holds what the
    addresses point into."""
    if m is None:
        return [0] * 7
    if not sell:
        keep.extend(csr := (m.indptr, m.indices, m.data))
        return [m.shape[0]] + [a.ctypes.data for a in csr] + [0] * 3
    n, lens = m.shape[0], np.zeros(-(-m.shape[0] // 8) * 8, dtype=np.int32)
    lens[:n] = np.diff(m.indptr)
    row = np.repeat(np.arange(n), lens[:n])
    k = np.arange(m.nnz) - m.indptr[row]  # sorted by (chunk, position in row, lane)
    order = np.argsort((row // 8 * (lens.max(initial=0) + 1) + k) * 8 + row % 8)
    arrays = (m.indptr, m.indices, m.data, lens, m.indices[order], m.data[order])
    keep.extend(arrays)
    return [n] + [a.ctypes.data for a in arrays]


def _plain(a: np.ndarray, dtype=np.float64) -> bool:
    return a.dtype == dtype and a.flags.c_contiguous


def _csr(m) -> bool:
    return (m.format == "csr" and _plain(m.data) and _plain(m.indices, np.int32)
            and _plain(m.indptr, np.int32))


def _bits(a: np.ndarray) -> bytes:  # every NaN the same NaN
    return np.where(np.isnan(a), np.nan, a).tobytes()


class NativeCycle(VectorPhase):
    """One hierarchy's V-cycle and level-0 product in whichever form serves;
    callable as the operator ``A_0 x`` that CG iterates on, and the vector
    phase of that iteration."""

    def __init__(self, amg) -> None:
        self.amg, self._proc, self._lock = amg, None, threading.Lock()
        ok = len(amg.levels) > 1 and all(
            _csr(m) for lv in amg.levels for m in (lv.a, lv.prolongator, lv.restriction)
            if m is not None)
        self.state, self.vector_phase = "python" if ok else "rejected", "numpy"
        self._operators: dict = {}  # id(a CSR operator of the step) -> (its Mat, what that reads)
        if ok:
            self._bind(load(SOURCE, SYMBOLS))

    def span_attributes(self) -> dict:
        return {"native": self.state, "vector_phase": self.vector_phase,
                "level_nnz": [lv.a.nnz for lv in self.amg.levels]}

    def _bind(self, fns) -> None:
        """Loaded: the hierarchy as the C side's ``Level`` array, one table row a level
        (scratch offsets in the last column; the SELL copy is made here)."""
        if not fns:
            return
        self._keep, rows, off = [], [], 0
        for lv in self.amg.levels:
            jacobi = self.amg.omega * lv.diag_inv
            rows.append([w for m in (lv.a, lv.prolongator, lv.restriction)
                         for w in _mat(m, self._keep)] + [jacobi.ctypes.data, off])
            self._keep.append(jacobi)
            off += 3 * lv.a.shape[0] * (lv.prolongator is not None)
        self._table = np.array(rows, dtype=np.int64)
        self._fns, self._words, self.state = fns, off + lv.a.shape[0], "loaded"

    def _poll(self) -> None:
        """After a scipy-form cycle: start the build, or see whether it has ended."""
        with self._lock:
            if self.state == "python":
                self._proc, self.state = build(SOURCE), "building"
            if self.state == "building" and (self._proc is None or self._proc.poll() is not None):
                self._bind(self._proc and load(SOURCE, SYMBOLS))
                if self.state == "building":
                    self.state = "rejected"
                    get_registry().counter("solvers.native_build_failed").inc()

    def _adopt(self, b: np.ndarray) -> None:
        """Both forms on this call's block and on its other lane mapping."""
        from ..resilience.ladders import record_escalation

        amg, a = self.amg, self.amg.levels[0].a
        other = b[:, :1].copy() if b.shape[1] > 1 else np.repeat(b, 2, axis=1)
        same = all(_bits(self._c_cycle(v)) == _bits(amg._cycle(0, v))
                   and _bits(self._c_product(v)) == _bits(a @ v) for v in (b, other))
        self.state = "adopted" if same else "rejected"
        record_escalation(
            "NativeAdopted" if same else "NativeRejected", f"solvers.native_{self.state}",
            get_tracer(), None, what="amg", levels=len(amg.levels),
            nnz=sum(lv.a.nnz for lv in amg.levels))
        if same:  # CG's vector phase: the same blocks, its own verdict
            same = all(self._phase_matches(v, v[::-1].copy()) for v in (b, other))
            self.vector_phase = "native" if same else "numpy"
            record_escalation(
                "NativeAdopted" if same else "NativeRejected",
                f"solvers.vector_phase_{'adopted' if same else 'rejected'}",
                get_tracer(), None, what="cg")

    def _phase_matches(self, u: np.ndarray, v: np.ndarray) -> bool:
        """Every export of the vector phase against the numpy expression it replaces."""
        numpy, alpha = VectorPhase(), 0.5 + np.arange(u.shape[1], dtype=np.float64)
        x, r, p, y, s, d = u.copy(), v.copy(), v.copy(), u.copy(), v.copy(), v.copy()
        got = [self._run("dots", u, v, np.empty_like(alpha)), self._run("project", u, np.empty_like(u)),
               self._run("step", u, v, alpha, x, r, np.empty_like(alpha)), x, r,
               self._run("direction", u, alpha, p)]
        want = [numpy.dots(u, v), numpy.project(u), numpy.step(alpha, u, v, y, s), y, s,
                numpy.direction(u, alpha, d)]
        return all(_bits(g) == _bits(w) for g, w in zip(got, want))

    def _run(self, name: str, *arrays: np.ndarray) -> np.ndarray:
        """The export ``name`` on blocks shaped like the first array; returns the last."""
        self._fns[name](*arrays[0].shape, *(a.ctypes.data for a in arrays))
        return arrays[-1]

    def _serves(self, *blocks, columns=None) -> bool:
        """Whether C serves these: plain ``(n, k > 1)`` blocks of one shape and ``k``
        per-column scalars.  A vector stays on numpy: below ~10k rows an export's call
        (~8 us, mostly ``.ctypes.data``) costs what numpy's own passes over one column do."""
        shape = blocks[0].shape
        return self.vector_phase == "native" and len(shape) == 2 and shape[1] > 1 and all(
            b.shape == shape and _plain(b) for b in blocks) and (
            columns is None or (_plain(columns) and columns.shape == shape[1:]))

    def dots(self, u, v):
        return (self._run("dots", u, v, np.empty(u.shape[1])) if self._serves(u, v)
                else super().dots(u, v))

    def step(self, alpha, p, ap, x, r):
        return (self._run("step", p, ap, alpha, x, r, np.empty(p.shape[1]))
                if self._serves(p, ap, x, r, columns=alpha) else super().step(alpha, p, ap, x, r))

    def direction(self, z, beta, p):
        return (self._run("direction", z, beta, p) if self._serves(z, p, columns=beta)
                else super().direction(z, beta, p))

    def project(self, v):
        return (self._run("project", v, np.empty_like(v)) if self._serves(v)
                else super().project(v))

    def matmul(self, m, x: np.ndarray) -> np.ndarray:
        """``m @ x`` for a CSR operator of the step (divergence, gradient): the adopted
        panels on a plain ``k > 1`` block, off ``m``'s own arrays (no SELL copy); an
        operator's first block is checked against scipy's, like the hierarchy's."""
        if not (self.state == "adopted" and x.ndim == 2 and x.shape[1] > 1 and _plain(x)
                and x.shape[0] == m.shape[1] and _csr(m)):
            return m @ x
        first, out = id(m) not in self._operators, np.empty((m.shape[0], x.shape[1]))
        if first:
            keep = [m]
            self._operators[id(m)] = np.array(_mat(m, keep, sell=False)), keep
        words = self._operators[id(m)][0].ctypes.data
        self._fns["product"](words, x.shape[1], x.ctypes.data, out.ctypes.data)
        if first and _bits(out) != _bits(m @ x):
            self.state = "rejected"
            get_registry().counter("solvers.native_rejected").inc()
            return m @ x
        return out

    def _c_product(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        self._fns["product"](self._table.ctypes.data, x.shape[1], x.ctypes.data, out.ctypes.data)
        return out

    def _c_cycle(self, b: np.ndarray) -> np.ndarray:
        k, nlev, amg = b.shape[1], len(self.amg.levels), self.amg
        scratch, out = np.empty(self._words * k), np.empty_like(b)
        head = (self._table.ctypes.data, nlev, k, amg.presmooth)
        self._fns["down"](*head, b.ctypes.data, scratch.ctypes.data)
        coarse = amg._cycle(nlev - 1, scratch[self._table[-1, -1] * k:].reshape(-1, k))
        self._fns["up"](*head, amg.postsmooth, b.ctypes.data, scratch.ctypes.data,
                        coarse.ctypes.data, out.ctypes.data)
        return out

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle on an ``(n, k)`` block."""
        if self.state == "loaded" and _plain(b):
            with self._lock:
                if self.state == "loaded":
                    self._adopt(b)
        if self.state == "adopted" and _plain(b):
            return self._c_cycle(b)
        if self.state in ("python", "building"):
            self._poll()
        return self.amg._cycle(0, b)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.state == "adopted" and x.ndim == 2 and _plain(x):
            return self._c_product(x)
        return self.amg.levels[0].a @ x
