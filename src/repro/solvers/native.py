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
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from ..core.native import build, load
from ..obs.metrics import get_registry
from ..obs.spans import get_tracer

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
#define CASE(W) case W: panel(m, k, W, x + c, y + c, mode, u + c, b + c, w); break;
  for (i64 c = 0; c < k; c += 16)
    switch (k - c < 16 ? k - c : 16) {
      CASE(1) CASE(2) CASE(3) CASE(4) CASE(5) CASE(6) CASE(7) CASE(8) CASE(9)
      CASE(10) CASE(11) CASE(12) CASE(13) CASE(14) CASE(15) CASE(16)
    }
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
"""

_I64, _PTR = ctypes.c_longlong, ctypes.c_void_p
SYMBOLS = {"product": [_PTR, _I64, _PTR, _PTR], "down": [_PTR, _I64, _I64, _I64, _PTR, _PTR],
           "up": [_PTR, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR]}


def _mat(m, keep: list) -> list:
    """The words of a C ``Mat``: ``m``'s CSR arrays (no copy), then their SELL-8
    copy; ``keep`` holds what the addresses point into."""
    if m is None:
        return [0] * 7
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


def _bits(a: np.ndarray) -> bytes:  # every NaN the same NaN
    return np.where(np.isnan(a), np.nan, a).tobytes()


class NativeCycle:
    """One hierarchy's V-cycle and level-0 product in whichever form serves;
    callable as the operator ``A_0 x`` that CG iterates on."""

    def __init__(self, amg) -> None:
        self.amg, self._proc, self._lock = amg, None, threading.Lock()
        ok = len(amg.levels) > 1 and all(
            _plain(m.data) and _plain(m.indices, np.int32) and _plain(m.indptr, np.int32)
            for lv in amg.levels for m in (lv.a, lv.prolongator, lv.restriction) if m is not None)
        self.state = "python" if ok else "rejected"
        if ok:
            self._bind(load(SOURCE, SYMBOLS))

    def span_attributes(self) -> dict:
        return {"native": self.state, "level_nnz": [lv.a.nnz for lv in self.amg.levels]}

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
