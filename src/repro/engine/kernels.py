"""Kernel backends behind the Push/PullProgram API: numpy and a C JIT.

The engines' hot path is always the same shape: gather each active
thread's edges, relax along every edge, and scatter-reduce candidates
into destination values.  The numpy realisation of that shape pays
for several full-edge-array temporaries per launch (``edge_indices``,
``sources_per_edge``, the gathered source values, the relax result)
before ``ufunc.at`` even runs.  A compiled kernel walks the thread
descriptors directly — one pass over the edges, zero temporaries —
and produces **bitwise identical** results because it performs the
exact same float operations in the exact same order ``ufunc.at``
would.

Two backends exist:

``numpy``
    The scalar baseline: the engines' own vectorised code path.  Its
    ``try_*`` hooks all decline, so the engine falls through to the
    canonical numpy implementation that ``cjit`` is measured (and
    parity-tested) against.  It is also the fallback wherever no C
    compiler is available.
``cjit``
    Generates a small C source file covering every certified
    (relax-class, reduction) pair, compiles it once with the system C
    compiler into a cached shared library (under
    :func:`repro.engine.costmodel.cache_dir`), and calls it through
    :mod:`ctypes`.  Available wherever a C compiler is; the compile
    is amortised across every subsequent run in the process *and*
    across processes via the on-disk cache.

Backend choice is per engine run: ``EngineOptions.kernel_backend``
wins, else ``$REPRO_KERNEL_BACKEND``, else ``"auto"`` — which asks
the measured cost model (:mod:`repro.engine.costmodel`) whether the
graph is big enough for ``cjit`` to pay for its call overhead.

Safety gates (any failure falls back to numpy, never errors):

* the program's (relax, reduce) pair must be certified by
  :data:`repro.core.applicability.PROGRAM_EXPECTATIONS` — the same
  table ``repro analyze`` diffs against the source (SPLIT001–006),
  so a program whose relax body drifted from its declared class is
  caught *statically* before a fused kernel could disagree with it;
* the program must not override ``filter_pushes`` or ``lane_relax``
  (a fused kernel cannot honor arbitrary Python hooks);
* arrays must be C-contiguous ``float64``/``int64`` and the batch
  must carry per-thread owners (``phys``); warp-segmentation batches
  decline;
* the read array must not alias the write array (synchronization
  relaxation re-reads values mid-launch, which only the buffered
  numpy path reproduces).

Parity with numpy on every engine and certified program is asserted
by ``tests/test_kernels.py``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
import warnings
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.core.applicability import PROGRAM_EXPECTATIONS
from repro.engine.program import PushProgram
from repro.errors import EngineError

#: relax-body codes passed to the compiled kernels.
RELAX_ADDITIVE = 0     # c = src + w   (w = 1.0 on unweighted graphs)
RELAX_WIDEST = 1       # c = min(src, w)
RELAX_PROPAGATION = 2  # c = src

#: reduction codes.
REDUCE_MIN = 0
REDUCE_MAX = 1
REDUCE_ADD = 2

_RELAX_CODES = {
    "additive": RELAX_ADDITIVE,
    "widest_path": RELAX_WIDEST,
    "propagation": RELAX_PROPAGATION,
}
_REDUCE_CODES = {"min": REDUCE_MIN, "max": REDUCE_MAX, "add": REDUCE_ADD}


class KernelSpec(NamedTuple):
    """A fusable (relax-class, reduction) pair in code form."""

    relax: int
    reduce: int

    @property
    def needs_weights(self) -> bool:
        return self.relax == RELAX_WIDEST


def spec_for(program: PushProgram) -> Optional[KernelSpec]:
    """The compiled-kernel spec for a program, or ``None``.

    Derived from the applicability table — the single source of truth
    the static analyzer certifies against the relax body — and gated
    on the program not overriding the hooks a fused kernel cannot
    reproduce.  ``None`` means "run the numpy path"; it is never an
    error.
    """
    expectation = PROGRAM_EXPECTATIONS.get(program.name)
    if expectation is None:
        return None
    if program.reduce.value != expectation.reduce_op:
        return None  # drifted from the table; analyzer flags it too
    if type(program).filter_pushes is not PushProgram.filter_pushes:
        return None
    if type(program).lane_relax is not PushProgram.lane_relax:
        return None
    relax = _RELAX_CODES.get(expectation.relax_class)
    reduce_ = _REDUCE_CODES.get(expectation.reduce_op)
    if relax is None or reduce_ is None:
        return None
    return KernelSpec(relax, reduce_)


# ----------------------------------------------------------------------
# Backend base class
# ----------------------------------------------------------------------
def _i64(a: np.ndarray) -> bool:
    return a.dtype == np.int64 and a.flags.c_contiguous


def _f64(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def _u64(a: np.ndarray) -> bool:
    return a.dtype == np.uint64 and a.flags.c_contiguous


class KernelBackend:
    """One relax/reduce inner-loop implementation.

    The base class *is* the ``numpy`` backend: every ``try_*`` hook
    declines, which makes the engines run their canonical vectorised
    path.  :class:`CJitBackend` overrides the hooks and returns
    ``True`` when it handled the launch; any gate failure returns
    ``False`` and the engine falls back — so the backend can never
    change results, only speed.
    """

    #: lookup key (``--kernel-backend``, ``$REPRO_KERNEL_BACKEND``).
    name = "numpy"
    #: whether this backend JIT-compiles kernels.
    jit = False

    def __init__(self) -> None:
        #: launches handled by compiled kernels (parity tests assert
        #: the fused path actually engaged).
        self.engaged = 0

    def is_available(self) -> bool:
        return True

    def availability_note(self) -> str:
        """Human-readable reason when :meth:`is_available` is False."""
        return "always available"

    # Each hook mirrors one engine call site.  Argument arrays are the
    # engine's own (full ``targets``/``weights`` arrays, per-batch
    # descriptor arrays); the hook must not mutate anything but the
    # destination values.
    def try_push(self, spec, values, read_values, batch, targets, weights) -> bool:
        return False

    def try_pull(self, spec, values, read_values, batch, in_sources, weights) -> bool:
        return False

    def try_push_lanes(self, spec, values_t, read_t, batch, targets, weights) -> bool:
        return False

    def try_or_scatter(self, new_w, frontier_w, batch, targets) -> bool:
        return False

    def try_edge_mul_add(self, out, values, src, dst, scale) -> bool:
        return False

    # ------------------------------------------------------------------
    def _gate_common(self, spec, values, read_values, batch, weights) -> bool:
        """Shared admission checks for the batch-form hooks."""
        if spec is None or batch.phys is None:
            return False
        if values is read_values:
            # synchronization relaxation re-reads mid-launch; only the
            # buffered numpy path reproduces that order.
            return False
        if not (_f64(values) and _f64(read_values) and _i64(batch.phys)
                and _i64(batch.counts) and _i64(batch.starts)
                and _i64(batch.strides)):
            return False
        if weights is None:
            if spec.needs_weights:
                return False
        elif not _f64(weights):
            return False
        return True


# ----------------------------------------------------------------------
# C backend (system compiler + ctypes)
# ----------------------------------------------------------------------
#: the compiled kernels.  One function per shape; relax/reduce arrive
#: as int flags that gcc's loop unswitching hoists out of the hot loops
#: at -O3.  They match the engines' vectorised numpy path bitwise: the
#: gather order is thread-by-thread in strided slot order (exactly
#: ``strided_ranges_to_indices``), and the fold is the same comparison
#: / addition ``ufunc.at`` applies element-wise.
_C_SOURCE = r"""
#include <stdint.h>

#define RELAX(c, s, e) do { \
    if (relax == 0)      (c) = (s) + (has_w ? w[(e)] : 1.0); \
    else if (relax == 1) (c) = ((s) < w[(e)] ? (s) : w[(e)]); \
    else                 (c) = (s); \
} while (0)

#define FOLD(v, d, c) do { \
    if (reduce == 0)      { if ((c) < (v)[(d)]) (v)[(d)] = (c); } \
    else if (reduce == 1) { if ((c) > (v)[(d)]) (v)[(d)] = (c); } \
    else                  { (v)[(d)] += (c); } \
} while (0)

void push_batch(double* v, const double* rv, const int64_t* phys,
                const int64_t* counts, const int64_t* starts,
                const int64_t* strides, const int64_t* targets,
                const double* w, int64_t nthreads,
                int has_w, int relax, int reduce) {
    for (int64_t t = 0; t < nthreads; t++) {
        const double s = rv[phys[t]];
        const int64_t b = starts[t], st = strides[t], k = counts[t];
        for (int64_t j = 0; j < k; j++) {
            const int64_t e = b + j * st;
            double c;
            RELAX(c, s, e);
            FOLD(v, targets[e], c);
        }
    }
}

void pull_batch(double* v, const double* rv, const int64_t* own,
                const int64_t* counts, const int64_t* starts,
                const int64_t* strides, const int64_t* in_sources,
                const double* w, int64_t nthreads,
                int has_w, int relax, int reduce) {
    for (int64_t t = 0; t < nthreads; t++) {
        const int64_t o = own[t];
        const int64_t b = starts[t], st = strides[t], k = counts[t];
        for (int64_t j = 0; j < k; j++) {
            const int64_t e = b + j * st;
            double c;
            RELAX(c, rv[in_sources[e]], e);
            FOLD(v, o, c);
        }
    }
}

void push_lanes(double* vt, const double* rvt, int64_t lanes, int64_t n,
                const int64_t* phys, const int64_t* counts,
                const int64_t* starts, const int64_t* strides,
                const int64_t* targets, const double* w, int64_t nthreads,
                int has_w, int relax, int reduce) {
    for (int64_t lane = 0; lane < lanes; lane++) {
        double* v = vt + lane * n;
        const double* rv = rvt + lane * n;
        for (int64_t t = 0; t < nthreads; t++) {
            const double s = rv[phys[t]];
            const int64_t b = starts[t], st = strides[t], k = counts[t];
            for (int64_t j = 0; j < k; j++) {
                const int64_t e = b + j * st;
                double c;
                RELAX(c, s, e);
                FOLD(v, targets[e], c);
            }
        }
    }
}

void or_batch(uint64_t* new_w, const uint64_t* frontier_w,
              const int64_t* phys, const int64_t* counts,
              const int64_t* starts, const int64_t* strides,
              const int64_t* targets, int64_t nthreads) {
    for (int64_t t = 0; t < nthreads; t++) {
        const uint64_t bits = frontier_w[phys[t]];
        const int64_t b = starts[t], st = strides[t], k = counts[t];
        for (int64_t j = 0; j < k; j++) {
            new_w[targets[b + j * st]] |= bits;
        }
    }
}

void edge_mul_add(double* out, const double* values, const int64_t* src,
                  const int64_t* dst, const double* scale, int64_t nedges) {
    for (int64_t e = 0; e < nedges; e++) {
        out[dst[e]] += values[src[e]] * scale[e];
    }
}
"""


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


class CJitBackend(KernelBackend):
    """Kernels compiled once with the system C compiler.

    The shared library is content-addressed by (source hash, compiler)
    and cached under the repro cache dir, so the compile cost is paid
    once per machine, not per process.  Loading is lazy: the compiler
    is only invoked the first time a hook actually fires.
    """

    name = "cjit"
    jit = True

    def __init__(self) -> None:
        super().__init__()
        self._lib: Optional[ctypes.CDLL] = None
        self._failed: Optional[str] = None
        self._lock = threading.Lock()
        #: the C compiler, probed once: a PATH search on every engine
        #: run would cost more than the backend resolution it serves.
        self._cc = _find_cc()
        #: wall seconds the one-time compile took (0 on cache hit).
        self.compile_seconds = 0.0

    # -- compilation ----------------------------------------------------
    def is_available(self) -> bool:
        with self._lock:
            if self._lib is not None:
                return True
            if self._failed is not None:
                return False
        return self._cc is not None

    def availability_note(self) -> str:
        with self._lock:
            failed = self._failed
        if failed is not None:
            return failed
        if self._cc is None:
            return "no C compiler on PATH (set $CC or install gcc/clang)"
        return "available"

    def _ensure_lib(self) -> Optional[ctypes.CDLL]:
        # an uncontended lock costs ~100ns — noise next to a launch
        with self._lock:
            if self._lib is None and self._failed is None:
                try:
                    self._lib = self._compile()
                except Exception as exc:  # compile trouble = degrade, never fail
                    self._failed = f"kernel compile failed: {exc}"
                    warnings.warn(
                        f"cjit backend disabled: {self._failed}",
                        RuntimeWarning, stacklevel=2,
                    )
            return self._lib

    def _compile(self) -> ctypes.CDLL:
        import time

        from repro.engine.costmodel import cache_dir

        cc = self._cc
        if cc is None:
            raise EngineError("no C compiler on PATH")
        digest = hashlib.sha256(
            (_C_SOURCE + "\0" + cc).encode()
        ).hexdigest()[:16]
        lib_dir = os.path.join(cache_dir(), "kernels")
        os.makedirs(lib_dir, exist_ok=True)
        lib_path = os.path.join(lib_dir, f"repro-kernels-{digest}.so")
        if not os.path.exists(lib_path):
            started = time.perf_counter()
            src_path = os.path.join(lib_dir, f"repro-kernels-{digest}.c")
            tmp_path = f"{lib_path}.tmp.{os.getpid()}"
            with open(src_path, "w", encoding="utf-8") as fh:
                fh.write(_C_SOURCE)
            subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", "-o", tmp_path, src_path],
                check=True, capture_output=True, text=True,
            )
            os.replace(tmp_path, lib_path)  # atomic: racers see whole files
            self.compile_seconds = time.perf_counter() - started
        lib = ctypes.CDLL(lib_path)
        for fn in ("push_batch", "pull_batch", "push_lanes", "or_batch",
                   "edge_mul_add"):
            getattr(lib, fn).restype = None
        return lib

    # -- hooks ----------------------------------------------------------
    @staticmethod
    def _ptr(a: np.ndarray) -> ctypes.c_void_p:
        return ctypes.c_void_p(a.ctypes.data)

    def try_push(self, spec, values, read_values, batch, targets, weights) -> bool:
        if not self._gate_common(spec, values, read_values, batch, weights):
            return False
        if not _i64(targets):
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        w = weights if weights is not None else values  # never read when has_w=0
        lib.push_batch(
            self._ptr(values), self._ptr(read_values), self._ptr(batch.phys),
            self._ptr(batch.counts), self._ptr(batch.starts),
            self._ptr(batch.strides), self._ptr(targets), self._ptr(w),
            ctypes.c_int64(batch.num_threads),
            ctypes.c_int(int(weights is not None)),
            ctypes.c_int(spec.relax), ctypes.c_int(spec.reduce),
        )
        self.engaged += 1
        return True

    def try_pull(self, spec, values, read_values, batch, in_sources, weights) -> bool:
        if not self._gate_common(spec, values, read_values, batch, weights):
            return False
        if not _i64(in_sources):
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        w = weights if weights is not None else values
        lib.pull_batch(
            self._ptr(values), self._ptr(read_values), self._ptr(batch.phys),
            self._ptr(batch.counts), self._ptr(batch.starts),
            self._ptr(batch.strides), self._ptr(in_sources), self._ptr(w),
            ctypes.c_int64(batch.num_threads),
            ctypes.c_int(int(weights is not None)),
            ctypes.c_int(spec.relax), ctypes.c_int(spec.reduce),
        )
        self.engaged += 1
        return True

    def try_push_lanes(self, spec, values_t, read_t, batch, targets, weights) -> bool:
        if not self._gate_common(spec, values_t, read_t, batch, weights):
            return False
        if not _i64(targets) or values_t.ndim != 2:
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        lanes, n = values_t.shape
        w = weights if weights is not None else values_t
        lib.push_lanes(
            self._ptr(values_t), self._ptr(read_t),
            ctypes.c_int64(lanes), ctypes.c_int64(n),
            self._ptr(batch.phys), self._ptr(batch.counts),
            self._ptr(batch.starts), self._ptr(batch.strides),
            self._ptr(targets), self._ptr(w),
            ctypes.c_int64(batch.num_threads),
            ctypes.c_int(int(weights is not None)),
            ctypes.c_int(spec.relax), ctypes.c_int(spec.reduce),
        )
        self.engaged += 1
        return True

    def try_or_scatter(self, new_w, frontier_w, batch, targets) -> bool:
        if batch.phys is None:
            return False
        if not (_u64(new_w) and _u64(frontier_w) and _i64(batch.phys)
                and _i64(batch.counts) and _i64(batch.starts)
                and _i64(batch.strides) and _i64(targets)):
            return False
        if new_w.ndim != 1 or frontier_w.ndim != 1:
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        lib.or_batch(
            self._ptr(new_w), self._ptr(frontier_w), self._ptr(batch.phys),
            self._ptr(batch.counts), self._ptr(batch.starts),
            self._ptr(batch.strides), self._ptr(targets),
            ctypes.c_int64(batch.num_threads),
        )
        self.engaged += 1
        return True

    def try_edge_mul_add(self, out, values, src, dst, scale) -> bool:
        if not (_f64(out) and _f64(values) and _f64(scale)
                and _i64(src) and _i64(dst)):
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        lib.edge_mul_add(
            self._ptr(out), self._ptr(values), self._ptr(src),
            self._ptr(dst), self._ptr(scale), ctypes.c_int64(len(src)),
        )
        self.engaged += 1
        return True


# ----------------------------------------------------------------------
# Lookup and per-run resolution
# ----------------------------------------------------------------------
NUMPY_BACKEND = KernelBackend()
CJIT_BACKEND = CJitBackend()

#: the two backends, by name: the numpy baseline and the C JIT.
_BACKENDS: Dict[str, KernelBackend] = {
    "numpy": NUMPY_BACKEND,
    "cjit": CJIT_BACKEND,
}


def get_backend(name: str) -> KernelBackend:
    """The backend called ``name``, availability unchecked.

    Raises :class:`~repro.errors.EngineError` for unknown names (a
    typo in ``--kernel-backend`` should fail loudly, not silently run
    the scalar path).
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise EngineError(
            f"unknown kernel backend {name!r}; known: "
            + ", ".join(_BACKENDS)
        )
    return backend


_warned_unavailable: set = set()


def resolve_backend(
    name: Optional[str] = None, *, edges: Optional[int] = None
) -> KernelBackend:
    """Pick the backend for one engine run.

    ``name`` (usually ``EngineOptions.kernel_backend``) wins, then
    ``$REPRO_KERNEL_BACKEND``, then ``"auto"``.  ``auto`` asks the
    measured cost model whether ``cjit`` beats numpy on a graph of
    ``edges`` edges.  A requested-but-unavailable ``cjit`` (no C
    compiler, or a failed compile) warns once and falls back to numpy
    — results are identical either way, so degrading is always safe.
    """
    if name is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND") or "auto"
    if name == "auto":
        from repro.engine import costmodel

        name = costmodel.get_profile().choose_kernel_backend(
            edges=edges or 0,
            candidates=("cjit",) if _BACKENDS["cjit"].is_available() else (),
        )
    backend = get_backend(name)
    if not backend.is_available():
        if name not in _warned_unavailable:
            _warned_unavailable.add(name)
            warnings.warn(
                f"kernel backend {name!r} is unavailable "
                f"({backend.availability_note()}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        return NUMPY_BACKEND
    return backend
