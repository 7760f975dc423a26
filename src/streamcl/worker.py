"""A run's process: its malloc and BLAS pins, and the feature worker.

The encoder is frozen, so each feature row is a pure function of its sample
and draw, and which rows a run encodes never depends on the classifier. A
run forks one feature worker, which runs the model-free data side, asking
``state.features`` for its rows, as the main's model side does. The requests
split by rows (``_turn``) into two shares for a head-only classifier, whose
model side outruns one encoding process, else into one. The worker encodes
share 0, training rows through its own memo, and writes it to its pipe, up
to the pipe's capacity ahead; the main encodes share 1 through its own
``state.features``, the encoder and memo of an inline run.

Each process runs OpenBLAS on one thread, so no BLAS threads compete with
the processes for the cores and a run's bytes do not depend on the thread
count it started with. The fork happens where the only other threads are
OpenBLAS's pool, which OpenBLAS shuts down around a fork by its own handler.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys

import numpy as np

PIPE_BYTES = 1 << 20  # the pipe's capacity asked for: 64 default top-down rows
_F_SETPIPE_SZ = 1031  # Linux fcntl command


@functools.cache
def _blas_thread_calls():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy's own
    linear-algebra extension links, by their C symbols, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("openblas", "scipy_openblas"):
        for suffix in ("", "64_", "_64_"):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore its count on
    exit; yields 1, or None where no OpenBLAS with that control is loaded."""
    calls = _blas_thread_calls()
    if calls is None:
        yield None
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(before)


def pin_malloc_thresholds():
    """Fix glibc malloc's mmap and trim thresholds for the run's process.

    By default glibc raises both to the largest block freed so far, so the
    heap would hand the pages of the encoder's small blocks (16 top-down rows
    at the defaults) back to the kernel after each block and fault them in
    again: a blob run took three times the page faults of 64-row encoder
    calls, and 20-40% longer per batch. A feature worker inherits the pin.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a C library without mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, its largest allowed value
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _inline_reason():
    """Why a run must encode in its own process, or None when it may fork."""
    if not hasattr(os, "fork"):
        return "no fork"
    if _blas_thread_calls() is None:
        return "no OpenBLAS thread control"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        return "one usable CPU"
    return None


def _turn(load, rows):
    """The share that takes a request of ``rows`` rows: the first with the
    fewest rows in ``load``, which counts them. Both processes make the same
    calls, so they agree, and rows split evenly whatever the requests' sizes."""
    k = load.index(min(load))
    load[k] += rows
    return k


class FeatureWriter:
    """The worker's end of its pipe. A frame is the int64 shape ``(rows, C, W,
    H)`` of the features and their float64 bytes; a shape ``(-n, 0, 0, 0)``
    announces n bytes of a pickled exception that ended the worker."""

    def __init__(self, fd):
        self.file = open(fd, "wb")  # ends with the worker's process

    def write(self, rows):
        self.file.write(np.array(rows.shape, dtype=np.int64).tobytes())
        self.file.write(memoryview(np.ascontiguousarray(rows, dtype=np.float64)).cast("B"))
        self.file.flush()

    def fail(self, exc):
        try:
            blob = pickle.dumps(exc)
        except Exception:  # an exception that does not pickle
            blob = pickle.dumps(RuntimeError(f"feature worker: {exc!r}"))
        self.file.write(np.array([-len(blob), 0, 0, 0], dtype=np.int64).tobytes() + blob)
        self.file.flush()


class FeatureReader:
    """``state.features`` fed by the worker: reads a request of share 0 from
    its pipe, and encodes one of share 1 here by ``encode``."""

    def __init__(self, fd, encode, shares):
        self.file = open(fd, "rb")  # closed by feature_worker
        self.encode, self.load = encode, [0] * shares

    def __call__(self, xs, indices, draws=None):
        if _turn(self.load, len(xs)):
            return self.encode(xs, indices, draws)
        return self._frame(len(xs))

    def _frame(self, rows):
        def exactly(buf):
            if self.file.readinto(buf) != memoryview(buf).nbytes:
                raise RuntimeError("the feature worker ended before the run did")

        head = np.empty(4, dtype=np.int64)
        exactly(head)
        if head[0] < 0:
            blob = bytearray(-int(head[0]))
            exactly(blob)
            raise pickle.loads(blob)
        if head[0] != rows:
            raise RuntimeError(f"the feature worker sent {head[0]} rows "
                               f"where the run needs {rows}")
        out = np.empty(tuple(head.tolist()))
        exactly(out)
        return out

    def finish(self):
        """At the end of the run: raise what ended the worker after its last frame."""
        if self.file.peek(1):  # b"" once the worker has closed its pipe
            self._frame(0)  # its exception, or a frame no request asked for


def _serve(state, feed, r, w, shares, check_frozen):
    """The worker: run ``feed()``, writing share 0 of the requests; it closes
    the read end ``r``, so that it sees EPIPE once the main process is gone."""
    code = 1
    try:
        os.close(r)
        writer, encode, load = FeatureWriter(w), state.features, [0] * shares
        # the steps are never consumed, so the worker keeps nothing it sent
        state.features = lambda xs, *rest: _turn(load, len(xs)) == 0 and writer.write(encode(xs, *rest))
        try:
            feed()
            check_frozen("in the feature worker")
            code = 0
        except BrokenPipeError:  # the main process stopped reading
            pass
        except BaseException as exc:  # this process ends below; the main re-raises it
            writer.fail(exc)
    finally:
        os._exit(code)


@contextlib.contextmanager
def feature_worker(state, feed):
    """Fork the feature worker, running ``feed()``, the seed's data side; here
    ``state.features`` reads the worker's share of the rows and encodes the
    main's until the block ends. Yields the manifest's ``feature_worker``: "1",
    or "0 (<reason>)" when the state encodes inline. Each process that encoded
    checks the encoder's kernel bytes. The worker is reaped on every exit,
    killed unless the block completed, and ends by itself on a closed pipe
    when the main process dies."""
    kernels = state.encoder.kernel_bytes()

    def check_frozen(where):
        if state.encoder.kernel_bytes() != kernels:
            raise RuntimeError(f"the frozen encoder's kernels changed {where}")

    shares = 2 if state.classifier.arch == "head_only" else 1
    reason = _inline_reason()
    if reason is None:
        r, w = os.pipe()
        with contextlib.suppress(OSError):
            import fcntl
            fcntl.fcntl(w, _F_SETPIPE_SZ, PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError as exc:
            reason = f"fork failed: {exc.strerror}"
            os.close(r)
        if reason is None and pid == 0:  # the worker: never returns
            _serve(state, feed, r, w, shares, check_frozen)
        os.close(w)
    if reason is not None:
        yield f"0 ({reason})"
    else:
        encode, state.features = state.features, FeatureReader(r, state.features, shares)
        finished = False
        try:
            yield "1"
            state.features.finish()
            finished = True
        finally:
            state.features.file.close()
            state.features = encode
            if not finished:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        if status:
            raise RuntimeError(f"the feature worker exited with status {status}")
    check_frozen("during the run")
