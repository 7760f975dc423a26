"""The feature worker: a forked process that encodes a seed's rows ahead of training.

The encoder is frozen, so each feature row is a pure function of its sample
and augmentation draw, and which rows a run encodes never depends on the
classifier. After ``build_state`` a run forks one worker. Both processes run
the same model-free data side (stream batches, augmentation, replay draws,
buffer inserts, tuple selection, test sets); the worker encodes every row it
asks for and writes the features to a pipe, and the main process reads them
in the same order instead of encoding, while it does the model side. The
worker runs ahead by up to the pipe's capacity.

Each process runs OpenBLAS on one thread, so two processes fill two cores
without oversubscribing them, and a run's bytes do not depend on the BLAS
thread count it was started with. The fork happens in a process whose only
other threads are OpenBLAS's own pool, which OpenBLAS shuts down around a
fork by its own handler.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal

import numpy as np

PIPE_BYTES = 1 << 20  # the pipe capacity asked for: 64 default top-down rows
_F_SETPIPE_SZ = 1031  # Linux fcntl command


@functools.cache
def _blas_thread_calls():
    """``(get, set)`` of the loaded OpenBLAS library's thread count, found by
    its ``*get_num_threads*`` and ``*set_num_threads*`` symbols, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # not Linux
        return None
    names = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
             for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_", "_64_")]
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in names:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
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


def _inline_reason(blas_threads):
    """Why a run must encode in its own process, or None when it may fork."""
    if not hasattr(os, "fork"):
        return "no fork"
    if blas_threads is None:
        return "no OpenBLAS thread control"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        return "one usable CPU"
    return None


class FeatureWriter:
    """The worker's end of the pipe. A frame is an int64 row count and that
    many float64 feature rows; a negative count -n announces n bytes of a
    pickled exception that ended the worker."""

    def __init__(self, fd):
        self.file = open(fd, "wb")  # ends with the worker's process

    def write(self, rows):
        self.file.write(np.int64(len(rows)).tobytes())
        self.file.write(memoryview(np.ascontiguousarray(rows, dtype=np.float64)).cast("B"))
        self.file.flush()

    def fail(self, exc):
        try:
            blob = pickle.dumps(exc)
        except Exception:  # an exception that does not pickle
            blob = pickle.dumps(RuntimeError(f"feature worker: {exc!r}"))
        self.file.write(np.int64(-len(blob)).tobytes() + blob)
        self.file.flush()


class FeatureReader:
    """The main process's end of the pipe: reads each frame as the rows that
    the same call of the data side would have encoded."""

    def __init__(self, fd, row_shape):
        self.file = open(fd, "rb")  # closed by feature_worker
        self.row_shape = tuple(row_shape)

    def _exactly(self, buf):
        if self.file.readinto(buf) != memoryview(buf).nbytes:
            raise RuntimeError("the feature worker ended before the run did")

    def read(self, rows):
        head = np.empty(1, dtype=np.int64)
        self._exactly(head)
        n = int(head[0])
        if n < 0:
            blob = bytearray(-n)
            self._exactly(blob)
            raise pickle.loads(blob)
        if n != rows:
            raise RuntimeError(f"the feature worker sent {n} rows where the run needs {rows}")
        out = np.empty((n,) + self.row_shape)
        self._exactly(out)
        return out


@contextlib.contextmanager
def feature_worker(state, feed, row_shape, blas_threads):
    """Fork a worker that runs ``feed()``, the seed's data side, with
    ``state.feed`` writing to the main process; here ``state.feed`` reads
    from it and ``state.memo`` is dropped. Yields the manifest's
    ``feature_worker`` entry: "1", or "0 (<reason>)" when the state is left
    to encode inline. The worker is reaped on every exit from the block; it
    is killed unless the block completed, and it ends by itself on a closed
    pipe when the main process dies.
    """
    reason = _inline_reason(blas_threads)
    if reason is not None:
        yield f"0 ({reason})"
        return
    r, w = os.pipe()
    with contextlib.suppress(OSError):
        import fcntl

        fcntl.fcntl(w, _F_SETPIPE_SZ, PIPE_BYTES)
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(r)
        os.close(w)
        yield f"0 (fork failed: {exc.strerror})"
        return
    if pid == 0:  # the worker: never returns into the caller
        code = 1
        try:
            os.close(r)
            state.feed = FeatureWriter(w)
            try:
                feed()
                code = 0
            except BrokenPipeError:  # the main process stopped reading
                pass
            except BaseException as exc:  # this process ends below; the main re-raises it
                state.feed.fail(exc)
        finally:
            os._exit(code)
    os.close(w)
    state.feed, state.memo = FeatureReader(r, row_shape), None
    finished = False
    try:
        yield "1"
        finished = True
    finally:
        state.feed.file.close()
        state.feed = None
        if not finished:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
        if finished and status != 0:
            raise RuntimeError(f"the feature worker exited with status {status}")
