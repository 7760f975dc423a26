"""The feature worker: a forked process that encodes a seed's rows ahead of training.

The encoder is frozen, so each feature row is a pure function of its sample
and augmentation draw, and which rows a run encodes never depends on the
classifier. After ``build_state`` a run forks one worker. Both processes run
the same model-free data side (stream batches, augmentation, replay draws,
buffer inserts, tuple selection, test sets), each asking ``state.features``
for its rows. In the worker it encodes them (training rows through the memo,
which so fills only there) and writes them to a pipe; in the main process it
reads them in the same order, while the main does the model side. The worker
runs ahead by up to the pipe's capacity.

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


class FeatureWriter:
    """The worker's end of the pipe. A frame is the int64 shape ``(rows, C, W,
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
    """``state.features`` of a main process fed by a worker: reads each frame
    as the rows that the same call of the data side encoded there."""

    def __init__(self, fd):
        self.file = open(fd, "rb")  # closed by feature_worker

    def _exactly(self, buf):
        if self.file.readinto(buf) != memoryview(buf).nbytes:
            raise RuntimeError("the feature worker ended before the run did")

    def __call__(self, xs, indices, draws=None):
        head = np.empty(4, dtype=np.int64)
        self._exactly(head)
        if head[0] < 0:
            blob = bytearray(-int(head[0]))
            self._exactly(blob)
            raise pickle.loads(blob)
        if head[0] != len(xs):
            raise RuntimeError(f"the feature worker sent {head[0]} rows "
                               f"where the run needs {len(xs)}")
        out = np.empty(tuple(head.tolist()))
        self._exactly(out)
        return out

    def finish(self):
        """At the end of the run: raise what ended the worker after its last frame."""
        if self.file.peek(1):  # b"" once the worker has closed the pipe
            self((), None)  # the worker's exception, or a frame no request asked for


@contextlib.contextmanager
def feature_worker(state, feed):
    """Fork a worker that runs ``feed()``, the seed's data side, with
    ``state.features`` encoding and writing each result to the main process;
    here ``state.features`` reads them until the block ends. Yields the
    manifest's ``feature_worker`` entry: "1", or "0 (<reason>)" when the state
    is left to encode inline. The worker is reaped on every exit from the
    block; it is killed unless the block completed, and it ends by itself on
    a closed pipe when the main process dies.
    """
    reason = _inline_reason()
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
            writer, encode = FeatureWriter(w), state.features
            # the steps are never consumed, so the worker keeps nothing it sent
            state.features = lambda *rows: writer.write(encode(*rows))
            try:
                feed()
                code = 0
            except BrokenPipeError:  # the main process stopped reading
                pass
            except BaseException as exc:  # this process ends below; the main re-raises it
                writer.fail(exc)
        finally:
            os._exit(code)
    os.close(w)
    encode, state.features = state.features, FeatureReader(r)
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
        if finished and status != 0:
            raise RuntimeError(f"the feature worker exited with status {status}")
