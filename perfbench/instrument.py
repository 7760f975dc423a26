"""Spans around the public calls of every streamcl module on the ``run`` path.

Nothing under ``src/`` changes: functions are re-bound on the module or class
that the caller looks them up on, and restored on exit. Ops that are
imported by name are wrapped at each importing module, which is how the
encoder's and the classifier's ``conv2d`` calls are told apart.

Work the trace itself adds (graph walks, row hashing) runs inside spans
named ``trace.bookkeeping`` so it never lands in a layer's self time.
"""

from __future__ import annotations

import contextlib
import threading
import time
import types
from collections import Counter

import numpy as np

from spans import LayerFigures, RepeatCounter, aggregate

BOOKKEEPING = "trace.bookkeeping"


def time_batches(latencies):
    """Patch ``TaskStream.train_batches`` to record online absorb latency:
    from handing one batch to the trainer until it asks for the next."""
    from streamcl.streams import TaskStream

    original = TaskStream.train_batches

    def timed(self, task_id, batch_size):
        for batch in original(self, task_id, batch_size):
            t0 = time.perf_counter()
            yield batch
            latencies.append(time.perf_counter() - t0)

    return _patched([(TaskStream, "train_batches", timed)])


@contextlib.contextmanager
def _patched(bindings):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, value in bindings:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _graph_size(loss):
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Installs the spans for one traced ``streamcl run`` and summarises them."""

    def __init__(self, recorder):
        self.rec = recorder
        self.repeats = RepeatCounter()
        self.norm_shapes = Counter()
        self._lock = threading.Lock()  # seeds may run in parallel threads

    def _bookkeeping(self, fn, *args):
        idx = self.rec.begin(BOOKKEEPING)
        try:
            with self._lock:
                return fn(*args)
        finally:
            self.rec.end(idx)

    def bindings(self):
        import streamcl.cli as cli
        import streamcl.encoder as encoder
        import streamcl.losses as losses
        import streamcl.memory as memory
        import streamcl.norms as norms
        import streamcl.tensor as tensor
        import streamcl.trainer as trainer

        rec, wrap = self.rec, self.rec.wrap
        out = []

        def bind(owner, attr, name, fn=None):
            out.append((owner, attr, fn or wrap(getattr(owner, attr), name)))

        # tensor: backward sweep, conv by caller, every einsum the core issues
        backward = wrap(tensor.Tensor.backward, "tensor.backward")

        def traced_backward(loss):
            rec.count("tensor.graph_nodes", self._bookkeeping(_graph_size, loss))
            return backward(loss)

        bind(tensor.Tensor, "backward", None, traced_backward)

        def conv_binding(owner, name):
            conv = wrap(getattr(owner, "conv2d"), name)

            def traced_conv(*args, **kwargs):
                out = conv(*args, **kwargs)
                if out._backward is not None:
                    out._backward = wrap(out._backward, "tensor.conv2d.backward")
                return out

            bind(owner, "conv2d", None, traced_conv)

        conv_binding(encoder, "tensor.conv2d.encoder")
        conv_binding(trainer, "tensor.conv2d.classifier")

        # the core reaches einsum through its ``np`` global; giving it a copy of
        # numpy with einsum wrapped leaves every other numpy user untouched
        class _Numpy(types.ModuleType):
            def __getattr__(self, attr):
                return getattr(np, attr)

        np_view = _Numpy("numpy")
        np_view.__dict__.update(vars(np))
        np_view.einsum = wrap(np.einsum, "tensor.einsum")
        bind(tensor, "np", None, np_view)

        # norms: every layer class, nested calls fold into the outermost one
        for cls in (norms.BatchNorm, norms.InstanceNorm, norms.LayerNorm, norms.GroupNorm,
                    norms.BlendedSpatialNorm, norms.SwitchableNorm, norms.ContinualNorm,
                    norms.SplitParallelNorm):
            call = wrap(cls.__call__, "norms.forward")

            def traced_norm(layer, x, _call=call):
                if layer.training and rec.current() != "norms.forward":
                    self._bookkeeping(self.norm_shapes.update, [tuple(x.shape)])
                return _call(layer, x)

            bind(cls, "__call__", None, traced_norm)

        # encoder
        extract = wrap(encoder.MultiScaleEncoder.extract, "encoder.extract")

        def traced_extract(enc, x, indices=None):
            data = x.data if isinstance(x, tensor.Tensor) else np.asarray(x)
            self._bookkeeping(self.repeats.observe, data)
            return extract(enc, x, indices)

        bind(encoder.MultiScaleEncoder, "extract", None, traced_extract)
        bind(encoder.MultiScaleEncoder, "features", "encoder.features")
        bind(encoder, "aggregate", "encoder.aggregate")

        # losses
        bind(losses, "ce_loss", "losses.ce")
        bind(losses, "kl_pointwise_distill", "losses.kl")
        structurewise = wrap(losses.structurewise_distill, "losses.structurewise")

        def traced_structurewise(tuple_set, student_embed, *args, **kwargs):
            rec.count("losses.structurewise.pairs",
                      len(tuple_set.pairs) if tuple_set is not None else 0)
            embed = wrap(student_embed, "losses.structurewise.embed")
            return structurewise(tuple_set, embed, *args, **kwargs)

        bind(losses, "structurewise_distill", None, traced_structurewise)
        bind(trainer, "build_tuple_set", "losses.build_tuple_set")

        # memory
        sample = wrap(trainer.buffer_sample, "memory.sample")

        def traced_sample(*args, **kwargs):
            batch = sample(*args, **kwargs)
            rec.count("memory.sample.with_replacement", int(batch.with_replacement))
            return batch

        bind(trainer, "buffer_sample", None, traced_sample)
        bind(memory.RingBuffer, "insert", "memory.insert")
        bind(memory.ReservoirBuffer, "insert", "memory.insert")
        bind(trainer, "select_cross_task_tuples", "memory.select_tuples")
        bind(trainer, "select_pseudo_task_tuples", "memory.select_tuples")

        # streams
        bind(trainer, "generate_stream", "streams.generate")
        augment = wrap(trainer.augment_batch, "streams.augment")

        def traced_augment(xs, ops, apply, rng, is_replay, target_dims=None):
            if ops and (apply == "all" or (apply == "replay_only" and is_replay)):
                rec.count("streams.augment.rows", len(xs))
            return augment(xs, ops, apply, rng, is_replay, target_dims)

        bind(trainer, "augment_batch", None, traced_augment)

        # trainer
        forward = wrap(trainer.Classifier.forward, "trainer.forward")

        def traced_forward(clf, h):
            rec.count("trainer.forward.rows", h.shape[0])
            return forward(clf, h)

        bind(trainer.Classifier, "forward", None, traced_forward)
        bind(trainer.Classifier, "logits_np", "trainer.teacher_logits")
        bind(trainer.SGD, "step", "trainer.sgd_step")
        bind(trainer.Trainer, "build_state", "trainer.build_state")
        bind(trainer.Trainer, "train_task", "trainer.train_task")
        bind(trainer.Trainer, "evaluate", "trainer.evaluate")

        # config and cli
        bind(cli, "parse_config", "config.parse")
        bind(cli, "_run_seeds", "cli.run_seeds")
        bind(cli, "run_experiment", "cli.seed_run")
        bind(cli, "write_bundle", "cli.write_bundle")
        return out

    def installed(self):
        return _patched(self.bindings())

    def summary(self, run_s):
        """Per-layer figures of the finished run; ``run_s`` is its wall time."""
        agg = aggregate(self.rec.spans)
        c = self.rec.counters

        def fig(name):
            return agg.get(name, LayerFigures())

        def ratio(num, den):
            return num / den if den else 0.0

        updates = fig("tensor.backward").calls
        samples = fig("memory.sample").calls
        norm_shape = max(self.norm_shapes.items(),
                         key=lambda kv: (kv[1] * int(np.prod(kv[0])), kv[0]),
                         default=(None, 0))[0]
        return {
            "tensor.backward.self_s": (fig("tensor.backward").self_s, "s"),
            "tensor.backward.calls": (updates, "count"),
            "tensor.backward.share": (ratio(fig("tensor.backward").total_s, run_s), "ratio"),
            "tensor.graph_nodes_per_update": (ratio(c["tensor.graph_nodes"], updates), "count"),
            "tensor.conv2d.backward_s": (fig("tensor.conv2d.backward").total_s, "s"),
            "tensor.conv2d.encoder.self_s": (fig("tensor.conv2d.encoder").self_s, "s"),
            "tensor.conv2d.encoder.total_s": (fig("tensor.conv2d.encoder").total_s, "s"),
            "tensor.conv2d.encoder.calls": (fig("tensor.conv2d.encoder").calls, "count"),
            "tensor.conv2d.classifier.self_s": (fig("tensor.conv2d.classifier").self_s, "s"),
            "tensor.conv2d.classifier.total_s": (fig("tensor.conv2d.classifier").total_s, "s"),
            "tensor.einsum.calls": (fig("tensor.einsum").calls, "count"),
            "tensor.einsum.self_s": (fig("tensor.einsum").self_s, "s"),
            "norms.forward.self_s": (fig("norms.forward").self_s, "s"),
            "norms.forward.calls": (fig("norms.forward").calls, "count"),
            "encoder.extract.self_s": (fig("encoder.extract").self_s, "s"),
            "encoder.aggregate.self_s": (fig("encoder.aggregate").self_s, "s"),
            "encoder.share": (ratio(fig("encoder.features").total_s, run_s), "ratio"),
            "encoder.rows": (self.repeats.rows, "rows"),
            "encoder.repeat_share": (self.repeats.share, "ratio"),
            "losses.structurewise.total_s": (fig("losses.structurewise").total_s, "s"),
            "losses.structurewise.embed_calls":
                (fig("losses.structurewise.embed").calls, "count"),
            "losses.structurewise.pairs_per_update":
                (ratio(c["losses.structurewise.pairs"], updates), "count"),
            "losses.kl.self_s": (fig("losses.kl").self_s, "s"),
            "losses.ce.self_s": (fig("losses.ce").self_s, "s"),
            "losses.build_tuple_set.total_s": (fig("losses.build_tuple_set").total_s, "s"),
            "memory.sample.self_s": (fig("memory.sample").self_s, "s"),
            "memory.sample.calls": (samples, "count"),
            "memory.replacement_share":
                (ratio(c["memory.sample.with_replacement"], samples), "ratio"),
            "memory.insert.self_s": (fig("memory.insert").self_s, "s"),
            "memory.select_tuples.self_s": (fig("memory.select_tuples").self_s, "s"),
            "streams.generate.self_s": (fig("streams.generate").self_s, "s"),
            "streams.augment.self_s": (fig("streams.augment").self_s, "s"),
            "streams.augment.rows": (c["streams.augment.rows"], "rows"),
            "trainer.forward.self_s": (fig("trainer.forward").self_s, "s"),
            "trainer.forward.calls": (fig("trainer.forward").calls, "count"),
            "trainer.forward.rows": (c["trainer.forward.rows"], "rows"),
            "trainer.teacher_logits.total_s": (fig("trainer.teacher_logits").total_s, "s"),
            "trainer.sgd_step.self_s": (fig("trainer.sgd_step").self_s, "s"),
            "trainer.train_task.self_s": (fig("trainer.train_task").self_s, "s"),
            "trainer.evaluate.total_s": (fig("trainer.evaluate").total_s, "s"),
            "trainer.build_state.total_s": (fig("trainer.build_state").total_s, "s"),
            "config.parse.self_s": (fig("config.parse").self_s, "s"),
            "cli.run_seeds.total_s": (fig("cli.run_seeds").total_s, "s"),
            "cli.write_bundle.self_s": (fig("cli.write_bundle").self_s, "s"),
            "cli.seed_overlap":
                (ratio(fig("cli.seed_run").total_s, fig("cli.run_seeds").total_s), "ratio"),
        }, norm_shape
