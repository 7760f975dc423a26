"""Invariant suite behind the ``check`` command.

Each group re-verifies a core contract at runtime: gradient correctness
against central finite differences, normalization moments, potential
properties, the metric formulas against a scalar-loop oracle, and
reservoir-buffer statistics. ``inject_fault`` inserts an op with a
mis-scaled backward rule into the gradient group's function as a negative
control; that group must then fail.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .losses import (
    build_tuple_set,
    potential_matrix,
    structurewise_distill,
)
from .memory import ReservoirBuffer
from .norms import BatchNorm, GroupNorm, InstanceNorm, LayerNorm, SplitParallelNorm
from .streams import compute_metrics
from .tensor import Parameter, Tensor


def _misscaled(x):
    """Identity whose backward rule is 0.1% too large."""
    return T._from_op(x.data, (x,), lambda g: (g * 1.001,))


def _gradient_group(inject_fault):
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = Parameter(rng.normal(size=(2, 4, 8, 8)), "x")
        k = Parameter(rng.normal(size=(4, 4, 3, 3)) * 0.3, "k")

        def f():
            spn = SplitParallelNorm(4)
            y = T.conv2d(x, k, stride=1, padding=1)
            if inject_fault:
                y = _misscaled(y)
            z = T.conv2d(y, k, stride=2, padding=1)  # classifier conv shape, input on the tape
            z = SplitParallelNorm(4).eval()(z)  # BN half on its running statistics, as constants
            y = T.maxpool2x2(T.relu(spn(y)))
            s = T.softmax(y.reshape((2, 64)), axis=1, temperature=2.0)
            return (s * s).sum() + y.sum() * 0.1 + (z * z).sum() * 0.01

        report = T.finite_difference_check(f, [x, k], step=1e-6, tol=1e-4)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            return False, f"seed {seed}: max rel error {report.max_rel_error:.2e}"
    return True, f"max rel error {worst:.2e}"


def _moments_group():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(scale=1.5, size=(6, 4, 4, 4)))
    cases = [(BatchNorm(4), (0, 2, 3)), (InstanceNorm(4), (2, 3)), (LayerNorm(4), (1, 2, 3))]
    for layer, axes in cases:
        out = layer(x).data
        m = np.abs(out.mean(axis=axes)).max()
        v = np.abs(((out - out.mean(axis=axes, keepdims=True)) ** 2).mean(axis=axes) - 1).max()
        if m > 1e-6 or v > 1e-4:
            return False, f"{layer.kind}: mean {m:.2e}, var dev {v:.2e}"
    gn1 = GroupNorm(4, 1)(x).data
    gnc = GroupNorm(4, 4)(x).data
    if not np.allclose(gn1, LayerNorm(4)(x).data, atol=1e-12):
        return False, "GN(1) != LN"
    if not np.allclose(gnc, InstanceNorm(4)(x).data, atol=1e-12):
        return False, "GN(C) != IN"
    return True, "BN/IN/LN moments and GN degenerations hold"


def _potentials_group():
    rng = np.random.default_rng(1)

    def potentials(a, z, metric, tau):
        return potential_matrix(Tensor(a), Tensor(z), metric, tau).data

    for metric in ("cosine", "l2", "arccos"):
        p = potentials(rng.normal(size=(4, 6)), rng.normal(size=(5, 6)), metric, 2.0)
        if np.abs(p.sum(axis=1) - 1).max() > 1e-9 or p.min() < 0:
            return False, f"{metric}: not a probability vector"
    for metric in ("cosine", "arccos"):
        a = rng.normal(size=(3, 6))
        z = rng.normal(size=(4, 6))
        scaled = potentials(a * rng.uniform(0.2, 5, (3, 1)),
                            z * rng.uniform(0.2, 5, (4, 1)), metric, 1.0)
        if not np.allclose(scaled, potentials(a, z, metric, 1.0), atol=1e-9):
            return False, f"{metric}: not scale invariant"
    # stationarity of the structure-wise loss at the snapshot, over two csd tasks
    w = Parameter(rng.normal(size=(6, 4)), "w")
    w0 = w.data.copy()
    feats = rng.normal(size=(8, 6))  # four rows of task 1, then four of task 2
    pairs = [(1, 2, np.arange(4), np.arange(4, 8))]  # structurewise_pairs("csd", 3)
    tset = build_tuple_set("cosine", feats, pairs, lambda f: Tensor(f @ w0), 2.0)
    structurewise_distill(tset, lambda f: T.matmul(Tensor(f), w), 2.0).backward()
    if np.abs(w.grad).max() >= 1e-8:
        return False, f"stationarity violated: grad {np.abs(w.grad).max():.2e}"
    return True, "probability, scale-invariance and stationarity hold"


def _metrics_group():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = int(rng.integers(2, 12))
        a = np.full((t, t), np.nan)
        for i in range(t):
            a[i, :i + 1] = rng.uniform(0, 1, size=i + 1)
        acc, fm, la = compute_metrics(a)
        o_acc = a[t - 1].mean()
        o_la = np.diag(a).mean()
        o_fm = np.mean([max(a[l][j] for l in range(j, t - 1)) - a[t - 1][j]
                        for j in range(t - 1)])
        if abs(acc - o_acc) > 1e-12 or abs(la - o_la) > 1e-12 or abs(fm - o_fm) > 1e-12:
            return False, "loop oracle disagrees"
    acc, fm, la = compute_metrics(np.array([[0.9, np.nan], [0.8, 0.7]]))
    if not (abs(acc - 0.75) < 1e-12 and abs(fm - 0.1) < 1e-12 and abs(la - 0.8) < 1e-12):
        return False, "worked example failed"
    return True, "ACC/FM/LA match the scalar-loop oracle"


def _reservoir_group():
    seeds, n, k = 60, 3000, 60
    counts = np.zeros(n)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        buf = ReservoirBuffer(k)
        for i in range(n):
            buf.insert(np.zeros(1), 0, 0, i, rng=rng)
        for it in buf.items():
            counts[it[3]] += 1
    p = k / n
    bucket = n // 10
    trials = seeds * bucket
    sigma = np.sqrt(trials * p * (1 - p))
    for b in range(10):
        got = counts[b * bucket:(b + 1) * bucket].sum()
        if abs(got - trials * p) > 3 * sigma:
            return False, f"bucket {b}: {got} vs {trials * p:.0f} (3 sigma {3 * sigma:.0f})"
    return True, "inclusion uniform across stream position (3 sigma)"


GROUPS = (
    ("gradients", _gradient_group),
    ("moments", _moments_group),
    ("potentials", _potentials_group),
    ("metrics", _metrics_group),
    ("reservoir", _reservoir_group),
)


def run_all(inject_fault=False):
    results = []
    for name, fn in GROUPS:
        if name == "gradients":
            passed, detail = fn(inject_fault)
        else:
            passed, detail = fn()
        results.append((name, passed, detail))
    return results
