"""Dense tensors with reverse-mode automatic differentiation.

Everything is float64 and follows the (batch, channel, width, height) axis
convention. The graph is define-by-run: each operation records its parents
and a backward rule on the output tensor, and ``Tensor.backward`` replays
the recorded rules in reverse topological order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class InvalidConfig(ValueError):
    """Unsupported operation configuration."""


class OddChannelCount(ValueError):
    """Channel split requires an even channel count."""


class NotScalar(ValueError):
    """Backward sweeps must start from a single-element tensor."""


class DetachedTape(RuntimeError):
    """Backward sweep requested on a tensor with no recorded graph."""


class NondeterministicFunction(RuntimeError):
    """Two forward evaluations of the same function disagreed."""


_grad_enabled = True  # False inside ``no_grad``


class no_grad:
    """Context manager that suppresses graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev, _grad_enabled = _grad_enabled, False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 4:
            raise ShapeMismatch(f"at most 4 axes supported, got {arr.ndim}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise NotScalar(f"expected a single-element tensor, got shape {self.shape}")

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self, axes=None, keepdims=False):
        return sum_(self, axes, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self):
        """Reverse sweep from a scalar; gradients accumulate into the ``.grad``
        of leaves only.

        A leaf is a node without a backward rule: a :class:`Parameter` or a
        ``Tensor(..., requires_grad=True)``. Interior nodes keep
        ``.grad is None``; their sums live in the sweep only until they are
        propagated. Each call propagates exactly this sweep's contribution,
        so separate losses backward-ed one after another sum their
        gradients even when they share subgraphs: a second sweep through a
        shared interior node adds only its own contribution to the leaves.
        """
        if self.data.size != 1:
            self._not_scalar()
        if not self.requires_grad:
            raise DetachedTape("tensor does not require grad; nothing to sweep")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        sweep = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = sweep.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                k = id(p)
                sweep[k] = pg if k not in sweep else sweep[k] + pg


class Parameter(Tensor):
    """Trainable leaf tensor with a model-unique name."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


def _coerce(x):
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return Tensor(float(x))
    raise TypeError(f"cannot treat {type(x).__name__} as a tensor")


def _from_op(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_binary(a, b):
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    if a.ndim == b.ndim and all(m == n or m == 1 or n == 1 for m, n in zip(a.shape, b.shape)):
        return
    raise ShapeMismatch(f"incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# elementwise ------------------------------------------------------------

def add(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_binary(a.data, b.data)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _from_op(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_binary(a.data, b.data)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _from_op(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_binary(a.data, b.data)

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _from_op(a.data * b.data, (a, b), backward)


def relu(a):
    a = _coerce(a)
    mask = a.data > 0
    out = np.fmax(a.data, 0.0)  # NaN -> 0
    out += 0.0  # -0.0 -> +0.0
    return _from_op(out, (a,), lambda g: (g * mask,))


def power(a, p):
    a = _coerce(a)
    if not isinstance(p, (int, float, np.integer, np.floating)):
        raise InvalidConfig("exponent must be a scalar")
    p = float(p)
    if p != int(p) and np.any(a.data < 0):
        raise DomainError("fractional power of a negative base")

    def backward(g):
        return (g * p * a.data ** (p - 1.0),)

    return _from_op(a.data ** p, (a,), backward)


# reductions and shape ops -----------------------------------------------

def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(sorted(a % ndim if -ndim <= a < ndim else a for a in axes))
    if len(axes) == 0:
        raise InvalidConfig("empty axis set")
    if len(set(axes)) != len(axes) or any(a < 0 or a >= ndim for a in axes):
        raise InvalidConfig(f"bad axes {axes} for ndim {ndim}")
    return axes


def sum_(a, axes=None, keepdims=False):
    a = _coerce(a)
    axes = _norm_axes(axes, a.ndim) if a.ndim else ()
    out = a.data.sum(axis=axes, keepdims=keepdims) if axes else a.data.copy()

    def backward(g):
        gg = g
        if not keepdims and axes:
            gg = np.expand_dims(gg, axes)
        return (np.broadcast_to(gg, a.data.shape),)

    return _from_op(out, (a,), backward)


def reshape(a, shape):
    a = _coerce(a)
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeMismatch(f"cannot reshape {a.shape} to {shape}")
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul needs (n,m)@(m,p), got {a.shape} and {b.shape}")

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _from_op(a.data @ b.data, (a, b), backward)


def transpose2d(a):
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeMismatch("transpose2d expects a 2-axis tensor")
    return _from_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def take(a, index):
    """``a[index]`` for any numpy index: int, slice, tuple, list, array or ``np.ix_``.

    The forward is a C-ordered copy; the gradient scatters back into zeros
    laid out like ``a``.
    """
    a = _coerce(a)
    parts = index if isinstance(index, tuple) else (index,)
    basic = all(isinstance(p, (int, np.integer, slice)) for p in parts)

    def backward(g):
        full = np.zeros_like(a.data)
        if basic:  # ints and slices select each element at most once
            full[index] = g
        else:  # an array index may repeat an element, whose gradients must sum
            np.add.at(full, index, g)
        return (full,)

    return _from_op(a.data[index].copy(), (a,), backward)


def clip(a, lo, hi):
    """Clamp values; gradient passes through wherever the value was untouched."""
    a = _coerce(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _from_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def arccos(a):
    a = _coerce(a)
    if np.any(np.abs(a.data) > 1.0):
        raise DomainError("arccos requires inputs in [-1, 1]")

    def backward(g):
        return (-g / np.sqrt(1.0 - a.data ** 2),)

    return _from_op(np.arccos(a.data), (a,), backward)


# convolution and resampling ----------------------------------------------

def conv2d(x, kernel, stride=1, padding=0):
    """Cross-correlation of (B,Cin,W,H) with (Cout,Cin,k,k); k in {1,3}, stride in {1,2}."""
    x, kernel = _coerce(x), _coerce(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeMismatch("conv2d expects 4-axis input and kernel")
    co, ci, k, k2 = kernel.shape
    if k != k2 or k not in (1, 3):
        raise InvalidConfig(f"kernel size {k}x{k2} unsupported")
    if stride not in (1, 2):
        raise InvalidConfig(f"stride {stride} unsupported")
    if padding < 0:
        raise InvalidConfig("negative padding")
    b, cin, w, h = x.shape
    if cin != ci:
        raise ShapeMismatch(f"input has {cin} channels, kernel expects {ci}")
    wo = (w + 2 * padding - k) // stride + 1
    ho = (h + 2 * padding - k) // stride + 1
    if wo < 1 or ho < 1:
        raise InvalidConfig("output would be empty")
    if padding:
        xp = np.zeros((b, cin, w + 2 * padding, h + 2 * padding))
        xp[:, :, padding:padding + w, padding:padding + h] = x.data
    else:
        xp = x.data
    taps = {(i, j): np.s_[:, :, i:i + stride * wo:stride, j:j + stride * ho:stride]
            for i in range(k) for j in range(k)}
    if k == 1:  # a 1x1 conv's columns are its (strided) input, channels first
        cols = xp[taps[0, 0]].transpose(1, 0, 2, 3).reshape(ci, -1)
    else:  # (Cin*k*k, B*Wo*Ho)
        cols = np.empty((ci, k, k, b, wo, ho))
        for (i, j), tap in taps.items():
            cols[:, i, j] = xp[tap].transpose(1, 0, 2, 3)
        cols = cols.reshape(ci * k * k, -1)

    # im2col GEMM (Chellapilla et al. 2006) on einsum's own matmul operands: bitwise equal
    out = (kernel.data.reshape(co, -1) @ cols).reshape(co, b, wo, ho).transpose(1, 0, 2, 3)
    # only the kernel gradient reads the columns; without grad mode no closure is kept at all
    cols = cols if kernel.requires_grad else None
    padded = xp.shape

    def backward(g):
        gk = None
        if cols is not None:
            gk = (cols @ g.transpose(0, 2, 3, 1).reshape(-1, co)).reshape(ci, k, k, co)
            gk = gk.transpose(3, 0, 1, 2)
        if not x.requires_grad:  # e.g. the classifier's first conv, on frozen features
            return None, gk
        gt, gxp = g.transpose(1, 0, 2, 3).reshape(co, -1), np.zeros(padded)
        for (i, j), tap in taps.items():
            gxp[tap] += (kernel.data[:, :, i, j].T @ gt).reshape(ci, b, wo, ho).transpose(1, 0, 2, 3)
        return gxp[:, :, padding:padding + w, padding:padding + h], gk

    return _from_op(out, (x, kernel), backward)


def maxpool2x2(x):
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeMismatch("maxpool2x2 expects a 4-axis tensor")
    b, c, w, h = x.shape
    if w % 2 or h % 2:
        raise InvalidConfig(f"maxpool2x2 needs even spatial dims, got {w}x{h}")
    wo, ho = w // 2, h // 2
    v = x.data.reshape(b, c, wo, 2, ho, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, wo, ho, 4)
    am = v.argmax(axis=-1)
    out = np.take_along_axis(v, am[..., None], axis=-1)[..., 0]

    def backward(g):
        dv = np.zeros_like(v)
        np.put_along_axis(dv, am[..., None], g[..., None], axis=-1)
        gx = dv.reshape(b, c, wo, ho, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, w, h)
        return (gx,)

    return _from_op(out, (x,), backward)


_RESAMPLE_CACHE = {}


def resample_matrix(src, dst):
    """(dst, src) linear interpolation along one axis: sample centers at
    (i + 0.5) * src / dst - 0.5 (align-corners-false), clamped to the edges."""
    if (src, dst) not in _RESAMPLE_CACHE:
        m = np.zeros((dst, src))
        for i in range(dst):
            s = min(max((i + 0.5) * src / dst - 0.5, 0.0), src - 1.0)
            i0 = int(np.floor(s))
            i1 = min(i0 + 1, src - 1)
            f = s - i0
            m[i, i0] += 1.0 - f
            m[i, i1] += f
        _RESAMPLE_CACHE[src, dst] = m
    return _RESAMPLE_CACHE[src, dst]


def resample(x, mw, mh):
    """``einsum("pw,bcwh,qh->bcpq", mw, x, mh)`` on a (B,C,W,H) array as two
    matmuls, W first: on the up2x maps these are the very matmuls numpy's
    einsum path makes, so the two agree bitwise there."""
    b, c, w, h = x.shape
    p, q = mw.shape[0], mh.shape[0]
    t = (x.transpose(0, 1, 3, 2).reshape(-1, w) @ mw.T).reshape(b, c, h, p)
    return (t.transpose(0, 1, 3, 2).reshape(-1, h) @ mh.T).reshape(b, c, p, q)


def bilinear_up2x(x):
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeMismatch("bilinear_up2x expects a 4-axis tensor")
    b, c, w, h = x.shape
    mw, mh = resample_matrix(w, 2 * w), resample_matrix(h, 2 * h)
    return _from_op(resample(x.data, mw, mh), (x,), lambda g: (resample(g, mw.T, mh.T),))


# channel concat ---------------------------------------------------------

def concat_channels(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeMismatch("concat expects 4-axis tensors")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeMismatch(f"concat needs matching B,W,H, got {a.shape} and {b.shape}")
    ca = a.shape[1]

    def backward(g):
        return g[:, :ca].copy(), g[:, ca:].copy()

    return _from_op(np.concatenate([a.data, b.data], axis=1), (a, b), backward)


# softmax family -----------------------------------------------------------

def _tempered(x, axis, temperature):
    """``x / temperature`` shifted so its maximum along ``axis`` is 0."""
    if temperature <= 0:
        raise InvalidConfig(f"temperature must be positive, got {temperature}")
    z = x.data / temperature
    return z - z.max(axis=axis, keepdims=True)


def softmax(x, axis=-1, temperature=1.0):
    x = _coerce(x)
    e = np.exp(_tempered(x, axis, temperature))
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - inner) / temperature,)

    return _from_op(p, (x,), backward)


def log_softmax(x, axis=-1, temperature=1.0):
    x = _coerce(x)
    z = _tempered(x, axis, temperature)
    ls = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        return ((g - np.exp(ls) * g.sum(axis=axis, keepdims=True)) / temperature,)

    return _from_op(ls, (x,), backward)


# gradient verification -----------------------------------------------------

@dataclass
class FdReport:
    max_rel_error: float
    tol: float
    passed: bool
    checked: int
    worst: tuple


def finite_difference_check(f, params, step=1e-5, tol=1e-4):
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    tensor that depends on ``params``. The relative error uses
    ``|a - n| / max(|a|, |n|, 1e-4)``: entries above 1e-4 are compared
    relatively, smaller ones at an absolute tolerance of ``tol * 1e-4``,
    which sits above the roundoff noise floor of central differences on
    O(1) losses while still catching any mis-scaled backward rule.
    """
    if not 1e-6 <= step <= 1e-4:
        raise InvalidConfig(f"step {step} outside [1e-6, 1e-4]")
    y0 = f()
    y1 = f()
    if not np.array_equal(y0.data, y1.data):
        raise NondeterministicFunction("forward passes disagree at identical state")
    for p in params:
        p.grad = None
    f().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = (None, -1, 0.0, 0.0)
    max_err = 0.0
    checked = 0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                up = f().item()
            flat[i] = orig - step
            with no_grad():
                dn = f().item()
            flat[i] = orig
            num = (up - dn) / (2.0 * step)
            ana = a.reshape(-1)[i]
            err = abs(ana - num) / max(abs(ana), abs(num), 1e-4)
            checked += 1
            if err > max_err:
                max_err = err
                name = getattr(p, "name", "param")
                worst = (name, i, float(ana), float(num))
    return FdReport(max_rel_error=float(max_err), tol=tol, passed=max_err < tol,
                    checked=checked, worst=worst)
