"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (typically NCHW feature maps, but scalars and other
ranks are allowed for loss plumbing).  A tensor an op computed with gradient
links to a graph node that holds its parent links, the closure mapping the
upstream gradient to per-parent gradients, and its gradient's dtype; a leaf
is linked as itself.  No node points at a tensor, so the forward frees an
intermediate array when it drops the tensor, unless a closure keeps it; a
closure keeps only what its formula reads:

    add, sub, concat, concat_channels,
    channel_slice, bilinear_resize,
    global_avg_pool, sum_all, mean_all      shapes and dtype
    relu, sigmoid, exp                      their output
    log, conv2d                             their inputs, by rebuild
    mul, div                                by rebuild, the inputs that a
                                            gradient they give reads
    batch_norm, and with relu=True its      its input's array, from which
    ReLU in the same node                   backward rebuilds the ReLU mask
    structure_loss                          its sigmoid output, and its
                                            target and weight arrays

An input is kept by its rebuild where it has one, else by its array.  A
rebuild returns a tensor's array again, bit for bit, from arrays the graph
keeps anyway: batch norm's runs the norm's ops again on the input it keeps;
relu's, sigmoid's and exp's is their kept output; and a concatenation's,
add's, sub's, mul's, div's and a resize's, where any input has a rebuild or
is a leaf, runs the op again on each input as it is kept (``_rerun``).  A
rebuild comes only with a graph node, so a forward under ``no_grad`` builds
none.

``backward`` replays the graph in reverse topological order into the
requires_grad leaves, freeing each node's parents and closure as it goes; a
second pass through a consumed node raises ``ValueError``.  The engine writes
only into arrays it allocated itself: a leaf's ``.grad``, and the gradient
``backward`` gathers for a tensor that channel slices are taken of, into
which each slice's gradient is added in place.  Other gradients are passed
on by reference and summed into new arrays.

``conv2d`` runs its forward and its input gradient as one correlation
routine, ``_correlate``; the gradient is the upstream gradient, spread
`stride` apart, correlated with the flipped kernel whose Cin/Cout axes are
swapped.  One rule, ``_shifts``, picks for every call between two methods:
lowering the padded input to (Cin*kh*kw, OH*OW) columns one sample at a
time, one GEMM per sample, and, for stride-1 kernels larger than 1x1, one
GEMM per tap over shifted windows of the flattened padded input, which
copies nothing but the padding.  The backward keeps no columns: it reads
the kept input again (recompute instead of memory), and the weight
gradient takes the forward's method, one GEMM per sample over either the
lowered columns or all taps' shifted windows stacked, adding the samples'
products in batch order.  Every conv runs its whole kernel with its own
padding, even where a dilated tap reads only zero padding at every output.
"""

from __future__ import annotations

import collections
import operator
import threading

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "conv2d",
    "batch_norm",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "bilinear_resize",
    "concat",
    "concat_channels",
    "channel_slice",
    "global_avg_pool",
    "sum_all",
    "mean_all",
    "structure_loss",
    "Adam",
]


class _EngineState(threading.local):
    def __init__(self):
        self.grad_enabled = True
        self.flop_recorder = None


_state = _EngineState()


class no_grad:
    """Context manager that disables graph recording (eval-mode forwards)."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def _record_flops(kind, count):
    rec = _state.flop_recorder
    if rec is not None:
        rec.add(kind, int(count))


def set_flop_recorder(rec):
    """Install (or clear, with None) the active FLOP recorder."""
    _state.flop_recorder = rec


class unrecorded:
    """Record no FLOPs inside the block, for a caller that books them
    itself."""

    def __enter__(self):
        self._rec, _state.flop_recorder = _state.flop_recorder, None
        return self

    def __exit__(self, *exc):
        _state.flop_recorder = self._rec
        return False


class scoped:
    """Attribute recorded FLOPs to `name` while the block is active.

    No-op when no recorder is installed or name is None.
    """

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        rec = _state.flop_recorder
        if rec is not None and self.name is not None:
            self._prev = rec.scope
            rec.scope = self.name
        else:
            self._prev = None
        return self

    def __exit__(self, *exc):
        rec = _state.flop_recorder
        if rec is not None and self._prev is not None:
            rec.scope = self._prev
        return False


class _Node:
    """A graph vertex: links to the parents (a parent's node, a requires_grad
    leaf itself, or None), the backward closure and the gradient's dtype."""

    __slots__ = ("parents", "fn", "dtype")

    def __init__(self, parents, fn, dtype):
        self.parents, self.fn, self.dtype = parents, fn, dtype


class Tensor:
    """A numpy array plus optional gradient and a link to its graph node.

    A tensor an op computed with gradient may carry a rebuild: a function of
    no arguments that returns its array again, bit for bit, from arrays the
    graph keeps anyway, so that an op keeping it for backward can keep the
    rebuild instead of the array."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "_rebuild")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._rebuild = None

    @property
    def _backward_fn(self):
        """The node's backward closure, None off the graph or once consumed;
        tracers wrap it."""
        return None if self._node is None else self._node.fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.fn = fn

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self.dtype))

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self.dtype))

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)

    def backward(self):
        backward(self)


def _as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _records(parents):
    """Whether an op on `parents` records a graph node."""
    return _state.grad_enabled and any(p.requires_grad for p in parents)


def _make_node(data, parents, backward_fn, rebuild=None):
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or (p if p.requires_grad else None)
                                for p in parents), backward_fn, out.dtype)
        out._rebuild = rebuild
    return out


def _kept(t):
    """What an op keeps to read `t`'s array in backward: its rebuild, or a
    function returning its array."""
    if t._rebuild is not None:
        return t._rebuild
    data = t.data
    return lambda: data


def _rerun(fn, ts):
    """The rebuild of an op's output ``fn(*arrays)`` on the arrays of `ts`:
    under grad mode, when an input has a rebuild or is a leaf, `fn` run
    again on each input as ``_kept`` keeps it; otherwise None."""
    if _state.grad_enabled and any(t._rebuild is not None or t._node is None
                                   for t in ts):
        kept = [_kept(t) for t in ts]
        return lambda: fn(*[k() for k in kept])
    return None


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# -- elementwise ops ---------------------------------------------------------


def _binary(name, fn, grad_x, grad_y, reads_x="", reads_y=""):
    """An elementwise op of two broadcastable tensors; `grad_x(g, x, y)` and
    `grad_y(g, x, y)` give each side's gradient at the broadcast shape, and
    `reads_x`/`reads_y` name the inputs ("x", "y") each reads.  An input is
    kept only if the gradient of a side that takes one reads it."""

    def op(x, y):
        x, y = _as_tensor(x), _as_tensor(y)
        try:
            data = fn(x.data, y.data)
        except ValueError:
            raise ValueError(f"{name}: shapes {x.shape} and {y.shape} not broadcastable")
        _record_flops("elementwise", data.size)
        xs, ys = x.shape, y.shape
        wants_x, wants_y = x.requires_grad, y.requires_grad
        reads = (reads_x if wants_x else "") + (reads_y if wants_y else "")
        xk = _kept(x) if "x" in reads else None
        yk = _kept(y) if "y" in reads else None

        def bwd(g):
            xd = None if xk is None else xk()
            yd = None if yk is None else yk()
            return (_unbroadcast(grad_x(g, xd, yd), xs) if wants_x else None,
                    _unbroadcast(grad_y(g, xd, yd), ys) if wants_y else None)

        return _make_node(data, (x, y), bwd, _rerun(fn, (x, y)))

    op.__name__ = op.__qualname__ = name
    return op


add = _binary("add", operator.add, lambda g, x, y: g, lambda g, x, y: g)
sub = _binary("sub", operator.sub, lambda g, x, y: g, lambda g, x, y: -g)
mul = _binary("mul", operator.mul, lambda g, x, y: g * y,
              lambda g, x, y: g * x, "y", "x")
div = _binary("div", operator.truediv, lambda g, x, y: g / y,
              lambda g, x, y: -g * x / (y * y), "y", "xy")


def _unary(name, fn, grad, keeps_output):
    """An elementwise op of one tensor; `grad(g, a)` gives its gradient from
    its output `a` if `keeps_output`, which is then also its rebuild, and
    from its input `a` otherwise."""

    def op(x):
        data = fn(x.data)
        _record_flops("elementwise", data.size)
        if keeps_output:
            kept = rebuild = lambda: data
        else:
            kept, rebuild = _kept(x), None
        return _make_node(data, (x,), lambda g: (grad(g, kept()),), rebuild)

    op.__name__ = op.__qualname__ = name
    return op


def _sigmoid(d):
    # exp of min(d, 0) and of -|d| only, so nothing overflows: 1/(1 + e^-d)
    # for d >= 0 and e^d/(1 + e^d) below; minimum keeps a NaN's sign bit
    return np.exp(np.minimum(d, 0)) / (1 + np.exp(np.minimum(d, -d)))


relu = _unary("relu", lambda x: np.maximum(x, 0), lambda g, out: g * (out > 0), True)
sigmoid = _unary("sigmoid", _sigmoid, lambda g, out: g * out * (1.0 - out), True)
exp = _unary("exp", np.exp, lambda g, out: g * out, True)
log = _unary("log", np.log, lambda g, x: g / x, False)


# -- reductions --------------------------------------------------------------


def sum_all(x):
    data = np.asarray(x.data.sum(), dtype=x.dtype)
    _record_flops("elementwise", x.size)
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(g, shape),)

    return _make_node(data, (x,), bwd)


def mean_all(x):
    n, shape = x.size, x.shape
    data = np.asarray(x.data.mean(), dtype=x.dtype)
    _record_flops("elementwise", n)

    def bwd(g):
        return (np.broadcast_to(g / n, shape),)

    return _make_node(data, (x,), bwd)


def global_avg_pool(x):
    """Spatial mean: (N,C,H,W) -> (N,C,1,1)."""
    if x.data.ndim != 4:
        raise ValueError(f"global_avg_pool expects a 4-D tensor, got shape {x.shape}")
    shape = n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3), keepdims=True)
    _record_flops("pool", n * c)

    def bwd(g):
        return (np.broadcast_to(g / (h * w), shape),)

    return _make_node(data, (x,), bwd)


def structure_loss(logits, g, w=None):
    """One graph node for the loss of logits s against the target array g:
    the mean BCE weighted by the array w plus the weighted IoU loss
    1 - I/U, with p = sigmoid(s), I = sum(w*p*g) and U = sum(w*(p + g -
    p*g)); with w None, the plain mean BCE alone.  The BCE is max(s,0) -
    s*g + log1p(exp(-|s|)), and the sums run in float64.

    The node keeps p, and g and w by reference; its gradient is
    ds = w*(p - g)/sum(w) + (-w*g/U + I*w*(1 - g)/U**2) * p*(1 - p), and
    at U = 0 the IoU term is 1 with no gradient."""
    s, dtype = logits.data, logits.dtype
    for name, a in (("target", g), ("weight", w)):
        if a is not None and np.shape(a) != s.shape:
            raise ValueError(f"structure_loss: {name} {np.shape(a)} vs logits "
                             f"{s.shape}")
    g = np.asarray(g, dtype=dtype)
    p = _sigmoid(s)
    bce = np.maximum(s, 0) - s * g + np.log1p(np.exp(-np.abs(s)))
    _record_flops("elementwise", s.size)
    if w is None:
        n = s.size
        data = np.asarray(bce.sum(dtype=np.float64) / n, dtype=dtype)

        def bwd(up):
            return ((p - g) * (float(up) / n),)

        return _make_node(data, (logits,), bwd)

    # an empty union (all-0 target, every p 0) has I = 0, so its IoU term is
    # 1, the value 1 - I/U takes for every U > 0, and has no gradient
    w = np.asarray(w, dtype=dtype)
    wsum = w.sum(dtype=np.float64)
    inter = np.sum(w * p * g, dtype=np.float64)
    union = (np.sum(w * p, dtype=np.float64) + np.sum(w * g, dtype=np.float64)
             - inter)
    empty = union == 0
    data = np.asarray(np.sum(w * bce, dtype=np.float64) / wsum
                      + (1.0 if empty else 1.0 - inter / union), dtype=dtype)
    del bce

    def bwd(up):
        # w * (a*(p - g) + (c - (b + c)*g) * p*(1 - p)), with a = up/sum(w),
        # b = up/U and c = up*I/U**2, as python floats: float64 numpy
        # scalars would promote float32 maps
        a = float(up / wsum)
        b, c = ((0.0, 0.0) if empty
                else (float(up / union), float(up * inter / union ** 2)))
        ds = p * (1 - p)
        ds *= c - (b + c) * g
        ds += (p - g) * a
        ds *= w
        return (ds,)

    return _make_node(data, (logits,), bwd)


# -- structural ops ----------------------------------------------------------


def concat(xs, axis):
    """Concatenate tensors along `axis`."""
    data = np.concatenate([t.data for t in xs], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in xs])[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(part)
                     for part in np.split(g, splits, axis=axis))

    return _make_node(data, tuple(xs), bwd, _rerun(
        lambda *parts: np.concatenate(parts, axis=axis), xs))


def concat_channels(xs):
    """Concatenate NCHW tensors along the channel axis."""
    xs = [_as_tensor(x) for x in xs]
    if not xs:
        raise ValueError("concat_channels: empty input list")
    ref = xs[0].shape
    for t in xs:
        if t.data.ndim != 4:
            raise ValueError(f"concat_channels expects 4-D tensors, got shape {t.shape}")
        if t.shape[0] != ref[0] or t.shape[2:] != ref[2:]:
            raise ValueError(
                f"concat_channels: shape {t.shape} incompatible with {ref} "
                "(batch/spatial dims must match)")
    return concat(xs, 1)


# The gradient of a slice of a parent: `grad` at `index` of an array of the
# parent's `shape`, zero elsewhere.  ``backward`` adds it in place into one
# buffer of the parent's gradient, so slices of one tensor never allocate a
# zero-padded array each.
_Part = collections.namedtuple("_Part", "index grad shape")


def channel_slice(x, start, stop):
    """Channels start..stop-1 of an NCHW tensor, as a view of its array."""
    index, shape = (slice(None), slice(start, stop)), x.shape
    return _make_node(x.data[index], (x,), lambda g: (_Part(index, g, shape),))


def _conv_out_size(n, k, stride, padding, dilation):
    return (n + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def _lower(xp, kh, kw, stride, dilation):
    """Lower one padded CHW sample to cols of shape (C*kh*kw, OH*OW), rows
    ordered (c, i, j) to match a (Cout, C, kh, kw) weight.  A stride-1 1x1
    kernel needs no copy."""
    c, h, w = xp.shape
    oh = _conv_out_size(h, kh, stride, 0, dilation)
    ow = _conv_out_size(w, kw, stride, 0, dilation)
    if kh == kw == 1 and stride == 1:
        return xp.reshape(c, h * w)
    cols = np.empty((c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            y, x = i * dilation, j * dilation
            cols[:, i, j] = xp[:, y:y + stride * (oh - 1) + 1:stride,
                               x:x + stride * (ow - 1) + 1:stride]
    return cols.reshape(c * kh * kw, oh * ow)


def _pad(a, ph, pw):
    """Zero-pad the two spatial axes of an NCHW array."""
    if ph == pw == 0:
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = a
    return out


def _flatten(a, ph, pw, kw, dilation):
    """NCHW `a` zero-padded by (ph, pw), each padded map flattened to Hp*Wp
    entries followed by d*(kw-1) zeros: an (N, C, Hp*Wp + d*(kw-1)) array
    in which a stride-1 kernel's tap (i, j) reads one contiguous window of
    OH*Wp entries at offset d*(i*Wp + j).  Each window row of Wp entries
    holds the tap's inputs for one output row, then Wp - OW junk columns."""
    n, c, h, w = a.shape
    hp, wp = h + 2 * ph, w + 2 * pw
    flat = np.zeros((n, c, hp * wp + dilation * (kw - 1)), dtype=a.dtype)
    flat[:, :, :hp * wp].reshape(n, c, hp, wp)[:, :, ph:ph + h, pw:pw + w] = a
    return flat


def _windows(a, ph, pw, kh, kw, dilation):
    """The shifted windows of a stride-1 kernel over NCHW `a` zero-padded by
    (ph, pw), as ``_flatten`` lays them out: yields (i, j, window) with
    (N, C, OH*Wp) views of one padded copy."""
    flat = _flatten(a, ph, pw, kw, dilation)
    wp = a.shape[3] + 2 * pw
    m = (a.shape[2] + 2 * ph - dilation * (kh - 1)) * wp
    for i in range(kh):
        for j in range(kw):
            off = dilation * (i * wp + j)
            yield i, j, flat[:, :, off:off + m]


def _shift_conv(a, wt, ph, pw, dilation):
    """Stride-1 correlation of NCHW `a`, zero-padded by (ph, pw), with the
    (Cout, Cin, kh, kw) kernel `wt`: the sum over taps of W[:, :, i, j] @
    window, with the junk columns cropped: a (N, Cout, OH, OW) array."""
    n, _, h, w = a.shape
    cout, _, kh, kw = wt.shape
    wp = w + 2 * pw
    oh = h + 2 * ph - dilation * (kh - 1)
    taps = np.ascontiguousarray(wt.transpose(2, 3, 0, 1))
    out = part = None
    for i, j, win in _windows(a, ph, pw, kh, kw, dilation):
        if out is None:
            out = np.matmul(taps[i, j], win)
            part = np.empty_like(out)
        else:
            out += np.matmul(taps[i, j], win, out=part)
    del win, part  # free the padded copy and product buffer before the crop
    return np.ascontiguousarray(
        out.reshape(n, cout, oh, wp)[:, :, :, :wp - dilation * (kw - 1)])


def _stacked_weight_grad(a, g, kh, kw, padding, dilation):
    """Weight gradient of a stride-1 conv of `a` by shifted windows, as one
    GEMM per sample: g is written at each tap's window offset into its own
    Cout rows of a zeroed (kh*kw*Cout, L) buffer, whose product with the
    sample's ``_flatten``ed input (L entries per channel) transposed gives
    every tap's (Cout, Cin) block; the zeros cancel the windows' junk
    columns.  Samples are added in batch order from zero, and only one
    sample's input is flattened at a time."""
    n, cout, oh, ow = g.shape
    cin, wp = a.shape[1], a.shape[3] + 2 * padding
    size = (a.shape[2] + 2 * padding) * wp + dilation * (kw - 1)
    rows = np.zeros((kh * kw, cout, size), dtype=g.dtype)
    taps = []
    for i in range(kh):
        for j in range(kw):
            off = dilation * (i * wp + j)
            taps.append(rows[i * kw + j, :, off:off + oh * wp]
                        .reshape(cout, oh, wp)[:, :, :ow])
    rows = rows.reshape(kh * kw * cout, size)
    gw = np.zeros((kh * kw * cout, cin), dtype=g.dtype)
    for b in range(n):
        for tap in taps:
            tap[...] = g[b]
        gw += rows @ _flatten(a[b:b + 1], padding, padding, kw, dilation)[0].T
    return np.ascontiguousarray(gw.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))


def _shifts(cin, cout, kh, kw, stride, dilation, wp):
    """Whether a correlation of a Cin-channel map of padded width `wp` with
    a (Cout, Cin, kh, kw) kernel takes shifted windows rather than lowering.

    Shifted windows skip the copy of each input into kh*kw taps.  They pay
    for it with d*(kw-1) junk columns per output row, and with kh*kw GEMMs
    of K = Cin instead of one of K = Cin*kh*kw.  So they are used for a
    stride-1 kernel larger than 1x1 only while the junk is at most a
    quarter of the output width and the input is the wider side
    (Cout <= Cin)."""
    junk = dilation * (kw - 1)
    return (stride == 1 and kh * kw > 1 and cout <= cin
            and 4 * junk <= wp - junk)


def _correlate(a, wt, ph, pw, stride, dilation):
    """Correlation of NCHW `a`, zero-padded by (ph, pw), with the (Cout,
    Cin, kh, kw) kernel `wt`, by the method `_shifts` picks: a (N, Cout,
    OH, OW) array."""
    n, cin, h, w = a.shape
    cout, _, kh, kw = wt.shape
    if _shifts(cin, cout, kh, kw, stride, dilation, w + 2 * pw):
        return _shift_conv(a, wt, ph, pw, dilation)
    xp, wm = _pad(a, ph, pw), wt.reshape(cout, cin * kh * kw)
    oh = _conv_out_size(h, kh, stride, ph, dilation)
    ow = _conv_out_size(w, kw, stride, pw, dilation)
    out = np.empty((n, cout, oh * ow), dtype=np.result_type(a, wt))
    for b in range(n):
        np.matmul(wm, _lower(xp[b], kh, kw, stride, dilation), out=out[b])
    return out.reshape(n, cout, oh, ow)


def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1):
    """2-D cross-correlation over NCHW input.

    weight: (Cout, Cin, kh, kw).  Output spatial size follows the usual
    floor((H + 2p - d*(k-1) - 1)/s) + 1 rule.

    The forward is one ``_correlate`` call, which ``_shifts`` sends to
    lowering or to shifted windows from the call's shapes alone.  Lowering
    copies each tap's slice of one sample's padded input into cols
    (Cin*kh*kw, OH*OW) and multiplies the (Cout, Cin*kh*kw) weight by them
    into that sample's slice of the NCHW output; shifted windows
    (``_windows``) copy nothing but the padding.  No cols are kept for
    backward, and the input is kept by its rebuild where it has one: the
    weight gradient reads the input again by the forward's method, one GEMM
    per sample over the lowered cols or over all taps' shifted windows
    stacked (``_stacked_weight_grad``).  The input gradient is one
    ``_correlate`` call, under the same rule, with the flipped kernel
    whose Cin/Cout axes are swapped: of the upstream gradient padded by
    d*(k-1) - padding for a stride-1 conv with padding <= d*(k-1), and
    otherwise of the gradient spread `stride` apart over the padded input,
    cropped after.  An input that takes no gradient gets None.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D (N,C,H,W), got shape {x.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-D (Cout,Cin,kh,kw), got shape {weight.shape}")
    for name, value, least in (("stride", stride, 1), ("dilation", dilation, 1),
                               ("padding", padding, 0)):
        if value < least:
            raise ValueError(f"conv2d: {name} must be >= {least}, got {value}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input has {cin} channels but weight expects {cin_w}")
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bias.shape} does not match Cout={cout}")
    eff_h = dilation * (kh - 1) + 1
    eff_w = dilation * (kw - 1) + 1
    if h + 2 * padding < eff_h or w + 2 * padding < eff_w:
        raise ValueError(
            f"conv2d: effective kernel ({eff_h}x{eff_w}) exceeds padded input "
            f"({h + 2 * padding}x{w + 2 * padding})")

    out = _correlate(x.data, weight.data, padding, padding, stride, dilation)
    oh, ow = out.shape[2:]
    if bias is not None:
        out += bias.data[None, :, None, None]
    _record_flops("conv", 2 * n * cout * cin * kh * kw * oh * ow)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _records(parents):
        return Tensor(out)

    shifted = _shifts(cin, cout, kh, kw, stride, dilation, w + 2 * padding)
    qh, qw = dilation * (kh - 1) - padding, dilation * (kw - 1) - padding
    xk, wk = _kept(x), _kept(weight)
    biased, wants_gx = bias is not None, x.requires_grad

    def bwd(g):
        if shifted:
            gw = _stacked_weight_grad(xk(), g, kh, kw, padding, dilation)
        else:
            # summed in batch order from zero, as numpy's axis-0 sum does
            xp, g3 = _pad(xk(), padding, padding), g.reshape(n, cout, oh * ow)
            gw = np.zeros((cout, cin * kh * kw), dtype=g.dtype)
            for b in range(n):
                gw += g3[b] @ _lower(xp[b], kh, kw, stride, dilation).T
            del xp
            gw = gw.reshape(cout, cin, kh, kw)
        wt = wk()[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        if not wants_gx:
            gx = None
        elif stride == 1 and min(qh, qw) >= 0:
            gx = _correlate(g, wt, qh, qw, 1, dilation)
        else:
            # g spread `stride` apart over the padded input, behind d*(k-1)
            # leading zeros, then cropped back to the input
            eh, ew = dilation * (kh - 1), dilation * (kw - 1)
            gu = np.zeros((n, cout, h + 2 * padding + eh, w + 2 * padding + ew),
                          dtype=g.dtype)
            gu[:, :, eh::stride, ew::stride][:, :, :oh, :ow] = g
            gx = np.ascontiguousarray(_correlate(gu, wt, 0, 0, 1, dilation)[
                :, :, padding:padding + h, padding:padding + w])
        return (gx, gw, g.sum(axis=(0, 2, 3))) if biased else (gx, gw)

    return _make_node(out, parents, bwd)


def _channel_sum(a, b=None):
    """Per-channel sum of an (N, C, M) array, or of a * b: per-row sums in
    the arrays' dtype, added across rows in float64."""
    rows = a.sum(axis=2) if b is None else np.einsum("ncm,ncm->nc", a, b)
    return rows.sum(axis=0, dtype=np.float64)


BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # running-average weight of a batch; variance floor


def batch_norm(x, gamma, beta, running_mean, running_var, training,
               relu=False):
    """Per-channel batch normalization over (N,H,W), then, with `relu`, a
    ReLU in place on its output.

    ``running_mean``/``running_var`` are plain numpy buffers updated in place
    in train mode (exponential moving average) and consumed in eval mode.

    Each channel is applied as one scale and one shift to x minus a center,
    the channel's mean rounded to x's dtype; that subtraction is exact for
    inputs near the mean, and the rounding residual goes into the shift.
    Training statistics take two passes: a first mean gives the center,
    and the mean and variance of the centered values give the statistics,
    so a float32 channel of large mean and small spread keeps its
    precision.  Backward keeps x, not the normalized map: it rebuilds the
    ReLU's mask from x by the forward's own ops, and the output's rebuild
    runs those ops again on x minus the center, so an op that reads the
    output in backward need not keep it.
    """
    if x.data.ndim != 4:
        raise ValueError(f"batch_norm: input must be 4-D, got shape {x.shape}")
    n, c = x.shape[:2]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"batch_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match C={c}")
    _record_flops("elementwise", x.size)
    shape, xs = x.shape, x.data.reshape(n, c, -1)
    m = n * xs.shape[2]

    if training:
        center = (_channel_sum(xs) / m).astype(x.dtype)
        out = np.subtract(xs, center[:, None])
        resid = _channel_sum(out) / m
        var = np.maximum(_channel_sum(out, out) / m - resid * resid, 0.0)
        mu = center + resid
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        center = running_mean.astype(x.dtype)
        out = np.subtract(xs, center[:, None])
        resid = running_mean - center
        var = running_var

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * inv_std
    scale_x = scale.astype(x.dtype)[:, None]
    shift_x = (beta.data - resid * scale).astype(x.dtype)[:, None]

    def finish(d):
        # the output from the centered values d, in place: the forward's
        # ops, which the rebuild runs again on x minus the center
        d *= scale_x
        d += shift_x
        if relu:
            np.maximum(d, 0, out=d)
        return d.reshape(shape)

    def bwd(g):
        g3 = g.reshape(n, c, -1)
        d = np.subtract(xs, center[:, None])
        if relu:
            # the ReLU's mask by the forward's ops: d*scale + shift > 0
            # exactly when d*scale > -shift, as a rounded sum of two floats
            # is 0 only where the exact sum is; the masked g overwrites it
            z = d * scale_x
            g3 = np.multiply(g3, z > -shift_x, out=z)
        gbeta = _channel_sum(g3)
        ggamma = inv_std * (_channel_sum(g3, d) - resid * gbeta)
        gx = np.multiply(g3, scale_x, out=g3 if relu else None)
        if training:
            # gx = scale * (g - mean(g) - xhat * mean(g * xhat)), with
            # xhat = (d - resid) * inv_std: one scale of g plus one of d
            # plus one shift per channel
            coef = scale * inv_std * ggamma / m
            d *= (-coef).astype(xs.dtype)[:, None]
            gx += d
            gx += (coef * resid - scale * gbeta / m).astype(xs.dtype)[:, None]
        return gx.reshape(shape), ggamma, gbeta

    return _make_node(finish(out), (x, gamma, beta), bwd,
                      lambda: finish(np.subtract(xs, center[:, None])))


def _resize_matrix(n_in, n_out, align_corners, dtype):
    """Dense (n_out, n_in) linear-interpolation matrix for one axis.  A
    1-entry input axis gives a column of ones (every src is 0)."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    if align_corners:
        if n_out == 1:
            src = np.zeros(1)
        else:
            src = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    else:
        src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0, n_in - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = src - lo
    m[np.arange(n_out), lo] += 1.0 - frac
    m[np.arange(n_out), hi] += frac
    return m


def resize_bilinear_np(arr, out_h, out_w, align_corners=True):
    """Bilinear resize of the trailing two axes of a plain numpy array."""
    h, w = arr.shape[-2], arr.shape[-1]
    if out_h == h and out_w == w:
        return arr.copy()
    mh = _resize_matrix(h, out_h, align_corners, arr.dtype)
    mw = _resize_matrix(w, out_w, align_corners, arr.dtype)
    tmp = arr @ mw.T
    return np.swapaxes(np.swapaxes(tmp, -1, -2) @ mh.T, -1, -2)


def bilinear_resize(x, out_h, out_w):
    """Differentiable bilinear resize of an NCHW tensor, corners aligned."""
    if out_h < 1 or out_w < 1:
        raise ValueError("bilinear_resize: output size must be >= 1")
    if x.data.ndim != 4:
        raise ValueError(f"bilinear_resize expects a 4-D tensor, got shape {x.shape}")
    h, w, dtype = x.shape[2], x.shape[3], x.dtype
    if (out_h, out_w) == (h, w):
        return _make_node(x.data, (x,), lambda g: (g,), _rerun(lambda a: a, (x,)))

    def fn(a):
        return np.ascontiguousarray(resize_bilinear_np(a, out_h, out_w))

    out = fn(x.data)
    _record_flops("resize", out.size)

    def bwd(g):
        mh = _resize_matrix(h, out_h, True, dtype)
        mw = _resize_matrix(w, out_w, True, dtype)
        t = np.swapaxes(np.swapaxes(g, -1, -2) @ mh, -1, -2)
        return (np.ascontiguousarray(t @ mw),)

    return _make_node(out, (x,), bwd, _rerun(fn, (x,)))


# -- backward pass -----------------------------------------------------------


def backward(loss):
    """Populate ``grad`` on every reachable requires_grad leaf of ``loss``.

    Gradients accumulate additively into existing ``grad`` buffers; callers
    (or the optimizer) clear them between steps.  A graph can be
    backpropagated once: each node drops its parents and backward closure
    once they have run, so activations are freed as the pass goes, and a
    second pass through any of its nodes raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")

    root = loss._node or loss
    topo = []
    visiting = set()
    stack = [(root, False)]
    while stack:
        link, processed = stack.pop()
        if processed:
            topo.append(link)
            continue
        if id(link) in visiting:
            continue
        visiting.add(id(link))
        stack.append((link, True))
        if isinstance(link, Tensor):
            continue
        if link.fn is None:
            raise ValueError("backward: graph already consumed "
                             "(a graph can be backpropagated once)")
        stack.extend((p, False) for p in link.parents
                     if p is not None and id(p) not in visiting)

    # `owned` holds the links whose flowing gradient is a buffer backward
    # allocated for slices' gradients, which are added into it in place
    flowing, owned = {id(root): np.ones_like(loss.data)}, set()
    while topo:
        link = topo.pop()
        g = flowing.pop(id(link), None)
        if isinstance(link, Tensor):
            if g is not None and link.requires_grad:
                if link.grad is None:
                    link.grad = np.array(g, dtype=link.dtype)
                else:
                    link.grad += g
            continue
        parents, fn = link.parents, link.fn
        link.parents, link.fn = (), None
        if g is None:
            continue
        for parent, pg in zip(parents, fn(g)):
            if parent is None:
                continue
            key = id(parent)
            acc = flowing.get(key)
            if isinstance(pg, _Part):
                if key not in owned:
                    buf = np.zeros(pg.shape, dtype=parent.dtype)
                    if acc is not None:
                        buf += acc
                    acc = flowing[key] = buf
                    owned.add(key)
                acc[pg.index] += pg.grad
                continue
            pg = pg.astype(parent.dtype, copy=False)
            flowing[key] = pg if acc is None else acc + pg


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a list of parameter tensors.

    The moment arrays in ``m`` and ``v`` are updated in place, with the same
    roundings as the out-of-place ``beta * m + (1 - beta) * g``, so no step
    reallocates them among the freed arrays of the step before."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"Adam.step: parameter {i} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(
                p.dtype, copy=False)
            p.grad = None

    def state_tensors(self):
        """Moment buffers as named arrays, for optional checkpointing."""
        out = {}
        for i in range(len(self.params)):
            out[f"adam.m.{i}"] = self.m[i]
            out[f"adam.v.{i}"] = self.v[i]
        return out
