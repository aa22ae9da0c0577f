"""Hot numeric kernels of the forward and backward passes.

Every kernel here is the inner loop of a pass over a padded batch:
mask-aware pooling reductions, the masked row softmax, and the embedding
gather/scatter, each written as a vectorized numpy expression. Callers
reach them as ``kernels.<name>`` so that a kernel can be wrapped by
attribute (for per-kernel timing) without touching its callers.

The four pooling backward kernels share one signature, ``(g, mask, arg,
shape)``: the view's gradient, the mask, the argmax and the input's shape.

All kernels operate on plain float64 arrays; masks are float64 arrays of
exact 0.0/1.0 flags with shape (B, L) and at least one valid position
per row, as :class:`~seqattn.tensor.Mask` checks when it is built.
"""

from __future__ import annotations

import numpy as np


def token_maxpool_fwd(x, mask):
    # max over valid tokens; argmax recorded for the backward scatter
    neg = np.where(mask[:, :, None] != 0.0, x, -np.inf)
    arg = neg.argmax(axis=1)
    out = np.take_along_axis(x, arg[:, None, :], axis=1)[:, 0, :]
    return out, arg


def token_maxpool_bwd(g, mask, arg, shape):
    gx = np.zeros(shape)
    np.put_along_axis(gx, arg[:, None, :], g[:, None, :], axis=1)
    return gx


def token_avgpool_fwd(x, mask):
    counts = mask.sum(axis=1)
    return (x * mask[:, :, None]).sum(axis=1) / counts[:, None]


def token_avgpool_bwd(g, mask, arg, shape):
    counts = mask.sum(axis=1)
    return mask[:, :, None] * (g / counts[:, None])[:, None, :]


def feature_maxpool_fwd(x, mask):
    arg = x.argmax(axis=2)
    out = np.take_along_axis(x, arg[:, :, None], axis=2)[:, :, 0] * mask
    return out, arg


def feature_maxpool_bwd(g, mask, arg, shape):
    gx = np.zeros(shape)
    np.put_along_axis(gx, arg[:, :, None], (g * mask)[:, :, None], axis=2)
    return gx


def feature_avgpool_fwd(x, mask):
    return x.mean(axis=2) * mask


def feature_avgpool_bwd(g, mask, arg, shape):
    return np.repeat(((g * mask) / shape[2])[:, :, None], shape[2], axis=2)


def masked_softmax_fwd(z, mask):
    neg = np.where(mask != 0.0, z, -np.inf)
    e = np.exp(neg - neg.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def masked_softmax_bwd(g, s):
    dot = (g * s).sum(axis=1, keepdims=True)
    return s * (g - dot)


def embedding_fwd(table, ids):
    return table[ids]


def embedding_bwd(g, ids, pad_id):
    # row-sparse table gradient: the non-PAD ids that occur, ascending, and
    # per id the sum of its positions' gradients, added in position order
    dim = g.shape[2]
    flat = ids.reshape(-1)
    keep = flat != pad_id
    rows, slot = np.unique(flat[keep], return_inverse=True)
    values = np.zeros((rows.size, dim))
    np.add.at(values, slot, g.reshape(-1, dim)[keep])
    return rows, values
