"""A scalar reduction for building test losses out of the engine's ops.

The library's only loss is ``nll``, over one probability vector or the mean
over K x B columns. Gradient tests of the other ops need a scalar of
any-shaped output, so they project it onto fixed coefficients here.
"""

import numpy as np

from attconv import autodiff as ad


def project(node: ad.Node, c=1.0) -> ad.Node:
    """The scalar sum(node * c); its gradient is c * g.

    ``c`` is a constant of the node's shape or a python scalar; the default
    1.0 makes this a plain sum.
    """
    c = np.asarray(c, dtype=np.float64)
    out = ad.Node((node.value * c).sum(), "project", (node,))

    def _bw(g):
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        node.grad += np.broadcast_to(c * g, node.value.shape)

    out._backward = _bw
    return out
