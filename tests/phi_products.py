"""A copy of a spectrum whose phi records the coefficient passes taken over it.

A coefficient pass is a product that contracts phi over its nodes, the
axis of its rows: ``y @ phi`` or ``y @ phi[:n]`` in ``SpectralData.coeffs``.
A synthesis contracts phi over its modes (``c @ phi[:n, modes].T``) and is
not recorded.  The product itself is counted, so a call to ``coeffs`` that
takes no pass records nothing.
"""

import dataclasses

import numpy as np


def counted_spectrum(sd):
    """A spectrum with sd's eigenpairs and its own empty caches, and the list
    that gets one entry, the shape of the phi operand, per coefficient pass
    over its phi."""
    passes = []
    rows = sd.phi.strides[0]

    class Phi(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                for side, x in enumerate(inputs[:2]):
                    # a view of phi contracted along its node axis, the axis
                    # with phi's row stride: -1 on the left, -2 on the right;
                    # a copy made by fancy indexing shares no memory with phi
                    axis = 0 if side else 1
                    if (isinstance(x, Phi) and x.ndim == 2 and x.strides[axis] == rows
                            and np.may_share_memory(x, phi)):
                        passes.append(x.shape)
            inputs = tuple(np.asarray(x) if isinstance(x, Phi) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    phi = sd.phi.view(Phi)
    return dataclasses.replace(sd, phi=phi), passes
