"""The block Krylov solver as it was when it kept every product block: the
bitwise reference for ``pca._top_eigenpairs``.

It is a module of its own, importing no ``conftest``, so that a subprocess can
compare the two under another BLAS thread count than the one the suite pins.
"""

import functools
from unittest import mock

import numpy as np

from prsadjust import pca


@functools.lru_cache(maxsize=2)
def decaying_gram(order):
    """A A^T for Gaussian A whose column j is scaled by 0.98^j: several checks to converge."""
    rng = np.random.default_rng(7)
    A = rng.normal(size=(order, order)) * 0.98 ** np.arange(order)
    return A @ A.T


def stored_product_eigenpairs(G, k):
    """The block Krylov solver as it was when it kept every product block G Q
    beside Q, a (cap, cap) Ritz matrix, and took residuals from the stored
    products: the reference _top_eigenpairs must match bitwise."""
    order, block = G.shape[0], max(8, k + 3)
    blocks = order // (2 * block)
    if blocks < pca._KRYLOV_MIN_BLOCKS:
        return None
    basis = np.empty((order, blocks * block), order="F")
    products = np.empty_like(basis)
    projected = np.zeros((blocks * block, blocks * block), order="F")
    step = np.random.default_rng(0).standard_normal((order, block))
    for done in range(block, blocks * block + 1, block):
        new = slice(done - block, done)
        for _ in range(2):
            old = basis[:, : done - block]
            step = np.linalg.qr(step - old @ (old.T @ step))[0]
        basis[:, new] = step
        np.matmul(G, step, out=products[:, new])
        projected[:done, new] = basis[:, :done].T @ products[:, new]
        if done % (4 * block) == 0 or done == blocks * block:
            values, ritz = np.linalg.eigh(projected[:done, :done], UPLO="U")
            values, ritz = values[::-1][:k], ritz[:, ::-1][:, :k]
            vectors = basis[:, :done] @ ritz
            residual = np.linalg.norm(products[:, :done] @ ritz - vectors * values, axis=0)
            if np.all(residual <= pca._RESIDUAL_TOLERANCE * max(values[0], 0.0)):
                return values, vectors
        step = products[:, new]
    return None


def differing_ks(order, ks):
    """The k of ``ks`` at which ``_top_eigenpairs`` on ``decaying_gram(order)``
    returns other bits than the reference, with every basis size on Krylov."""
    G = decaying_gram(order)
    differ = []
    with mock.patch.object(pca, "_KRYLOV_MIN_BLOCKS", 1):
        for k in ks:
            (values, vectors), reference = pca._top_eigenpairs(G, k), stored_product_eigenpairs(G, k)
            if values.tobytes() != reference[0].tobytes() or vectors.tobytes() != reference[1].tobytes():
                differ.append(k)
    return differ
