"""Shared numerical helpers for complex matrix work.

Everything in this package funnels rank decisions, positivity checks and
random test data through the few functions below so that tolerances are
applied consistently.
"""

from __future__ import annotations

import math

import numpy as np

# Frobenius-norm residual tolerance used by default in all verifications.
DEFAULT_TOL = 1e-9
# Eigenvalues above this floor count as nonnegative.
EIG_FLOOR = -1e-9
# Relative threshold for rank decisions (rank-revealing pivoting).
RANK_RTOL = 1e-10
# Structural input guards raise StructuralError when their residual exceeds
# this bound: span membership, commutation with the base action, and the
# existence of an adjoint (relative to the size of the right-hand side).
GUARD_TOL = 1e-8


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frob(m: np.ndarray) -> float:
    """Frobenius norm, by ``np.linalg.norm(m)``'s own arithmetic.

    For float and complex arrays this is the sum ``re·re + im·im`` over the
    ``order="K"`` ravel, then its square root, as in ``np.linalg.norm``
    without ``ord`` or ``axis``; so the bits are the same, without that
    function's argument dispatch, which costs more than the sum at the
    sizes of most residuals here.  Other dtypes go through ``norm`` itself.
    """
    x = np.asarray(m).ravel(order="K")
    if x.dtype == np.complex128:
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype == np.float64:
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major flattening of a matrix to a vector."""
    return np.asarray(m, dtype=complex).reshape(-1)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2, for one matrix or a stack of them (an ndarray)."""
    return (m + m.swapaxes(-1, -2).conj()) / 2


def min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``m``."""
    return float(np.linalg.eigvalsh(hermitian_part(m))[0])


def residual_max(*values: float) -> float:
    """The largest of ``values`` and 0, or NaN as soon as one of them is NaN.

    Residual accumulators use this instead of ``max``: Python's
    ``max(0.0, nan)`` is ``0.0``, which would let a NaN residual pass.
    """
    out = 0.0
    for v in values:
        v = float(v)
        if v != v:
            return v
        if v > out:
            out = v
    return out


def exceeds(value: float, bound: float) -> bool:
    """Whether ``value`` fails to stay within ``bound``; a NaN always does.

    Input guards use this instead of ``value > bound``, which is False for
    NaN and would let a NaN residual through.
    """
    return not value <= bound


def block_matrix(blocks: np.ndarray) -> np.ndarray:
    """The (n*d, m*d) matrix of an (..., n, m, d, d) block ndarray.

    A view, without a copy, when ``blocks`` is itself a view made by
    :func:`unblock`.
    """
    *lead, n, m, d, _ = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, n * d, m * d)


def unblock(mat: np.ndarray, d: int) -> np.ndarray:
    """The (..., n, m, d, d) block view of an (..., n*d, m*d) ndarray."""
    *lead, rows, cols = mat.shape
    return mat.reshape(*lead, rows // d, d, cols // d, d).swapaxes(-3, -2)


def diagonal_blocks(n: int, block: np.ndarray) -> np.ndarray:
    """The (n, n, d, d) blocks with the (d, d) ``block`` on the diagonal and
    zeros elsewhere; a stack (..., d, d) gives the stack (..., n, n, d, d)."""
    return unblock(np.kron(np.eye(n), block), block.shape[-1])


def scaled_hermitian(draws: np.ndarray) -> np.ndarray:
    """Hermitian parts of ``draws[k, 0] + i draws[k, 1]`` for a stack (k, 2, d, d)
    of normal draws, each scaled to spectral radius 2 (a zero one stays zero)."""
    h = hermitian_part(draws[:, 0] + 1j * draws[:, 1])
    top = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
    return h * (2.0 / np.where(top == 0, 1.0, top))[:, None, None]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (positive definite, unit trace)."""
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = w @ dag(w) + 0.05 * np.eye(dim)
    return rho / np.trace(rho).real
