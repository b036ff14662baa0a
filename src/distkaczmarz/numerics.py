"""Dense real or complex linear algebra shared by the solvers and their analysis.

Vectors are 1-d ``numpy`` arrays, matrices 2-d arrays.  The arithmetic
follows the data: :func:`as_vector` and :func:`as_matrix` keep real input
real (integers become ``float64``) and complex input ``complex128``, and
every basis, restriction and solve takes numpy's promotion of its inputs,
so a real system runs in real arithmetic end to end.  The solvers read
node v's equation as the row action ``S_v x = a_v* x``.

Subspaces come from one SVD of the stacked vectors: :func:`orthonormal_basis`
and :func:`orthonormal_complement` split the rows of ``Vh`` at the numerical
rank, the number of singular values above ``DEFAULT_ORTHO_TOL`` times the
largest, and :func:`min_norm_solution` inverts the SVD up to that rank.
Every restriction to a subspace, here and in
:mod:`distkaczmarz.closedform`, stacks the orthonormal basis once into a
``(d, r)`` column matrix with :func:`_checked_columns`, which checks
``q* q = I`` within the same tolerance.

Eigenvalues come back as ``complex128`` either way, but a matrix or stack
that is real, or whose imaginary part is exactly zero, is handed to the real
LAPACK solver, which is about twice as fast on small matrices and returns
conjugate pairs exactly.  :func:`spectral_radius` reads the largest modulus
straight from the solver's output; only :func:`eigenvalues` sorts.

Next to the freeze rule :func:`value_dataclass` sits the package's one type
rule, :func:`_checked`: every entry point that takes a value object (a
system, a network, a relaxation, a partition, a map or a block structure)
checks it there before its first attribute read, so a wrong argument ends
in a ``TypeError`` that names the class it needs.  Beside it sits the one
scalar rule, two predicates that every integer and real argument reads:
:func:`_is_int` for node ids, counts, seeds and block counts, and
:func:`_is_real` for relaxation values, tolerances and baselines.  An entry
point that takes such an argument raises a ``ValueError`` naming the
parameter and the value's repr when the rule refuses it (for a seed, a size
or a node count, by :func:`_require_counts`), and a node id keeps its
entry's error class; the CLI's JSON readers read the same rule.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, NumericalFailureError, PreconditionError

# Relative singular-value cut of the SVD bases, and the bound on |q* q - I|
# that a basis passed to a restriction must meet.
DEFAULT_ORTHO_TOL = 1e-10


def _float_array(x) -> np.ndarray:
    """``x`` as a ``complex128`` array if its dtype is complex, else as a ``float64`` one."""
    a = np.asarray(x)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def as_vector(x) -> np.ndarray:
    v = _float_array(x)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def _vector(x, n: int) -> np.ndarray:
    """:func:`as_vector` of ``x``, which must have length ``n``, else :class:`DimensionError`."""
    v = as_vector(x)
    if v.shape[0] != n:
        raise DimensionError(f"expected a vector of length {n}, got shape {v.shape}")
    return v


def _frozen(value):
    """``value`` as a frozen value class stores it.

    An array becomes a read-only copy (``np.array`` keeps its memory
    order, so every later product sees the same bits), a mapping a
    read-only view of a copy, and anything else stays as given.
    """
    if isinstance(value, np.ndarray):
        value = np.array(value)
        value.setflags(write=False)
    elif isinstance(value, Mapping):
        value = MappingProxyType(dict(value))
    return value


def _checked(value, *types):
    """``value`` if it is an instance of one of ``types``, else ``TypeError`` naming them.

    The package's one type rule.  ``types`` are concrete classes: an
    ``isinstance`` against an abstract base class costs about four times as
    much, which an entry point on a hot path would pay per call.
    """
    if not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"expected a {names}, got {type(value).__name__}")
    return value


def _is_int(v, lo, hi) -> bool:
    """Whether ``v`` is an integer, not a bool, with ``lo <= v < hi``: node ids and counts.

    An integer is a Python ``int`` or a numpy integer, tested by concrete
    class, as :func:`_checked` tests: an ``isinstance`` against the
    abstract integer class costs about 1 us, which every edge of a network
    build would pay twice.  ``hi`` may be ``math.inf``.
    """
    return (type(v) is int or isinstance(v, np.integer)) and lo <= v < hi


def _is_real(v) -> bool:
    """Whether ``v`` is a real number, not a bool: an ``int``, a ``float`` or a numpy number.

    A numpy number is a numpy integer or floating value.  The scalar rule
    for relaxation values, tolerances and baselines tests concrete classes
    as :func:`_is_int` does, so a ``fractions.Fraction`` or a
    ``decimal.Decimal`` is no real number here.
    """
    return type(v) in (int, float) or isinstance(v, (np.integer, np.floating))


def _require_counts(**counts) -> None:
    """Raise ``ValueError`` naming the first of ``counts`` that is no nonnegative integer.

    The seeds, sizes and node counts of the public entry points read
    :func:`_is_int` here, with one message.
    """
    for name, value in counts.items():
        if not _is_int(value, 0, math.inf):
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def value_dataclass(cls=None, *, frozen: bool = True):
    """A dataclass, frozen by default, whose ``==`` is ``np.array_equal`` field by field.

    The generated ``__eq__`` compares tuples of fields, which raises on an
    array of more than one element.  ``np.array_equal`` compares arrays,
    lists of arrays, mapping views and plain values alike, by value.  Value
    classes are unhashable, as arrays are: the generated ``__hash__`` of a
    frozen one would raise on every instance that holds an array or a
    mapping view.

    This is the package's one freeze rule.  A frozen one stores every field
    through :func:`_frozen` once its ``__init__`` and ``__post_init__`` have
    run: a read-only copy of each array and a read-only view of a copy of
    each mapping, so building it never changes the caller's arrays or
    dicts and later writes to them never reach it.  Its ``__reduce__``
    rebuilds it through ``__init__`` from its init fields, mappings handed
    back as plain dicts, so ``copy.copy``, ``copy.deepcopy`` and pickle
    keep the freeze; a copy starts without the caches of the original,
    which it computes again on first use.
    """
    if cls is None:
        return lambda c: value_dataclass(c, frozen=frozen)
    cls = dataclass(frozen=frozen)(cls)
    names = [f.name for f in fields(cls) if f.compare]
    if frozen:
        init, every = cls.__init__, fields(cls)

        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for f in every:
                object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))

        def __reduce__(self):
            args = [getattr(self, f.name) for f in every if f.init]
            return self.__class__, tuple(dict(a) if isinstance(a, Mapping) else a for a in args)

        cls.__init__, cls.__reduce__ = __init__, __reduce__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in names)

    cls.__eq__ = __eq__
    cls.__hash__ = None
    return cls


def as_matrix(m, square: bool = False) -> np.ndarray:
    a = _float_array(m)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


@value_dataclass
class Spectrum:
    """Eigenvalues (with multiplicity, sorted by decreasing modulus) and their max modulus.

    ``eigenvalues`` is a read-only copy of the caller's array.
    """

    eigenvalues: np.ndarray
    radius: float


def eigenvalues(m) -> Spectrum:
    """All eigenvalues of a square matrix, with multiplicity.

    Raises :class:`NumericalFailureError` if the underlying QR iteration
    fails to converge within the backend's sweep limit.
    """
    vals = _sorted_spectrum(_eigvals(_nonempty_square(m)))
    return Spectrum(eigenvalues=vals, radius=float(np.max(np.abs(vals))))


def _sorted_spectrum(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues in :class:`Spectrum` order: decreasing modulus, then real and imaginary part."""
    return vals[np.lexsort((vals.imag, vals.real, -np.abs(vals)))]


def _nonempty_square(m) -> np.ndarray:
    a = as_matrix(m, square=True)
    if a.shape[0] < 1:
        raise DimensionError("matrix must have dimension >= 1")
    return a


def _eigvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals`` of one matrix or a stack as ``complex128``.

    A stack whose imaginary part is exactly zero goes to the real solver,
    which returns conjugate pairs exactly.  Failures are raised as
    :class:`NumericalFailureError`.
    """
    try:
        return np.linalg.eigvals(_real_if_exact(a)).astype(np.complex128, copy=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise NumericalFailureError(f"eigenvalue iteration did not converge: {exc}") from exc


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a``, or its real part for the real solver when its imaginary part is exactly zero."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def _max_modulus(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix, read without sorting; 0 for a 0x0 one."""
    return float(np.max(np.abs(_eigvals(a)), initial=0.0))


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a nonempty square matrix, read without sorting the spectrum."""
    return _max_modulus(_nonempty_square(m))


def gram(vectors) -> np.ndarray:
    """Gram matrix G[i, j] = <x_i, x_j> of a nonempty family of equal-length vectors."""
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise DimensionError("gram requires at least one vector")
    dim = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != dim:
            raise DimensionError("gram vectors must share their dimension")
    m = np.vstack(vecs)
    return m @ m.conj().T


def min_norm_solution(a, b) -> np.ndarray:
    """Least-squares solution of ``a x = b`` with minimal Euclidean norm.

    ``V_r S_r^-1 U_r* b`` from the SVD ``a = U S V*`` cut at the same
    numerical rank as :func:`orthonormal_basis`, so the result lies in that
    basis's span; a zero matrix yields the zero vector.
    """
    mat = as_matrix(a)
    rhs = as_vector(b)
    if mat.shape[0] != rhs.shape[0]:
        raise DimensionError(
            f"matrix has {mat.shape[0]} rows but right-hand side has {rhs.shape[0]} entries"
        )
    u, s, vh, rank = _svd_rows(mat, mat.shape[1])
    return vh[:rank].conj().T @ ((u[:, :rank].conj().T @ rhs) / s[:rank])


def _stack(vectors, dim: int | None = None) -> np.ndarray:
    """The vectors as the rows of one matrix; an empty family gives ``(0, dim)``."""
    m = as_matrix(vectors) if len(vectors) else np.zeros((0, dim or 0))
    if dim is not None and m.shape[1] != dim:
        raise DimensionError(f"vectors have length {m.shape[1]}, expected {dim}")
    return m


def _svd_rows(vectors, dim: int | None = None):
    """One SVD ``u, s, vh`` of the stacked vectors, and their numerical rank.

    The rank counts the singular values above ``DEFAULT_ORTHO_TOL`` times
    the largest; the first ``rank`` rows of ``Vh`` span the vectors.  Given
    ``dim``, ``Vh`` is square and its remaining rows span the complement.
    """
    u, s, vh = np.linalg.svd(_stack(vectors, dim), full_matrices=dim is not None)
    return u, s, vh, int(np.count_nonzero(s > DEFAULT_ORTHO_TOL * s.max(initial=0.0)))


def orthonormal_basis(vectors) -> list[np.ndarray]:
    """Orthonormal basis of ``span(vectors)``: the leading rows of ``Vh`` of their SVD.

    ``vectors`` is a list of equal-length vectors or a 2-d array of rows.
    """
    _, _, vh, rank = _svd_rows(vectors)
    return list(vh[:rank])


def orthonormal_complement(vectors, dim: int) -> list[np.ndarray]:
    """Orthonormal basis of the orthogonal complement of ``span(vectors)`` in C^dim."""
    _, _, vh, rank = _svd_rows(vectors, dim)
    return list(vh[rank:])


def _checked_columns(basis, dim: int) -> np.ndarray:
    """An orthonormal basis of a subspace of C^dim as the columns of a ``(dim, r)`` matrix.

    Raises :class:`DimensionError` when the vectors do not have length
    ``dim`` and :class:`PreconditionError` when ``q* q`` is not the identity
    within ``DEFAULT_ORTHO_TOL``.
    """
    return _orthonormal(_stack(basis, dim).T)


def _orthonormal(q: np.ndarray) -> np.ndarray:
    """``q``, unless ``q* q`` is off the identity by more than ``DEFAULT_ORTHO_TOL``."""
    if np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0) > DEFAULT_ORTHO_TOL:
        raise PreconditionError("basis is not orthonormal within tolerance")
    return q


def operator_norm_on_span(m, basis) -> float:
    """Largest value of ``|m x|`` over unit vectors x in the span of an orthonormal basis."""
    a = as_matrix(m, square=True)
    q = _checked_columns(basis, a.shape[1])
    return float(np.linalg.norm(a @ q, 2)) if q.size else 0.0


def restrict_to_span(m, basis) -> np.ndarray:
    """Matrix of ``m`` in the coordinates of an orthonormal basis of an invariant subspace."""
    a = as_matrix(m, square=True)
    q = _checked_columns(basis, a.shape[1])
    return q.conj().T @ a @ q


def spectral_radius_on_span(m, basis) -> float:
    """Spectral radius of ``m`` on the span of an orthonormal basis; 0 for an empty basis."""
    return _max_modulus(restrict_to_span(m, basis))
