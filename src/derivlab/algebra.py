"""Finite-dimensional complex normed algebras, bimodules and linear maps.

Everything downstream computes over the structures defined here. An algebra
is given by structure constants ``e_i e_j = sum_k structure[i, j, k] e_k``
and carries a weighted l1 norm ``|a| = sum_i weights[i] |a_i|``. The weights
are rescaled once at construction so that ``|e_i e_j| <= w_i w_j`` holds on
every basis pair, which makes ``|ab| <= |a| |b|`` a theorem (bilinearity plus
the triangle inequality) rather than a sampled hope. Bimodules certify a
bound ``|a.x| <= C |a| |x|`` the same way. Dual modules carry the exact dual
norm, a weighted sup norm.
"""
from __future__ import annotations

import hashlib
from dataclasses import fields
from functools import cached_property
from itertools import repeat

import numpy as np

from .blas import single_blas_thread
from .encoding import decode_complex, document_field, document_number, encode_complex
from .errors import ConstructionError, SpaceMismatchError
from .sampling import generator

STRUCTURE_TOL = 1e-12
SPAN_RTOL = 1e-10
ANNIHILATOR_RTOL = 1e-12


def _as_complex(data, what: str, copy: bool = True) -> np.ndarray:
    arr = np.array(data, dtype=complex) if copy else np.asarray(data, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ConstructionError(f"{what} contains non-finite entries")
    return arr


def _as_weights(data, dim: int, what: str) -> np.ndarray:
    w = np.array(data, dtype=float)
    if w.shape != (dim,):
        raise ConstructionError(f"{what} must have length {dim}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ConstructionError(f"{what} must be positive and finite")
    return w


def _content_tag(prefix: str, *arrays) -> str:
    # sha256 runs about 3 times as fast as blake2b where the CPU has SHA
    # instructions, and a matrix:8 amenability verdict hashes 20 MB of tensors
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return f"{prefix}:{h.hexdigest()[:16]}"


def _worst_associator(p: np.ndarray, q: np.ndarray, r: np.ndarray):
    """Largest entry of |p_i q - q r_i| over every index i, with the first
    index (i, a, b, c) in C order that holds it, as `np.argmax` over the whole
    four-index tensor picks it (None when every entry is zero). A NaN entry,
    as inf - inf leaves when both products overflow, is the largest.

    (p_i q)[a, b, c] = sum_s p[i, a, s] q[s, b, c] and
    (q r_i)[a, b, c] = sum_s q[a, b, s] r[i, s, c]: two matrix products per
    index i, so the memory is that of q, never of the four-index tensor.
    """
    a, b, c = q.shape
    rows, cols = q.reshape(a, b * c), q.reshape(a * b, c)
    worst, where = 0.0, None
    for i in range(len(p)):
        gap = p[i] @ rows
        gap -= (cols @ r[i]).reshape(a, b * c)
        gap = np.abs(gap).reshape(a, b, c)
        top = float(np.max(gap, initial=0.0))
        if top > worst or np.isnan(top):
            worst, where = top, (i, *np.unravel_index(int(np.argmax(gap)), gap.shape))
            if np.isnan(top):
                break
    return worst, where


def _worst_pair_ratio(weights: np.ndarray, mags: np.ndarray) -> float:
    """max over basis pairs of |e_i e_j| / (w_i w_j), for mags = |structure|."""
    return float(np.max(np.einsum("k,ijk->ij", weights, mags) / np.outer(weights, weights)))


def kept(owner, key, build):
    """build(), made once per owner and key and kept on the owner, for the
    read-only objects derived from a read-only algebra or module (its
    regular and dual modules, named twists, closure plans), which live as
    long as it does. Threads that miss together may each build; the entry
    stored first is the one every caller gets."""
    store = owner.__dict__.setdefault("_kept", {})
    try:
        return store[key]
    except KeyError:
        return store.setdefault(key, build())


def kept_entry(owner, key):
    """What kept(owner, key, ...) has stored, or None; stores nothing."""
    return owner.__dict__.get("_kept", {}).get(key)


class ClosurePlan:
    """What `FiniteAlgebra._closure` did with each word of the closure of
    some rows from scratch, to be replayed on payloads linear in the words.

    `basis` holds the orthonormal span rows. Each of `batches` is the span
    row whose products with the rows are its words (None for the rows
    themselves) and, per word, the Gram-Schmidt combination of span rows
    taken from it (first + second), its length once reduced and whether it
    entered the span. `final` is the first span row of the words left once
    the span is the whole algebra and their combinations, all reduced in
    one batch; it is None when the rows do not generate the algebra.
    """

    __slots__ = ("basis", "batches", "final", "inside_count")

    def __init__(self, basis: np.ndarray, batches: list, final):
        basis.setflags(write=False)
        self.basis, self.batches, self.final = basis, batches, final
        self.inside_count = sum(not new for _, steps in batches for _, _, new in steps) \
            + (0 if final is None else len(final[1]))

    def replay(self, payloads: np.ndarray, extend) -> tuple[np.ndarray, np.ndarray]:
        """(the payloads of the span rows, the stacked payloads left by the
        words that fell inside the span), for the rows' payloads [k, ...]
        and `extend(b, t)` giving the payloads [p, k, ...] of the words b g
        for p span rows b with payloads t and every row g.

        Gram-Schmidt takes from a word's payload the combination of span
        payloads it took from the word, and scales it with the word, so a
        payload that is linear in its word stays so. Each step is the
        operation the closure loop would make on the payload beside its
        word, with the same operands in the same order, so the payloads
        come out bit for bit.
        """
        basis = self.basis
        shape = payloads.shape[1:]
        payloads = payloads.reshape(len(payloads), -1)  # flat payloads from here on
        stack = np.zeros((len(basis), payloads.shape[1]), dtype=complex)
        inside = np.empty((self.inside_count, payloads.shape[1]), dtype=complex)
        count = row = 0
        for queued, steps in self.batches:
            if queued is not None:
                payloads = extend(basis[queued:queued + 1],
                                  stack[queued:queued + 1].reshape(1, *shape))
                payloads = payloads.reshape(len(steps), -1)
            for payload, (combination, length, new) in zip(payloads, steps):
                payload = payload - combination @ stack[:count]
                if new:
                    stack[count] = payload / length
                    count += 1
                else:
                    inside[row] = payload
                    row += 1
        if self.final is not None:
            queued, combinations = self.final
            payloads = extend(basis[queued:], stack[queued:].reshape(-1, *shape))
            payloads = payloads.reshape(len(combinations), -1).astype(complex, copy=False)
            np.subtract(payloads, combinations @ stack, out=inside[row:])
        return stack.reshape(count, *shape), inside.reshape(-1, *shape)


class _CoordinateSpace:
    """Shared weighted-norm behaviour of algebras and modules."""

    dim: int
    norm_weights: np.ndarray
    norm_kind: str  # "l1" or "linf"
    tag: str

    def norm(self, coords) -> float:
        return float(self.norms(np.asarray(coords)[None])[0])

    def norms(self, rows) -> np.ndarray:
        """The weighted norm of each row of an [N, dim] coordinate array; a
        row's bits depend on that row alone, in any memory layout. `norm`
        is the one-row case.

        The l1 weights are applied as one stacked dot product per row;
        `abs(rows) @ weights` would be a matrix-vector product whose blocked
        sums differ in the last bits, and so does the stacked product over
        rows that are not C-contiguous.
        """
        mags = np.ascontiguousarray(np.abs(np.asarray(rows)))
        if self.dim == 0:
            return np.zeros(len(mags))
        if self.norm_kind == "l1":
            return (mags[:, None, :] @ self.norm_weights[:, None])[:, 0, 0]
        return np.max(self.norm_weights * mags, axis=1)

    def element(self, coords):
        return self._element_cls(self, _as_complex(coords, "element coordinates"))

    def call_on_rows(self, func, a_rows, b_rows=None, *, check) -> list:
        """[check(func(x_k, y_k))] in row order, for elements x_k and y_k
        viewing row k of read-only copies of two [N, dim] coordinate arrays;
        y_k is x_k when b_rows is None. The copies fix every row's shape and their
        row views are read-only, so the elements are made in the loop
        without the per-element check of `__init__`; they are not checked
        for finiteness, as element arithmetic is not."""
        cls, out = self._element_cls, []
        new = cls.__new__
        a_table = self._read_only_rows(a_rows)
        b_table = repeat(None) if b_rows is None else self._read_only_rows(b_rows)
        for a, b in zip(a_table, b_table):
            x = new(cls)
            x.space, x.coords = self, a
            if b is None:
                y = x
            else:
                y = new(cls)
                y.space, y.coords = self, b
            out.append(check(func(x, y)))
        return out

    def _read_only_rows(self, rows) -> np.ndarray:
        table = np.array(rows, dtype=complex)
        if table.shape[1:] != (self.dim,):
            raise SpaceMismatchError(
                f"coordinate rows {table.shape} do not match dim {self.dim}")
        table.setflags(write=False)
        return table

    def basis_element(self, index: int):
        coords = np.zeros(self.dim, dtype=complex)
        coords[index] = 1.0
        return self._element_cls(self, coords)

    def zero(self):
        return self._element_cls(self, np.zeros(self.dim, dtype=complex))

    def same_space(self, other) -> bool:
        return self is other or self.tag == other.tag


class _SpaceElement:
    """Coordinate vector tied to an owning space."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords: np.ndarray):
        if coords.shape != (space.dim,):
            raise SpaceMismatchError(
                f"coordinate length {coords.shape} does not match dim {space.dim}"
            )
        self.space = space
        self.coords = coords
        coords.setflags(write=False)

    def norm(self) -> float:
        return self.space.norm(self.coords)

    def _check_peer(self, other):
        if not isinstance(other, _SpaceElement) or not self.space.same_space(other.space):
            raise SpaceMismatchError("operands belong to different spaces")

    def __add__(self, other):
        self._check_peer(other)
        return type(self)(self.space, self.coords + other.coords)

    def __sub__(self, other):
        self._check_peer(other)
        return type(self)(self.space, self.coords - other.coords)

    def __neg__(self):
        return type(self)(self.space, -self.coords)

    def scale(self, scalar):
        return type(self)(self.space, complex(scalar) * self.coords)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return self.scale(scalar)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({self.coords!r})"


class AlgebraElement(_SpaceElement):
    @property
    def algebra(self) -> "FiniteAlgebra":
        return self.space

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented


class ModuleElement(_SpaceElement):
    @property
    def module(self) -> "Bimodule":
        return self.space


class FiniteAlgebra(_CoordinateSpace):
    """Associative complex algebra with a certified submultiplicative norm.

    Parameters
    ----------
    structure : complex tensor of shape (n, n, n)
        ``e_i e_j = sum_k structure[i, j, k] e_k``.
    weights : positive reals of length n, optional
        Weighted l1 norm coefficients; defaults to all ones. If the basis
        pair check ``|e_i e_j| <= w_i w_j`` fails, all weights are rescaled
        by the smallest constant that repairs it (and nudged up by units in
        the last place where rounding leaves a pair just above the bound).
    unit_index : int, optional
        Basis index of a multiplicative identity, when the identity happens
        to be a basis vector.
    unit : coordinate vector, optional
        Identity element in coordinates, for algebras whose identity is not
        a basis vector (the full matrix algebras, for instance).

    Associativity is certified on the generator slot: ``(e_i e_j) g =
    e_i (e_j g)`` for basis vectors ``e_i``, ``e_j`` and each row ``g`` of
    `generators`, n^2 k checks instead of n^3. That is enough, because the
    left-normed words in the generators span the algebra (the closure that
    finds them establishes it). By bilinearity ``(ab) g = a (b g)`` for all
    a, b, and by induction on the length of a word ``w g``::

        (xy)(wg) = ((xy)w)g = (x(yw))g = x((yw)g) = x(y(wg))

    where the second step is the induction hypothesis and the others are the
    generator-slot identity. A failure names the first worst
    (basis, basis, generator) index triple.
    """

    _element_cls = AlgebraElement

    @single_blas_thread
    def __init__(self, structure, weights=None, unit_index=None, unit=None):
        c = _as_complex(structure, "structure tensor")
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ConstructionError("structure tensor must have shape (n, n, n)")
        n = c.shape[0]
        if n < 1:
            raise ConstructionError("algebra dimension must be positive")
        self.dim = n
        self.structure = c

        # (e_i e_j) g versus e_i (e_j g) for basis e_i, e_j and generator rows g
        rows = self.generators
        worst, where = _worst_associator(c, np.einsum("gj,sjc->sgc", rows, c), c)
        if not worst <= STRUCTURE_TOL:  # a NaN gap fails too
            i, j, g, _ = where
            raise ConstructionError(
                f"associativity fails on basis, basis, generator triple ({i}, {j}, {g}) "
                f"with residual {worst:.3e}"
            )

        w = np.ones(n) if weights is None else _as_weights(weights, n, "norm weights")
        # |e_i e_j| <= w_i w_j after rescaling by the worst basis-pair ratio;
        # rounding can leave a rescaled ratio at 1 + 2^-52, which a reload
        # would rescale again, so the weights are nudged up until none is
        # above 1 and certifying the certified weights changes nothing
        mags = np.abs(c)
        factor = _worst_pair_ratio(w, mags)
        if factor > 1.0:
            w = w * factor
            while _worst_pair_ratio(w, mags) > 1.0:
                w = np.nextafter(w, np.inf)

        self.norm_weights = w
        self.norm_kind = "l1"
        self.rescale_factor = max(factor, 1.0)
        self.unit_index = unit_index

        if unit_index is not None:
            if not 0 <= unit_index < n:
                raise ConstructionError("unit_index out of range")
            if unit is not None:
                raise ConstructionError("give unit_index or unit, not both")
            unit = np.zeros(n, dtype=complex)
            unit[unit_index] = 1.0
        self.unit_coords = None if unit is None else _as_complex(unit, "unit")
        if self.unit_coords is not None:
            eu = np.einsum("i,ijk->jk", self.unit_coords, c)  # e . e_j
            ue = np.einsum("j,ijk->ik", self.unit_coords, c)  # e_i . e
            if (
                float(np.abs(eu - np.eye(n)).max()) > STRUCTURE_TOL
                or float(np.abs(ue - np.eye(n)).max()) > STRUCTURE_TOL
            ):
                raise ConstructionError("declared unit is not a two-sided identity")
            self.unit_coords.setflags(write=False)

        c.setflags(write=False)
        w.setflags(write=False)
        self.tag = _content_tag(f"alg{n}", c, w)

    @property
    def unit(self) -> AlgebraElement | None:
        if self.unit_coords is None:
            return None
        return self.element(self.unit_coords)

    @cached_property
    def generators(self) -> np.ndarray:
        """Rows of coordinates whose products span the algebra.

        Two generic elements from a fixed seeded stream, then basis vectors
        in order, each added only while the non-unital closure (the span of
        all products of the rows) misses it. When that needs as many rows
        as the dimension, the identity rows are returned instead. The plan
        of the first closure is kept as the generators' when the two generic
        rows are what is returned.
        """
        n = self.dim
        rng = generator(0, "algebra-generators")
        rows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        plan = self._closure(rows)
        span = plan.basis
        for e in np.eye(n, dtype=complex):
            if span.shape[0] == n or rows.shape[0] >= n:
                break
            if np.linalg.norm(e - span.T @ (span.conj() @ e)) > SPAN_RTOL:
                rows = np.vstack([rows, e])
                span = self._closure(rows, span)
        if rows.shape[0] >= n:
            rows = np.eye(n, dtype=complex)
        elif rows.shape[0] == 2:
            kept(self, "closure plan: generators", lambda: plan)
        rows.setflags(write=False)
        return rows

    def closure_plan(self, rows: np.ndarray) -> "ClosurePlan":
        """The `ClosurePlan` of the closure of `rows` from scratch, made once
        and kept on the algebra for its generators and for the identity
        rows, and made afresh for any other rows."""
        if np.array_equal(rows, self.generators):
            key = "closure plan: generators"
        elif np.array_equal(rows, np.eye(self.dim)):
            key = "closure plan: identity"
        else:
            return self._closure(rows)
        return kept(self, key, lambda: self._closure(rows))

    def _closure(self, rows: np.ndarray, span: np.ndarray | None = None):
        """The `ClosurePlan` of the orthonormal rows spanning every product
        of one or more `rows`.

        Gram-Schmidt over the words, first in first out: the rows are the
        first words, and each new direction b queues the products b g for
        every row g, all formed in one matrix product with the structure
        tensor. A word counts as new when what is left after projecting out
        the span exceeds SPAN_RTOL times a bound on the word's size, so
        rounding noise of a zero product is dropped. Every queued word is
        taken; those left once the span is the whole algebra are reduced in
        one batch, and the plan records what was done with each word.

        Given `span`, the closure of all rows but the last row e, the words
        that are new start as e itself or as b e for b in `span`, so those
        are queued, `span` grows from there and the grown span is returned
        (no plan) as soon as it is the whole algebra.
        """
        n, size = self.dim, np.linalg.norm(self.structure)
        flat = self.structure.reshape(n, n * n)  # rows @ (b @ flat).reshape(n, n): b g per row g
        row_lengths = np.linalg.norm(rows, axis=1)
        basis = np.zeros((n, n), dtype=complex)
        if span is None:
            count = 0
            words, bounds = rows, row_lengths
        else:
            count = len(span)
            basis[:count] = span
            e, length = rows[-1], np.linalg.norm(rows[-1])
            words = np.vstack([e, span @ np.tensordot(self.structure, e, (1, 0))])
            bounds = np.full(len(words), size * length)
            bounds[0] = length
        conj = basis.conj()
        row_bounds = size * row_lengths
        queued = count  # the span row whose products are queued next
        steps = []
        batches, final = [(None, steps)], None
        while True:
            for word, bound in zip(words, bounds):
                if count == n and span is not None:
                    return basis
                current, spanconj = basis[:count], conj[:count]
                first = spanconj @ word
                word = word - current.T @ first
                second = spanconj @ word  # restores orthogonality lost to rounding
                word = word - current.T @ second
                length = np.linalg.norm(word)
                new = length > SPAN_RTOL * bound
                if new:
                    basis[count] = word / length
                    conj[count] = basis[count].conj()
                steps.append((first + second, length, new))
                count += new
            if queued == count:
                break
            if count == n and span is None:
                # every word left falls inside the span: the products of all
                # queued rows, reduced together
                lefts = (basis[queued:] @ flat).reshape(-1, n, n)
                words = (rows @ lefts).reshape(-1, n)
                first = words @ conj.T
                second = (words - first @ basis) @ conj.T
                final = (queued, first + second)
                break
            words, bounds = rows @ (basis[queued] @ flat).reshape(n, n), row_bounds
            steps = []
            batches.append((queued, steps))
            queued += 1
        if span is not None:
            return basis[:count]
        return ClosurePlan(basis[:count], batches, final)

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim}, tag={self.tag!r})"


def make_algebra(structure, weights=None, unit_index=None, unit=None) -> FiniteAlgebra:
    """Validate and certify an algebra from raw structure constants."""
    return FiniteAlgebra(structure, weights, unit_index=unit_index, unit=unit)


def _matrix_unit_algebra(n: int, pairs) -> FiniteAlgebra:
    """The algebra spanned by the n-by-n matrix units E_ij at a row-major
    list of index pairs that holds every (i, i) and every product: basis
    index p is the place of (i, j) in the list, E_ij E_jl = E_il, all other
    products of units are zero, and the unit is the sum of the E_ii."""
    index = {pair: p for p, pair in enumerate(pairs)}
    dim = len(pairs)
    c = np.zeros((dim, dim, dim), dtype=complex)
    for (i, j), p in index.items():
        for l in range(n):
            q = index.get((j, l))
            if q is not None:
                c[p, q, index[(i, l)]] = 1.0
    if n == 1:
        return FiniteAlgebra(c, unit_index=0)
    unit = np.zeros(dim, dtype=complex)
    unit[[index[(i, i)] for i in range(n)]] = 1.0
    return FiniteAlgebra(c, unit=unit)


def make_matrix_algebra(n: int) -> FiniteAlgebra:
    """Full matrix algebra on n-by-n matrices in the matrix-unit basis.

    Basis index p = n*row + col encodes the matrix unit E[row, col]; the
    products are E_ij E_kl = delta_jk E_il. 1 <= n <= 12.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 12:
        raise ConstructionError("matrix algebra size must satisfy 1 <= n <= 12")
    return _matrix_unit_algebra(n, [(i, j) for i in range(n) for j in range(n)])


def outer_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row k holds the products x[k, i] y[k, j] in (i, j) row-major order."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), x.shape[1] * y.shape[1])


@single_blas_thread
def bilinear_rows(x: np.ndarray, y: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Row k is sum_ij x[k, i] y[k, j] tensor[i, j, :]: one stacked product
    per row of `outer_rows`, so its bits do not depend on the batch, its size
    or its memory layout. `mul`, `act_left` and `act_right` are one row of it."""
    p, q, r = tensor.shape
    return (outer_rows(x, y)[:, None, :] @ tensor.reshape(p * q, r))[:, 0]


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in the owning algebra."""
    if not isinstance(a, AlgebraElement) or not isinstance(b, AlgebraElement):
        raise SpaceMismatchError("mul expects two algebra elements")
    if not a.space.same_space(b.space):
        raise SpaceMismatchError("elements of different algebras")
    coords = bilinear_rows(a.coords[None], b.coords[None], a.space.structure)[0]
    return AlgebraElement(a.space, coords)


class Bimodule(_CoordinateSpace):
    """Two-sided module over a FiniteAlgebra with certified action bounds.

    left_action[i, j, k] gives ``e_i . x_j = sum_k left_action[i, j, k] x_k``
    and right_action[j, i, k] gives ``x_j . e_i``. Zero-dimensional modules
    are allowed (all checks hold vacuously).

    The three module axioms are checked here, except for the modules this
    package derives from certified ones (`regular_bimodule`, `dual_bimodule`,
    `perturb.extend_with_annihilator`), whose axioms follow from what their
    inputs already proved; they pass the private `_axioms_proven` and hand
    over their action tensors uncopied (fresh arrays, or the algebra's
    read-only structure). Shapes, weights and the action bound are certified
    for every module.
    """

    _element_cls = ModuleElement

    @single_blas_thread
    def __init__(self, algebra: FiniteAlgebra, left_action, right_action,
                 weights=None, norm_kind: str = "l1", *, _axioms_proven: bool = False):
        n = algebra.dim
        l = _as_complex(left_action, "left action tensor", copy=not _axioms_proven)
        r = _as_complex(right_action, "right action tensor", copy=not _axioms_proven)
        if l.ndim != 3 or l.shape[0] != n or l.shape[1] != l.shape[2]:
            raise ConstructionError("left action tensor must have shape (n, m, m)")
        m = l.shape[1]
        if r.shape != (m, n, m):
            raise ConstructionError("right action tensor must have shape (m, n, m)")
        if norm_kind not in ("l1", "linf"):
            raise ConstructionError("norm_kind must be 'l1' or 'linf'")

        if not _axioms_proven:
            c = algebra.structure
            r_by_algebra = r.transpose(1, 0, 2)  # [i, j, k]: x_j . e_i
            checks = {
                # (ab).x = a.(b.x)
                "left associativity": (c, l, l),
                # x.(ab) = (x.a).b: the rule above for the opposite algebra
                # (structure c[j, i, k]) acting on the left by x.a
                "right associativity": (c.transpose(1, 0, 2), r_by_algebra, r_by_algebra),
                # (a.x).b = a.(x.b)
                "middle associativity": (l, r, l),
            }
            for name, factors in checks.items():
                worst, _ = _worst_associator(*factors)
                if not worst <= STRUCTURE_TOL:  # a NaN gap fails too
                    raise ConstructionError(f"module axiom '{name}' fails ({worst:.3e})")

        if weights is None:
            weights = np.ones(m)
        v = np.array(weights, dtype=float)
        if v.shape != (m,):
            raise ConstructionError("module weights have the wrong length")
        if m > 0 and (not np.all(np.isfinite(v)) or np.any(v <= 0.0)):
            raise ConstructionError("module weights must be positive and finite")

        self.algebra = algebra
        self.dim = m
        self.left_action = l
        self.right_action = r
        self.norm_weights = v
        self.norm_kind = norm_kind
        self.action_bound = self._certify_action_bound()
        l.setflags(write=False)
        r.setflags(write=False)
        v.setflags(write=False)
        self.tag = _content_tag(f"mod{m}({norm_kind})", l, r, v) + "@" + algebra.tag

    def _certify_action_bound(self) -> float:
        n, m = self.algebra.dim, self.dim
        if m == 0:
            return 0.0
        w = self.algebra.norm_weights
        v = self.norm_weights
        if self.norm_kind == "l1":
            # exact on basis pairs, hence global by bilinearity
            left = np.einsum("k,ijk->ij", v, np.abs(self.left_action))
            right = np.einsum("k,jik->ij", v, np.abs(self.right_action))
            ratios = np.maximum(left, right) / np.outer(w, v)
            return float(ratios.max())
        # weighted sup norm: per-basis operator norms are weighted row sums
        # of the matrices of x -> e_i.x and x -> x.e_i
        bound = 0.0
        for i in range(n):
            for mat in (self.left_action[i].T, self.right_action[:, i, :].T):
                op = float(np.max((v[:, None] * np.abs(mat) / v[None, :]).sum(axis=1)))
                bound = max(bound, op / w[i])
        return bound

    def left_matrices(self, rows) -> np.ndarray:
        """[k, m, m] stack of the matrices of x -> a.x, one for each row a of
        a [k, n] array of algebra coordinates."""
        return self._action_matrices(rows, "left action by rows", self.left_action, (0, 2, 1))

    def right_matrices(self, rows) -> np.ndarray:
        """[k, m, m] stack of the matrices of x -> x.a, one per row a."""
        return self._action_matrices(rows, "right action by rows", self.right_action, (1, 2, 0))

    def _action_matrices(self, rows, key: str, action: np.ndarray, axes) -> np.ndarray:
        # the rows times the action tensor as [i, out, in], kept read-only per
        # module and side; a basis row gives the tensor's slice exactly
        n, m = self.algebra.dim, self.dim

        def build():
            flat = np.ascontiguousarray(action.transpose(axes)).reshape(n, m * m)
            flat.setflags(write=False)
            return flat

        rows = np.asarray(rows, dtype=complex)
        return np.dot(rows, kept(self, key, build)).reshape(len(rows), m, m)

    def left_matrix(self, coords) -> np.ndarray:
        """Matrix of x -> a.x for algebra coordinates a."""
        return self.left_matrices([coords])[0]

    def right_matrix(self, coords) -> np.ndarray:
        """Matrix of x -> x.a."""
        return self.right_matrices([coords])[0]

    def __repr__(self):
        return f"Bimodule(dim={self.dim}, algebra_dim={self.algebra.dim}, tag={self.tag!r})"


def regular_bimodule(algebra: FiniteAlgebra) -> Bimodule:
    """The algebra acting on itself by multiplication on both sides.

    Its left, right and middle module axioms are associativity of the
    algebra, which FiniteAlgebra certified, so they are not checked again.
    One read-only module is made per algebra and kept on it.
    """
    c = algebra.structure
    # x_j . e_i = sum_k structure[j, i, k] x_k: both tensors are the structure
    # constants, read with the module index first for the right action
    return kept(algebra, "regular bimodule", lambda: Bimodule(
        algebra, c, c, weights=algebra.norm_weights, _axioms_proven=True))


def zero_bimodule(algebra: FiniteAlgebra) -> Bimodule:
    """The zero module (dimension 0)."""
    n = algebra.dim
    return Bimodule(
        algebra,
        np.zeros((n, 0, 0), dtype=complex),
        np.zeros((0, n, 0), dtype=complex),
        weights=np.zeros(0),
    )


def act_left(a: AlgebraElement, x: ModuleElement) -> ModuleElement:
    """Left module action a.x."""
    _check_action_pair(a, x)
    coords = bilinear_rows(a.coords[None], x.coords[None], x.space.left_action)[0]
    return ModuleElement(x.space, coords)


def act_right(x: ModuleElement, a: AlgebraElement) -> ModuleElement:
    """Right module action x.a."""
    _check_action_pair(a, x)
    coords = bilinear_rows(x.coords[None], a.coords[None], x.space.right_action)[0]
    return ModuleElement(x.space, coords)


def _check_action_pair(a, x):
    if not isinstance(a, AlgebraElement) or not isinstance(x, ModuleElement):
        raise SpaceMismatchError("expected (algebra element, module element)")
    if not x.space.algebra.same_space(a.space):
        raise SpaceMismatchError("module does not belong to the element's algebra")


def dual_bimodule(module: Bimodule) -> Bimodule:
    """Dual module with actions (a.f)(x) = f(x.a) and (f.a)(x) = f(a.x).

    In coordinates the action tensors are the transposed-and-swapped
    originals, and the norm is the exact dual of the weighted l1 norm,
    a weighted sup norm (and back again for the double dual). Each module
    axiom of the dual is a transpose of one the certified module satisfies
    (left of the dual is right of the module, and the other way round;
    middle is middle), so they are not checked again. One read-only dual is
    made per module and kept on it.
    """
    return kept(module, "dual bimodule", lambda: _dual_bimodule(module))


def _dual_bimodule(module: Bimodule) -> Bimodule:
    left = np.transpose(module.right_action, (1, 2, 0)).copy()
    right = np.transpose(module.left_action, (2, 0, 1)).copy()
    kind = "linf" if module.norm_kind == "l1" else "l1"
    return Bimodule(module.algebra, left, right, weights=1.0 / module.norm_weights, norm_kind=kind,
                    _axioms_proven=True)


def rank_margin(s: np.ndarray, cols: int, rtol: float, scale: float) -> dict:
    """The numerical rank of a matrix with `cols` columns and singular
    values `s` (descending; any further ones are zero), counting those above
    `rtol * scale`, and how near the cutoff came to changing it: the
    smallest kept and the largest dropped singular value, each relative to
    `scale` (None where none is kept or none dropped). A matrix of scale 0
    has rank 0, and its dropped value is 0.0."""
    rank = int(np.count_nonzero(s > rtol * scale))
    if rank == cols:
        dropped = None
    else:
        dropped = float(s[rank] / scale) if rank < len(s) and scale else 0.0
    return {"rank": rank, "kept": float(s[rank - 1] / scale) if rank else None,
            "dropped": dropped}


@single_blas_thread
def nullspace(mat: np.ndarray, rtol: float) -> np.ndarray:
    """Rows form an orthonormal basis of the nullspace of `mat`.

    Singular values at most `rtol` times the largest count as zero
    (`rank_margin`). The SVD is reduced, so the left factor is never larger
    than `mat`; a wide matrix gets the full right factor, whose extra rows
    span the rest of the nullspace.
    """
    rows, cols = mat.shape
    if mat.size == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=rows < cols)
    return vh[rank_margin(s, cols, rtol, s[0])["rank"]:].conj()


def right_annihilator(algebra: FiniteAlgebra) -> np.ndarray:
    """Orthonormal basis (rows) of {x : a x = 0 for all a}.

    Computed as the joint nullspace of the left-multiplication matrices of
    all basis vectors. May be empty (shape (0, dim)).
    """
    n = algebra.dim
    stacked = np.transpose(algebra.structure, (0, 2, 1)).reshape(n * n, n)
    return nullspace(stacked, ANNIHILATOR_RTOL)


def left_annihilator(algebra: FiniteAlgebra) -> np.ndarray:
    """Orthonormal basis (rows) of {x : x a = 0 for all a}."""
    n = algebra.dim
    stacked = np.transpose(algebra.structure, (1, 2, 0)).reshape(n * n, n)
    return nullspace(stacked, ANNIHILATOR_RTOL)


def module_annihilator(module: Bimodule) -> np.ndarray:
    """Orthonormal basis (rows) of {z in X : a.z = 0 and z.a = 0 for all a}."""
    n, m = module.algebra.dim, module.dim
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    blocks = np.concatenate([module.left_matrices(np.eye(n)), module.right_matrices(np.eye(n))])
    return nullspace(blocks.reshape(2 * n * m, m), ANNIHILATOR_RTOL)


class LinearMap:
    """Dense complex matrix with domain and codomain space tags."""

    # _endo_residual: (algebra, matrix, residual) once derivation's
    # `_endo_residual` has computed the map's residual on that algebra
    __slots__ = ("matrix", "domain", "codomain", "_endo_residual")

    def __init__(self, matrix, domain: _CoordinateSpace, codomain: _CoordinateSpace):
        mat = _as_complex(matrix, "linear map matrix")
        if mat.shape != (codomain.dim, domain.dim):
            raise ConstructionError(
                f"matrix shape {mat.shape} does not match "
                f"({codomain.dim}, {domain.dim})"
            )
        mat.setflags(write=False)
        self.matrix = mat
        self.domain = domain
        self.codomain = codomain
        self._endo_residual = None

    @property
    def domain_tag(self) -> str:
        return self.domain.tag

    @property
    def codomain_tag(self) -> str:
        return self.codomain.tag

    def apply(self, elt: _SpaceElement) -> _SpaceElement:
        if not self.domain.same_space(elt.space):
            raise SpaceMismatchError("element is not in the map's domain")
        return self.codomain.element(self.apply_coords(elt.coords))

    __call__ = apply

    def apply_coords(self, coords) -> np.ndarray:
        return self.apply_rows(np.asarray(coords)[None])[0]

    @single_blas_thread
    def apply_rows(self, rows) -> np.ndarray:
        """The map at each row of an [N, n] array, one stacked matrix-vector
        product per row, never `rows @ matrix.T`: a row's bits depend on that
        row alone, in any memory layout. `apply_coords` is the one-row
        case."""
        rows = np.ascontiguousarray(rows, dtype=complex)
        return (self.matrix[None] @ rows[:, :, None])[:, :, 0]

    def operator_norm(self) -> float:
        """Norm induced by the weighted norms of domain and codomain.

        The domain norm must be the weighted l1 norm, for which the induced
        norm is the worst column: max_j |column_j| / w_j.
        """
        if self.domain.norm_kind != "l1":
            raise ConstructionError("operator norm implemented for l1 domains only")
        if self.domain.dim == 0:
            return 0.0
        return float(np.max(self.codomain.norms(self.matrix.T) / self.domain.norm_weights))

    def __repr__(self):
        return (
            f"LinearMap({self.codomain.dim}x{self.domain.dim}, "
            f"{self.domain_tag} -> {self.codomain_tag})"
        )


def identity_map(space: _CoordinateSpace) -> LinearMap:
    return LinearMap(np.eye(space.dim, dtype=complex), space, space)


@single_blas_thread
def conjugation_map(algebra: FiniteAlgebra, u_coords) -> LinearMap:
    """The inner automorphism a -> u a u^{-1} of a unital algebra."""
    if algebra.unit_coords is None:
        raise ConstructionError("conjugation requires a unital algebra")
    u = _as_complex(u_coords, "conjugating element")
    if u.shape != (algebra.dim,):
        raise ConstructionError(
            f"conjugating element must have {algebra.dim} coordinates, got shape {u.shape}")
    n = algebra.dim
    # x -> u x and x -> x u^{-1}, C-contiguous so that lu @ ru is one gemm on
    # row-major operands whatever the views' strides
    lu = np.ascontiguousarray((u @ algebra.structure.reshape(n, n * n)).reshape(n, n).T)
    try:
        u_inv = np.linalg.solve(lu, algebra.unit_coords)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError("conjugating element is not invertible") from exc
    ru = np.ascontiguousarray(np.tensordot(algebra.structure, u_inv, (1, 0)).T)
    return LinearMap(lu @ ru, algebra, algebra)


# --- serialization -----------------------------------------------------------

def algebra_to_dict(algebra: FiniteAlgebra) -> dict:
    doc = {
        "dim": algebra.dim,
        "structure": encode_complex(algebra.structure),
        "weights": algebra.norm_weights.tolist(),
        "unit_index": algebra.unit_index,
    }
    if algebra.unit_index is None and algebra.unit_coords is not None:
        doc["unit"] = encode_complex(algebra.unit_coords)
    return doc


def algebra_from_dict(doc: dict) -> FiniteAlgebra:
    """Rebuild an algebra from its document, re-running all certifications."""
    what = "algebra document"
    structure = decode_complex(document_field(doc, "structure", ConstructionError, what))
    dim = document_number(doc, "dim", ConstructionError, what, integer=True)
    if structure.shape != (dim,) * 3:
        raise ConstructionError("document dim does not match structure tensor")
    unit = decode_complex(doc["unit"]) if doc.get("unit") is not None else None
    return make_algebra(
        structure,
        weights=doc.get("weights"),
        unit_index=doc.get("unit_index"),
        unit=unit,
    )


def bimodule_to_dict(module: Bimodule) -> dict:
    return {
        "dim": module.dim,
        "left_action": encode_complex(module.left_action),
        "right_action": encode_complex(module.right_action),
        "weights": module.norm_weights.tolist(),
        "norm_kind": module.norm_kind,
    }


def bimodule_from_dict(algebra: FiniteAlgebra, doc: dict) -> Bimodule:
    """Rebuild a bimodule over `algebra` from its document, re-running all
    certifications."""
    what = "bimodule document"
    left = decode_complex(document_field(doc, "left_action", ConstructionError, what))
    right = decode_complex(document_field(doc, "right_action", ConstructionError, what))
    dim = document_number(doc, "dim", ConstructionError, what, integer=True)
    if left.shape[1:] != (dim, dim) or right.shape[::2] != (dim, dim):
        raise ConstructionError("document dim does not match the action tensors")
    return Bimodule(
        algebra, left, right,
        weights=doc.get("weights"),
        norm_kind=doc.get("norm_kind", "l1"),
    )


def record_dict(record) -> dict:
    """The document of a dataclass record: each field under its name. A map
    is written as encode_complex of its matrix, an element of its
    coordinates and an array of its entries; a nested record as its own
    to_dict(); anything else (None, numbers, strings, lists, dicts) as it is."""
    return {f.name: _field_document(getattr(record, f.name)) for f in fields(record)}


def _field_document(value):
    if isinstance(value, LinearMap):
        return encode_complex(value.matrix)
    if isinstance(value, _SpaceElement):
        return encode_complex(value.coords)
    if isinstance(value, np.ndarray):
        return encode_complex(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value
