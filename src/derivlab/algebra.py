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
from functools import cached_property

import numpy as np

from .encoding import decode_complex, document_field, document_number, encode_complex
from .errors import ConstructionError, SpaceMismatchError
from .sampling import generator

STRUCTURE_TOL = 1e-12
SPAN_RTOL = 1e-10
ANNIHILATOR_RTOL = 1e-12


def _as_complex(data, what: str) -> np.ndarray:
    arr = np.array(data, dtype=complex)
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
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return f"{prefix}:{h.hexdigest()}"


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


class _CoordinateSpace:
    """Shared weighted-norm behaviour of algebras and modules."""

    dim: int
    norm_weights: np.ndarray
    norm_kind: str  # "l1" or "linf"
    tag: str

    def norm(self, coords) -> float:
        coords = np.asarray(coords)
        if self.dim == 0:
            return 0.0
        if self.norm_kind == "l1":
            return float(self.norm_weights @ np.abs(coords))
        return float(np.max(self.norm_weights * np.abs(coords)))

    def norms(self, rows) -> np.ndarray:
        """`norm` of each row of an [N, dim] coordinate array, bit for bit,
        in any memory layout.

        The l1 weights are applied as one stacked dot product per row, the
        product `norm` computes; `abs(rows) @ weights` would be a matrix-vector
        product whose blocked sums differ in the last bits, and so does the
        stacked product over rows that are not C-contiguous.
        """
        mags = np.ascontiguousarray(np.abs(np.asarray(rows)))
        if self.dim == 0:
            return np.zeros(len(mags))
        if self.norm_kind == "l1":
            return (mags[:, None, :] @ self.norm_weights[:, None])[:, 0, 0]
        return np.max(self.norm_weights * mags, axis=1)

    def element(self, coords):
        return self._element_cls(self, _as_complex(coords, "element coordinates"))

    def view_element(self, coords):
        """Element over a coordinate row, sharing its memory (the row view is
        made read-only) and, like element arithmetic, not checked for
        finiteness."""
        return self._element_cls(self, coords)

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
        by the smallest constant that repairs it.
    unit_index : int, optional
        Basis index of a multiplicative identity, when the identity happens
        to be a basis vector.
    unit : coordinate vector, optional
        Identity element in coordinates, for algebras whose identity is not
        a basis vector (the full matrix algebras, for instance).
    """

    _element_cls = AlgebraElement

    def __init__(self, structure, weights=None, unit_index=None, unit=None):
        c = _as_complex(structure, "structure tensor")
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ConstructionError("structure tensor must have shape (n, n, n)")
        n = c.shape[0]
        if n < 1:
            raise ConstructionError("algebra dimension must be positive")

        # (e_i e_j) e_k versus e_i (e_j e_k) over all basis triples
        worst, where = _worst_associator(c, c, c)
        if not worst <= STRUCTURE_TOL:  # a NaN gap fails too
            i, j, k, _ = where
            raise ConstructionError(
                f"associativity fails on basis triple ({i}, {j}, {k}) "
                f"with residual {worst:.3e}"
            )

        w = np.ones(n) if weights is None else _as_weights(weights, n, "norm weights")
        # |e_i e_j| <= w_i w_j after rescaling by the worst basis-pair ratio
        pair_norms = np.einsum("k,ijk->ij", w, np.abs(c))
        ratios = pair_norms / np.outer(w, w)
        factor = float(ratios.max()) if ratios.size else 0.0
        if factor > 1.0:
            w = w * factor

        self.dim = n
        self.structure = c
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
        as the dimension, the identity rows are returned instead.
        """
        n = self.dim
        rng = generator(0, "algebra-generators")
        rows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        span = self._closure(rows)
        for e in np.eye(n, dtype=complex):
            if span.shape[0] == n or rows.shape[0] >= n:
                break
            if np.linalg.norm(e - span.T @ (span.conj() @ e)) > SPAN_RTOL:
                rows = np.vstack([rows, e])
                span = self._closure(rows, span)
        if rows.shape[0] >= n:
            rows = np.eye(n, dtype=complex)
        rows.setflags(write=False)
        return rows

    def _closure(self, rows: np.ndarray, span: np.ndarray | None = None, carry=None):
        """Orthonormal rows spanning every product of one or more `rows`.

        Gram-Schmidt over the words, first in first out: the rows are the
        first words, and each new direction b queues the products b g for
        every row g, all formed in one matrix product. A word counts as new
        when what is left after projecting out the span exceeds SPAN_RTOL
        times a bound on the word's size, so rounding noise of a zero
        product is dropped. Given `span`, the closure of all rows but the
        last row e, the words that are new start as e itself or as b e for
        b in `span`, so those are queued and `span` grows from there. The
        loop stops once the span is the whole algebra.

        `carry`, for a closure from scratch, is a pair (payloads, extend):
        the rows' payloads, an array [k, ...], and a function giving the
        payloads [p, k, ...] of the words b g for p rows b with their
        payloads and every row g. Gram-Schmidt takes from a word's payload
        the combination of span payloads it takes from the word, and scales
        it with the word, so a payload that is linear in its word stays so.
        Every queued word is then taken (those left once the span is the
        whole algebra in one batch), and the result is (span, the payloads
        of the span rows, the stacked payloads left by the words that fell
        inside the span).
        """
        n, size = self.dim, np.linalg.norm(self.structure)
        row_lengths = np.linalg.norm(rows, axis=1)
        basis = np.zeros((n, n), dtype=complex)
        if span is None:
            count = 0
            words, bounds = rows, row_lengths
        else:
            count = len(span)
            basis[:count] = span
            e, length = rows[-1], np.linalg.norm(rows[-1])
            words = np.vstack([e, span @ self.right_mult_matrix(e).T])
            bounds = np.full(len(words), size * length)
            bounds[0] = length
        conj = basis.conj()
        if carry is not None:
            payloads, extend = carry
            shape = payloads.shape[1:]
            payloads = payloads.reshape(len(payloads), -1)  # flat payloads from here on
            stack = np.zeros((n, payloads.shape[1]), dtype=complex)
            inside = [stack[:0]]
        row_bounds = size * row_lengths
        queued = count  # the span row whose products are queued next
        while True:
            for index, (word, bound) in enumerate(zip(words, bounds)):
                if count == n and carry is None:
                    return basis
                span, spanconj = basis[:count], conj[:count]
                first = spanconj @ word
                word = word - span.T @ first
                second = spanconj @ word  # restores orthogonality lost to rounding
                word = word - span.T @ second
                length = np.linalg.norm(word)
                new = length > SPAN_RTOL * bound
                if new:
                    basis[count] = word / length
                    conj[count] = basis[count].conj()
                if carry is not None:
                    payload = payloads[index] - (first + second) @ stack[:count]
                    if new:
                        stack[count] = payload / length
                    else:
                        inside.append(payload[None])
                count += new
            if queued == count:
                break
            if count == n and carry is not None:
                # every word left falls inside the span: the products of all
                # queued rows, reduced together
                lefts = np.einsum("bi,ijk->bjk", basis[queued:], self.structure)
                words = (rows @ lefts).reshape(-1, n)
                payloads = extend(basis[queued:], stack[queued:].reshape(-1, *shape))
                payloads = payloads.reshape(len(words), -1).astype(complex, copy=False)
                first = words @ conj.T
                second = (words - first @ basis) @ conj.T
                payloads -= (first + second) @ stack
                inside.append(payloads)
                break
            b = basis[queued]
            words, bounds = rows @ self.left_mult_matrix(b).T, row_bounds
            if carry is not None:
                payloads = extend(basis[queued:queued + 1],
                                  stack[queued:queued + 1].reshape(1, *shape))
                payloads = payloads.reshape(len(words), -1)
            queued += 1
        if carry is None:
            return basis[:count]
        return (basis[:count], stack[:count].reshape(count, *shape),
                np.concatenate(inside).reshape(-1, *shape))

    def left_mult_matrix(self, coords) -> np.ndarray:
        """Matrix of x -> a x for a with the given coordinates."""
        return np.einsum("i,ijk->kj", np.asarray(coords, dtype=complex), self.structure)

    def right_mult_matrix(self, coords) -> np.ndarray:
        """Matrix of x -> x a."""
        return np.einsum("j,ijk->ki", np.asarray(coords, dtype=complex), self.structure)

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dim}, tag={self.tag!r})"


def make_algebra(structure, weights=None, unit_index=None, unit=None) -> FiniteAlgebra:
    """Validate and certify an algebra from raw structure constants."""
    return FiniteAlgebra(structure, weights, unit_index=unit_index, unit=unit)


def make_matrix_algebra(n: int) -> FiniteAlgebra:
    """Full matrix algebra on n-by-n matrices in the matrix-unit basis.

    Basis index p = n*row + col encodes the matrix unit E[row, col]; the
    products are E_ij E_kl = delta_jk E_il. 1 <= n <= 8.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 8:
        raise ConstructionError("matrix algebra size must satisfy 1 <= n <= 8")
    dim = n * n
    c = np.zeros((dim, dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i * n + j, j * n + k, i * n + k] = 1.0
    unit = np.zeros(dim, dtype=complex)
    unit[[i * n + i for i in range(n)]] = 1.0
    if n == 1:
        return FiniteAlgebra(c, unit_index=0)
    return FiniteAlgebra(c, unit=unit)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in the owning algebra."""
    if not isinstance(a, AlgebraElement) or not isinstance(b, AlgebraElement):
        raise SpaceMismatchError("mul expects two algebra elements")
    if not a.space.same_space(b.space):
        raise SpaceMismatchError("elements of different algebras")
    coords = np.einsum("i,j,ijk->k", a.coords, b.coords, a.space.structure)
    return AlgebraElement(a.space, coords)


class Bimodule(_CoordinateSpace):
    """Two-sided module over a FiniteAlgebra with certified action bounds.

    left_action[i, j, k] gives ``e_i . x_j = sum_k left_action[i, j, k] x_k``
    and right_action[j, i, k] gives ``x_j . e_i``. Zero-dimensional modules
    are allowed (all checks hold vacuously).

    The three module axioms are checked here, except for the modules this
    package derives from certified ones (`regular_bimodule`, `dual_bimodule`,
    `perturb.extend_with_annihilator`), whose axioms follow from what their
    inputs already proved; they pass the private `_axioms_proven`. Shapes,
    weights and the action bound are certified for every module.
    """

    _element_cls = ModuleElement

    def __init__(self, algebra: FiniteAlgebra, left_action, right_action,
                 weights=None, norm_kind: str = "l1", *, _axioms_proven: bool = False):
        n = algebra.dim
        l = _as_complex(left_action, "left action tensor")
        r = _as_complex(right_action, "right action tensor")
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

    def left_matrix(self, coords) -> np.ndarray:
        """Matrix of x -> a.x for algebra coordinates a."""
        return np.einsum("i,ijk->kj", np.asarray(coords, dtype=complex), self.left_action)

    def right_matrix(self, coords) -> np.ndarray:
        """Matrix of x -> x.a."""
        return np.einsum("i,jik->kj", np.asarray(coords, dtype=complex), self.right_action)

    def __repr__(self):
        return f"Bimodule(dim={self.dim}, algebra_dim={self.algebra.dim}, tag={self.tag!r})"


def regular_bimodule(algebra: FiniteAlgebra) -> Bimodule:
    """The algebra acting on itself by multiplication on both sides.

    Its left, right and middle module axioms are associativity of the
    algebra, which FiniteAlgebra certified, so they are not checked again.
    """
    c = algebra.structure
    # x_j . e_i = sum_k structure[j, i, k] x_k: both tensors are the structure
    # constants, read with the module index first for the right action
    return Bimodule(algebra, c.copy(), c.copy(), weights=algebra.norm_weights.copy(),
                    _axioms_proven=True)


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
    coords = np.einsum("i,j,ijk->k", a.coords, x.coords, x.space.left_action)
    return ModuleElement(x.space, coords)


def act_right(x: ModuleElement, a: AlgebraElement) -> ModuleElement:
    """Right module action x.a."""
    _check_action_pair(a, x)
    coords = np.einsum("j,i,jik->k", x.coords, a.coords, x.space.right_action)
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
    middle is middle), so they are not checked again.
    """
    left = np.transpose(module.right_action, (1, 2, 0)).copy()
    right = np.transpose(module.left_action, (2, 0, 1)).copy()
    if module.dim == 0:
        weights = np.zeros(0)
    else:
        weights = 1.0 / module.norm_weights
    kind = "linf" if module.norm_kind == "l1" else "l1"
    return Bimodule(module.algebra, left, right, weights=weights, norm_kind=kind,
                    _axioms_proven=True)


def nullspace(mat: np.ndarray, rtol: float) -> np.ndarray:
    """Rows form an orthonormal basis of the nullspace of `mat`.

    Singular values at most `rtol` times the largest count as zero. The SVD
    is reduced, so the left factor is never larger than `mat`; a wide matrix
    gets the full right factor, whose extra rows span the rest of the
    nullspace.
    """
    rows, cols = mat.shape
    if mat.size == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=rows < cols)
    rank = int(np.sum(s > rtol * s[0]))
    return vh[rank:].conj()


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
    blocks = [module.left_matrix(np.eye(n)[i]) for i in range(n)]
    blocks += [module.right_matrix(np.eye(n)[i]) for i in range(n)]
    return nullspace(np.vstack(blocks), ANNIHILATOR_RTOL)


class LinearMap:
    """Dense complex matrix with domain and codomain space tags."""

    __slots__ = ("matrix", "domain", "codomain")

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

    @property
    def domain_tag(self) -> str:
        return self.domain.tag

    @property
    def codomain_tag(self) -> str:
        return self.codomain.tag

    def apply(self, elt: _SpaceElement) -> _SpaceElement:
        if not self.domain.same_space(elt.space):
            raise SpaceMismatchError("element is not in the map's domain")
        return self.codomain.element(self.matrix @ elt.coords)

    __call__ = apply

    def apply_coords(self, coords) -> np.ndarray:
        return self.matrix @ np.asarray(coords, dtype=complex)

    def apply_rows(self, rows) -> np.ndarray:
        """`apply_coords` of each row of an [N, n] array, bit for bit, in any
        memory layout: one stacked matrix-vector product per row, never
        `rows @ matrix.T`."""
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


def conjugation_map(algebra: FiniteAlgebra, u_coords) -> LinearMap:
    """The inner automorphism a -> u a u^{-1} of a unital algebra."""
    if algebra.unit_coords is None:
        raise ConstructionError("conjugation requires a unital algebra")
    u = _as_complex(u_coords, "conjugating element")
    lu = algebra.left_mult_matrix(u)
    try:
        u_inv = np.linalg.solve(lu, algebra.unit_coords)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError("conjugating element is not invertible") from exc
    return LinearMap(lu @ algebra.right_mult_matrix(u_inv), algebra, algebra)


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
