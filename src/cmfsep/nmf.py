"""The tied nonnegative problem of the complex-factorization reduction
and its algebra: the problem, the iterate, the stacked Gram terms, the
residuals and the objective. The update step (``cmf.nmf_step``), the
iterate-and-stop loop and the seeded start live in ``cmf``.

The problem is built from complex data Z (F×T) at complex rank K. Its
nonnegative form, the 2F×2T block matrix Zc of Z's split, is factored
as X·H with X = [X_L, X_R] 2F×2K and the weights tied as
H = [[h⁺, h⁻], [h⁻, h⁺]] = [W, ΠW], where W = [h⁺; h⁻] is stored alone
and Π swaps its two row halves. Zc itself is never formed. Write
Zri = [Re Z; Im Z] (2F×T): Zc's column halves are its sign parts
Zp = max(Zri, 0) and Zn = max(−Zri, 0), and with Zab = |Zri| = Zp + Zn,
p = X_L + X_R, q = X_L − X_R, s = h⁺ + h⁻ and d = h⁺ − h⁻, the fit's
column halves are ½(p·s + q·d) and ½(p·s − q·d), so

    ‖Zc − X·H‖² = ½‖Zab − p·s‖² + ½‖Zri − q·d‖².

q is [Re X; Im X] of the complex bases and d the signed weights, so the
second term is the complex error ‖Z − X·d‖². ``_residuals`` computes
both terms from Z itself, summed over frame chunks; it is a sum of
squares, so it does not cancel.

The multiplicative updates read Z through its sign parts, so that every
numerator entry, and the X update's denominator, is a sum of
nonnegative terms and keeps its own relative accuracy however small it
is: formed as half the sum and half the difference of products with
Zab and Zri, an entry far below its partner would be known only to
about ε of the partner and could round below 0, which the update and
``cmf``'s flush would turn into a weight that never recovers. With free
bases ``NmfProblem`` holds Zp and Zn (2F×T each, Zc's bytes, in two
arrays). The H update's numerator is stacked as [Y_L; ΠY_R] from the
column halves of Y = XᵀZc: ``_numerator`` forms Y_L = XᵀZp and
ΠY_R = [X_Rᵀ; X_Lᵀ]·Zn, at the flops of XᵀZc. Its denominator is the
product [G; ΠGΠ]·W with G = XᵀX, which covers both column halves of H.
With fixed bases each frame's weights update on their own, so
``NmfProblem.segment`` gives the problem of a run of frames, sharing the
checked bases and Gram terms and forming its own numerator in a 2F-row
scratch, which holds Zp and then Zn. The numerator is built there only,
so a fixed-basis problem is stepped through its segments.
``cmf.cmf_factorize`` solves runs of at most ``linalg.FRAME_CHUNK``
frames this way, one per thread at a time, so it never forms the whole
numerator. A segment also keeps its numerator's two halves summed,
Y_L + ΠY_R, so its linear term is one ⟨W, ·⟩.

The H update's denominator product is formed at half the flops of the
(4K×2K)·(2K×T) one, from [s; d] (``_sums``). With U and V half the sum
and half the difference of G's two column halves (2K×K each),
GW = U·s + V·d and ΠGΠW = Π(U·s − V·d): two (2K×K)·(K×T) products
(``_stacked_product``). G's entries and W's are nonnegative, so the
direct product sums nonnegative terms; V and d have mixed signs, so the
sum/difference form can cancel. Write a column's entries of [G; ΠGΠ]·W
as D₁₁, D₂₁ (GW) and D₂₂, D₁₂ (ΠGΠW), block (i, j) being the
denominator of block (i, j) of H. D₁₁ and D₁₂ are formed from the same
U·s and V·d entries, as their sum and their difference, and so are D₂₁
and D₂₂; since |V| ≤ U entrywise and |d| ≤ s, each of them is off by
|error| ≲ c·ε·(D₁₁ + D₁₂) (or c·ε·(D₂₁ + D₂₂)), with ε the unit roundoff
and c a small multiple of K. That is relative to the entry itself except
where one entry of a pair is far below its partner: for instance
h⁺ ≪ h⁻ under bases whose positive and negative parts have disjoint
supports, where G's cross blocks vanish and D₁₁ = G₁₁h⁺ ≪ D₁₂ = G₁₁h⁻.
There the small entry is known only to about ε of its partner. The
objective weighs D₁₁ by the small h⁺, so its quadratic term keeps the
direct product's accuracy.

``NmfProblem`` computes ‖Z‖² once, from the complex Z (a segment's from
its Zri), and checks Z finite from it (``linalg.all_finite``): a finite
‖Z‖² has only finite terms, so Z's exact mask is taken only when it is
not finite. With fixed bases G's (U, V) are built with the block bases,
at construction; with free ones a step computes them from its new X and
shares them between the H update and the objective. The objective is the
Gram form ``‖Z‖² − 2⟨H, XᵀZc⟩ + ⟨H, XᵀX H⟩``, which costs no 2F×T
residual; each inner product over H is the sum of two over W, one per
row block of the stacked term.

Its quadratic term is taken from the product the next update needs, so
a step forms one quadratic product fewer. With fixed bases it is
⟨W, [G; ΠGΠ]·W⟩ summed over the two row blocks, and that product becomes
the next H-update denominator. With free bases it is ⟨G, H·Hᵀ⟩, where
H·Hᵀ = [[E, F], [F, E]] with E = h⁺h⁺ᵀ + h⁻h⁻ᵀ and F = h⁺h⁻ᵀ + h⁻h⁺ᵀ
is formed from W·Wᵀ (``_weight_gram``), as sums of nonnegative terms,
and goes into the next X update's denominator. The product is kept as
``NmfState.carried``, which assigning ``NmfState.h`` drops; the step
updates the weights in place, and code outside a step replaces them by
assignment.

The Gram form subtracts terms of size ‖Z‖², so its absolute rounding
error is about 1e-16·‖Z‖²; below ``GRAM_GUARD``·‖Z‖² = 1e-2·‖Z‖² the
direct residual is ½ times the sum of ``_residuals``' two terms instead.
At the guard the Gram form's rounding is then about 1e-14 of the
objective, well inside the 1e-12 to which a history entry must agree
with the direct residual; a lower guard leaves no such margin (at 1e-8
the planted-recovery histories drifted by up to 6e-8, and a
``tol=1e-14`` stop rule fired on Gram rounding noise). The direct
residual r is itself known only to the rounding of its entries, about
ε·‖Z‖ each in this form and in the block form alike, so near an exact
fit two direct forms differ by up to about ε·‖Z‖·‖r‖ rather than by a
fixed fraction of ‖r‖².

A checkpoint's complex error ‖Zri − q·d‖² (``complex_error``) takes the
same Gram form with fixed bases, ‖Z‖² − 2⟨d, qᵀZri⟩ + ⟨d, qᵀq·d⟩, from
terms a step already holds: with ys the segment's summed numerator
Y_L + ΠY_R, qᵀZri = ys[:K] − ys[K:], and qᵀq = 2(V[:K] − V[K:]), so
qᵀq·d = 2(vd[:K] − vd[K:]) of the V·d that the objective's
``_stacked_product`` formed. It costs no product and no 2F×T pass. Below
the same guard, and with free bases, whose V·d is not of the current
weights, it is ``_residuals``' second term, formed directly.
"""

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import all_finite, as_complex_matrix, frame_chunks, frobenius_norm_sq

__all__ = [
    "NmfProblem",
    "NmfState",
    "complex_error",
    "gram_terms",
    "objective",
]

GRAM_GUARD = 1e-2


def _rotated(z: np.ndarray, out=None) -> np.ndarray:
    """[Re z; Im z] of complex ``z``, with twice its rows, written into
    ``out`` when given."""
    return np.concatenate((z.real, z.imag), out=out)


@dataclass
class NmfProblem:
    """The tied problem of complex ``z`` (F×T) at complex rank ``rank``
    (K); see the module docstring. ``fixed_x`` (complex F×K) holds the
    bases constant. The problem takes the complex data and the complex
    rank K, not the block rank 2K, and forms what it needs from them.

    The inputs are checked here: ``z`` nonempty and finite (from its
    ‖Z‖²), ``rank`` at least 1, ``fixed_x`` F×K and finite; ``z`` and
    ``fixed_x`` are kept as complex128. Derived once at construction:
    ``z_norm_sq``; with free bases the sign parts ``zp`` = max(Zri, 0) and
    ``zn`` = max(−Zri, 0) of Zri = [Re Z; Im Z] (2F×T each, Zc's column
    halves); with ``fixed_x`` its 2F×2K block matrix ``xc``, its rotated
    bases ``pq`` = (p, q) = (|Xri|, Xri) with Xri = [Re X; Im X], which
    the residuals read (kept, so that a segment's checkpoints allocate
    no bases-sized arrays), and the sum and difference halves
    ``uv`` = (U, V) of G = XcᵀXc (``gram_terms``). The
    stacked numerator ``xtz`` of fixed bases, ``xtz_sum``, its two halves
    summed, and the ``scratch`` it was formed in are set only by
    ``segment``, so a fixed-basis problem is stepped through a segment
    (``segment(slice(None))`` for all of its frames); they stay None on
    the problem itself and with free bases.
    """

    z: np.ndarray
    rank: int
    fixed_x: Optional[np.ndarray] = None
    z_norm_sq: float = field(init=False, repr=False)
    zp: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    zn: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xc: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    pq: Optional[tuple] = field(init=False, repr=False, default=None)
    uv: Optional[tuple] = field(init=False, repr=False, default=None)
    xtz: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xtz_sum: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    scratch: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.z = as_complex_matrix(self.z)
        if self.z.size == 0:
            raise ValueError("input matrix is empty")
        # a finite ‖Z‖² clears Z of non-finite entries at no extra pass
        self.z_norm_sq = frobenius_norm_sq(self.z)
        if not all_finite(self.z, self.z_norm_sq):
            raise ValueError("input matrix contains non-finite entries")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.fixed_x is None:
            parts = _sign_parts(self.z, _rotated(self.z))
            self.zp = next(parts).copy()
            self.zn = next(parts)
        else:
            self.fixed_x = as_complex_matrix(self.fixed_x)
            if self.fixed_x.shape != (self.z.shape[0], self.rank):
                raise ValueError(
                    f"fixed_x shape {self.fixed_x.shape} incompatible with "
                    f"z rows {self.z.shape[0]} and rank {self.rank}"
                )
            if not np.all(np.isfinite(self.fixed_x)):
                raise ValueError("fixed_x contains non-finite entries")
            # the block bases [[P_r, N_r], [P_i, N_i]] of X's sign parts
            xri = _rotated(self.fixed_x)
            self.xc = np.concatenate((np.maximum(0.0, xri), np.maximum(0.0, -xri)), axis=1)
            self.pq = np.abs(xri), xri
            self.uv = _sum_difference(self.xc.T @ self.xc)

    def segment(self, cols: slice, xtz=None, scratch=None, xtz_sum=None) -> "NmfProblem":
        """The problem of the frames ``cols`` of ``z``, with the same
        fixed bases. It shares this problem's checked bases, ``xc`` and
        Gram terms rather than checking and deriving them again; its ‖Z‖²
        and numerator, built here, are those of its own frames.

        Both are formed in ``scratch`` (2F × frames), which takes the
        frames' Zri, whose ‖·‖² is ‖Z‖², and then in turn its sign parts
        Zp and Zn (``_sign_parts``), from which ``_numerator`` forms the
        numerator; the segment keeps it for its residuals.
        ``xtz_sum`` is Y_L + ΠY_R, with which the objective's linear term
        is one inner product. ``xtz`` (4K × frames), ``scratch`` and
        ``xtz_sum`` (2K × frames) are allocated here unless given; given,
        they are written in place and the segment allocates nothing
        frame-sized.
        """
        if self.fixed_x is None:
            raise ValueError("only a problem with fixed bases splits into frame segments")
        part = copy.copy(self)
        part.z = self.z[:, cols]
        part.scratch = _rotated(part.z, scratch)
        part.z_norm_sq = frobenius_norm_sq(part.scratch)
        part.xtz = _numerator(self.xc, _sign_parts(part.z, part.scratch), xtz, xtz_sum)
        part.xtz_sum = np.add(part.xtz[: 2 * self.rank], part.xtz[2 * self.rank :], out=xtz_sum)
        return part


def _sign_parts(z: np.ndarray, zri: np.ndarray):
    """The sign parts Zp = max(Zri, 0) and then Zn = max(−Zri, 0) of
    Zri = [Re z; Im z], which ``zri`` holds on entry, each yielded in
    turn in ``zri`` itself: Zn is formed from Zp as Zp − Zri, exactly."""
    yield np.maximum(zri, 0.0, out=zri)
    zri[: len(z)] -= z.real
    zri[len(z) :] -= z.imag
    yield zri


def _numerator(x: np.ndarray, parts, out=None, tmp=None) -> np.ndarray:
    """[Y_L; ΠY_R] of Y = xᵀ·Zc, written into ``out`` (4K × T) and
    returned: Y_L = xᵀ·Zp and Y_R = xᵀ·Zn, for the sign parts Zp and Zn
    that the iterator ``parts`` yields in that order, Y_R formed in
    ``tmp`` (2K × T) and copied in with its row halves swapped; ``out``
    and ``tmp`` are allocated unless given. Every entry is a sum of
    nonnegative terms."""
    k = x.shape[1] // 2
    zp = next(parts)
    out = np.empty((4 * k, zp.shape[1])) if out is None else out
    np.matmul(x.T, zp, out=out[: 2 * k])
    y_r = np.matmul(x.T, next(parts), out=tmp)
    out[2 * k : 3 * k], out[3 * k :] = y_r[k:], y_r[:k]
    return out


def _residuals(problem: NmfProblem, x: np.ndarray, sd: np.ndarray, modulus=True):
    """(‖Zab − p·s‖², ‖Zri − q·d‖²) over ``problem``'s frames, for block
    bases ``x`` (fixed ones as the problem's ``pq``) and [s; d] ``sd``;
    the second is the complex error, which alone is formed without
    ``modulus`` (the first then reads 0). Both are summed over frame
    chunks, each chunk's residual formed in a 2F-row buffer: the
    second's in the whole of it, the first's F rows at a time, the real
    rows and then the imaginary ones, in one half, with the moduli of
    Z's entries in the other. The buffer is a segment's scratch, or else
    is allocated once for the widest chunk. The sums are ``np.vdot``,
    not this module's ``frobenius_norm_sq``, which the benchmark's trace
    times as the objective: a checkpoint's error is not part of it."""
    z, k, rows, scratch = problem.z, problem.rank, len(problem.z), problem.scratch
    p, q = problem.pq or (x[:, :k] + x[:, k:], x[:, :k] - x[:, k:])
    s, d = sd[:k], sd[k:]
    chunks = frame_chunks(z.shape[1])
    flat = np.empty(2 * rows * chunks[0].stop) if scratch is None else scratch.reshape(-1)
    ab = ri = 0.0
    for cols in chunks:
        n = rows * (cols.stop - cols.start)
        buf = flat[: 2 * n]
        r = np.matmul(q, d[:, cols], out=buf.reshape(2 * rows, -1))
        r[:rows] -= z.real[:, cols]
        r[rows:] -= z.imag[:, cols]
        ri += np.vdot(r, r)
        if not modulus:
            continue
        fit, data = buf[:n].reshape(rows, -1), buf[n:].reshape(rows, -1)
        for half, part in ((slice(None, rows), z.real), (slice(rows, None), z.imag)):
            np.matmul(p[half], s[:, cols], out=fit)
            fit -= np.abs(part[:, cols], out=data)
            ab += np.vdot(fit, fit)
    return float(ab), float(ri)


def _direct_residual(problem: NmfProblem, x: np.ndarray, sd: np.ndarray) -> float:
    """‖Zc − X·[W, ΠW]‖², as ½ times the sum of ``_residuals``."""
    return 0.5 * sum(_residuals(problem, x, sd))


class NmfState:
    """The iterate ``x``, ``h`` and its objective history; ``x`` holds
    the 2F×2K block bases and ``h`` the stored-once weights
    W = [h⁺; h⁻].

    ``carried`` is the quadratic product the last objective computed
    from the current ``h`` for the next update: the stacked XᵀX·H when
    the bases are fixed, H·Hᵀ (``_weight_gram``) when they are free, and
    None when no objective has seen this ``h``. Assigning ``h`` drops
    it, so a product never outlives the weights it came from;
    ``cmf.nmf_step`` itself updates the weights in place, and other code
    replaces them by assignment. ``sd`` holds [s; d] of the weights that
    the last objective saw (``_sums``), and is current while ``carried``
    is set.

    ``product``, ``mask``, ``sd`` and ``vd``, when given, are arrays
    that a step writes into instead of allocating: the XᵀX·H of the H
    update (2·len(h) × cols; with fixed bases the carried one), the mask
    of ``cmf``'s flush of ``h`` (bool, shaped like ``h``), [s; d] and the
    product V·d (each shaped like ``h``), from which ``_stacked_product``
    forms XᵀX·H. A free step also takes ``xtz``, its H-update numerator
    (2·len(h) × cols), and ``xwork``, two arrays shaped like ``x`` for its
    X update. An ``sd`` not given, and with fixed bases a ``vd``, is
    allocated by the first objective and then reused; the others not
    given are allocated at each step.
    """

    def __init__(
        self, x, h, product=None, mask=None, sd=None, vd=None, xtz=None, xwork=(None, None)
    ):
        self.x = x
        self.h = h
        self.objective_history = []
        self.product, self.mask, self.sd, self.vd = product, mask, sd, vd
        self.xtz, self.xwork = xtz, xwork

    @property
    def h(self) -> np.ndarray:
        return self._h

    @h.setter
    def h(self, value: np.ndarray) -> None:
        self._h = value
        self.carried = None


def _sum_difference(xtx: np.ndarray):
    """(U, V): half the sum and half the difference of the two column
    halves of G = ``xtx``, each a C-contiguous 2K×K array."""
    k = len(xtx) // 2
    left, right = xtx[:, :k], xtx[:, k:]
    return 0.5 * (left + right), 0.5 * (left - right)


def _swap(a: np.ndarray) -> np.ndarray:
    """Π·a: a copy of ``a`` with its two row halves exchanged."""
    n = len(a) // 2
    return np.concatenate((a[n:], a[:n]))


def _sums(w: np.ndarray, out=None) -> np.ndarray:
    """[s; d] = [h⁺ + h⁻; h⁺ − h⁻] of W = [h⁺; h⁻], written into ``out``
    (shaped like ``w``, allocated unless given) and returned."""
    k = len(w) // 2
    out = np.empty_like(w) if out is None else out
    np.add(w[:k], w[k:], out=out[:k])
    np.subtract(w[:k], w[k:], out=out[k:])
    return out


def _weight_gram(w: np.ndarray) -> np.ndarray:
    """H·Hᵀ = W·Wᵀ + Π·W·Wᵀ·Π of H = [W, ΠW], 2K×2K, without forming H:
    [[E, F], [F, E]] with E = h⁺h⁺ᵀ + h⁻h⁻ᵀ and F = h⁺h⁻ᵀ + h⁻h⁺ᵀ, each
    entry a sum of nonnegative terms."""
    wwt = w @ w.T
    return wwt + _swap(_swap(wwt).T).T


def _stacked_product(uv, sd: np.ndarray, out=None, vd=None) -> np.ndarray:
    """[G; ΠGΠ]·W from ``uv`` = (U, V) and W's [s; d] ``sd``, written
    into ``out`` (4K × T) and returned: GW = U·s + V·d and
    ΠGΠW = Π(U·s − V·d), at half the flops of the direct product; see
    the module docstring for its rounding. U·s is formed in GW's rows of
    ``out`` and V·d in ``vd`` (shaped like ``sd``); either not given is
    allocated."""
    u, v = uv
    k = len(sd) // 2
    out = np.empty((2 * len(sd), sd.shape[1])) if out is None else out
    vd = np.empty_like(sd) if vd is None else vd
    top, bottom = out[: 2 * k], out[2 * k :]
    np.matmul(u, sd[:k], out=top)
    np.matmul(v, sd[k:], out=vd)
    np.subtract(top[k:], vd[k:], out=bottom[:k])
    np.subtract(top[:k], vd[:k], out=bottom[k:])
    top += vd
    return out


def gram_terms(problem: NmfProblem, x: np.ndarray, out=None):
    """The Gram terms of bases ``x``: the H update's stacked numerator
    [Y_L; ΠY_R], written into ``out`` when given, and G's (U, V) of
    ``_sum_difference``; when the bases are fixed, the segment's
    numerator and the terms built at construction."""
    if problem.fixed_x is not None:
        return problem.xtz, problem.uv
    return _numerator(x, iter((problem.zp, problem.zn)), out), _sum_difference(x.T @ x)


def _stacked_vdot(h: np.ndarray, stacked: np.ndarray) -> float:
    """⟨H, ·⟩ of a stacked term: the sum of ⟨W, block⟩ over its two row
    blocks."""
    return np.vdot(h, stacked[: len(h)]) + np.vdot(h, stacked[len(h) :])


def objective(problem: NmfProblem, state: NmfState, xtz, uv) -> float:
    """‖Zc − XH‖² of ``state`` from the Gram terms of ``gram_terms``; the
    direct residual below ``GRAM_GUARD``·‖Z‖², where the Gram form
    cancels. [s; d] of the weights goes into ``state.sd``, and with fixed
    bases V·d into ``state.vd``, for ``complex_error``. The quadratic
    term is ⟨H, XᵀX·H⟩ with fixed bases and ⟨G, H·Hᵀ⟩, G = [U + V, U − V],
    with free ones: the product the next update needs, XᵀX·H or H·Hᵀ, is
    left on ``state.carried``. The linear term reads the segment's
    ``xtz_sum`` with fixed bases and ``xtz`` with free ones."""
    h = state.h
    sd = state.sd = _sums(h, state.sd)
    if problem.fixed_x is not None:
        state.vd = np.empty_like(sd) if state.vd is None else state.vd
        state.carried = _stacked_product(uv, sd, state.product, state.vd)
        quad = _stacked_vdot(h, state.carried)
        linear = np.vdot(h, problem.xtz_sum)
    else:
        state.carried, (u, v) = _weight_gram(h), uv
        quad = np.vdot(np.hstack((u + v, u - v)), state.carried)  # ⟨G, H·Hᵀ⟩
        linear = _stacked_vdot(h, xtz)
    gram = problem.z_norm_sq - 2.0 * linear + quad
    if gram < GRAM_GUARD * problem.z_norm_sq:
        return _direct_residual(problem, state.x, sd)
    return float(gram)


def complex_error(problem: NmfProblem, state: NmfState) -> float:
    """The complex error ‖Zri − q·d‖² = ‖Z − X·d‖² of ``state``, with q
    the bases' Xri and d the d of ``state.sd``. With fixed bases, after
    an objective has seen the current weights, it is the Gram form
    ‖Z‖² − 2⟨d, qᵀZri⟩ + ⟨d, qᵀq·d⟩ from terms the step already holds:
    qᵀZri = ys[:K] − ys[K:] of the segment's ``xtz_sum`` ys, and
    qᵀq = 2(V[:K] − V[K:]), so qᵀq·d = 2(vd[:K] − vd[K:]) of the
    ``state.vd`` = V·d that the objective left; it costs no product.
    Below ``GRAM_GUARD``·‖Z‖², where that form cancels, with free bases,
    and when no objective has seen the weights, it is the second term of
    ``_residuals``, formed directly."""
    k = problem.rank
    if problem.fixed_x is not None and state.carried is not None:
        d, ys, vd = state.sd[k:], problem.xtz_sum, state.vd
        linear = np.vdot(d, ys[:k]) - np.vdot(d, ys[k:])
        quad = 2.0 * (np.vdot(d, vd[:k]) - np.vdot(d, vd[k:]))
        gram = problem.z_norm_sq - 2.0 * linear + quad
        if gram >= GRAM_GUARD * problem.z_norm_sq:
            return float(gram)
    return _residuals(problem, state.x, state.sd, modulus=False)[1]
