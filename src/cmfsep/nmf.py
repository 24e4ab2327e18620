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
With fixed bases each frame's weights update on their own, so the
problem is solved in parts, runs of frames: ``NmfState.set_part`` forms
a part's numerator in the state's 2F-row scratch, which holds Zri, then
Zp and then Zn. ``cmf.cmf_factorize`` solves parts of at most
``linalg.FRAME_CHUNK`` frames, one per thread at a time, so it never
forms the whole numerator. The state also keeps the numerator's two
halves summed, Y_L + ΠY_R, so a part's linear term is one ⟨W, ·⟩.

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

``NmfProblem`` computes ‖Z‖² once, from the complex Z (a fixed-basis
part's from its Zri, in ``NmfState.set_part``), and checks Z finite
from it (``linalg.all_finite``): a finite ‖Z‖² has only finite terms,
so Z's exact mask is taken only when it is not finite. With fixed bases G's (U, V) are built with the block bases,
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
``NmfState.carried``. ``cmf._iterate`` runs an objective before the
first step and every step ends with one, so a step and a checkpoint
always find the product of the current weights; on a state that no
objective has seen they raise ``RuntimeError`` rather than read what
the state's buffers hold from another iterate.

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
terms a step already holds: with ys the part's summed numerator
Y_L + ΠY_R, qᵀZri = ys[:K] − ys[K:], and qᵀq = 2(V[:K] − V[K:]), so
qᵀq·d = 2(vd[:K] − vd[K:]) of the V·d that the objective's
``_stacked_product`` formed. It costs no product and no 2F×T pass. Below
the same guard, and with free bases, whose V·d is not of the current
weights, it is ``_residuals``' second term, formed directly.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import FRAME_CHUNK, all_finite, as_complex_matrix, frame_chunks, frobenius_norm_sq

__all__ = [
    "NmfProblem",
    "NmfState",
    "complex_error",
    "gram_terms",
    "objective",
]

GRAM_GUARD = 1e-2


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
    the residuals read (kept, so that a checkpoint allocates no
    bases-sized arrays), and the sum and difference halves
    ``uv`` = (U, V) of G = XcᵀXc (``gram_terms``). Nothing that depends on
    the iterate or on a part's frames is held here; that is the state's.
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
            parts = _sign_parts(self.z, np.concatenate((self.z.real, self.z.imag)))
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
            xri = np.concatenate((self.fixed_x.real, self.fixed_x.imag))
            self.xc = np.concatenate((np.maximum(0.0, xri), np.maximum(0.0, -xri)), axis=1)
            self.pq = np.abs(xri), xri
            self.uv = _sum_difference(self.xc.T @ self.xc)


def _sign_parts(z: np.ndarray, zri: np.ndarray):
    """The sign parts Zp = max(Zri, 0) and then Zn = max(−Zri, 0) of
    Zri = [Re z; Im z], which ``zri`` holds on entry, each yielded in
    turn in ``zri`` itself: Zn is formed from Zp as Zp − Zri, exactly."""
    yield np.maximum(zri, 0.0, out=zri)
    zri[: len(z)] -= z.real
    zri[len(z) :] -= z.imag
    yield zri


def _numerator(x: np.ndarray, parts, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """[Y_L; ΠY_R] of Y = xᵀ·Zc, written into ``out`` (4K × T) and
    returned: Y_L = xᵀ·Zp and Y_R = xᵀ·Zn, for the sign parts Zp and Zn
    that the iterator ``parts`` yields in that order, Y_R formed in
    ``tmp`` (2K × T) and copied in with its row halves swapped. Every
    entry is a sum of nonnegative terms."""
    k = x.shape[1] // 2
    np.matmul(x.T, next(parts), out=out[: 2 * k])
    y_r = np.matmul(x.T, next(parts), out=tmp)
    out[2 * k : 3 * k], out[3 * k :] = y_r[k:], y_r[:k]
    return out


def _residuals(problem: NmfProblem, state: "NmfState", modulus=True):
    """(‖Zab − p·s‖², ‖Zri − q·d‖²) over the frames of ``state``'s part,
    for its bases (fixed ones as the problem's ``pq``) and its [s; d];
    the second is the complex error, which alone is formed without
    ``modulus`` (the first then reads 0). Both are summed over frame
    chunks, each chunk's residual formed in the state's ``scratch``: the
    second's in 2F rows of it, the first's F rows at a time, the real
    rows and then the imaginary ones, in one half, with the moduli of
    Z's entries in the other. The sums are ``np.vdot``, not this
    module's ``frobenius_norm_sq``, which the benchmark's trace times as
    the objective: a checkpoint's error is not part of it."""
    z, k, rows, x = state.z, problem.rank, len(state.z), state.x
    p, q = problem.pq or (x[:, :k] + x[:, k:], x[:, :k] - x[:, k:])
    s, d = state.sd[:k], state.sd[k:]
    ab = ri = 0.0
    for cols in frame_chunks(z.shape[1]):
        n = rows * (cols.stop - cols.start)
        buf = state.scratch[: 2 * n]
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


def _direct_residual(problem: NmfProblem, state: "NmfState") -> float:
    """‖Zc − X·[W, ΠW]‖² of ``state``, as ½ times the sum of
    ``_residuals``."""
    return 0.5 * sum(_residuals(problem, state))


def _aligned(size: int, dtype=np.float64) -> np.ndarray:
    """An uninitialised flat array of ``size`` entries whose data starts
    on a 64-byte boundary: a view into a 64 bytes longer byte buffer."""
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype)


class NmfState:
    """One solve thread's iterate and every array its steps write, for
    parts of ``problem`` of up to ``width`` frames. It is built once and
    then pointed at each part the thread solves in turn
    (``set_part``), so its steps allocate nothing frame-sized: what a
    step allocated afresh would grow and trim the heap at every step and
    fault its pages in again, and what a thread frees stays resident in
    that thread's allocator arena.

    Its buffers are flat, so that a narrower part takes a contiguous
    leading part of each, viewed as rows × frames: the stacked numerator
    ``xtz`` and the XᵀX·H ``product`` of the H update, in which its
    ratio is formed (4K rows each); ``xtz_sum``, which holds Y_R while a
    numerator is formed and then, with fixed bases, the numerator's
    summed halves Y_L + ΠY_R; the weights ``h`` = W = [h⁺; h⁻], the mask
    ``mask`` of ``cmf``'s flush of them, their sums and differences
    ``sd`` = [s; d] (``_sums``) and the product ``vd`` = V·d (2K rows
    each); and ``scratch``, which holds the residuals (``_residuals``)
    and, with fixed bases, a part's Zri and then its sign parts while its
    numerator is built: 2F × ``width`` entries with fixed bases, and with
    free ones 2F × ``linalg.FRAME_CHUNK`` at most. With free bases the X
    update also has ``xnum`` and ``xratio``, shaped like the bases, and
    their flush mask ``xmask``.
    Each buffer starts on a 64-byte cache line (``_aligned``), where
    numpy's own allocations here start 16 bytes past one; the
    elementwise passes over them run faster aligned, and alignment
    changes no result.

    ``x`` is the part's 2F×2K block bases and ``objective_history`` its
    objectives. ``carried`` is the quadratic product the last objective
    computed from the current weights for the next update: the stacked
    XᵀX·H, in ``product``, when the bases are fixed, H·Hᵀ
    (``_weight_gram``) when they are free. A step consumes it, and None
    means no objective has seen the weights since.
    """

    def __init__(self, problem: NmfProblem, width: int):
        rows, k = len(problem.z), problem.rank
        self._flat = {
            name: (height, _aligned(height * width, dtype))
            for name, height, dtype in (
                ("xtz", 4 * k, np.float64),
                ("product", 4 * k, np.float64),
                ("xtz_sum", 2 * k, np.float64),
                ("h", 2 * k, np.float64),
                ("mask", 2 * k, bool),
                ("sd", 2 * k, np.float64),
                ("vd", 2 * k, np.float64),
            )
        }
        # a fixed part's Zri, or with free bases one chunk's residual
        chunk = width if problem.fixed_x is not None else min(width, FRAME_CHUNK)
        self.scratch = _aligned(2 * rows * chunk)
        if problem.fixed_x is None:
            shape = (2 * rows, 2 * k)
            self.xnum, self.xratio = (_aligned(4 * rows * k).reshape(shape) for _ in range(2))
            self.xmask = _aligned(4 * rows * k, bool).reshape(shape)

    def set_part(self, problem: NmfProblem, x: np.ndarray, halves, frames=slice(None)):
        """Point the state at the part of ``problem`` over the frames
        ``frames`` and return it: the bases ``x``, those frames of the
        weight ``halves`` (h⁺, h⁻) copied into its weights, a fresh
        history and no carried product. With fixed bases the part's ‖Z‖²
        and numerator are formed here, from its frames' Zri in
        ``scratch``; with free ones the part is all frames, since the X
        update couples them, and a step forms the numerator."""
        k, rows = problem.rank, len(problem.z)
        self.z = problem.z[:, frames]
        n = self.z.shape[1]
        if problem.fixed_x is None and n != problem.z.shape[1]:
            raise ValueError("only a problem with fixed bases splits into frame segments")
        for name, (height, flat) in self._flat.items():
            setattr(self, name, flat[: height * n].reshape(height, n))
        self.h[:k], self.h[k:] = (half[:, frames] for half in halves)
        self.x, self.objective_history, self.carried = x, [], None
        if problem.fixed_x is None:
            self.z_norm_sq = problem.z_norm_sq
            return self
        zri = self.scratch[: 2 * rows * n].reshape(2 * rows, n)
        np.concatenate((self.z.real, self.z.imag), out=zri)
        self.z_norm_sq = frobenius_norm_sq(zri)
        _numerator(problem.xc, _sign_parts(self.z, zri), self.xtz, self.xtz_sum)
        np.add(self.xtz[: 2 * k], self.xtz[2 * k :], out=self.xtz_sum)
        return self


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


def _sums(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[s; d] = [h⁺ + h⁻; h⁺ − h⁻] of W = [h⁺; h⁻], written into ``out``
    (shaped like ``w``) and returned."""
    k = len(w) // 2
    np.add(w[:k], w[k:], out=out[:k])
    np.subtract(w[:k], w[k:], out=out[k:])
    return out


def _weight_gram(w: np.ndarray) -> np.ndarray:
    """H·Hᵀ = W·Wᵀ + Π·W·Wᵀ·Π of H = [W, ΠW], 2K×2K, without forming H:
    [[E, F], [F, E]] with E = h⁺h⁺ᵀ + h⁻h⁻ᵀ and F = h⁺h⁻ᵀ + h⁻h⁺ᵀ, each
    entry a sum of nonnegative terms."""
    wwt = w @ w.T
    return wwt + _swap(_swap(wwt).T).T


def _stacked_product(uv, sd: np.ndarray, out: np.ndarray, vd: np.ndarray) -> np.ndarray:
    """[G; ΠGΠ]·W from ``uv`` = (U, V) and W's [s; d] ``sd``, written
    into ``out`` (4K × T) and returned: GW = U·s + V·d and
    ΠGΠW = Π(U·s − V·d), at half the flops of the direct product; see
    the module docstring for its rounding. U·s is formed in GW's rows of
    ``out`` and V·d in ``vd`` (shaped like ``sd``)."""
    u, v = uv
    k = len(sd) // 2
    top, bottom = out[: 2 * k], out[2 * k :]
    np.matmul(u, sd[:k], out=top)
    np.matmul(v, sd[k:], out=vd)
    np.subtract(top[k:], vd[k:], out=bottom[:k])
    np.subtract(top[:k], vd[:k], out=bottom[k:])
    top += vd
    return out


def gram_terms(problem: NmfProblem, state: NmfState):
    """G's (U, V) of ``_sum_difference`` for ``state``'s bases, with the
    H update's stacked numerator [Y_L; ΠY_R] in ``state.xtz``: with free
    bases both formed here, with fixed ones the terms built at
    construction and the numerator that ``set_part`` formed."""
    if problem.fixed_x is not None:
        return problem.uv
    x = state.x
    _numerator(x, iter((problem.zp, problem.zn)), state.xtz, state.xtz_sum)
    return _sum_difference(x.T @ x)


def _stacked_vdot(h: np.ndarray, stacked: np.ndarray) -> float:
    """⟨H, ·⟩ of a stacked term: the sum of ⟨W, block⟩ over its two row
    blocks."""
    return np.vdot(h, stacked[: len(h)]) + np.vdot(h, stacked[len(h) :])


def objective(problem: NmfProblem, state: NmfState, uv) -> float:
    """‖Zc − XH‖² of ``state`` from G's ``uv`` of ``gram_terms`` and the
    state's numerator; the direct residual below ``GRAM_GUARD``·‖Z‖²,
    where the Gram form cancels. [s; d] of the weights goes into
    ``state.sd``, and with fixed bases V·d into ``state.vd``, for
    ``complex_error``. The quadratic term is ⟨H, XᵀX·H⟩ with fixed bases
    and ⟨G, H·Hᵀ⟩, G = [U + V, U − V], with free ones: the product the
    next update needs, XᵀX·H or H·Hᵀ, is left on ``state.carried``. The
    linear term reads ``state.xtz_sum`` with fixed bases and
    ``state.xtz`` with free ones."""
    h = state.h
    sd = _sums(h, state.sd)
    if problem.fixed_x is not None:
        state.carried = _stacked_product(uv, sd, state.product, state.vd)
        quad = _stacked_vdot(h, state.carried)
        linear = np.vdot(h, state.xtz_sum)
    else:
        state.carried, (u, v) = _weight_gram(h), uv
        quad = np.vdot(np.hstack((u + v, u - v)), state.carried)  # ⟨G, H·Hᵀ⟩
        linear = _stacked_vdot(h, state.xtz)
    gram = state.z_norm_sq - 2.0 * linear + quad
    if gram < GRAM_GUARD * state.z_norm_sq:
        return _direct_residual(problem, state)
    return float(gram)


def complex_error(problem: NmfProblem, state: NmfState) -> float:
    """The complex error ‖Zri − q·d‖² = ‖Z − X·d‖² of ``state``, with q
    the bases' Xri and d the d of ``state.sd``, after an objective has
    seen the current weights; before one, ``RuntimeError``. With fixed
    bases it is the Gram form ‖Z‖² − 2⟨d, qᵀZri⟩ + ⟨d, qᵀq·d⟩ from terms
    the step already holds: qᵀZri = ys[:K] − ys[K:] of the part's
    ``state.xtz_sum`` ys, and qᵀq = 2(V[:K] − V[K:]), so
    qᵀq·d = 2(vd[:K] − vd[K:]) of the ``state.vd`` = V·d that the
    objective left; it costs no product. Below ``GRAM_GUARD``·‖Z‖², where
    that form cancels, and with free bases, it is the second term of
    ``_residuals``, formed directly."""
    if state.carried is None:
        raise RuntimeError("no objective has seen the state's weights")
    if problem.fixed_x is not None:
        k = problem.rank
        d, ys, vd = state.sd[k:], state.xtz_sum, state.vd
        linear = np.vdot(d, ys[:k]) - np.vdot(d, ys[k:])
        quad = 2.0 * (np.vdot(d, vd[:k]) - np.vdot(d, vd[k:]))
        gram = state.z_norm_sq - 2.0 * linear + quad
        if gram >= GRAM_GUARD * state.z_norm_sq:
            return float(gram)
    return _residuals(problem, state, modulus=False)[1]
