"""The tied nonnegative problem of the complex-factorization reduction
and its algebra: the problem, the state of a solve with the terms of its
bases, the residuals and the objective. The update step
(``cmf.nmf_step``), the iterate-and-stop loop and the seeded start live
in ``cmf``.

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
arrays). The tied H update of ``cmf.nmf_step`` multiplies W by the
summed numerator over the summed denominator of its two column blocks.
With Y = XᵀZc and G = XᵀX, its numerator is ys = Y_L + ΠY_R:
``_numerator`` forms Y_L = XᵀZp and Y_R = XᵀZn, at the flops of XᵀZc,
and adds Y_R's row halves crosswise. Its denominator is GW + ΠGΠW:
the gradient of ½‖Zc − X·[W, ΠW]‖² over W is GW + ΠGΠW − ys.

The terms of the bases that a step reads are held by the solve's
``NmfState``, for its current bases, and formed once per bases: (Ũ, Ṽ)
(below) and the summed numerator ys. ``NmfState.set_part`` forms them
when it points the state at a part. With fixed bases (Ũ, Ṽ) is the
problem's, built from its ``pq`` at construction. Each frame's weights
then update on their own, so the problem is solved in parts, runs of
frames: ``set_part`` forms a part's numerator in the state's 2F-row
scratch, which holds Zri, then Zp and then Zn, and ``cmf.cmf_factorize``
solves parts of at most ``linalg.FRAME_CHUNK`` frames, one per thread at
a time, so it never forms the whole numerator. With free bases the part
is all frames, since the X update couples them, and
``NmfState.bases_terms`` forms the terms from the bases and the
problem's Zp and Zn, at ``set_part`` and again after each step's X
update; (Ũ, Ṽ) then comes from G's blocks.

The H update's denominator costs two (K×K)·(K×T) products, half the
flops of the (2K×2K)·(2K×T) product GW alone, from [s; d] (``_sums``).
With Ũ = ½pᵀp and Ṽ = ½qᵀq (K×K each; with free bases
Ũ = ½(G₁₁ + G₁₂ + G₂₁ + G₂₂) and Ṽ = ½(G₁₁ − G₁₂ − G₂₁ + G₂₂) of G's
K×K blocks), a = Ũ·s and b = Ṽ·d give GW + ΠGΠW = [a + b; a − b]
(``_summed_product``). G's entries and W's are nonnegative, so the
direct sum of products sums nonnegative terms; Ṽ and d have mixed
signs, so a + b and a − b can cancel. Since |Ṽ| ≤ Ũ entrywise and
|d| ≤ s, |b| ≤ a, and each of the pair is off by
|error| ≲ c·ε·(top + bottom) = 2c·ε·a, with ε the unit roundoff and c a
small multiple of K. That is relative to the entry itself except where
one entry of a pair is far below its partner: for instance h⁺ ≪ h⁻
under bases whose positive and negative parts have disjoint supports,
where G's cross blocks vanish and the top entry (G₁₁ + G₂₂)·h⁺ is far
below the bottom one, (G₁₁ + G₂₂)·h⁻. There the small entry is known
only to about ε of its partner; it multiplies the small h⁺, and the
objective's quadratic term ⟨s, a⟩ + ⟨d, b⟩ = ½‖p·s‖² + ½‖q·d‖² sums two
nonnegative terms.

``NmfProblem`` computes ‖Z‖² once, from the complex Z (a fixed-basis
part's from its Zri, in ``NmfState.set_part``), and checks Z finite
from it (``linalg.all_finite``): a finite ‖Z‖² has only finite terms,
so Z's exact mask is taken only when it is not finite. The objective is
the Gram form ``‖Z‖² − 2⟨H, XᵀZc⟩ + ⟨H, XᵀX H⟩``, which costs no 2F×T
residual and reads the state's terms of the bases. Its linear term is
⟨W, Y_L + ΠY_R⟩, one inner product over W, for free and fixed bases
alike.

Its quadratic term is ⟨H, G·H⟩ = ⟨W, GW + ΠGΠW⟩ = ⟨s, a⟩ + ⟨d, b⟩,
for free and fixed bases alike, from the H-update denominator
GW + ΠGΠW (``_summed_product``), which is kept as
``NmfState.carried``. With fixed bases it is the next H update's
denominator, so a step forms one quadratic product fewer. With free
bases the step's X update changes the bases, and the step forms it
again from the new bases' (Ũ, Ṽ): two (K×K)·(K×T) products, about
K/(8F) of a free step's flops. ``cmf._iterate`` runs an objective
before the first step and every step ends with one, so a step and a
checkpoint always find the terms of the current weights; on a state
that no objective has seen they raise ``RuntimeError`` rather than read
what the state's buffers hold from another iterate.

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
same Gram form, ‖Z‖² − 2⟨d, qᵀZri⟩ + ⟨d, qᵀq·d⟩, for free and fixed
bases alike, from terms a step already holds: with ys the part's
summed numerator Y_L + ΠY_R, qᵀZri = ys[:K] − ys[K:], and qᵀq·d = 2b,
so the quadratic term is 2⟨d, b⟩ of the b = Ṽ·d that the objective's
``_summed_product`` formed. It costs no product and no 2F×T pass. Below
the same guard it is ``_residuals``' second term, formed directly.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import _check_integer
from .linalg import FRAME_CHUNK, all_finite, as_complex_matrix, frame_chunks, frobenius_norm_sq

__all__ = [
    "NmfProblem",
    "NmfState",
    "complex_error",
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
    ‖Z‖²), ``rank`` an integer of at least 1, ``fixed_x`` F×K and
    finite; ``z`` and ``fixed_x`` are kept as complex128. Derived once
    at construction: ``z_norm_sq``; with free bases the sign parts
    ``zp`` = max(Zri, 0) and ``zn`` = max(−Zri, 0) of Zri = [Re Z; Im Z]
    (2F×T each, Zc's column halves); with ``fixed_x`` its 2F×2K block
    matrix ``xc``, its rotated bases ``pq`` = (p, q) = (|Xri|, Xri) with
    Xri = [Re X; Im X], which the direct residuals read (kept, so that
    one allocates no bases-sized arrays), and from them ``uv`` = (Ũ, Ṽ)
    = (½pᵀp, ½qᵀq), K×K each, which every part's state takes. Nothing
    that depends on the iterate or on a part's frames is held here; that
    is the state's.
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
        _check_integer("rank", self.rank, 1)
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
            p, q = self.pq = np.abs(xri), xri
            self.uv = 0.5 * (p.T @ p), 0.5 * (q.T @ q)


def _sign_parts(z: np.ndarray, zri: np.ndarray):
    """The sign parts Zp = max(Zri, 0) and then Zn = max(−Zri, 0) of
    Zri = [Re z; Im z], which ``zri`` holds on entry, each yielded in
    turn in ``zri`` itself: Zn is formed from Zp as Zp − Zri, exactly."""
    yield np.maximum(zri, 0.0, out=zri)
    zri[: len(z)] -= z.real
    zri[len(z) :] -= z.imag
    yield zri


def _numerator(x: np.ndarray, parts, out: np.ndarray, y_r: np.ndarray) -> np.ndarray:
    """The summed numerator ys = Y_L + ΠY_R of Y = xᵀ·Zc, written into
    ``out`` (2K × T) and returned: Y_L = xᵀ·Zp and Y_R = xᵀ·Zn, for the
    sign parts Zp and Zn that the iterator ``parts`` yields in that
    order, Y_R formed in ``y_r`` (2K × T) and added with its row halves
    swapped. Every entry of ys is a sum of nonnegative terms."""
    k = x.shape[1] // 2
    np.matmul(x.T, next(parts), out=out)
    np.matmul(x.T, next(parts), out=y_r)
    out[:k] += y_r[k:]
    out[k:] += y_r[:k]
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
    leading part of each, viewed as rows × frames: the summed numerator
    ``xtz_sum`` = Y_L + ΠY_R and the H-update denominator ``product`` =
    GW + ΠGΠW, in which the update's ratio is formed and which holds Y_R
    while a numerator is formed; the weights ``h`` = W = [h⁺; h⁻], the
    mask ``mask`` of ``cmf``'s flush of them and their sums and
    differences ``sd`` = [s; d] (``_sums``), 2K rows each; the product
    ``vd`` = b = Ṽ·d (K rows); and ``scratch``, which holds the
    residuals (``_residuals``) and, with fixed bases, a part's Zri and
    then its sign parts while its numerator is built: 2F × ``width``
    entries with fixed bases, and with free ones 2F ×
    ``linalg.FRAME_CHUNK`` at most. With free bases the X update also
    has ``xnum`` and ``xratio``, shaped like the bases, and their flush
    mask ``xmask``.
    Each buffer starts on a 64-byte cache line (``_aligned``), where
    numpy's own allocations here start 16 bytes past one; the
    elementwise passes over them run faster aligned, and alignment
    changes no result.

    ``x`` is the part's 2F×2K block bases and ``uv`` the (Ũ, Ṽ) of
    their G = XᵀX (K×K each). With ``xtz_sum`` these are the terms of
    the bases that a step reads, formed by ``set_part`` and, for free
    bases, again by ``bases_terms`` after each X update (see the module
    docstring). ``objective_history`` holds the part's objectives.
    ``carried`` is ``product`` once the last objective has formed
    GW + ΠGΠW of the current weights in it, for free and fixed bases
    alike. A step consumes it, and None means no objective has seen the
    weights since.
    """

    def __init__(self, problem: NmfProblem, width: int):
        rows, k = len(problem.z), problem.rank
        self._flat = {
            name: (height, _aligned(height * width, dtype))
            for name, height, dtype in (
                ("product", 2 * k, np.float64),
                ("xtz_sum", 2 * k, np.float64),
                ("h", 2 * k, np.float64),
                ("mask", 2 * k, bool),
                ("sd", 2 * k, np.float64),
                ("vd", k, np.float64),
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
        ``frames`` and return it: the bases ``x`` with their terms, those
        frames of the weight ``halves`` (h⁺, h⁻) copied into its weights,
        a fresh history and no carried product. With fixed bases the
        terms are the problem's ``uv`` and the part's summed numerator,
        formed here with its ‖Z‖² from its frames' Zri in ``scratch``;
        with free ones the part is all frames, since the X update couples
        them, and ``bases_terms`` forms them."""
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
            return self.bases_terms(problem)
        zri = self.scratch[: 2 * rows * n].reshape(2 * rows, n)
        np.concatenate((self.z.real, self.z.imag), out=zri)
        self.z_norm_sq = frobenius_norm_sq(zri)
        self.uv = problem.uv
        _numerator(problem.xc, _sign_parts(self.z, zri), self.xtz_sum, self.product)
        return self

    def bases_terms(self, problem: NmfProblem):
        """Form the terms of the free bases X = ``x`` that a step reads
        and return the state: the (Ũ, Ṽ) ``uv`` of G = XᵀX
        (``_tied_gram``), and the summed numerator ``xtz_sum``
        (``_numerator``) from the problem's sign parts. ``set_part``
        calls it, and ``cmf.nmf_step`` after each X update."""
        x = self.x
        self.uv = _tied_gram(x.T @ x)
        _numerator(x, iter((problem.zp, problem.zn)), self.xtz_sum, self.product)
        return self


def _tied_gram(g: np.ndarray):
    """(Ũ, Ṽ) = (½pᵀp, ½qᵀq) of block bases X = [X_L, X_R] from their
    G = XᵀX = ``g``, with p = X_L + X_R and q = X_L − X_R:
    ½(G₁₁ + G₁₂ + G₂₁ + G₂₂) and ½(G₁₁ − G₁₂ − G₂₁ + G₂₂) of its K×K
    blocks, each a C-contiguous K×K array."""
    k = len(g) // 2
    diagonal, cross = g[:k, :k] + g[k:, k:], g[:k, k:] + g[k:, :k]
    return 0.5 * (diagonal + cross), 0.5 * (diagonal - cross)


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


def _summed_product(uv, sd: np.ndarray, out: np.ndarray, vd: np.ndarray) -> float:
    """GW + ΠGΠW = [a + b; a − b] from ``uv`` = (Ũ, Ṽ) and W's [s; d]
    ``sd``, with a = Ũ·s and b = Ṽ·d, written into ``out`` (shaped like
    ``sd``), and b into ``vd`` (K × T); see the module docstring for its
    rounding. Returns ⟨W, GW + ΠGΠW⟩ = ⟨H, G·H⟩ as ⟨s, a⟩ + ⟨d, b⟩, a
    sum of two nonnegative terms."""
    u, v = uv
    k = len(sd) // 2
    s, d = sd[:k], sd[k:]
    a = np.matmul(u, s, out=out[:k])
    b = np.matmul(v, d, out=vd)
    quad = np.vdot(s, a) + np.vdot(d, b)
    np.subtract(a, b, out=out[k:])
    a += b
    return quad


def objective(problem: NmfProblem, state: NmfState) -> float:
    """‖Zc − XH‖² of ``state``, from the terms of its bases; the direct
    residual below ``GRAM_GUARD``·‖Z‖², where the Gram form cancels. The
    linear term is ⟨W, Y_L + ΠY_R⟩ of ``state.xtz_sum``, and the
    quadratic term ⟨H, G·H⟩ = ⟨s, a⟩ + ⟨d, b⟩ of GW + ΠGΠW
    (``_summed_product`` of ``state.uv``), which is left in
    ``state.product`` and on ``state.carried`` for the next H update.
    [s; d] of the weights goes into ``state.sd`` and b = Ṽ·d into
    ``state.vd``, for ``complex_error``."""
    h = state.h
    quad = _summed_product(state.uv, _sums(h, state.sd), state.product, state.vd)
    state.carried = state.product
    gram = state.z_norm_sq - 2.0 * np.vdot(h, state.xtz_sum) + quad
    if gram < GRAM_GUARD * state.z_norm_sq:
        return _direct_residual(problem, state)
    return float(gram)


def complex_error(problem: NmfProblem, state: NmfState) -> float:
    """The complex error ‖Zri − q·d‖² = ‖Z − X·d‖² of ``state``, with q
    the bases' Xri and d the d of ``state.sd``, after an objective has
    seen the current weights; before one, ``RuntimeError``. It is the
    Gram form ‖Z‖² − 2⟨d, qᵀZri⟩ + ⟨d, qᵀq·d⟩ from terms the step
    already holds: qᵀZri = ys[:K] − ys[K:] of the summed numerator
    ``state.xtz_sum`` ys, and qᵀq·d = 2b of the ``state.vd`` = b = Ṽ·d
    that the objective left; it costs no product. Below
    ``GRAM_GUARD``·‖Z‖², where that form cancels, it is the second term
    of ``_residuals``, formed directly."""
    if state.carried is None:
        raise RuntimeError("no objective has seen the state's weights")
    k = problem.rank
    d, ys = state.sd[k:], state.xtz_sum
    linear = np.vdot(d, ys[:k]) - np.vdot(d, ys[k:])
    gram = state.z_norm_sq - 2.0 * linear + 2.0 * np.vdot(d, state.vd)
    if gram < GRAM_GUARD * state.z_norm_sq:
        return _residuals(problem, state, modulus=False)[1]
    return float(gram)
