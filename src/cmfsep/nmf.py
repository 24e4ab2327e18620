"""The tied nonnegative problem of the complex-factorization reduction
and its algebra: the problem, the iterate, the stacked Gram terms and
the objective. The update step (``cmf.nmf_step``), the iterate-and-stop
loop and the seeded start live in ``cmf``.

The problem is built from complex data Z (F×T) at complex rank K. Its
nonnegative form Zc, the 2F×2T block matrix of Z's split, is factored
as X·H with X 2F×2K and the weights tied as
H = [[h⁺, h⁻], [h⁻, h⁺]] = [W, ΠW], where W = [h⁺; h⁻] is stored alone
and Π swaps its two row halves. The Gram terms are stacked to match:
[Y_L; ΠY_R] from the column halves of Y = XᵀZc, and the product
[G; ΠGΠ]·W with G = XᵀX, which covers both column halves of H.

That product is formed at half the flops of the (4K×2K)·(2K×T) one,
from the sums s = h⁺ + h⁻ and differences d = h⁺ − h⁻ of the tied
weights. With U and V half the sum and half the difference of G's two
column halves (2K×K each), GW = U·s + V·d and ΠGΠW = Π(U·s − V·d):
two (2K×K)·(K×T) products (``_stacked_product``). G's entries and W's
are nonnegative, so the direct product sums nonnegative terms; V and d
have mixed signs, so the sum/difference form can cancel. Write a
column's entries of [G; ΠGΠ]·W as D₁₁, D₂₁ (GW) and D₂₂, D₁₂ (ΠGΠW),
block (i, j) being the denominator of block (i, j) of H. D₁₁ and D₁₂
are formed from the same U·s and V·d entries, as their sum and their
difference, and so are D₂₁ and D₂₂; since |V| ≤ U entrywise and
|d| ≤ s, each of them is off by |error| ≲ c·ε·(D₁₁ + D₁₂) (or
c·ε·(D₂₁ + D₂₂)), with ε the unit roundoff and c a small multiple of
K. That is relative to the entry itself except where one entry of a
pair is far below its partner: for instance h⁺ ≪ h⁻ under bases whose
positive and negative parts have disjoint supports, where G's cross
blocks vanish and D₁₁ = G₁₁h⁺ ≪ D₁₂ = G₁₁h⁻. There the small entry is
known only to about ε of its partner. The objective weighs D₁₁ by
the small h⁺, so its quadratic term keeps the direct product's
accuracy.

``NmfProblem`` computes ‖Z‖² once, from the complex Z (‖Zc‖² = ‖Z‖²).
When the bases are free it assembles Zc, which their update reads at
every step; a free step computes the Gram terms from its new X, U and
V among them, and shares them between the H update and the objective.
When the bases are fixed, G, U and V are built with their block matrix,
at construction. With fixed bases each frame's weights update on their
own, so ``NmfProblem.segment`` gives the problem of a run of frames,
sharing the checked bases and Gram terms and forming the numerator
XᵀZc of its own frames alone (frames t of a run are columns t and T + t
of Zc) from Z's sign parts, one column half of the run's Zc at a time,
without assembling it. The numerator is built there only, so a
fixed-basis problem is stepped through its segments. ``cmf.cmf_factorize``
solves runs of at most ``linalg.FRAME_CHUNK`` frames this way, one per
thread at a time, so it never forms the whole numerator, and a run's Zc
only for the direct residual below. The objective is the Gram form
``‖Z‖² − 2⟨H, XᵀZc⟩ + ⟨H, XᵀX H⟩``, which costs no 2F×2T residual;
each inner product over H is the sum of two over W, one per row block
of the stacked term. A segment also keeps its numerator's two halves
summed, Y_L + ΠY_R, so its linear term is one ⟨W, ·⟩.

Its quadratic term is taken from the product the next update needs,
so a step forms one quadratic product fewer. With fixed bases it is
⟨W, [G; ΠGΠ]·W⟩ summed over the two row blocks, and that product becomes
the next H-update denominator. With free bases it is ⟨XᵀX, H·Hᵀ⟩, and
H·Hᵀ goes into the next X update. The product is kept as
``NmfState.carried``, which assigning ``NmfState.h`` drops; the step
updates the weights in place, and code outside a step replaces them by
assignment.

The Gram form subtracts terms of size ‖Z‖², so its absolute rounding
error is about 1e-16·‖Z‖²; below ``GRAM_GUARD``·‖Z‖² the direct
residual ‖Zc − XH‖² is computed instead, summed over chunks of at most
``linalg.FRAME_CHUNK`` frames, each chunk's Zc and H columns formed from Z and
W. The guard
sits at 1e-3, not lower, because a history entry must agree with the
direct residual to about 1e-12 relative: at 1e-8 the planted-recovery
histories drifted by up to 6e-8, and a ``tol=1e-14`` stop rule fired
on Gram rounding noise.
"""

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    as_complex_matrix,
    assemble_zc,
    frame_chunks,
    frobenius_norm_sq,
    split_complex,
)

__all__ = [
    "NmfProblem",
    "NmfState",
    "gram_terms",
    "objective",
]

GRAM_GUARD = 1e-3


def _block_matrix(z) -> np.ndarray:
    """The 2F×2T nonnegative block matrix of complex ``z``'s split. For
    the frames ``cols`` of Z, ``_block_matrix(z[:, cols])`` holds the
    columns ``cols`` and ``T + cols`` of Zc."""
    return assemble_zc(split_complex(z)).assembled


@dataclass
class NmfProblem:
    """The tied problem of complex ``z`` (F×T) at complex rank ``rank``
    (K); see the module docstring. ``fixed_x`` (complex F×K) holds the
    bases constant. The problem takes the complex data, not their block
    matrices, and the complex rank K, not the block rank 2K: it forms the
    block matrices itself, so that fixed bases need no 2F×2T Zc.

    The inputs are checked here: ``z`` nonempty and finite, ``rank`` at
    least 1, ``fixed_x`` F×K and finite; ``z`` and ``fixed_x`` are kept
    as complex128. Derived once at construction: ``z_norm_sq``; with
    free bases ``zc``, the assembled 2F×2T Zc; with ``fixed_x`` its
    2F×2K block matrix ``xc``, the Gram ``xtx`` = G and its sum and
    difference halves ``uv`` = (U, V) of ``gram_terms``, with ``zc`` left
    None. The stacked numerator ``xtz`` of fixed bases, and ``xtz_sum``,
    its two halves summed, are set only by ``segment``, so a fixed-basis
    problem is stepped through a segment (``segment(slice(None))`` for
    all of its frames); they stay None on the problem itself and with
    free bases.
    """

    z: np.ndarray
    rank: int
    fixed_x: Optional[np.ndarray] = None
    z_norm_sq: float = field(init=False, repr=False)
    zc: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xc: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xtx: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    uv: Optional[tuple] = field(init=False, repr=False, default=None)
    xtz: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    xtz_sum: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.z = as_complex_matrix(self.z)
        if self.z.size == 0:
            raise ValueError("input matrix is empty")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("input matrix contains non-finite entries")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.fixed_x is None:
            self.zc = _block_matrix(self.z)
        else:
            self.fixed_x = as_complex_matrix(self.fixed_x)
            if self.fixed_x.shape != (self.z.shape[0], self.rank):
                raise ValueError(
                    f"fixed_x shape {self.fixed_x.shape} incompatible with "
                    f"z rows {self.z.shape[0]} and rank {self.rank}"
                )
            if not np.all(np.isfinite(self.fixed_x)):
                raise ValueError("fixed_x contains non-finite entries")
            self.xc = _block_matrix(self.fixed_x)
            self.xtx = self.xc.T @ self.xc
            self.uv = _sum_difference(self.xtx)
        self.z_norm_sq = frobenius_norm_sq(self.z)

    def segment(self, cols: slice, xtz=None, scratch=None, xtz_sum=None) -> "NmfProblem":
        """The problem of the frames ``cols`` of ``z``, with the same
        fixed bases. It shares this problem's checked bases, ``xc`` and
        Gram terms rather than checking and deriving them again; its ‖Z‖²
        and numerator, built here, are those of its own frames.

        Both are formed from Z's sign parts, the column halves
        [P_r; P_i] and [N_r; N_i] of the frames' Zc, each in turn in
        ``scratch`` (2F × frames), so no Zc is assembled: ‖Z‖² is the
        sum of their squares, Y_L = Xcᵀ·[P_r; P_i], and ΠY_R takes Xc's
        column halves in swapped order against [N_r; N_i]. ``xtz_sum`` is
        Y_L + ΠY_R, with which the objective's linear term is one inner
        product. ``xtz`` (4K × frames), ``scratch`` and ``xtz_sum``
        (2K × frames) are allocated here unless given; given, they are
        written in place and the segment allocates nothing frame-sized.
        """
        if self.fixed_x is None:
            raise ValueError("only a problem with fixed bases splits into frame segments")
        part = copy.copy(self)
        part.z = self.z[:, cols]
        rows, frames = part.z.shape
        k = self.rank
        part.xtz = np.empty((4 * k, frames)) if xtz is None else xtz
        part.xtz_sum = np.empty((2 * k, frames)) if xtz_sum is None else xtz_sum
        signs = np.empty((2 * rows, frames)) if scratch is None else scratch
        top, bottom = part.xtz[: 2 * k], part.xtz[2 * k :]
        np.matmul(self.xc.T, _sign_parts(part.z, np.maximum, signs), out=top)
        norm = frobenius_norm_sq(signs)
        _sign_parts(part.z, np.minimum, signs)
        np.matmul(self.xc[:, k:].T, signs, out=bottom[:k])
        np.matmul(self.xc[:, :k].T, signs, out=bottom[k:])
        part.z_norm_sq = norm + frobenius_norm_sq(signs)
        np.add(top, bottom, out=part.xtz_sum)
        return part


def _sign_parts(z: np.ndarray, pick, out: np.ndarray) -> np.ndarray:
    """One column half of the Zc of complex ``z``, written into ``out``
    (2F × frames) and returned: [P_r; P_i] with ``pick`` = ``np.maximum``,
    [N_r; N_i] with ``np.minimum``, as ``linalg.split_complex`` forms
    them."""
    rows = len(z)
    pick(0.0, z.real, out=out[:rows])
    pick(0.0, z.imag, out=out[rows:])
    if pick is np.minimum:
        np.negative(out, out=out)
    return out


class NmfState:
    """The iterate ``x``, ``h`` and its objective history; ``x`` holds
    the 2F×2K block bases and ``h`` the stored-once weights
    W = [h⁺; h⁻].

    ``carried`` is the quadratic product the last objective computed
    from the current ``h`` for the next update: the stacked XᵀX·H when
    the bases are fixed, H·Hᵀ when they are free, and None when no
    objective has seen this ``h``. Assigning ``h`` drops it, so a
    product never outlives the weights it came from; ``cmf.nmf_step``
    itself updates the weights in place, and other code replaces them
    by assignment.

    ``product``, ``mask``, ``sd`` and ``vd``, when given, are arrays
    that a fixed-basis step writes into instead of allocating: the
    carried XᵀX·H (2·len(h) × cols), the mask of ``cmf``'s flush of
    ``h`` (bool, shaped like ``h``), and the sums and differences [s; d]
    of the weight halves and their product V·d (each shaped like ``h``),
    from which ``_stacked_product`` forms XᵀX·H.
    """

    def __init__(self, x: np.ndarray, h: np.ndarray, product=None, mask=None, sd=None, vd=None):
        self.x = x
        self.h = h
        self.objective_history = []
        self.product, self.mask, self.sd, self.vd = product, mask, sd, vd

    @property
    def h(self) -> np.ndarray:
        return self._h

    @h.setter
    def h(self, value: np.ndarray) -> None:
        self._h = value
        self.carried = None


def _swap(a: np.ndarray) -> np.ndarray:
    """Π·a: a copy of ``a`` with its two row halves exchanged."""
    n = len(a) // 2
    return np.concatenate((a[n:], a[:n]))


def _swap_both(a: np.ndarray) -> np.ndarray:
    """Π·a·Π: rows and columns of ``a`` swapped half for half."""
    return _swap(_swap(a).T).T


def _stacked_xtz(x: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """[Y_L; ΠY_R] of Y = xᵀ·zc, for block columns ``zc`` (2F×2c)."""
    y = x.T @ zc
    half, cols = x.shape[1] // 2, zc.shape[1] // 2
    # [Y_L; ΠY_R] from one product: two half products into its rows
    # measured slower per free step
    return np.concatenate((y[:, :cols], y[half:, cols:], y[:half, cols:]))


def _sum_difference(xtx: np.ndarray):
    """(U, V): half the sum and half the difference of the two column
    halves of G = ``xtx``, each a C-contiguous 2K×K array."""
    k = len(xtx) // 2
    left, right = xtx[:, :k], xtx[:, k:]
    return 0.5 * (left + right), 0.5 * (left - right)


def _stacked_product(uv, w: np.ndarray, out=None, sd=None, vd=None) -> np.ndarray:
    """[G; ΠGΠ]·W of W = [h⁺; h⁻] from ``uv`` = (U, V), written into
    ``out`` (4K × T) and returned: GW = U·s + V·d and ΠGΠW = Π(U·s − V·d)
    with s = h⁺ + h⁻ and d = h⁺ − h⁻, at half the flops of the direct
    product; see the module docstring for its rounding. U·s is formed
    in GW's rows of ``out``, s over d in ``sd`` and V·d in ``vd`` (each
    shaped like ``w``); any of the three not given is allocated."""
    u, v = uv
    k = len(w) // 2
    out = np.empty((2 * len(w), w.shape[1])) if out is None else out
    sd = np.empty_like(w) if sd is None else sd
    vd = np.empty_like(w) if vd is None else vd
    s, d = sd[:k], sd[k:]
    np.add(w[:k], w[k:], out=s)
    np.subtract(w[:k], w[k:], out=d)
    top, bottom = out[: 2 * k], out[2 * k :]
    np.matmul(u, s, out=top)
    np.matmul(v, d, out=vd)
    np.subtract(top[k:], vd[k:], out=bottom[:k])
    np.subtract(top[:k], vd[:k], out=bottom[k:])
    top += vd
    return out


def gram_terms(problem: NmfProblem, x: np.ndarray):
    """The Gram terms of bases ``x``: the H update's stacked numerator
    [Y_L; ΠY_R], G = XᵀX and G's (U, V) of ``_sum_difference``; when the
    bases are fixed, the segment's numerator and the terms built at
    construction."""
    if problem.fixed_x is not None:
        return problem.xtz, problem.xtx, problem.uv
    xtx = x.T @ x
    return _stacked_xtz(x, problem.zc), xtx, _sum_difference(xtx)


def _weight_gram(h: np.ndarray) -> np.ndarray:
    """H·Hᵀ as W·Wᵀ + Π·W·Wᵀ·Π, without forming H."""
    hht = h @ h.T
    hht += _swap_both(hht)
    return hht


def _stacked_vdot(h: np.ndarray, stacked: np.ndarray) -> float:
    """⟨H, ·⟩ of a stacked term: the sum of ⟨W, block⟩ over its two row
    blocks."""
    return np.vdot(h, stacked[: len(h)]) + np.vdot(h, stacked[len(h) :])


def _direct_residual(problem: NmfProblem, x: np.ndarray, w: np.ndarray) -> float:
    """‖Zc − X·[W, ΠW]‖², summed over frame chunks: each chunk's Zc and
    H columns are formed from Z and W, and freed before the next."""
    total = 0.0
    for cols in frame_chunks(problem.z.shape[1]):
        wc = w[:, cols]
        h = np.concatenate((wc, _swap(wc)), axis=1)  # H = [W, ΠW]
        total += frobenius_norm_sq(_block_matrix(problem.z[:, cols]) - x @ h)
    return total


def objective(problem: NmfProblem, state: NmfState, xtz, xtx, uv) -> float:
    """‖Zc − XH‖² of ``state`` from the Gram terms of ``gram_terms``; the
    direct residual below ``GRAM_GUARD``·‖Z‖², where the Gram form
    cancels. The quadratic term is ⟨H, XᵀX·H⟩ with fixed bases, from
    ``uv``, and ⟨XᵀX, H·Hᵀ⟩ with free ones, from ``xtx``: the product
    the next update needs, which is left on ``state.carried``. The
    linear term reads the segment's ``xtz_sum`` with fixed bases and
    ``xtz`` with free ones."""
    h = state.h
    if problem.fixed_x is not None:
        state.carried = _stacked_product(uv, h, state.product, state.sd, state.vd)
        quad = _stacked_vdot(h, state.carried)
        linear = np.vdot(h, problem.xtz_sum)
    else:
        state.carried = _weight_gram(h)
        quad = np.vdot(xtx, state.carried)
        linear = _stacked_vdot(h, xtz)
    gram = problem.z_norm_sq - 2.0 * linear + quad
    if gram < GRAM_GUARD * problem.z_norm_sq:
        return _direct_residual(problem, state.x, h)
    return float(gram)
