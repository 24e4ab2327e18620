"""Complex matrix factorization by reduction to nonnegative factorization.

A complex matrix is split into four nonnegative parts (positive and
negative parts of the real and imaginary components). Stacking the
parts into a 2x2 block matrix turns the complex factorization
``Z ~ X H`` (complex bases X, real weights H) into one nonnegative
problem, with the weight blocks tied pairwise as [[h⁺, h⁻], [h⁻, h⁺]].
The split and its block matrices live in ``linalg``, which alone
exports them; the solver forms neither. The nonnegative problem,
``nmf.NmfProblem``, is built from the complex data and reads it
through Zri = [Re Z; Im Z]: its multiplicative updates through Zri's
sign parts Zp = max(Zri, 0) and Zn = max(−Zri, 0), Zc's column halves,
and its residual as ½‖Zab − p·s‖² + ½‖Zri − q·d‖² with Zab = |Zri|
(see ``nmf``), so the 2F×2T block matrix Zc is never formed. The solve
stores the weights once, as W = [h⁺; h⁻]. The drawn start is tied once
by an in-place average of a stacked pair (``symmetrize_h``), its left
column block with its row-swapped right one; every update then keeps
the tie, since it updates W itself. At termination the signed factors
are reassembled from the blocks.

The update step ``nmf_step`` is one Lee–Seung multiplicative update of
the tied problem of ``nmf``, X then H. Denominators are floored at
``EPSILON`` so updates are defined everywhere; the objective is recorded
once per step, after the update, so ``objective_history`` always
describes the actual iterate.

The H update is the tied problem's own majorize–minimize step (Lee and
Seung, "Algorithms for non-negative matrix factorization", NIPS 2001):
W = [h⁺; h⁻] is both column halves of H = [W, ΠW], so its gradient sums
theirs, and W is multiplied by the summed numerator over the summed
denominator, ys = Y_L + ΠY_R over GW + ΠGΠW. It averages the updates
of the two column halves, weighted by their denominators. That
denominator is formed by ``nmf._summed_product`` from the sums
s = h⁺ + h⁻ and differences d = h⁺ − h⁻ of the tied weights, as
[a + b; a − b] with a = Ũ·s and b = Ṽ·d of two K×K terms: half the
flops of GW alone, with the rounding bound that the ``nmf`` docstring
states. With fixed bases it is the one the last objective carried, and
the update's ratio is formed in place in its buffer; with free bases
it is formed from the (Ũ, Ṽ) of the new bases, whose terms the state
forms after the X update (``nmf.NmfState.bases_terms``). The X
update's numerator is Zc·Hᵀ = [Zp·h⁺ᵀ + Zn·h⁻ᵀ, Zp·h⁻ᵀ + Zn·h⁺ᵀ], from
the two products Zp·Wᵀ and Zn·Wᵀ, and its denominator is X times
H·Hᵀ, which the step forms from W·Wᵀ (``nmf._weight_gram``); so H is
never formed, and every entry of both is a sum of nonnegative terms.

The complex-domain error ‖Z − Xh‖² of a checkpoint is the second of the
two residual terms of ``nmf._residuals``, with q = [Re X; Im X] and
d = h⁺ − h⁻. ``nmf.complex_error`` takes it in the Gram form of the
part's summed numerator and the b = Ṽ·d of the last objective, for free
and fixed bases alike, at no product's cost. Below
``nmf.GRAM_GUARD``·‖Z‖² it forms it directly: summed over the frame
chunks of ``linalg.frame_chunks``, each chunk's residual one real
product less Zri, at half the flops of the complex product, so no
complex F×T residual is formed; it is formed in the scratch of the
solve's state.

``cmf_factorize`` solves in parts and writes each part's weights into
that part's frames of one rank × T output; a free solve is one part
over all frames, since the X update couples them. With fixed bases the
H update of a frame reads only that frame's numerator column, so each
frame chunk is a part, whose whole iteration loop runs on its own. The
parts run on as many threads as BLAS has at entry, at most one per
part (``blas.solve_threads``), each product on one BLAS thread while
they run, also when there is one part; the calling thread is one of
them, and with one thread none is started. Each thread steps its parts
in one ``nmf.NmfState``, built before any thread starts and pointed at
each part in turn
(``NmfState.set_part``, which forms the terms of the part's bases that
the steps read; see ``nmf``); a free solve steps its one part in a state
of its own. So no step allocates anything frame-sized. A part's
arithmetic does not depend on the thread or the arrays it runs in, nor,
at one BLAS thread, on the BLAS count at entry, so the result is the
same however many threads there are. A free solve runs at BLAS's own
count, and its bits depend on it.
Every part's start comes from one ``_start`` over all frames: its
bases, and its frames of the start's weight halves. Each chunk stops on
its own objective; the histories, and the complex errors that each
part's loop returns as {iteration: error}, are summed over chunks in
frame order.

After each step's X update, and after its H update, factor entries
below ``FLUSH_BELOW`` (sqrt of the smallest normal float64, about
1.5e-154) are set to 0. Multiplicative updates keep a zero at zero, and
such entries only shrink further into subnormal floats, whose
arithmetic is many times slower and which would make the late
iterations of a long solve up to twice as slow as the early ones.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blas import solve_threads
from .config import SepConfig
from .linalg import as_real, frame_chunks

# not called here: bench/spans.py patches these three names, so its
# cmf.split span times nothing
from .linalg import BlockMatrix, assemble_zc, split_complex  # noqa: F401
from .nmf import (
    NmfProblem,
    NmfState,
    _summed_product,
    _swap,
    _weight_gram,
    complex_error,
    objective,
)

__all__ = [
    "EPSILON",
    "CmfResult",
    "symmetrize_h",
    "nmf_step",
    "cmf_factorize",
]

EPSILON = 1e-12
FLUSH_BELOW = float(np.sqrt(np.finfo(np.float64).tiny))


def symmetrize_h(top, bottom):
    """The tie of a stacked pair, in place: ``top`` becomes the mean of
    ``top`` and ``bottom`` and is returned. A drawn start's tie
    (``_make_coupling``) is its one caller."""
    top += bottom
    top *= 0.5
    return top


@dataclass
class CmfResult:
    x: np.ndarray
    h: np.ndarray
    objective_history: list
    final_error: float
    checkpoints: list = field(default_factory=list)  # (iter, block_obj, complex_err)


def _make_coupling(rank: int, cols: int):
    """The tie of a 2·rank × 2·cols weight block matrix, in place in
    ``hc``, which is returned: the left column block [H11; H21] and the
    row-swapped right one [H22; H12] are averaged into the left, and the
    right is the swapped mean. ``_start`` ties the start with it once."""

    def couple(hc: np.ndarray) -> np.ndarray:
        left = symmetrize_h(hc[:, :cols], _swap(hc[:, cols:]))
        hc[:, cols:] = _swap(left)
        return hc

    return couple


def _flush(a: np.ndarray, mask: np.ndarray) -> None:
    """Set the entries of ``a`` below ``FLUSH_BELOW`` to 0, through
    ``mask`` (bool, shaped like ``a``)."""
    np.copyto(a, 0.0, where=np.less(a, FLUSH_BELOW, out=mask))


def nmf_step(state: NmfState, problem: NmfProblem) -> NmfState:
    """One multiplicative update of X then H (X skipped when fixed), in
    the arrays of ``state``, which an objective of its current weights
    must have seen (``RuntimeError`` otherwise).

    The H update multiplies the weights W by the summed numerator
    ``state.xtz_sum`` over the summed denominator GW + ΠGΠW. The
    objective appended to the history reflects the updated iterate.
    """
    if state.carried is None:
        raise RuntimeError("no objective has seen the state's weights")
    x, h, k = state.x, state.h, problem.rank
    if problem.fixed_x is None:
        # Zc·Hᵀ = Zp·Wᵀ + Zn·(ΠW)ᵀ, and Zn·(ΠW)ᵀ is Zn·Wᵀ with its two
        # column halves exchanged, so they are added crosswise; the
        # second product's array then takes X·H·Hᵀ and the ratio
        num = np.matmul(problem.zp, h.T, out=state.xnum)
        cross = np.matmul(problem.zn, h.T, out=state.xratio)
        num[:, :k] += cross[:, k:]
        num[:, k:] += cross[:, :k]
        ratio = np.matmul(x, _weight_gram(h), out=state.xratio)
        np.maximum(ratio, EPSILON, out=ratio)
        x *= np.divide(num, ratio, out=ratio)
        _flush(x, state.xmask)
        # the new bases' terms, and from them the H-update denominator
        state.bases_terms(problem)
        _summed_product(state.uv, state.sd, state.product, state.vd)
    # the H-update ratio is formed in place in the denominator's buffer,
    # which holds the carried product when the bases are fixed
    ratio, state.carried = state.product, None
    np.maximum(ratio, EPSILON, out=ratio)
    h *= np.divide(state.xtz_sum, ratio, out=ratio)
    _flush(h, state.mask)
    state.objective_history.append(objective(problem, state))
    return state


def _checked_halves(h_init, rank: int, cols: int):
    """The given start (h⁺, h⁻) as float64 arrays, each checked to be
    rank × cols and, from its own min and max, finite and nonnegative."""
    hp0, hm0 = (as_real(a) for a in h_init)
    if hp0.shape != (rank, cols) or hm0.shape != (rank, cols):
        raise ValueError("h_init halves must each be rank x cols")
    # numpy's min and max propagate a NaN, where Python's drop one
    # depending on argument order
    lows, highs = (hp0.min(), hm0.min()), (hp0.max(), hm0.max())
    if not np.all(np.isfinite(lows + highs)):
        raise ValueError("h_init contains non-finite entries")
    if np.min(lows) < 0:
        raise ValueError("h_init must be nonnegative")
    return hp0, hm0


def _start(problem: NmfProblem, seed: int, h_init=None):
    """The seeded start (x, h⁺, h⁻) of a solve of ``problem``, from one
    generator: the bases first, the fixed block bases ``problem.xc``
    themselves (a fixed-basis step never writes them) or uniform draws
    in (EPSILON, 1]; then the weight halves. Drawn weights fill a 2K×2T
    block matrix, which is tied once and whose left column block is
    copied and split. Given halves ``h_init`` are checked and returned
    as they are: tying [[h⁺, h⁻], [h⁻, h⁺]] gives them back exactly, so
    it is skipped."""
    rng = np.random.default_rng(seed)
    rank, (rows, cols) = problem.rank, problem.z.shape
    if problem.fixed_x is not None:
        x = problem.xc
    else:
        x = np.maximum(rng.random((2 * rows, 2 * rank)), EPSILON)
    if h_init is not None:
        return (x, *_checked_halves(h_init, rank, cols))
    hc = np.maximum(rng.random((2 * rank, 2 * cols)), EPSILON)
    w = _make_coupling(rank, cols)(hc)[:, :cols].copy()
    return (x, *np.split(w, 2))


def _iterate(problem: NmfProblem, state: NmfState, cfg: SepConfig, checkpoint_every: int, h):
    """Step ``state`` until the stop rule fires or ``cfg.iters`` steps
    are taken, taking the complex error (``nmf.complex_error``) at every
    ``checkpoint_every``-th step and at the last; then write the signed
    weights h⁺ − h⁻, the d of the state's [s; d], into ``h``. Returns
    the errors as {iteration: complex error}. The block objectives are
    ``state.objective_history``."""
    errors = {}
    # also leaves on the state the product the first update needs
    prev = objective(problem, state)
    for it in range(1, cfg.iters + 1):
        nmf_step(state, problem)
        cur = state.objective_history[-1]
        stopping = abs(prev - cur) < cfg.tol * max(prev, EPSILON)
        if (
            stopping
            or it == cfg.iters
            or (checkpoint_every > 0 and it % checkpoint_every == 0)
        ):
            errors[it] = complex_error(problem, state)
        if stopping:
            break
        prev = cur
    np.copyto(h, state.sd[problem.rank :])
    return errors


def _run(tasks: int, run, workers: int) -> None:
    """Call ``run(task, worker)`` for every task in ``range(tasks)`` on
    ``workers`` threads: the calling thread is worker 0, and workers
    1 … workers − 1 are pool threads, started only when there are any.
    Each worker takes the next task from one shared iterator under a
    lock. A task that raises stops the handing out of tasks, and its
    exception is raised once every worker has finished."""
    lock = threading.Lock()
    todo = iter(range(tasks))

    def work(worker):
        while True:
            with lock:
                task = next(todo, None)
            if task is None:
                return
            try:
                run(task, worker)
            except BaseException:
                with lock:
                    for _ in todo:
                        pass
                raise

    # a pool starts its threads on submit, so one worker starts none
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        futures = [pool.submit(work, worker) for worker in range(1, workers)]
        work(0)
        for future in futures:
            future.result()


def _solve_fixed(problem: NmfProblem, halves, cfg, checkpoint_every, h):
    """The solve with fixed bases, one part per frame chunk of
    ``linalg.frame_chunks``, on ``blas.solve_threads`` threads, each
    stepping its parts in an ``NmfState`` of its own at one BLAS thread,
    however many parts there are. Each part starts from its frames of
    the start's ``halves`` and writes its weights into its frames of the
    rank × T output ``h``. Returns the (history, errors) of every part,
    in frame order."""
    segments = frame_chunks(problem.z.shape[1])
    parts = [None] * len(segments)
    with solve_threads(len(segments)) as workers:
        states = [NmfState(problem, segments[0].stop) for _ in range(workers)]

        def run(task, worker):
            frames = segments[task]
            state = states[worker].set_part(problem, problem.xc, halves, frames)
            errors = _iterate(problem, state, cfg, checkpoint_every, h[:, frames])
            parts[task] = state.objective_history, errors

        _run(len(segments), run, workers)
    return parts


def cmf_factorize(
    z,
    rank: int,
    cfg: Optional[SepConfig] = None,
    fixed_x=None,
    checkpoint_every: int = 0,
    h_init=None,
) -> CmfResult:
    """Factor a complex matrix into complex bases and real weights.

    With ``fixed_x`` the bases are held constant (split once) and only
    the weights are estimated; this is the separation mode. Neither mode
    forms the 2F×2T block matrix of ``z``: with free bases the problem
    holds the sign parts of [Re Z; Im Z], 2F×T each (see
    ``nmf.NmfProblem``).
    ``objective_history`` holds the block-domain error driving the
    updates, one entry per iteration; the complex-domain error
    ``|Z - XH|^2`` is evaluated every ``checkpoint_every`` iterations
    (0 = never before termination) and at the final iteration, which is
    always a checkpoint and whose value is returned as ``final_error``.

    The output weights are allocated once, rank × cols, and each part of
    the solve writes its weights into its own frames; with free bases
    the whole problem is one part. With fixed bases each frame's weights
    update on their own, so the solve runs in frame chunks
    (``linalg.FRAME_CHUNK`` = 512 frames), one chunk per thread at a
    time, on as many threads as BLAS has at entry (at most one per
    chunk; the BLAS count is 1 while they run, also for one chunk, and
    is restored on return). It holds ``z``, the given ``h_init`` and
    the output weights, plus one chunk's numerator, weights and products
    per thread, so with ``h_init`` (as ``separate`` passes) its memory
    does not otherwise grow with length. A drawn start also holds the
    2K×T drawn weights, and while they are drawn the 2K×2T block draw.
    With fixed bases the result does not depend on the number of
    threads, solve or BLAS; with free bases it depends on the BLAS
    count. Each chunk stops on its own objective. An entry of
    ``objective_history``, and a checkpoint's objective and complex
    error, is the sum over chunks of each chunk's
    value at that iteration, or at its last iteration if it stopped
    before; the history is as long as the slowest chunk's. With
    ``tol=0`` every chunk runs ``cfg.iters`` iterations, and the result
    equals that of one solve over all frames to rounding.

    The start is drawn from ``cfg.seed``, over all frames: bases first,
    then weights. ``h_init`` = (h⁺, h⁻), two nonnegative finite rank ×
    cols arrays, replaces the drawn weights; the bases are the same as
    without it. Of ``cfg`` only ``iters``, ``tol`` and ``seed`` are
    read; the rank is the argument.

    An all-zero ``z`` is checked like any other input, with ``fixed_x``
    and ``h_init``, and then returns at once: no iterations, no
    checkpoints, zero weights, ``final_error`` 0 and the given bases, or
    zero bases when they are free. A silent chunk of a nonzero ``z`` is
    solved like any other.
    """
    problem = NmfProblem(z=z, rank=rank, fixed_x=fixed_x)
    cfg = cfg or SepConfig(rank=rank)
    x, *halves = _start(problem, cfg.seed, h_init)
    rows, cols = problem.z.shape

    if problem.z_norm_sq == 0.0:
        x = np.zeros((rows, rank), dtype=np.complex128)
        return CmfResult(
            x=x if problem.fixed_x is None else problem.fixed_x.copy(),
            h=np.zeros((rank, cols), dtype=np.float64),
            objective_history=[],
            final_error=0.0,
        )

    h = np.empty((rank, cols))
    if problem.fixed_x is None:
        # one part over all frames, since the X update couples them
        state = NmfState(problem, cols).set_part(problem, x, halves)
        del halves  # freed before the solve
        parts = [(state.objective_history, _iterate(problem, state, cfg, checkpoint_every, h))]
        # the complex bases from q = [Re X; Im X], the block bases'
        # column halves' difference
        xri = state.x[:, :rank] - state.x[:, rank:]
        x = xri[:rows] + 1j * xri[rows:]
    else:
        parts = _solve_fixed(problem, halves, cfg, checkpoint_every, h)
        x = problem.fixed_x.copy()
    histories, errors = zip(*parts)

    # a part that stopped at iteration s contributes its value at s to
    # every later iteration
    iters = max(map(len, histories))
    history = [
        sum(hist[min(it, len(hist)) - 1] for hist in histories)
        for it in range(1, iters + 1)
    ]
    checkpoints = [
        (it, history[it - 1], sum(e[min(it, len(p))] for e, p in zip(errors, histories)))
        for it in range(1, iters + 1)
        if it == iters or (checkpoint_every > 0 and it % checkpoint_every == 0)
    ]
    return CmfResult(
        x=x,
        h=h,
        objective_history=history,
        final_error=checkpoints[-1][2],
        checkpoints=checkpoints,
    )
