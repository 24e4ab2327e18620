"""Acceptance suite: twelve go/no-go checks, one test per criterion.

Each test prints a single ``[criterion N] PASS`` line on success (visible
with ``pytest -s``); under ``pytest -v`` the per-test PASSED/FAILED line
itself is the verdict. Stated runtime budgets are asserted too.
"""

import functools
import json
import time

import numpy as np
import pytest

import cmfsep.cmf as cmf_mod
from blocks import assemble_hc, block_product_identity_check
from cmfsep.cli import EXIT_OK, cli_main
from cmfsep.cmf import cmf_factorize
from cmfsep.config import SepConfig
from cmfsep.io_wav import write_wav
from cmfsep.linalg import assemble_zc, frobenius_norm_sq, merge_quad, split_complex
from cmfsep.metrics import correlation, tir_esc, tir_loss
from cmfsep.separation import separate, train_bases
from cmfsep.stft import Signal, StftConfig, dft, istft, stft


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted_problem(seed, rows=64, rank=20, cols=100, support=8):
    """Z = X H with complex X whose rows carry consistent real/imaginary
    signs on sparse column supports, and strictly positive real H."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, rank), dtype=complex)
    sr = rng.choice([-1.0, 1.0], size=rows)
    si = rng.choice([-1.0, 1.0], size=rows)
    for k in range(rank):
        picked = rng.choice(rows, size=support, replace=False)
        mag = rng.uniform(0.3, 1.0, size=(support, 2))
        x[picked, k] = sr[picked] * mag[:, 0] + 1j * si[picked] * mag[:, 1]
    h = rng.uniform(0.3, 1.0, size=(rank, cols))
    return x, h


def descent_runs(checkpoint_every=0):
    """The shared workload of criteria 3, 4, and 10: twenty random
    32x24 factorizations at rank 8, 300 iterations, no early stop."""
    results = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = random_complex(rng, (32, 24))
        cfg = SepConfig(rank=8, iters=300, tol=0.0, seed=seed)
        results.append(
            (z, cmf_factorize(z, 8, cfg, checkpoint_every=checkpoint_every))
        )
    return results


@functools.cache
def checkpointed_descent_runs():
    """``descent_runs(checkpoint_every=10)``, solved once and shared by
    criteria 3 and 4 and the factor-2 bound test in test_cmf; the
    objective history does not depend on ``checkpoint_every``. Criterion
    10 solves its own runs under its instrumented coupling."""
    return tuple(descent_runs(checkpoint_every=10))


def test_criterion_01_split_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        shape = (int(rng.integers(1, 33)), int(rng.integers(1, 33)))
        z = random_complex(rng, shape)
        q = split_complex(z)
        assert np.array_equal(merge_quad(q), z)
        assert np.all(q.pr * q.nr == 0)
        assert np.all(q.pi * q.ni == 0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: 1000 exact round trips with complementarity "
          f"({elapsed:.2f} s)")


def test_criterion_02_block_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    for _ in range(200):
        m, r, p = (int(rng.integers(1, 9)) for _ in range(3))
        q = split_complex(random_complex(rng, (m, r)))
        hp, hm = rng.random((r, p)), rng.random((r, p))
        full = assemble_zc(q).assembled @ assemble_hc(hp, hm).assembled
        z1, z2, z3, z4 = block_product_identity_check(q, hp, hm)
        assert np.max(np.abs(z1 - full[:m, :p])) <= 1e-12
        assert np.max(np.abs(z2 - full[:m, p:])) <= 1e-12
        assert np.max(np.abs(z3 - full[m:, :p])) <= 1e-12
        assert np.max(np.abs(z4 - full[m:, p:])) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\n[criterion 2] PASS: 200 factor sets, explicit products equal "
          f"assembled blocks <= 1e-12 ({elapsed:.2f} s)")


def test_criterion_03_monotone_descent():
    start = time.monotonic()
    worst = 0.0
    for _, res in checkpointed_descent_runs():
        hist = res.objective_history
        steps = np.diff(hist)
        worst = max(worst, float(steps.max(initial=0.0)))
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\n[criterion 3] PASS: block objective nonincreasing on 20 runs, "
          f"worst increase {worst:.3g} ({elapsed:.2f} s)")


def test_criterion_04_complex_error_upper_bound():
    """The block objective bounds the complex-domain error with constant 2.

    Write h = h+ - h-, s = h+ + h-, X~ = (Xpr + Xnr) + i(Xpi + Xni) and
    Z~ = |Re Z| + i|Im Z|. With tied weight blocks, the symmetric
    orthogonal Q = [[I, I], [I, -I]]/sqrt(2) gives
    Q [[h+, h-], [h-, h+]] Q = diag(s, h), while Zc Q and Xc Q hold
    (Z~, Z) and (X~, X) with real parts over imaginary parts, over
    sqrt(2). Right-multiplying the block residual by Q keeps its norm, so

        block objective = ½|Z - Xh|^2 + ½|Z~ - X~s|^2

    (checked in tests/test_cmf.py::TestTiedBlockIdentity). Hence
    |Z - Xh|^2 = 2 * block objective - |Z~ - X~s|^2 <= 2 * block
    objective. The constant 1 is false: the Z~ term can be smaller than
    the complex one (an underfit entry Pr = 1, Nr = 0 fitted as 0.5 and
    0.2). 2 is tight, reached when X~s fits Z~ exactly while Xh misses Z.
    """
    iters, every = 300, 10
    violations = 0
    worst = (0.0, 0)
    for z, res in checkpointed_descent_runs():
        assert [c[0] for c in res.checkpoints] == list(range(every, iters + 1, every))
        for it, block_obj, complex_err in res.checkpoints:
            # the checkpoint reports the objective the solver minimises
            assert block_obj == res.objective_history[it - 1]
            violations += complex_err > 2 * block_obj * (1 + 1e-12)
            worst = max(worst, (complex_err / block_obj, it))
        assert res.final_error == res.checkpoints[-1][2]
        # the bound holds for the factors the method returns
        direct = frobenius_norm_sq(z - res.x @ res.h)
        assert abs(res.final_error - direct) <= 1e-12 * direct
    ratio, at = worst
    if violations:
        pytest.fail(
            f"[criterion 4] FAIL: |Z-XH|^2 exceeded 2x the block objective "
            f"at {violations} checkpoints; worst ratio {ratio:.6g} at "
            f"iteration {at}"
        )
    print(f"\n[criterion 4] PASS: complex-domain error within 2x the block "
          f"objective at every checkpoint, worst ratio {ratio:.4g} "
          f"(iteration {at})")


def test_criterion_05_planted_recovery():
    start = time.monotonic()
    rels = []
    for seed in range(10):
        x, h = planted_problem(seed)
        z = x @ h
        res = cmf_factorize(z, 20, SepConfig(rank=20, iters=500, seed=seed), fixed_x=x)
        rels.append(res.final_error / frobenius_norm_sq(z))
    elapsed = time.monotonic() - start
    assert max(rels) <= 1e-3, f"relative errors {rels}"
    assert elapsed < 60.0
    print(f"\n[criterion 5] PASS: 10/10 seeds recovered planted weights, "
          f"worst relative error {max(rels):.3g} ({elapsed:.2f} s)")


def test_criterion_06_phase_reconstruction():
    x, h = planted_problem(0)
    z = x @ h
    res = cmf_factorize(z, 20, SepConfig(rank=20, iters=500), fixed_x=x)
    est = res.x @ res.h
    mask = np.abs(z) > 0.01 * np.abs(z).max()
    dphi = np.angle(est[mask]) - np.angle(z[mask])
    dphi = np.abs((dphi + np.pi) % (2 * np.pi) - np.pi)
    assert dphi.max() <= 0.05
    print(f"\n[criterion 6] PASS: per-entry phase matched within "
          f"{dphi.max():.3g} rad on all significant entries")


def test_criterion_07_dft_oracle():
    start = time.monotonic()
    for n in (4, 64, 512):
        k = np.arange(n)
        mat = np.exp(-2j * np.pi * np.outer(k, k) / n)
        rng = np.random.default_rng(n)
        for _ in range(50):
            x = random_complex(rng, (n,))
            want = mat @ x
            rel = np.max(np.abs(dft(x) - want)) / np.max(np.abs(want))
            assert rel <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\n[criterion 7] PASS: radix-2 transform matches naive DFT for "
          f"N in (4, 64, 512), 50 inputs each ({elapsed:.2f} s)")


def test_criterion_08_stft_round_trip():
    start = time.monotonic()
    cfg = StftConfig()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(16000)
        rec = istft(stft(Signal(x, 16000), cfg), cfg)
        interior = slice(cfg.hop, rec.samples.size - cfg.hop)
        worst = max(worst, float(np.max(np.abs(rec.samples[interior] - x[interior]))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"\n[criterion 8] PASS: 20 round trips, worst interior deviation "
          f"{worst:.3g} ({elapsed:.2f} s)")


def test_criterion_09_synthetic_separation():
    start = time.monotonic()
    cfg_stft = StftConfig()
    rate = 16000

    def band_bins(lo, hi):
        freqs = np.arange(cfg_stft.freq_bins) * rate / cfg_stft.frame_len
        return np.where((freqs >= lo) & (freqs <= hi))[0]

    def make_protos(rng, bins, k=4):
        protos = np.zeros((cfg_stft.freq_bins, k), dtype=complex)
        for c in range(k):
            protos[bins, c] = rng.uniform(0.2, 1.0, bins.size) * np.exp(
                1j * rng.uniform(0, 2 * np.pi, bins.size)
            )
        return protos

    def make_signal(rng, protos, frames=120):
        gains = rng.uniform(0, 1, (protos.shape[1], frames))
        s = istft(protos @ gains, cfg_stft)
        return Signal(s.samples / (np.max(np.abs(s.samples)) + 1e-12) * 0.5, rate)

    rows = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        protos_a = make_protos(rng, band_bins(300, 1000))
        protos_b = make_protos(rng, band_bins(2000, 4000))
        cfg = SepConfig(rank=4, iters=300, seed=seed)
        bases_a = train_bases([make_signal(rng, protos_a) for _ in range(3)], "a", cfg)
        bases_b = train_bases([make_signal(rng, protos_b) for _ in range(3)], "b", cfg)
        src_a, src_b = make_signal(rng, protos_a), make_signal(rng, protos_b)
        # mix at target-to-interference ratio 1: unit-energy sources
        xa = src_a.samples / np.linalg.norm(src_a.samples)
        xb = src_b.samples / np.linalg.norm(src_b.samples)
        mix = Signal(xa + xb, rate)
        est_a, est_b = separate(mix, bases_a, bases_b, SepConfig(rank=8, iters=300, seed=seed))
        ref_a, ref_b = Signal(xa, rate), Signal(xb, rate)
        rows.append(
            (
                correlation(ref_a, est_a),
                correlation(ref_b, est_b),
                tir_esc(ref_a, est_a, cfg_stft),
                tir_esc(ref_b, est_b, cfg_stft),
            )
        )
    med = np.median(np.array(rows), axis=0)
    elapsed = time.monotonic() - start
    assert med[0] >= 0.9 and med[1] >= 0.9, f"median correlations {med[:2]}"
    assert med[2] <= 0.2 and med[3] <= 0.2, f"median TIRESC {med[2:]}"
    assert elapsed < 120.0
    print(f"\n[criterion 9] PASS: median correlations ({med[0]:.3f}, {med[1]:.3f}), "
          f"median TIRESC ({med[2]:.3f}, {med[3]:.3f}) over 5 seeds ({elapsed:.1f} s)")


def test_criterion_10_weight_block_symmetry(monkeypatch):
    records = []
    original = cmf_mod._make_coupling

    def instrumented(rank, cols):
        inner = original(rank, cols)

        def couple(hc):
            out = inner(hc)
            records.append(
                np.array_equal(out[:rank, :cols], out[rank:, cols:])
                and np.array_equal(out[:rank, cols:], out[rank:, :cols])
            )
            return out

        return couple

    monkeypatch.setattr(cmf_mod, "_make_coupling", instrumented)
    descent_runs()
    assert records, "coupling hook never invoked"
    assert all(records)
    print(f"\n[criterion 10] PASS: weight-block ties held exactly across "
          f"{len(records)} coupling invocations")


def test_criterion_11_metric_identities():
    cfg = StftConfig()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ref = Signal(rng.standard_normal(4096), 16000)
        est = Signal(rng.standard_normal(4096), 16000)
        want = tir_loss(ref, est, cfg) * (1.0 - correlation(ref, est) ** 2)
        assert abs(tir_esc(ref, est, cfg) - want) <= 1e-12
    x = Signal(np.random.default_rng(7).standard_normal(8192), 16000)
    assert correlation(x, x) == pytest.approx(1.0, abs=1e-12)
    assert tir_loss(x, x, cfg) == 0.0
    assert tir_esc(x, x, cfg) == 0.0
    print("\n[criterion 11] PASS: tir_esc identity on 100 pairs; perfect "
          "reconstruction scores (1, 0, 0)")


def test_criterion_12_cli_reproducibility(tmp_path):
    for spk, freq in (("spk_a", 440), ("spk_b", 1870)):
        (tmp_path / spk).mkdir()
        t = np.arange(16000) / 16000
        write_wav(
            tmp_path / spk / "u1.wav",
            Signal(0.5 * np.sin(2 * np.pi * freq * t), 16000),
            "float32",
        )
    t = np.arange(16000) / 16000
    mix = 0.5 * np.sin(2 * np.pi * 440 * t) + 0.5 * np.sin(2 * np.pi * 1870 * t)
    write_wav(tmp_path / "mix.wav", Signal(mix, 16000), "float32")

    def run(tag):
        out = tmp_path / f"out_{tag}"
        for spk, sid in (("spk_a", "A"), ("spk_b", "B")):
            assert cli_main(
                ["train", "--speaker-dir", str(tmp_path / spk), "--speaker-id", sid,
                 "--rank", "2", "--iters", "200", "--seed", "11",
                 "--out", str(tmp_path / f"{tag}_{sid}.cmfb")]
            ) == EXIT_OK
        assert cli_main(
            ["separate", "--mix", str(tmp_path / "mix.wav"),
             "--bases-a", str(tmp_path / f"{tag}_A.cmfb"),
             "--bases-b", str(tmp_path / f"{tag}_B.cmfb"),
             "--out-dir", str(out), "--seed", "11", "--iters", "200"]
        ) == EXIT_OK
        for est, spk in (("est_a.wav", "spk_a"), ("est_b.wav", "spk_b")):
            assert cli_main(
                ["eval", "--ref", str(tmp_path / spk / "u1.wav"),
                 "--est", str(out / est)]
            ) == EXIT_OK
        return out

    import io
    from contextlib import redirect_stdout

    outputs = []
    for tag in ("one", "two"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            out_dir = run(tag)
        json_lines = [
            ln for ln in buf.getvalue().splitlines() if ln.startswith("{")
        ]
        outputs.append(
            (
                (out_dir / "est_a.wav").read_bytes(),
                (out_dir / "est_b.wav").read_bytes(),
                json_lines,
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    for ln in outputs[0][2]:
        json.loads(ln)
    print("\n[criterion 12] PASS: two seeded pipeline runs produced "
          "bit-identical WAV and JSON outputs")
