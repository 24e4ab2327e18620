import json
import math
import tracemalloc

import numpy as np
import pytest

import metrics_reference as reference
from cmfsep.linalg import SAMPLE_CHUNK
from cmfsep.metrics import (
    EvalReport,
    FULL_CREDIT_SNR_DB,
    _frame_losses,
    correlation,
    evaluate,
    snr_db,
    tir_esc,
    tir_loss,
)
from cmfsep.stft import Signal, StftConfig

CFG = StftConfig()


def sig(x, rate=16000):
    return Signal(np.asarray(x, dtype=float), rate)


def noise(seed, n=16000):
    return np.random.default_rng(seed).standard_normal(n)


def loop_frame_losses(ref, est, cfg):
    """Per-frame reference: align the estimate to the reference, then
    score each complete frame on its own."""
    r = ref.samples
    e = np.zeros(r.size)
    e[: min(r.size, est.samples.size)] = est.samples[: r.size]
    n, hop = cfg.frame_len, cfg.hop
    if r.size < n:
        n = hop = r.size
    losses = []
    for start in range(0, r.size - n + 1, hop):
        rf = r[start : start + n]
        ef = e[start : start + n]
        ref_energy = float(np.sum(rf**2))
        if ref_energy <= 1e-300:
            continue
        err_energy = float(np.sum((ef - rf) ** 2))
        if err_energy <= 1e-300:
            losses.append(0.0)
            continue
        snr = 10.0 * math.log10(ref_energy / err_energy)
        losses.append(min(1.0, max(0.0, 1.0 - snr / FULL_CREDIT_SNR_DB)))
    if not losses:
        raise ValueError("reference is silent in every frame")
    return np.asarray(losses)


class TestCorrelation:
    def test_self_is_one(self):
        x = sig(noise(0))
        assert correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negated_is_minus_one(self):
        x = noise(1)
        assert correlation(sig(x), sig(-x)) == pytest.approx(-1.0, abs=1e-12)

    def test_independent_noise_near_zero(self):
        t = np.arange(100_000) / 16000
        s = sig(np.sin(2 * np.pi * 440 * t))
        for trial in range(20):
            r = correlation(s, sig(noise(trial, 100_000)))
            assert abs(r) <= 0.05

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="zero-variance"):
            correlation(sig(np.zeros(100) + 3.0), sig(noise(2, 100)))

    def test_length_alignment_pads_tail(self):
        x = noise(3)
        # a truncated estimate is zero-padded back to the reference length
        r_short = correlation(sig(x), sig(x[:-1000]))
        assert r_short < 1.0
        assert r_short > 0.9


class TestTirLoss:
    def test_perfect_reconstruction(self):
        x = sig(noise(4))
        assert tir_loss(x, x, CFG) == 0.0

    def test_equal_energy_noise_is_bad(self):
        ref = noise(5)
        est = noise(6)
        est *= np.linalg.norm(ref) / np.linalg.norm(est)
        assert tir_loss(sig(ref), sig(est), CFG) >= 0.9

    def test_half_scale_closed_form(self):
        # est = ref/2: every frame's SNR is 10*log10(4) = 6.02 dB, so the
        # per-frame loss is 1 - 6.02/35 uniformly
        ref = noise(7)
        expect = 1.0 - 10.0 * math.log10(4.0) / FULL_CREDIT_SNR_DB
        got = tir_loss(sig(ref), sig(0.5 * ref), CFG)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_silent_frames_skipped(self):
        ref = np.zeros(16000)
        ref[:4096] = noise(8, 4096)
        est = ref.copy()
        est[:4096] *= 0.5
        expect = 1.0 - 10.0 * math.log10(4.0) / FULL_CREDIT_SNR_DB
        # frames fully inside the silent tail contribute nothing
        assert tir_loss(sig(ref), sig(est), CFG) == pytest.approx(expect, abs=1e-12)

    def test_all_silent_reference_raises(self):
        with pytest.raises(ValueError, match="silent"):
            tir_loss(sig(np.zeros(4096)), sig(noise(9, 4096)), CFG)

    def test_range(self):
        for seed in range(10):
            v = tir_loss(sig(noise(seed)), sig(noise(seed + 100)), CFG)
            assert 0.0 <= v <= 1.0


class TestFrameLossesOracle:
    def check(self, ref, est):
        want = loop_frame_losses(sig(ref), sig(est), CFG)
        got = _frame_losses(sig(ref), sig(est), CFG)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
        return got

    def test_silent_stretches(self):
        ref = noise(30, 20000)
        ref[3000:9000] = 0.0
        ref[15000:] = 0.0
        est = ref + 0.3 * noise(31, 20000)
        got = self.check(ref, est)
        # frames lying wholly inside a silent stretch are skipped
        assert got.size < (ref.size - CFG.frame_len) // CFG.hop + 1

    def test_exact_match_frames_score_zero(self):
        ref = noise(32, 8192)
        est = ref + 0.5 * noise(33, 8192)
        est[2048:6144] = ref[2048:6144]
        got = self.check(ref, est)
        assert np.count_nonzero(got == 0.0) >= 8
        assert np.count_nonzero(got > 0.0) >= 4

    def test_shorter_estimate(self):
        ref = noise(34, 10000)
        self.check(ref, ref[:7000] + 0.1 * noise(35, 7000))

    def test_longer_estimate(self):
        ref = noise(36, 10000)
        self.check(ref, np.concatenate([ref, noise(37, 3000)]) + 0.2 * noise(38, 13000))

    def test_reference_shorter_than_one_frame(self):
        ref = noise(39, 300)
        got = self.check(ref, ref + 0.05 * noise(40, 300))
        assert got.size == 1

    def test_all_silent_reference_raises(self):
        ref, est = sig(np.zeros(4096)), sig(noise(41, 4096))
        with pytest.raises(ValueError, match="silent in every frame"):
            loop_frame_losses(ref, est, CFG)
        with pytest.raises(ValueError, match="silent in every frame"):
            _frame_losses(ref, est, CFG)


class TestTirEsc:
    def test_perfect_reconstruction(self):
        x = sig(noise(10))
        assert tir_esc(x, x, CFG) == 0.0

    def test_compositional_identity(self):
        for seed in range(100):
            ref = sig(noise(seed, 4096))
            est = sig(noise(seed + 1000, 4096))
            expect = tir_loss(ref, est, CFG) * (1.0 - correlation(ref, est) ** 2)
            assert abs(tir_esc(ref, est, CFG) - expect) <= 1e-12

    def test_bounded_by_tir_loss(self):
        for seed in range(10):
            ref = sig(noise(seed))
            est = sig(noise(seed + 50))
            assert tir_esc(ref, est, CFG) <= tir_loss(ref, est, CFG)


class TestSnrDb:
    def test_exact_match_capped(self):
        x = sig(noise(11))
        assert snr_db(x, x) == 120.0

    def test_zero_estimate_is_zero_db(self):
        x = sig(noise(12))
        assert snr_db(x, sig(np.zeros(16000))) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_ratio(self):
        ref = noise(13)
        n = noise(14)
        n *= math.sqrt(0.1) * np.linalg.norm(ref) / np.linalg.norm(n)
        assert snr_db(sig(ref), sig(ref + n)) == pytest.approx(10.0, abs=1e-9)

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError, match="zero reference"):
            snr_db(sig(np.zeros(100)), sig(noise(15, 100)))


class TestGainInvariance:
    def test_common_gain_leaves_metrics_unchanged(self):
        ref = sig(noise(16))
        est = sig(noise(17))
        # a power-of-two gain scales every intermediate exactly, making
        # the invariance bitwise rather than merely close
        g = 4.0
        ref_g = sig(g * ref.samples)
        est_g = sig(g * est.samples)
        assert correlation(ref, est) == correlation(ref_g, est_g)
        assert tir_loss(ref, est, CFG) == tir_loss(ref_g, est_g, CFG)
        assert snr_db(ref, est) == snr_db(ref_g, est_g)


class TestEvalReport:
    def test_evaluate_consistency(self):
        ref = sig(noise(18))
        est = sig(noise(19))
        rep = evaluate(ref, est, CFG)
        assert rep.correlation == correlation(ref, est)
        assert rep.tir_loss == tir_loss(ref, est, CFG)
        assert rep.tir_esc == pytest.approx(
            rep.tir_loss * (1 - rep.correlation**2), abs=1e-15
        )
        assert rep.snr_db == snr_db(ref, est)

    def test_determinism(self):
        ref = sig(noise(20))
        est = sig(noise(21))
        assert evaluate(ref, est, CFG) == evaluate(ref, est, CFG)

    def test_json_keys_and_surrogate_label(self):
        rep = evaluate(sig(noise(22)), sig(noise(23)), CFG)
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "correlation",
            "tir_loss",
            "tir_esc",
            "snr_db",
            "tir_loss_definition",
        }
        assert payload["tir_loss_definition"] == "surrogate"

    def test_csv_row(self):
        rep = EvalReport(correlation=0.5, tir_loss=0.25, tir_esc=0.1875, snr_db=3.0)
        assert rep.to_csv_row() == "0.5,0.25,0.1875,3"

    def test_rate_mismatch_raises(self):
        # same samples, different rates: the scores would be of signals
        # that do not line up in time
        x = noise(24)
        with pytest.raises(ValueError, match="sample rate mismatch"):
            evaluate(sig(x, 16000), sig(x, 8000), CFG)



class TestMemory:
    def test_evaluate_forms_no_full_length_temporary(self):
        # centred samples and errors are formed one chunk at a time; a
        # single full-length float64 temporary would exceed the bound
        n = 1 << 21
        ref = sig(noise(42, n))
        est = sig(ref.samples[: n - 1000] + 0.3 * noise(43, n - 1000))
        tracemalloc.start()
        try:
            report = evaluate(ref, est, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ref.samples.nbytes / 4
        assert report == evaluate(ref, est, CFG)


def aligned_pair(n, m, seed):
    """A reference of n samples and an estimate of m samples that follows
    it, both with a DC offset, so that the centring shows."""
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(n) + 0.2
    est = 0.4 * rng.standard_normal(m) - 0.1
    k = min(n, m)
    est[:k] += 0.8 * ref[:k]
    return sig(ref), sig(est)


class TestOnePassMatchesPerMetric:
    """The metrics from one pass over the signals against the per-metric
    passes of ``metrics_reference``: reference lengths that end inside
    the first frame, on a hop boundary and around and past sample-chunk
    boundaries, with estimates shorter than, as long as and longer than
    the reference."""

    @pytest.mark.parametrize(
        "n", [CFG.frame_len - 1, 40 * CFG.hop, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 17]
    )
    @pytest.mark.parametrize("extra", [-100, 0, 777])
    def test_default_frames(self, n, extra):
        self.check(*aligned_pair(n, n + extra, n + extra), CFG)

    @pytest.mark.parametrize("frame_len", [SAMPLE_CHUNK, 2 * SAMPLE_CHUNK, 4 * SAMPLE_CHUNK])
    def test_hops_up_to_twice_a_sample_chunk(self, frame_len):
        # a hop longer than a sample chunk widens the pass's chunks to it
        n = 5 * SAMPLE_CHUNK + 3
        self.check(*aligned_pair(n, n - 1000, frame_len), StftConfig(frame_len=frame_len))

    @staticmethod
    def check(ref, est, cfg):
        def close(got, want):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

        close(correlation(ref, est), reference.correlation(ref, est))
        close(tir_loss(ref, est, cfg), reference.tir_loss(ref, est, cfg))
        close(snr_db(ref, est), reference.snr_db(ref, est))
        close(tir_esc(ref, est, cfg), reference.tir_esc(ref, est, cfg))
        report = evaluate(ref, est, cfg)
        close(report.correlation, reference.correlation(ref, est))
        close(report.tir_loss, reference.tir_loss(ref, est, cfg))
        close(report.tir_esc, reference.tir_esc(ref, est, cfg))
        close(report.snr_db, reference.snr_db(ref, est))
