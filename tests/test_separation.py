import re
import tracemalloc

import numpy as np
import pytest

from cmfsep.config import SepConfig
from cmfsep.linalg import FRAME_CHUNK, complex_matmul_real
from cmfsep.separation import (
    BasisSet,
    estimate_weights,
    reconstruct,
    separate,
    train_bases,
)
from cmfsep.stft import Signal, StftConfig, istft, stft


def tone(freq, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Signal(amp * np.sin(2 * np.pi * freq * t), rate)


@pytest.fixture(scope="module")
def tone_bases():
    cfg = SepConfig(rank=2, iters=400)
    return (
        train_bases([tone(440)], "low", cfg),
        train_bases([tone(1870)], "high", cfg),
    )


class TestBasisSet:
    def test_shape_validation(self):
        for shape in [(10, 2), (257,)]:
            with pytest.raises(ValueError, match="inconsistent"):
                BasisSet(
                    x_train=np.zeros(shape, dtype=complex),
                    speaker_id="x",
                    stft_cfg=StftConfig(),
                )

    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            BasisSet(
                x_train=np.zeros((257, 0), dtype=complex),
                speaker_id="x",
                stft_cfg=StftConfig(),
            )


    def test_rejects_all_zero_bases(self):
        with pytest.raises(ValueError, match="all zero"):
            BasisSet(
                x_train=np.zeros((257, 2), dtype=complex),
                speaker_id="x",
                stft_cfg=StftConfig(),
            )


class TestTrainBases:
    def test_rejects_silence(self):
        # silence would train an all-zero basis set
        with pytest.raises(ValueError, match="silent"):
            train_bases([Signal(np.zeros(4096), 16000)] * 2, "x", SepConfig(rank=2))

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            train_bases([], "x", SepConfig(rank=2))

    def test_rejects_sample_rate_mismatch(self):
        s = Signal(np.ones(1024), 8000)
        with pytest.raises(ValueError, match="sample rate"):
            train_bases([s], "x", SepConfig(rank=2))

    def test_pure_tone_basis_peaks_at_expected_bin(self):
        # 440 Hz at 16 kHz / 512-sample frames peaks at bin 14
        b = train_bases([tone(440)], "x", SepConfig(rank=1, iters=200))
        assert np.argmax(np.abs(b.x_train[:, 0])) == 14

    def test_determinism(self):
        cfg = SepConfig(rank=2, iters=50)
        a = train_bases([tone(440)], "x", cfg)
        b = train_bases([tone(440)], "x", cfg)
        assert np.array_equal(a.x_train, b.x_train)

    def test_columns_unit_norm(self):
        b = train_bases([tone(440)], "x", SepConfig(rank=3, iters=100))
        norms = np.linalg.norm(b.x_train, axis=0)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-12)

    def test_corpus_concatenation_width(self):
        cfg = SepConfig(rank=2, iters=5)
        s1, s2 = tone(440, 0.5), tone(440, 0.75)
        n1 = stft(s1, cfg.stft_cfg).shape[1]
        n2 = stft(s2, cfg.stft_cfg).shape[1]
        z = np.hstack([stft(s1, cfg.stft_cfg), stft(s2, cfg.stft_cfg)])
        assert z.shape[1] == n1 + n2
        # and training over both signals consumes exactly that matrix
        train_bases([s1, s2], "x", cfg)  # no error


class TestSeparate:
    def test_two_tone_mixture(self, tone_bases):
        ba, bb = tone_bases
        low, high = tone(440), tone(1870)
        mix = Signal(low.samples + high.samples, 16000)
        est_low, est_high = separate(mix, ba, bb, SepConfig(rank=4, iters=400))
        i = slice(512, 16000 - 512)
        assert np.corrcoef(low.samples[i], est_low.samples[i])[0, 1] >= 0.9
        assert np.corrcoef(high.samples[i], est_high.samples[i])[0, 1] >= 0.9

    def test_pure_source_leak_is_small(self, tone_bases):
        ba, bb = tone_bases
        est_low, est_high = separate(tone(440), ba, bb, SepConfig(rank=4, iters=400))
        total = np.sum(est_low.samples**2) + np.sum(est_high.samples**2)
        assert np.sum(est_high.samples**2) / total <= 0.05

    def test_estimate_additivity(self, tone_bases):
        ba, bb = tone_bases
        cfg = SepConfig(rank=4, iters=100)
        mix = Signal(tone(440).samples + tone(1870).samples, 16000)
        z = stft(mix, cfg.stft_cfg)
        h = estimate_weights(z, ba, bb, cfg)
        spec_a = complex_matmul_real(ba.x_train, h[: ba.rank])
        spec_b = complex_matmul_real(bb.x_train, h[ba.rank :])
        full = complex_matmul_real(np.hstack([ba.x_train, bb.x_train]), h)
        assert np.max(np.abs(spec_a + spec_b - full)) <= 1e-12

    def test_permutation_symmetry(self, tone_bases):
        # swapping the basis sets swaps the outputs; the weight
        # initialization is seeded per speaker id so only floating-point
        # summation order can differ
        ba, bb = tone_bases
        cfg = SepConfig(rank=4, iters=100)
        mix = Signal(tone(440).samples + tone(1870).samples, 16000)
        a1, b1 = separate(mix, ba, bb, cfg)
        b2, a2 = separate(mix, bb, ba, cfg)
        assert np.max(np.abs(a1.samples - a2.samples)) <= 1e-12
        assert np.max(np.abs(b1.samples - b2.samples)) <= 1e-12

    def test_basis_scale_invariance(self, tone_bases):
        ba, bb = tone_bases
        scale = np.array([3.0, 0.25])
        ba_scaled = BasisSet(
            x_train=ba.x_train * scale,
            speaker_id=ba.speaker_id,
            stft_cfg=ba.stft_cfg,
        )
        cfg = SepConfig(rank=4, iters=2000, tol=1e-14)
        mix = Signal(tone(440).samples + tone(1870).samples, 16000)
        a1, b1 = separate(mix, ba, bb, cfg)
        a2, b2 = separate(mix, ba_scaled, bb, cfg)
        assert np.max(np.abs(a1.samples - a2.samples)) <= 1e-9
        assert np.max(np.abs(b1.samples - b2.samples)) <= 1e-9

    def test_phase_provenance(self, tone_bases):
        # estimates are a function of the bases and the solved weights
        # only: randomizing the mixture's per-bin phase after the weights
        # are fixed cannot change them
        ba, bb = tone_bases
        cfg = SepConfig(rank=4, iters=100)
        mix = Signal(tone(440).samples + tone(1870).samples, 16000)
        z = stft(mix, cfg.stft_cfg)
        h = estimate_weights(z, ba, bb, cfg)
        spec_a = complex_matmul_real(ba.x_train, h[: ba.rank])
        rng = np.random.default_rng(0)
        z_scrambled = np.abs(z) * np.exp(1j * rng.uniform(0, 2 * np.pi, z.shape))
        assert not np.allclose(z_scrambled, z)
        spec_a_again = complex_matmul_real(ba.x_train, h[: ba.rank])
        assert np.array_equal(spec_a, spec_a_again)

    def test_rejects_stft_cfg_mismatch(self, tone_bases):
        ba, _ = tone_bases
        other_cfg = StftConfig(frame_len=256)
        bb_other = BasisSet(
            x_train=np.ones((129, 2), dtype=complex),
            speaker_id="y",
            stft_cfg=other_cfg,
        )
        with pytest.raises(ValueError, match="stft config mismatch"):
            separate(tone(440), ba, bb_other, SepConfig(rank=4))

    def test_rejects_sample_rate_mismatch(self, tone_bases):
        ba, bb = tone_bases
        mix = Signal(np.ones(4096), 8000)
        with pytest.raises(ValueError, match="sample rate"):
            separate(mix, ba, bb, SepConfig(rank=4))


def spectrogram_path(x, h, cfg):
    """Reference synthesis: form the complex spectrogram, then invert it."""
    return istft(complex_matmul_real(x, h), cfg).samples


class TestReconstruct:
    @pytest.mark.parametrize("rank", [1, 80])
    @pytest.mark.parametrize("frames", [1, 300])
    def test_matches_spectrogram_path(self, rank, frames):
        # DC and Nyquist rows carry imaginary parts; both paths drop them
        rng = np.random.default_rng(rank * 1000 + frames)
        cfg = StftConfig()
        bins = cfg.freq_bins
        x = rng.standard_normal((bins, rank)) + 1j * rng.standard_normal((bins, rank))
        assert np.all(x[[0, -1]].imag != 0)
        h = rng.standard_normal((rank, frames))
        want = spectrogram_path(x, h, cfg)
        got = reconstruct(x, h, cfg)
        assert got.sample_rate == cfg.sample_rate
        assert got.samples.shape == want.shape
        assert np.max(np.abs(got.samples - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "frames", [1, FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 1]
    )
    def test_chunk_edges_match_spectrogram_path(self, frames):
        rng = np.random.default_rng(frames)
        cfg = StftConfig()
        x = rng.standard_normal((257, 6)) + 1j * rng.standard_normal((257, 6))
        h = rng.random((6, frames))
        want = spectrogram_path(x, h, cfg)
        got = reconstruct(x, h, cfg).samples
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_peak_memory_is_bounded_by_the_output(self):
        # one chunk of frames at a time, not the frame_len x frames product
        rng = np.random.default_rng(3)
        cfg = StftConfig()
        x = rng.standard_normal((257, 40)) + 1j * rng.standard_normal((257, 40))
        h = rng.random((40, 4100))
        tracemalloc.start()
        try:
            out = reconstruct(x, h, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.samples.nbytes

    def test_shape_mismatch_names_both_shapes(self):
        x = np.ones((257, 3), dtype=complex)
        with pytest.raises(ValueError, match=re.escape("(257, 3)") + ".*" + re.escape("(4, 10)")):
            reconstruct(x, np.ones((4, 10)), StftConfig())

    def test_vector_weights_name_both_shapes(self):
        x = np.ones((257, 3), dtype=complex)
        with pytest.raises(ValueError, match=re.escape("(257, 3)") + ".*" + re.escape("(3,)")):
            reconstruct(x, np.ones(3), StftConfig())

    def test_rejects_complex_weights(self):
        h = np.ones((2, 5), dtype=complex)
        h[1, 3] = 1 + 1e-3j
        with pytest.raises(ValueError, match="imaginary"):
            reconstruct(np.ones((257, 2), dtype=complex), h, StftConfig())

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 257"):
            reconstruct(np.ones((100, 2), dtype=complex), np.ones((2, 5)), StftConfig())

    def test_separate_matches_spectrogram_path(self, tone_bases):
        ba, bb = tone_bases
        cfg = SepConfig(rank=4, iters=100)
        mix = Signal(tone(440).samples + tone(1870).samples, 16000)
        est_a, est_b = separate(mix, ba, bb, cfg)
        h = estimate_weights(stft(mix, ba.stft_cfg), ba, bb, cfg)
        for est, x, rows in ((est_a, ba.x_train, h[: ba.rank]), (est_b, bb.x_train, h[ba.rank :])):
            want = spectrogram_path(x, rows, ba.stft_cfg)
            assert np.max(np.abs(est.samples - want)) <= 1e-12 * np.max(np.abs(want))
