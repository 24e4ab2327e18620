import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfsep.linalg import FRAME_CHUNK
from cmfsep.stft import Signal, StftConfig, dft, istft, sqrt_hann_window, stft

CHUNK_EDGES = [1, FRAME_CHUNK - 1, FRAME_CHUNK, FRAME_CHUNK + 1, 2 * FRAME_CHUNK + 1]


def naive_dft(x, inverse=False):
    n = x.shape[-1]
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    out = x @ mat.T
    return out / n if inverse else out


def loop_stft(x, cfg):
    """Per-frame reference: window each complete frame, keep the
    one-sided half of its naive DFT."""
    n, hop = cfg.frame_len, cfg.hop
    win = sqrt_hann_window(n)
    cols = [naive_dft(x[t : t + n] * win)[: cfg.freq_bins] for t in range(0, x.size - n + 1, hop)]
    return np.array(cols).T


def loop_istft(spec, cfg):
    """Per-frame reference: rebuild each Hermitian spectrum, invert,
    window and overlap-add."""
    n, hop = cfg.frame_len, cfg.hop
    win = sqrt_hann_window(n)
    out = np.zeros((spec.shape[1] - 1) * hop + n)
    for t in range(spec.shape[1]):
        full = np.concatenate([spec[:, t], np.conj(spec[-2:0:-1, t])])
        out[t * hop : t * hop + n] += naive_dft(full, inverse=True).real * win
    return out


def unchunked_stft(x, cfg):
    """Every frame windowed and transformed in one call."""
    n = cfg.frame_len
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[:: cfg.hop]
    return np.ascontiguousarray(np.fft.rfft(frames * sqrt_hann_window(n)).T)


def unchunked_istft(spec, cfg):
    """Every frame inverted in one call, then both halves added at once."""
    frames = np.fft.irfft(spec.T, cfg.frame_len)
    frames *= sqrt_hann_window(cfg.frame_len)
    out = np.zeros((spec.shape[1] + 1, cfg.hop))
    out[:-1] += frames[:, : cfg.hop]
    out[1:] += frames[:, cfg.hop :]
    return out.reshape(-1)


def signal_of_frames(rng, frames, cfg):
    # a partial hop at the tail, which analysis drops
    return rng.standard_normal((frames - 1) * cfg.hop + cfg.frame_len + cfg.hop // 2)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant(self):
        np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("n", [4, 64, 512])
    def test_matches_naive_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = dft(x)
        want = naive_dft(x)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-9

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        np.testing.assert_allclose(dft(dft(x), inverse=True), x, atol=1e-12)

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(4)
        xb = rng.standard_normal((5, 32))
        got = dft(xb)
        for row in range(5):
            np.testing.assert_allclose(got[row], dft(xb[row]), atol=1e-12)

    @pytest.mark.parametrize("n", [3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power of two"):
            dft(np.zeros(n))


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert (cfg.frame_len, cfg.hop, cfg.freq_bins) == (512, 256, 257)
        assert StftConfig(frame_len=64).hop == 32

    def test_rejects_non_power_of_two_frame(self):
        with pytest.raises(ValueError, match="power of two"):
            StftConfig(frame_len=500)

    @pytest.mark.parametrize("rate", [0, -3])
    def test_rejects_sample_rate_below_one(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            StftConfig(sample_rate=rate)

    @pytest.mark.parametrize("rate", [16000.5, 16000.0])
    def test_rejects_non_integer_sample_rate(self, rate):
        # the WAV and bases headers store the rate as an integer
        with pytest.raises(ValueError, match="sample rate must be an integer"):
            StftConfig(sample_rate=rate)

    def test_accepts_numpy_integer_sample_rate(self):
        assert StftConfig(sample_rate=np.int64(8000)).sample_rate == 8000


class TestSignal:
    def test_flattens_and_casts(self):
        s = Signal([[1, 2], [3, 4]], 16000)
        assert s.samples.dtype == np.float64
        assert len(s) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Signal(np.array([]), 16000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Signal(np.array([0.0, bad, 0.5]), 16000)

    def test_rejects_complex_samples(self):
        # a float64 cast would keep [1, 3] and drop the imaginary part
        with pytest.raises(ValueError, match="imaginary"):
            Signal(np.array([1 + 2j, 3]), 16000)

    def test_accepts_complex_samples_with_zero_imaginary_part(self):
        s = Signal(np.array([1 + 0j, 3]), 16000)
        assert s.samples.dtype == np.float64
        assert np.array_equal(s.samples, [1.0, 3.0])

    @pytest.mark.parametrize("rate", [0, -3])
    def test_rejects_sample_rate_below_one(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            Signal(np.ones(4), rate)

    @pytest.mark.parametrize("rate", [16000.5, 16000.0])
    def test_rejects_non_integer_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sample rate must be an integer"):
            Signal(np.ones(4), rate)

    def test_accepts_numpy_integer_sample_rate(self):
        assert Signal(np.ones(4), np.int32(8000)).sample_rate == 8000


class TestStft:
    def test_sine_peak_bin(self):
        # 440 Hz at 16 kHz with 512-point frames lands at bin 440*512/16000 = 14.08
        t = np.arange(16000) / 16000
        spec = stft(Signal(0.5 * np.sin(2 * np.pi * 440 * t), 16000), StftConfig())
        peaks = np.argmax(np.abs(spec), axis=0)
        assert np.all(peaks == 14)

    def test_zero_signal(self):
        spec = stft(Signal(np.zeros(2048), 16000), StftConfig())
        assert np.all(spec == 0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        cfg = StftConfig()
        a = rng.standard_normal(4096)
        b = rng.standard_normal(4096)
        left = stft(Signal(a + b, 16000), cfg)
        right = stft(Signal(a, 16000), cfg) + stft(Signal(b, 16000), cfg)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_frame_count(self):
        cfg = StftConfig()
        for n in [512, 513, 767, 768, 769, 5000]:
            spec = stft(Signal(np.ones(n), 16000), cfg)
            assert spec.shape == (257, (n - 512) // 256 + 1)

    def test_matches_per_frame_reference(self):
        rng = np.random.default_rng(10)
        cfg = StftConfig(frame_len=64)
        x = rng.standard_normal(1000)
        want = loop_stft(x, cfg)
        got = stft(Signal(x, 16000), cfg)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_short_signal(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            stft(Signal(np.ones(100), 16000), StftConfig())


class TestIstft:
    def test_round_trip_interior(self):
        rng = np.random.default_rng(6)
        cfg = StftConfig()
        x = rng.standard_normal(16000)
        rec = istft(stft(Signal(x, 16000), cfg), cfg)
        interior = slice(cfg.hop, rec.samples.size - cfg.hop)
        assert np.max(np.abs(rec.samples[interior] - x[interior])) <= 1e-10

    def test_zero_spectrogram(self):
        cfg = StftConfig()
        rec = istft(np.zeros((257, 4), dtype=complex), cfg)
        assert np.all(rec.samples == 0)

    def test_single_frame_is_windowed_inverse(self):
        rng = np.random.default_rng(7)
        cfg = StftConfig()
        x = rng.standard_normal(512)
        spec = stft(Signal(x, 16000), cfg)
        rec = istft(spec[:, :1], cfg)
        win = sqrt_hann_window(512)
        np.testing.assert_allclose(rec.samples, x * win**2, atol=1e-12)

    def test_matches_per_frame_overlap_add(self):
        # DC and Nyquist carry imaginary parts, as in estimated spectrograms
        rng = np.random.default_rng(11)
        cfg = StftConfig(frame_len=64)
        spec = rng.standard_normal((33, 20)) + 1j * rng.standard_normal((33, 20))
        want = loop_istft(spec, cfg)
        got = istft(spec, cfg).samples
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 257"):
            istft(np.zeros((100, 4), dtype=complex), StftConfig())


class TestFrameChunks:
    """Analysis and synthesis run a frame chunk at a time; a chunk edge
    must not change a bit of the result."""

    @pytest.mark.parametrize("frames", CHUNK_EDGES)
    def test_stft_matches_unchunked(self, frames):
        cfg = StftConfig()
        x = signal_of_frames(np.random.default_rng(frames), frames, cfg)
        got = stft(Signal(x, 16000), cfg)
        assert got.shape == (cfg.freq_bins, frames)
        assert got.flags.c_contiguous
        assert np.array_equal(got, unchunked_stft(x, cfg))

    @pytest.mark.parametrize("frames", CHUNK_EDGES)
    def test_istft_matches_unchunked(self, frames):
        rng = np.random.default_rng(frames)
        cfg = StftConfig()
        spec = rng.standard_normal((cfg.freq_bins, frames)) + 1j * rng.standard_normal(
            (cfg.freq_bins, frames)
        )
        assert np.array_equal(istft(spec, cfg).samples, unchunked_istft(spec, cfg))


class TestBoundedMemory:
    """Besides its input and output, a transform holds one frame chunk's
    temporaries, not full-length ones (traced peak at ~4100 frames)."""

    FRAMES = 4100

    def test_stft_peak(self):
        cfg = StftConfig()
        signal = Signal(signal_of_frames(np.random.default_rng(0), self.FRAMES, cfg), 16000)
        spec, peak = traced_peak(stft, signal, cfg)
        assert peak < 1.5 * spec.nbytes

    def test_istft_peak(self):
        rng = np.random.default_rng(1)
        cfg = StftConfig()
        shape = (cfg.freq_bins, self.FRAMES)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out, peak = traced_peak(istft, spec, cfg)
        assert peak < 2 * out.samples.nbytes


class TestWindowProperties:
    def test_cola(self):
        # squared sqrt-Hann halves sum to one on the overlapped interior
        win2 = sqrt_hann_window(512) ** 2
        overlap = win2[:256] + win2[256:]
        assert np.max(np.abs(overlap - 1.0)) <= 1e-12

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(8)
        cfg = StftConfig()
        x = rng.standard_normal(2048)
        win = sqrt_hann_window(512)
        frame = x[:512] * win
        spectrum = dft(frame.astype(complex))
        time_energy = float(np.sum(frame**2))
        freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / 512
        assert time_energy == pytest.approx(freq_energy, rel=1e-9)

    def test_one_sided_hermitian_consistency(self):
        rng = np.random.default_rng(9)
        cfg = StftConfig()
        x = rng.standard_normal(1024)
        one_sided = stft(Signal(x, 16000), cfg)
        tail = np.conj(one_sided.T[..., -2:0:-1])
        full = np.concatenate([one_sided.T, tail], axis=-1)
        frames = dft(full, inverse=True)
        assert np.max(np.abs(frames.imag)) <= 1e-10

    @given(st.integers(0, 10_000), st.integers(1024, 8192))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed, length):
        rng = np.random.default_rng(seed)
        cfg = StftConfig()
        x = rng.standard_normal(length)
        rec = istft(stft(Signal(x, 16000), cfg), cfg)
        interior = slice(cfg.hop, rec.samples.size - cfg.hop)
        assert np.max(np.abs(rec.samples[interior] - x[interior])) <= 1e-10
