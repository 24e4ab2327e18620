import logging
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from cmfsep.bases_file import BasesFileError, load_bases, save_bases
from cmfsep.io_wav import read_wav, write_wav
from cmfsep.separation import BasisSet
from cmfsep.stft import Signal, StftConfig


def random_basis(seed=0, rank=3):
    rng = np.random.default_rng(seed)
    cfg = StftConfig()
    x = rng.standard_normal((cfg.freq_bins, rank)) + 1j * rng.standard_normal(
        (cfg.freq_bins, rank)
    )
    return BasisSet(x_train=x, speaker_id="speaker-α", stft_cfg=cfg)


class TestWav:
    def test_pcm16_silence(self, tmp_path):
        p = tmp_path / "s.wav"
        wavfile.write(p, 16000, np.zeros(16000, dtype=np.int16))
        wav = read_wav(p)
        assert wav.bit_depth == "pcm16"
        assert wav.samples.sample_rate == 16000
        assert len(wav.samples) == 16000
        assert np.all(wav.samples.samples == 0)

    def test_pcm16_full_scale_normalization(self, tmp_path):
        p = tmp_path / "f.wav"
        wavfile.write(p, 16000, np.array([32767, -32768], dtype=np.int16))
        wav = read_wav(p)
        assert wav.samples.samples[0] == pytest.approx(32767 / 32768)
        assert wav.samples.samples[1] == pytest.approx(-1.0)

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 4096)
        p = tmp_path / "r.wav"
        write_wav(p, Signal(x, 16000), "float32")
        back = read_wav(p)
        assert back.bit_depth == "float32"
        assert np.max(np.abs(back.samples.samples - x)) <= 1e-7

    def test_pcm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.9, 0.9, 4096)
        p = tmp_path / "r16.wav"
        write_wav(p, Signal(x, 16000), "pcm16")
        back = read_wav(p)
        assert np.max(np.abs(back.samples.samples - x)) <= 1 / 32768

    @pytest.mark.parametrize("bit_depth", ["pcm16", "float32"])
    def test_bytes_match_the_plain_formula(self, tmp_path, bit_depth):
        # scaling, rounding and clipping in place must not change a byte:
        # samples past full scale, and pcm16 ties half a step apart
        rng = np.random.default_rng(2)
        ties = np.array([-32768.5, -32767.5, -2.5, -0.5, 0.5, 1.5, 32766.5, 32767.5]) / 32768
        edges = np.array([-1.0, 1.0, 0.0, 32767 / 32768, -1.5, 1.5])
        x = np.concatenate([rng.uniform(-1.2, 1.2, 4000), ties, edges])
        got, want = tmp_path / "got.wav", tmp_path / "want.wav"
        write_wav(got, Signal(x, 16000), bit_depth)
        clipped = np.clip(x, -1.0, 1.0)
        if bit_depth == "pcm16":
            data = np.clip(np.round(clipped * 32768.0), -32768, 32767).astype(np.int16)
            samples = data.astype(np.float64) / 32768.0
        else:
            data = clipped.astype(np.float32)
            samples = data.astype(np.float64)
        wavfile.write(want, 16000, data)
        assert got.read_bytes() == want.read_bytes()
        back = read_wav(got)
        assert back.bit_depth == bit_depth
        assert np.array_equal(back.samples.samples, samples)

    def test_rejects_multichannel(self, tmp_path):
        p = tmp_path / "st.wav"
        wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError, match="mono"):
            read_wav(p)

    def test_rejects_unsupported_dtype(self, tmp_path):
        p = tmp_path / "i32.wav"
        wavfile.write(p, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(ValueError, match="unsupported sample format"):
            read_wav(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_clipping_logged(self, tmp_path, caplog):
        x = np.array([0.5, 1.5, -2.0])
        p = tmp_path / "c.wav"
        with caplog.at_level(logging.WARNING, logger="cmfsep.io_wav"):
            write_wav(p, Signal(x, 16000), "float32")
        assert "clipped 2" in caplog.text
        back = read_wav(p)
        assert np.max(np.abs(back.samples.samples)) <= 1.0

    def test_rejects_empty_write(self, tmp_path):
        sig = Signal(np.ones(1), 16000)
        sig.samples = np.empty(0)
        with pytest.raises(ValueError, match="empty"):
            write_wav(tmp_path / "e.wav", sig)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_write(self, tmp_path, bad):
        sig = Signal(np.zeros(10), 16000)
        sig.samples[3] = bad
        p = tmp_path / "n.wav"
        with pytest.raises(ValueError, match="non-finite"):
            write_wav(p, sig)
        assert not p.exists()

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_rejects_bad_sample_rate_write(self, tmp_path, rate):
        sig = Signal(np.zeros(10), 16000)
        sig.sample_rate = rate
        p = tmp_path / "r.wav"
        with pytest.raises(ValueError, match="sample rate"):
            write_wav(p, sig)
        assert not p.exists()

    def test_rejects_unknown_bit_depth(self, tmp_path):
        with pytest.raises(ValueError, match="bit depth"):
            write_wav(tmp_path / "x.wav", Signal(np.ones(10), 16000), "pcm24")


class TestBasesFile:
    def test_round_trip_bit_exact(self, tmp_path):
        b = random_basis()
        p = tmp_path / "b.cmfb"
        save_bases(p, b)
        loaded = load_bases(p)
        assert np.array_equal(loaded.x_train, b.x_train)
        assert loaded.speaker_id == b.speaker_id
        assert loaded.stft_cfg == b.stft_cfg
        assert loaded.rank == b.rank

    def test_double_save_identical_bytes(self, tmp_path):
        b = random_basis()
        p1, p2 = tmp_path / "1.cmfb", tmp_path / "2.cmfb"
        save_bases(p1, b)
        save_bases(p2, b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cmfb"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(BasesFileError, match="not a CMFB file"):
            load_bases(p)

    def test_version_mismatch(self, tmp_path):
        b = random_basis()
        p = tmp_path / "v.cmfb"
        save_bases(p, b)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(BasesFileError, match="version 99"):
            load_bases(p)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        b = random_basis()
        p = tmp_path / "t.cmfb"
        save_bases(p, b)
        raw = p.read_bytes()
        p.write_bytes(raw[:-7])
        with pytest.raises(BasesFileError, match="expected .* bytes, got"):
            load_bases(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        b = random_basis()
        p = tmp_path / "x.cmfb"
        save_bases(p, b)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(BasesFileError, match="trailing"):
            load_bases(p)

    def test_inconsistent_freq_bins_rejected(self, tmp_path):
        b = random_basis()
        p = tmp_path / "fb.cmfb"
        save_bases(p, b)
        raw = bytearray(p.read_bytes())
        sid_len = len("speaker-α".encode("utf-8"))
        off = 8 + sid_len + 4  # magic+version+id_len+sid+rank
        raw[off : off + 4] = (300).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(BasesFileError, match="inconsistent"):
            load_bases(p)

    def test_unknown_window_id(self, tmp_path):
        b = random_basis()
        p = tmp_path / "w.cmfb"
        save_bases(p, b)
        raw = bytearray(p.read_bytes())
        sid_len = len("speaker-α".encode("utf-8"))
        off = 8 + sid_len + 20  # last header byte
        raw[off] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(BasesFileError, match="unknown window id"):
            load_bases(p)

    def test_non_finite_payload_rejected(self, tmp_path):
        b = random_basis()
        b.x_train[4, 1] = complex(np.nan, 0.0)
        p = tmp_path / "n.cmfb"
        save_bases(p, b)
        with pytest.raises(BasesFileError, match="non-finite"):
            load_bases(p)

    def test_invalid_utf8_speaker_id_rejected(self, tmp_path):
        b = random_basis()
        p = tmp_path / "u.cmfb"
        save_bases(p, b)
        raw = bytearray(p.read_bytes())
        raw[8] = 0xFF  # first byte of the speaker id
        p.write_bytes(bytes(raw))
        with pytest.raises(BasesFileError, match="UTF-8"):
            load_bases(p)

    def test_zero_sample_rate_rejected(self, tmp_path):
        b = random_basis()
        p = tmp_path / "sr.cmfb"
        save_bases(p, b)
        raw = bytearray(p.read_bytes())
        off = 8 + len("speaker-α".encode("utf-8")) + 16  # sample_rate
        raw[off : off + 4] = (0).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(BasesFileError, match="sample rate"):
            load_bases(p)

    def test_layout_pinned(self, tmp_path):
        # round trips alone would pass a save and a load that both shift
        b = random_basis(rank=2)
        p = tmp_path / "pin.cmfb"
        save_bases(p, b)
        sid = "speaker-α".encode("utf-8")
        n = len(sid)
        header = struct.pack(
            f"<4sHH{n}sIIIIIB", b"CMFB", 1, n, sid, 2, 257, 512, 256, 16000, 0
        )
        payload = np.stack([b.x_train.real, b.x_train.imag], axis=-1).astype("<f8")
        assert p.read_bytes() == header + payload.tobytes()

    def test_invalid_stft_fields_rejected(self, tmp_path):
        b = random_basis()
        p = tmp_path / "h.cmfb"
        save_bases(p, b)
        raw = bytearray(p.read_bytes())
        off = 8 + len("speaker-α".encode("utf-8")) + 12  # hop
        raw[off : off + 4] = (100).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(BasesFileError, match="hop"):
            load_bases(p)


def _valid_bases_bytes(tmp_path):
    p = tmp_path / "valid.cmfb"
    save_bases(p, random_basis(rank=2))
    return p.read_bytes()


# a 37-byte header declaring rank 2**20 with no payload behind it
_HUGE_RANK_HEADER = struct.pack(
    "<4sHH8sIIIIIB", b"CMFB", 1, 8, b"speaker1", 2**20, 257, 512, 256, 16000, 0
)


class TestBasesFileFuzz:
    """Malformed input of any kind raises only BasesFileError."""

    @staticmethod
    def _load_or_reject(path, data):
        path.write_bytes(data)
        try:
            load_bases(path)
        except BasesFileError:
            pass

    @given(cut=st.integers(0, 10_000))
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncated(self, tmp_path, cut):
        raw = _valid_bases_bytes(tmp_path)
        (tmp_path / "t.cmfb").write_bytes(raw[: cut % len(raw)])
        with pytest.raises(BasesFileError):
            load_bases(tmp_path / "t.cmfb")

    @given(data=st.binary(max_size=200))
    @example(data=_HUGE_RANK_HEADER)
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_bytes(self, tmp_path, data):
        self._load_or_reject(tmp_path / "r.cmfb", data)
        self._load_or_reject(tmp_path / "r.cmfb", b"CMFB\x01\x00" + data)

    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 255)), min_size=1, max_size=6
        )
    )
    # header fields start at byte 18, after the 10-byte speaker id
    @example(edits=[(18, 0), (19, 0), (20, 16), (21, 0)])  # rank 2**20
    @example(  # frame 2**32-2 with the freq_bins it implies
        edits=[(22, 0), (23, 0), (24, 0), (25, 0x80)]
        + [(26, 0xFE), (27, 0xFF), (28, 0xFF), (29, 0xFF)]
    )
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_header_mutations(self, tmp_path, edits):
        raw = bytearray(_valid_bases_bytes(tmp_path))
        for pos, value in edits:
            raw[pos] = value
        self._load_or_reject(tmp_path / "m.cmfb", bytes(raw))
