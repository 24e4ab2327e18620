import dataclasses
import logging
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from cmfsep.bases_file import BasesFileError, load_bases, save_bases
from cmfsep.cli import EXIT_DATA, cli_main
from cmfsep.io_wav import read_wav, write_wav
from cmfsep.linalg import SAMPLE_CHUNK
from cmfsep.separation import BasisSet
from cmfsep.stft import Signal, StftConfig
from wav_reference import write_wav as reference_write_wav


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

    def test_rejects_empty_write(self):
        # a Signal is checked nonempty once, when made, and its samples
        # cannot be replaced afterwards, so no empty one reaches write_wav
        sig = Signal(np.ones(1), 16000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sig.samples = np.empty(0)
        assert sig.samples.size == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_write(self, tmp_path, bad):
        sig = Signal(np.zeros(10), 16000)
        sig.samples[3] = bad
        p = tmp_path / "n.wav"
        with pytest.raises(ValueError, match="non-finite"):
            write_wav(p, sig)
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    # the first and last samples, and either end of a later chunk
    @pytest.mark.parametrize("at", [0, -1, SAMPLE_CHUNK, 2 * SAMPLE_CHUNK - 1, 2 * SAMPLE_CHUNK])
    @pytest.mark.parametrize("bit_depth", ["pcm16", "float32"])
    def test_rejects_samples_made_non_finite_in_any_chunk(self, tmp_path, bad, at, bit_depth):
        sig = Signal(np.linspace(-1.0, 1.0, 2 * SAMPLE_CHUNK + 3), 16000)
        sig.samples[at] = bad
        p = tmp_path / "n.wav"
        with pytest.raises(ValueError, match="non-finite"):
            write_wav(p, sig, bit_depth)
        assert not p.exists()

    def test_writes_finite_samples_whose_squares_overflow(self, tmp_path, caplog):
        # each chunk's sum of squares is inf, so the exact mask decides;
        # the samples are then clipped to full scale
        x = np.full(2 * SAMPLE_CHUNK + 3, 1e200)
        x[1::2] *= -1
        p = tmp_path / "big.wav"
        with caplog.at_level(logging.WARNING, logger="cmfsep.io_wav"):
            write_wav(p, Signal(x, 16000), "pcm16")
        _, raw = wavfile.read(p)
        assert np.array_equal(raw, np.where(x > 0, 32767, -32768))
        assert f"clipped {x.size} samples" in caplog.text

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_rejects_bad_sample_rate_write(self, rate):
        # as for the samples: the rate checked at construction is the one
        # write_wav stores
        sig = Signal(np.zeros(10), 16000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sig.sample_rate = rate
        assert sig.sample_rate == 16000

    def test_rejects_unknown_bit_depth(self, tmp_path):
        with pytest.raises(ValueError, match="bit depth"):
            write_wav(tmp_path / "x.wav", Signal(np.ones(10), 16000), "pcm24")


def _chunk(tag: bytes, body: bytes) -> bytes:
    return struct.pack("<4sI", tag, len(body)) + body + b"\x00" * (len(body) & 1)


def _fmt(tag=1, channels=1, rate=16000, block_align=2, bits=16, byte_rate=None):
    if byte_rate is None:
        byte_rate = rate * block_align
    return _chunk(
        b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, byte_rate, block_align, bits)
    )


def _extensible_fmt(sub_tag, bits, guid_tail=b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"):
    align = bits // 8
    body = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 16000 * align, align, bits, 22, bits, 4)
    return _chunk(b"fmt ", body + struct.pack("<I", sub_tag) + guid_tail)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


_PCM16_RAMP = np.arange(-500, 500, dtype="<i2") * 60


class TestWavHandBuilt:
    """Files that ``write_wav`` never makes, with scipy's reader as oracle."""

    @pytest.mark.parametrize(
        "raw",
        [
            _riff(_extensible_fmt(1, 16), _chunk(b"data", _PCM16_RAMP.tobytes())),
            _riff(
                _extensible_fmt(3, 32),
                _chunk(b"fact", struct.pack("<I", 5)),
                _chunk(b"data", np.linspace(-1, 1, 5, dtype="<f4").tobytes()),
            ),
            # odd-sized chunks before and after fmt, each with its pad byte
            _riff(
                _chunk(b"LIST", b"INFOabc"),
                _fmt(),
                _chunk(b"JUNK", b"x"),
                _chunk(b"data", _PCM16_RAMP.tobytes()),
            ),
            # a chunk after the data is never read
            _riff(_fmt(), _chunk(b"data", _PCM16_RAMP.tobytes()), _chunk(b"LIST", b"INFO")),
        ],
        ids=["extensible_pcm16", "extensible_float32", "odd_chunks", "trailing_chunk"],
    )
    def test_matches_scipy(self, tmp_path, raw):
        p = tmp_path / "h.wav"
        p.write_bytes(raw)
        rate, data = wavfile.read(p)
        wav = read_wav(p)
        scale = 32768.0 if data.dtype == np.int16 else 1.0
        assert wav.bit_depth == {np.int16: "pcm16", np.float32: "float32"}[data.dtype.type]
        assert wav.samples.sample_rate == rate
        assert np.array_equal(wav.samples.samples, data.astype(np.float64) / scale)


class TestWavMalformed:
    """Each malformed header or body raises ValueError, which the CLI
    reports with exit code 2."""

    @pytest.mark.parametrize(
        "raw, match",
        [
            (_riff(_fmt(), _chunk(b"data", _PCM16_RAMP.tobytes()))[:-501],
             "header claims 2000 bytes, file holds 1499"),
            (_riff(_fmt())[:30], "truncated b'fmt ' chunk: header claims 16 bytes, file holds 10"),
            (_riff(_chunk(b"fmt ", b"\x01\x00" * 5), _chunk(b"data", b"\x00" * 8)),
             "fmt chunk of 10 bytes"),
            (_riff(_fmt(rate=0, block_align=0), _chunk(b"data", b"\x00" * 8)), "inconsistent"),
            (_riff(_fmt(byte_rate=1), _chunk(b"data", b"\x00" * 8)), "inconsistent"),
            (_riff(_fmt(), _chunk(b"data", b"\x00" * 7)), "whole number"),
            (_riff(_chunk(b"data", b"\x00" * 8), _fmt()), "before fmt"),
            (_riff(_fmt()), "no data chunk"),
            (_riff(_fmt(), _chunk(b"LIST", b"INFO")), "no data chunk"),
            (b"RIFX" + _riff(_fmt(), _chunk(b"data", b"\x00" * 8))[4:], "RIFF/WAVE"),
            (b"RIFF\x00\x00", "RIFF/WAVE"),
            (_riff(_fmt(tag=6, bits=8, block_align=1), _chunk(b"data", b"\x00")),
             "unsupported sample format"),
            (_riff(_fmt(tag=3, bits=16), _chunk(b"data", b"\x00" * 8)),
             "unsupported sample format"),
            (_riff(_extensible_fmt(1, 16, guid_tail=b"\x00" * 12), _chunk(b"data", b"\x00" * 8)),
             "unsupported sample format"),
            (_riff(_fmt(tag=0xFFFE), _chunk(b"data", b"\x00" * 8)), "extensible fmt chunk"),
            (_riff(_fmt(channels=2, block_align=4), _chunk(b"data", b"\x00" * 8)), "mono"),
            # a chunk size past the end of the file is rejected before any read
            (_riff(struct.pack("<4sI", b"LIST", 0xFFFFFFF0)), "truncated b'LIST' chunk"),
            (_riff(_fmt(), struct.pack("<4sI", b"data", 0xFFFFFFFF)), "truncated b'data' chunk"),
        ],
        ids=[
            "truncated_data", "truncated_fmt", "short_fmt", "zero_rate_and_align", "byte_rate",
            "partial_frame", "data_before_fmt", "no_data", "no_data_after_list",
            "big_endian", "short_riff", "alaw", "float16", "extensible_guid",
            "short_extensible", "stereo", "oversized_chunk", "streamed_data_size",
        ],
    )
    def test_rejected(self, tmp_path, raw, match):
        p = tmp_path / "bad.wav"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=match):
            read_wav(p)

    def test_truncated_data_is_a_cli_data_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.wav"
        write_wav(ref, Signal(np.linspace(-0.5, 0.5, 1000), 16000))
        cut = tmp_path / "cut.wav"
        cut.write_bytes(ref.read_bytes()[:-501])
        assert cli_main(["eval", "--ref", str(ref), "--est", str(cut)]) == EXIT_DATA
        assert "header claims 2000 bytes, file holds 1499" in capsys.readouterr().err


def edge_signal(kind, size, seed=0):
    """``size`` samples: in range, mostly clipped, or in range with the
    edge values of the pcm16 scaling (±1, ±32767.5/32768, ±0.5/32768)
    strewn over every chunk."""
    rng = np.random.default_rng(seed)
    if kind == "clipped":
        return rng.uniform(-3.0, 3.0, size)
    x = rng.uniform(-0.99, 0.99, size)
    if kind == "edges":
        edges = np.array([-32768.0, 32768.0, -32767.5, 32767.5, -0.5, 0.5]) / 32768
        at = rng.choice(size, min(size, 600), replace=False)
        x[at] = np.resize(edges, at.size)
    return x


class TestWavWriteReference:
    """The writer against ``wav_reference``'s nine-pass one, at lengths
    around the chunk width and over several chunks."""

    @pytest.mark.parametrize("kind", ["in_range", "clipped", "edges"])
    @pytest.mark.parametrize(
        "size", [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 17]
    )
    @pytest.mark.parametrize("bit_depth", ["pcm16", "float32"])
    def test_bytes_and_clip_count_match(self, tmp_path, caplog, kind, size, bit_depth):
        sig = Signal(edge_signal(kind, size, seed=size), 16000)
        got, want = tmp_path / "got.wav", tmp_path / "want.wav"
        with caplog.at_level(logging.WARNING, logger="cmfsep.io_wav"):
            write_wav(got, sig, bit_depth)
        clipped = reference_write_wav(want, sig, bit_depth)
        assert got.read_bytes() == want.read_bytes()
        assert (kind == "clipped") == (clipped > 0)
        warnings = [r.getMessage() for r in caplog.records if r.name == "cmfsep.io_wav"]
        assert warnings == ([f"{got}: clipped {clipped} samples to [-1, 1]"] if clipped else [])

    @pytest.mark.parametrize("bit_depth", ["pcm16", "float32"])
    def test_only_a_chunk_past_full_scale_is_clipped(self, tmp_path, caplog, bit_depth):
        # one sample past full scale at the last sample of the middle chunk
        x = edge_signal("edges", 3 * SAMPLE_CHUNK)
        x[2 * SAMPLE_CHUNK - 1] = -1.25
        sig = Signal(x, 16000)
        got, want = tmp_path / "got.wav", tmp_path / "want.wav"
        with caplog.at_level(logging.WARNING, logger="cmfsep.io_wav"):
            write_wav(got, sig, bit_depth)
        assert reference_write_wav(want, sig, bit_depth) == 1
        assert got.read_bytes() == want.read_bytes()
        assert "clipped 1 samples" in caplog.text


class _Untouched(np.ndarray):
    """Samples whose values must not be computed on."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("the samples were computed on")


class TestWavWriteMemory:
    def test_pcm16_write_holds_the_output_and_one_chunk(self, tmp_path):
        # scaled, rounded and clipped chunk by chunk into the int16
        # buffer: no full-length float64 copy of the samples
        x = np.random.default_rng(3).uniform(-1.2, 1.2, 1 << 21)
        sig = Signal(x, 16000)
        tracemalloc.start()
        try:
            write_wav(tmp_path / "big.wav", sig, "pcm16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4 + (2 << 20)


class TestWavReadMemory:
    @pytest.mark.parametrize("bit_depth", ["pcm16", "float32"])
    def test_read_holds_the_result_and_one_chunk(self, tmp_path, bit_depth):
        # read through one chunk-sized buffer of the file's dtype, and the
        # finiteness check masks one chunk at a time
        p = tmp_path / "big.wav"
        x = np.random.default_rng(4).uniform(-1.0, 1.0, 1 << 21)
        write_wav(p, Signal(x, 16000), bit_depth)
        tracemalloc.start()
        try:
            wav = read_wav(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = wav.samples.samples
        assert peak <= got.nbytes + (1 << 20)
        _, raw = wavfile.read(p)
        want = raw / 32768.0 if bit_depth == "pcm16" else raw.astype(np.float64)
        assert np.array_equal(got, want)


class TestWavWriteLimits:
    @pytest.mark.parametrize("bit_depth, count", [("pcm16", 2**31), ("float32", 2**30)])
    def test_riff_size_limit(self, tmp_path, bit_depth, count):
        # a zero-stride view, rejected on its size before any pass over it;
        # set past the frozen field, since the constructor would pass over it
        sig = Signal(np.zeros(1), 16000)
        object.__setattr__(sig, "samples", np.broadcast_to(0.0, (count,)).view(_Untouched))
        p = tmp_path / "big.wav"
        with pytest.raises(ValueError, match="RIFF size limit"):
            write_wav(p, sig, bit_depth)
        assert not p.exists()

    def test_rate_too_large_for_the_header(self, tmp_path):
        sig = Signal(np.zeros(10), 2**31)
        p = tmp_path / "r.wav"
        with pytest.raises(ValueError, match="too large"):
            write_wav(p, sig, "pcm16")
        assert not p.exists()


def _valid_wav_bytes(tmp_path, bit_depth):
    p = tmp_path / f"valid-{bit_depth}.wav"
    write_wav(p, Signal(np.linspace(-0.5, 0.5, 64), 16000), bit_depth)
    return p.read_bytes()


class TestWavFuzz:
    """Any input either loads or raises ValueError."""

    @staticmethod
    def _load_or_reject(path, data):
        path.write_bytes(data)
        try:
            read_wav(path)
        except ValueError:
            pass

    @given(bit_depth=st.sampled_from(["pcm16", "float32"]), cut=st.integers(0, 10_000))
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncated(self, tmp_path, bit_depth, cut):
        raw = _valid_wav_bytes(tmp_path, bit_depth)
        (tmp_path / "t.wav").write_bytes(raw[: cut % len(raw)])
        with pytest.raises(ValueError):
            read_wav(tmp_path / "t.wav")

    @given(data=st.binary(max_size=200))
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_bytes(self, tmp_path, data):
        self._load_or_reject(tmp_path / "r.wav", data)
        self._load_or_reject(tmp_path / "r.wav", _riff(data))
        self._load_or_reject(tmp_path / "r.wav", _riff(_fmt(), data))

    @given(
        bit_depth=st.sampled_from(["pcm16", "float32"]),
        edits=st.lists(
            st.tuples(st.integers(0, 57), st.integers(0, 255)), min_size=1, max_size=6
        ),
    )
    # fmt fields start at byte 20: zero rate and block align; a data size
    # of 2**32 - 1 in the pcm16 file
    @example(bit_depth="pcm16", edits=[(24, 0), (25, 0), (32, 0)])
    @example(bit_depth="pcm16", edits=[(40, 255), (41, 255), (42, 255), (43, 255)])
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_header_mutations(self, tmp_path, bit_depth, edits):
        raw = bytearray(_valid_wav_bytes(tmp_path, bit_depth))
        for pos, value in edits:
            raw[pos] = value
        self._load_or_reject(tmp_path / "m.wav", bytes(raw))


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

    def test_all_zero_payload_rejected(self, tmp_path):
        b = random_basis()
        b.x_train[:] = 0
        p = tmp_path / "z.cmfb"
        save_bases(p, b)
        with pytest.raises(BasesFileError, match="all zero"):
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
