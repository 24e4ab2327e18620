import json

import numpy as np
import pytest
from scipy.io import wavfile

from cmfsep.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, cli_main
from cmfsep.io_wav import write_wav
from cmfsep.stft import Signal


def write_tone(path, freq, seconds=1.0, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    write_wav(path, Signal(0.5 * np.sin(2 * np.pi * freq * t), rate), "float32")


@pytest.fixture()
def corpus(tmp_path):
    a_dir = tmp_path / "spk_a"
    b_dir = tmp_path / "spk_b"
    a_dir.mkdir()
    b_dir.mkdir()
    write_tone(a_dir / "u1.wav", 440)
    write_tone(b_dir / "u1.wav", 1870)
    t = np.arange(16000) / 16000
    mix = 0.5 * np.sin(2 * np.pi * 440 * t) + 0.5 * np.sin(2 * np.pi * 1870 * t)
    write_wav(tmp_path / "mix.wav", Signal(mix, 16000), "float32")
    return tmp_path


def run_pipeline(root, out_name="out", seed=0, iters=300):
    args = ["--rank", "2", "--iters", str(iters), "--seed", str(seed)]
    assert (
        cli_main(
            ["train", "--speaker-dir", str(root / "spk_a"), "--speaker-id", "A",
             "--out", str(root / "a.cmfb")] + args
        )
        == EXIT_OK
    )
    assert (
        cli_main(
            ["train", "--speaker-dir", str(root / "spk_b"), "--speaker-id", "B",
             "--out", str(root / "b.cmfb")] + args
        )
        == EXIT_OK
    )
    assert (
        cli_main(
            ["separate", "--mix", str(root / "mix.wav"),
             "--bases-a", str(root / "a.cmfb"), "--bases-b", str(root / "b.cmfb"),
             "--out-dir", str(root / out_name), "--seed", str(seed),
             "--iters", str(iters)]
        )
        == EXIT_OK
    )


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert cli_main(["train", "--speaker-id", "A"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = cli_main(
            ["eval", "--ref", str(tmp_path / "no.wav"), "--est", str(tmp_path / "no.wav")]
        )
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_stft_mismatch_is_data_error(self, corpus, capsys):
        cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "5", "--out", str(corpus / "a.cmfb")]
        )
        cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_b"), "--speaker-id", "B",
             "--rank", "2", "--iters", "5", "--frame", "256", "--hop", "128",
             "--out", str(corpus / "b256.cmfb")]
        )
        code = cli_main(
            ["separate", "--mix", str(corpus / "mix.wav"),
             "--bases-a", str(corpus / "a.cmfb"), "--bases-b", str(corpus / "b256.cmfb"),
             "--out-dir", str(corpus / "out")]
        )
        assert code == EXIT_DATA
        assert "stft config mismatch" in capsys.readouterr().err

    def test_empty_speaker_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = cli_main(
            ["train", "--speaker-dir", str(empty), "--speaker-id", "A",
             "--out", str(tmp_path / "a.cmfb")]
        )
        assert code == EXIT_DATA


class TestNonFiniteInput:
    @pytest.fixture()
    def nan_dir(self, tmp_path):
        d = tmp_path / "spk_nan"
        d.mkdir()
        x = 0.5 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        x[5000] = np.nan
        wavfile.write(d / "u1.wav", 16000, x.astype(np.float32))
        return d

    def test_factorize_is_data_error(self, nan_dir, capsys):
        log = nan_dir / "run.log"
        code = cli_main(
            ["factorize", "--in", str(nan_dir / "u1.wav"), "--rank", "2",
             "--iters", "5", "--log", str(log)]
        )
        assert code == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err
        assert not log.exists()

    def test_train_is_data_error(self, nan_dir, tmp_path, capsys):
        out = tmp_path / "nan.cmfb"
        code = cli_main(
            ["train", "--speaker-dir", str(nan_dir), "--speaker-id", "N",
             "--rank", "2", "--iters", "5", "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]


class TestFactorize:
    def test_prints_relative_error_and_writes_log(self, corpus, capsys):
        log = corpus / "run.log"
        code = cli_main(
            ["factorize", "--in", str(corpus / "mix.wav"), "--rank", "4",
             "--iters", "40", "--log", str(log)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "relative complex-domain error" in out
        lines = log.read_text().strip().split("\n")
        assert lines
        for ln in lines:
            fields = ln.split("\t")
            assert len(fields) in (2, 3)
            int(fields[0])
            float(fields[1])


class TestEval:
    def test_self_eval_json(self, corpus, capsys):
        code = cli_main(
            ["eval", "--ref", str(corpus / "mix.wav"), "--est", str(corpus / "mix.wav")]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["correlation"] == pytest.approx(1.0, abs=1e-12)
        assert payload["tir_loss"] == 0.0
        assert payload["tir_loss_definition"] == "surrogate"

    def test_csv_output(self, corpus, capsys):
        code = cli_main(
            ["eval", "--ref", str(corpus / "mix.wav"), "--est", str(corpus / "mix.wav"),
             "--csv"]
        )
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip()
        assert len(row.split(",")) == 4


class TestPipeline:
    def test_end_to_end_quality(self, corpus, capsys):
        run_pipeline(corpus)
        for est, ref_dir in (("est_a.wav", "spk_a"), ("est_b.wav", "spk_b")):
            code = cli_main(
                ["eval", "--ref", str(corpus / ref_dir / "u1.wav"),
                 "--est", str(corpus / "out" / est)]
            )
            assert code == EXIT_OK
            last_line = capsys.readouterr().out.strip().splitlines()[-1]
            payload = json.loads(last_line)
            assert payload["correlation"] >= 0.9

    def test_seeded_runs_are_bit_identical(self, corpus):
        run_pipeline(corpus, out_name="out1", seed=3)
        a1 = (corpus / "a.cmfb").read_bytes()
        run_pipeline(corpus, out_name="out2", seed=3)
        assert (corpus / "a.cmfb").read_bytes() == a1
        for name in ("est_a.wav", "est_b.wav"):
            assert (corpus / "out1" / name).read_bytes() == (
                corpus / "out2" / name
            ).read_bytes()

    def test_env_seed_fallback(self, corpus, monkeypatch):
        monkeypatch.setenv("CMF_SEP_SEED", "5")
        cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "20", "--out", str(corpus / "env.cmfb")]
        )
        monkeypatch.delenv("CMF_SEP_SEED")
        cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "20", "--seed", "5",
             "--out", str(corpus / "flag.cmfb")]
        )
        assert (corpus / "env.cmfb").read_bytes() == (corpus / "flag.cmfb").read_bytes()

    def test_bad_env_seed_is_usage_error(self, corpus, monkeypatch, capsys):
        monkeypatch.setenv("CMF_SEP_SEED", "not-a-number")
        code = cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "5", "--out", str(corpus / "x.cmfb")]
        )
        assert code == EXIT_USAGE

    def test_no_partial_output_on_failure(self, corpus, tmp_path):
        # unwritable sibling directory: the temp-then-rename write leaves
        # nothing behind on failure
        target_dir = tmp_path / "does-not-exist"
        code = cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "5",
             "--out", str(target_dir / "a.cmfb")]
        )
        assert code == EXIT_DATA
        assert not target_dir.exists()
