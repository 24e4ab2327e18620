import argparse
import json
import os
import stat

import numpy as np
import pytest
from scipy.io import wavfile

import cmfsep.cli as cli_mod
from cmfsep.bases_file import load_bases
from cmfsep.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, cli_main
from cmfsep.io_wav import write_wav
from cmfsep.stft import Signal


def write_tone(path, freq, seconds=1.0, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    write_wav(path, Signal(0.5 * np.sin(2 * np.pi * freq * t), rate), "float32")


def make_corpus(root, rate=16000):
    """One second of a 440 Hz tone for speaker A, of 1870 Hz for B, and
    their mixture, all at ``rate``."""
    a_dir = root / "spk_a"
    b_dir = root / "spk_b"
    a_dir.mkdir()
    b_dir.mkdir()
    write_tone(a_dir / "u1.wav", 440, rate=rate)
    write_tone(b_dir / "u1.wav", 1870, rate=rate)
    t = np.arange(rate) / rate
    mix = 0.5 * np.sin(2 * np.pi * 440 * t) + 0.5 * np.sin(2 * np.pi * 1870 * t)
    write_wav(root / "mix.wav", Signal(mix, rate), "float32")
    return root


@pytest.fixture()
def corpus(tmp_path):
    return make_corpus(tmp_path)


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
             "--rank", "2", "--iters", "5", "--frame", "256",
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

    def test_silent_training_dir_is_data_error(self, tmp_path, capsys):
        # one second of silence would train an all-zero basis set
        d = tmp_path / "spk_silent"
        d.mkdir()
        write_wav(d / "u1.wav", Signal(np.zeros(16000), 16000), "float32")
        out = tmp_path / "a.cmfb"
        code = cli_main(
            ["train", "--speaker-dir", str(d), "--speaker-id", "A", "--rank", "4",
             "--iters", "5", "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert "silent" in capsys.readouterr().err
        assert not out.exists()

    def test_all_zero_bases_file_is_data_error(self, corpus, capsys):
        run_pipeline(corpus, iters=5)
        zero = corpus / "zero.cmfb"
        raw = bytearray((corpus / "b.cmfb").read_bytes())
        payload = 257 * 2 * 16  # freq_bins x rank complex128 entries
        raw[-payload:] = bytes(payload)
        zero.write_bytes(bytes(raw))
        code = cli_main(
            ["separate", "--mix", str(corpus / "mix.wav"),
             "--bases-a", str(corpus / "a.cmfb"), "--bases-b", str(zero),
             "--out-dir", str(corpus / "out_zero")]
        )
        assert code == EXIT_DATA
        assert "all zero" in capsys.readouterr().err
        assert not (corpus / "out_zero").exists()

    def test_zero_sample_rate_is_data_error(self, tmp_path):
        d = tmp_path / "spk_0hz"
        d.mkdir()
        x = 0.5 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        wavfile.write(d / "u1.wav", 0, x.astype(np.float32))
        out = tmp_path / "a.cmfb"
        code = cli_main(
            ["train", "--speaker-dir", str(d), "--speaker-id", "A", "--rank", "2",
             "--iters", "5", "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert not out.exists()


class TestRateFromInput:
    """``factorize`` and ``train`` take the sample rate from their WAV
    files; no flag restates it."""

    @pytest.fixture()
    def corpus_8k(self, tmp_path):
        return make_corpus(tmp_path, rate=8000)

    def test_train_writes_the_files_rate(self, corpus_8k):
        out = corpus_8k / "a.cmfb"
        code = cli_main(
            ["train", "--speaker-dir", str(corpus_8k / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert load_bases(out).stft_cfg.sample_rate == 8000

    def test_factorize_takes_the_files_rate(self, corpus_8k, capsys):
        code = cli_main(
            ["factorize", "--in", str(corpus_8k / "mix.wav"), "--rank", "2", "--iters", "5"]
        )
        assert code == EXIT_OK
        assert "relative complex-domain error" in capsys.readouterr().out

    def test_mixed_rate_corpus_is_data_error(self, corpus, capsys):
        write_tone(corpus / "spk_a" / "u2.wav", 440, rate=8000)
        out = corpus / "a.cmfb"
        code = cli_main(
            ["train", "--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
             "--rank", "2", "--iters", "5", "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert "training signal 1: sample rate 8000" in capsys.readouterr().err
        assert not out.exists()

    def test_mixture_rate_must_match_the_bases(self, corpus, tmp_path, capsys):
        run_pipeline(corpus, iters=5)
        mix_8k = tmp_path / "mix_8k.wav"
        write_tone(mix_8k, 440, rate=8000)
        out_dir = tmp_path / "out_8k"
        code = cli_main(
            ["separate", "--mix", str(mix_8k), "--bases-a", str(corpus / "a.cmfb"),
             "--bases-b", str(corpus / "b.cmfb"), "--out-dir", str(out_dir),
             "--iters", "5"]
        )
        assert code == EXIT_DATA
        assert "mixture sample rate 8000" in capsys.readouterr().err
        assert not list(out_dir.glob("est_*.wav"))

    @pytest.mark.parametrize("command", ["factorize", "train"])
    def test_sr_flag_is_usage_error(self, corpus, command):
        args = {
            "factorize": ["--in", str(corpus / "mix.wav")],
            "train": ["--speaker-dir", str(corpus / "spk_a"), "--speaker-id", "A",
                      "--out", str(corpus / "a.cmfb")],
        }[command]
        code = cli_main([command, *args, "--rank", "2", "--iters", "5", "--sr", "16000"])
        assert code == EXIT_USAGE
        assert not (corpus / "a.cmfb").exists()

    def test_8k_corpus_end_to_end(self, corpus_8k, capsys):
        run_pipeline(corpus_8k, iters=50)
        for est, ref_dir in (("est_a.wav", "spk_a"), ("est_b.wav", "spk_b")):
            code = cli_main(
                ["eval", "--ref", str(corpus_8k / ref_dir / "u1.wav"),
                 "--est", str(corpus_8k / "out" / est)]
            )
            assert code == EXIT_OK
            payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert payload["correlation"] >= 0.9


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

    @pytest.fixture()
    def noise_wav(self, tmp_path):
        # broadband input, so the default tolerance never stops a short run early
        path = tmp_path / "noise.wav"
        noise = np.random.default_rng(3).uniform(-0.5, 0.5, 8000)
        write_wav(path, Signal(noise, 16000), "float32")
        return path

    def factorize_log(self, monkeypatch, wav, iters):
        results = []
        solve = cli_mod.cmf_factorize

        def recording(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli_mod, "cmf_factorize", recording)
        log = wav.parent / "run.log"
        code = cli_main(
            ["factorize", "--in", str(wav), "--rank", "2", "--iters", str(iters),
             "--log", str(log)]
        )
        assert code == EXIT_OK
        return [ln.split("\t") for ln in log.read_text().strip().split("\n")], results[0]

    def test_checkpoints_and_log_format(self, noise_wav, monkeypatch):
        lines, res = self.factorize_log(monkeypatch, noise_wav, 30)
        assert [c[0] for c in res.checkpoints] == [10, 20, 30]
        assert len(lines) == 30
        for n, fields in enumerate(lines, 1):
            assert int(fields[0]) == n
            # checkpoint lines carry the complex-domain error as a third field
            assert len(fields) == (3 if n in (10, 20, 30) else 2)

    def test_final_log_line_carries_complex_error(self, noise_wav, monkeypatch):
        lines, res = self.factorize_log(monkeypatch, noise_wav, 25)
        assert [c[0] for c in res.checkpoints] == [10, 20, 25]
        last = lines[-1]
        assert int(last[0]) == 25 and len(last) == 3
        assert float(last[2]) == res.final_error

    def test_failed_solve_leaves_no_log(self, noise_wav, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise ValueError("solver failed")

        monkeypatch.setattr(cli_mod, "cmf_factorize", failing)
        log = noise_wav.parent / "run.log"
        code = cli_main(
            ["factorize", "--in", str(noise_wav), "--rank", "2", "--iters", "5",
             "--log", str(log)]
        )
        assert code == EXIT_DATA
        assert "solver failed" in capsys.readouterr().err
        assert not log.exists()
        assert not [p for p in noise_wav.parent.iterdir() if p.name.startswith(".tmp-")]


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

    def test_rate_mismatch_is_data_error(self, tmp_path, capsys):
        write_tone(tmp_path / "ref.wav", 440, rate=16000)
        write_tone(tmp_path / "est.wav", 440, rate=8000)
        code = cli_main(
            ["eval", "--ref", str(tmp_path / "ref.wav"), "--est", str(tmp_path / "est.wav")]
        )
        assert code == EXIT_DATA
        assert "sample rate mismatch between ref and est" in capsys.readouterr().err


class TestSeedSource:
    """The seed of a run comes from ``--seed`` alone and defaults to 0."""

    def _outputs(self, root, name, seed_args):
        """Train A and B and separate their mixture into ``root / name``;
        the bytes of the four files written."""
        solve = ["--iters", "20"] + seed_args
        for spk in ("a", "b"):
            code = cli_main(
                ["train", "--speaker-dir", str(root / f"spk_{spk}"), "--speaker-id", spk,
                 "--rank", "2", "--out", str(root / f"{name}_{spk}.cmfb")] + solve
            )
            assert code == EXIT_OK
        code = cli_main(
            ["separate", "--mix", str(root / "mix.wav"),
             "--bases-a", str(root / f"{name}_a.cmfb"),
             "--bases-b", str(root / f"{name}_b.cmfb"),
             "--out-dir", str(root / name)] + solve
        )
        assert code == EXIT_OK
        paths = [root / f"{name}_a.cmfb", root / f"{name}_b.cmfb",
                 root / name / "est_a.wav", root / name / "est_b.wav"]
        return [p.read_bytes() for p in paths]

    def test_default_seed_is_zero(self, corpus):
        assert self._outputs(corpus, "default", []) == self._outputs(
            corpus, "flag", ["--seed", "0"]
        )

    def test_environment_sets_no_seed(self, corpus, monkeypatch):
        flagged = self._outputs(corpus, "flag", ["--seed", "0"])
        monkeypatch.setenv("CMF_SEP_SEED", "5")
        assert self._outputs(corpus, "env", []) == flagged

    @pytest.mark.parametrize(
        "command, options",
        [
            ("factorize", {"--in", "--rank", "--iters", "--seed", "--log", "--frame"}),
            ("train", {"--speaker-dir", "--speaker-id", "--rank", "--iters", "--seed",
                       "--out", "--frame"}),
            ("separate", {"--mix", "--bases-a", "--bases-b", "--out-dir", "--iters",
                          "--seed", "--bit-depth"}),
            ("eval", {"--ref", "--est", "--csv", "--frame"}),
        ],
    )
    def test_each_command_takes_its_options(self, command, options):
        parser = cli_mod._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        taken = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert taken == options | {"-h", "--help"}


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

    def test_outputs_get_the_umask_mode(self, corpus):
        # a plain open() under umask 022 gives 0644; the temp-then-rename
        # write must not leave mkstemp's 0600 behind
        old = os.umask(0o022)
        try:
            run_pipeline(corpus, iters=5)
            log = corpus / "run.log"
            code = cli_main(
                ["factorize", "--in", str(corpus / "mix.wav"), "--rank", "2",
                 "--iters", "5", "--log", str(log)]
            )
        finally:
            os.umask(old)
        assert code == EXIT_OK
        outputs = [corpus / "a.cmfb", corpus / "b.cmfb", corpus / "out" / "est_a.wav",
                   corpus / "out" / "est_b.wav", log]
        assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in outputs} == {
            p.name: "0o644" for p in outputs
        }

    def test_outputs_do_not_touch_the_umask(self, corpus, monkeypatch):
        # the umask is process-wide: setting it, even briefly, changes the
        # mode of files that other threads of an in-process caller create
        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        run_pipeline(corpus, iters=5)
        for p in (corpus / "a.cmfb", corpus / "b.cmfb", corpus / "out" / "est_a.wav",
                  corpus / "out" / "est_b.wav"):
            assert p.stat().st_size > 0
        assert list(corpus.rglob(".tmp-cmfsep-*")) == []

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
