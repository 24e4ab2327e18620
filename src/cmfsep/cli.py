"""Command line front end: factorize, train, separate, eval."""

import argparse
import os
import sys
import tempfile

from .bases_file import BasesFileError, load_bases, save_bases
from .cmf import cmf_factorize
from .config import SepConfig
from .io_wav import read_wav, write_wav
from .linalg import frobenius_norm_sq
from .metrics import evaluate
from .separation import separate, train_bases
from .stft import StftConfig, stft

__all__ = ["cli_main", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    env = os.environ.get("CMF_SEP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"CMF_SEP_SEED must be an integer, got {env!r}") from exc
    return 0


def _atomic_write(path, writer) -> None:
    """Write via a sibling temp file and rename, so failures leave no
    partial output. The file gets the mode a plain ``open`` would give
    (0o666 less the umask), not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cmfsep-")
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.chmod(tmp, 0o666 & ~umask)
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stft_cfg(args) -> StftConfig:
    return StftConfig(frame_len=args.frame, sample_rate=args.sr)


def _add_stft_flags(p):
    p.add_argument("--frame", type=int, default=512)
    p.add_argument("--sr", type=int, default=16000)


def _load_signal(path, expected_rate):
    wav = read_wav(path)
    if wav.samples.sample_rate != expected_rate:
        raise ValueError(
            f"{path}: sample rate {wav.samples.sample_rate} does not match "
            f"configured {expected_rate} (resampling is out of scope)"
        )
    return wav.samples


def _write_log(path, result) -> None:
    """One ``iteration<TAB>block_objective`` line per iteration; checkpoint
    lines add the complex-domain error as a third field."""
    errors = {it: err for it, _, err in result.checkpoints}
    with open(path, "w") as fh:
        for it, obj in enumerate(result.objective_history, 1):
            tail = f"\t{errors[it]:.17g}" if it in errors else ""
            fh.write(f"{it}\t{obj:.17g}{tail}\n")


def _cmd_factorize(args) -> int:
    cfg_stft = _stft_cfg(args)
    signal = _load_signal(args.infile, cfg_stft.sample_rate)
    cfg = SepConfig(
        rank=args.rank, iters=args.iters, seed=args.seed, stft_cfg=cfg_stft
    )
    z = stft(signal, cfg_stft)
    result = cmf_factorize(z, args.rank, cfg, checkpoint_every=10 if args.log else 0)
    if args.log:
        _atomic_write(args.log, lambda tmp: _write_log(tmp, result))
    denom = frobenius_norm_sq(z)
    rel = result.final_error / denom if denom > 0 else 0.0
    print(f"relative complex-domain error: {rel:.6g}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg_stft = _stft_cfg(args)
    names = sorted(
        f for f in os.listdir(args.speaker_dir) if f.lower().endswith(".wav")
    )
    if not names:
        raise ValueError(f"no .wav files in {args.speaker_dir}")
    signals = [
        _load_signal(os.path.join(args.speaker_dir, f), cfg_stft.sample_rate)
        for f in names
    ]
    cfg = SepConfig(
        rank=args.rank, iters=args.iters, seed=args.seed, stft_cfg=cfg_stft
    )
    bases = train_bases(signals, args.speaker_id, cfg)
    _atomic_write(args.out, lambda tmp: save_bases(tmp, bases))
    print(f"trained {bases.rank} bases for {args.speaker_id!r} -> {args.out}")
    return EXIT_OK


def _cmd_separate(args) -> int:
    bases_a = load_bases(args.bases_a)
    bases_b = load_bases(args.bases_b)
    # the mixture is not bound here, so separate() frees it once its
    # STFT is taken, before the solve
    est_a, est_b = separate(
        _load_signal(args.mix, bases_a.stft_cfg.sample_rate),
        bases_a,
        bases_b,
        SepConfig(iters=args.iters, seed=args.seed),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for name, est in (("est_a.wav", est_a), ("est_b.wav", est_b)):
        out = os.path.join(args.out_dir, name)
        _atomic_write(out, lambda tmp, e=est: write_wav(tmp, e, args.bit_depth))
    print(f"wrote est_a.wav, est_b.wav to {args.out_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    ref_wav = read_wav(args.ref)
    est_wav = read_wav(args.est)
    if ref_wav.samples.sample_rate != est_wav.samples.sample_rate:
        raise ValueError("sample rate mismatch between ref and est")
    cfg = StftConfig(frame_len=args.frame, sample_rate=ref_wav.samples.sample_rate)
    report = evaluate(ref_wav.samples, est_wav.samples, cfg)
    if args.csv:
        print(report.to_csv_row())
    else:
        print(report.to_json())
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmfsep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize one spectrogram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log", default=None, help="tab-separated iteration log")
    _add_stft_flags(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("train", help="train per-speaker bases")
    p.add_argument("--speaker-dir", required=True)
    p.add_argument("--speaker-id", required=True)
    p.add_argument("--rank", type=int, default=40)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_stft_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("separate", help="separate a two-speaker mixture")
    p.add_argument("--mix", required=True)
    p.add_argument("--bases-a", required=True)
    p.add_argument("--bases-b", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bit-depth", choices=["pcm16", "float32"], default="pcm16")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("eval", help="evaluate a reconstruction")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--csv", action="store_true", help="one CSV row, not JSON")
    p.add_argument("--frame", type=int, default=512)
    p.set_defaults(func=_cmd_eval)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BasesFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main())
