"""Command line front end: factorize, train, separate, eval."""

import argparse
import os
import sys

from .bases_file import load_bases, save_bases
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


def _atomic_write(path, writer) -> None:
    """Write via a sibling temp file and rename, so failures leave no
    partial output. The temp name is reserved with an exclusive plain
    ``open``, so the file gets the usual mode (0o666 less the umask)."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-cmfsep-{os.urandom(8).hex()}")
    open(tmp, "xb").close()
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_log(path, result) -> None:
    """One ``iteration<TAB>block_objective`` line per iteration; checkpoint
    lines add the complex-domain error as a third field."""
    errors = {it: err for it, _, err in result.checkpoints}
    with open(path, "w") as fh:
        for it, obj in enumerate(result.objective_history, 1):
            tail = f"\t{errors[it]:.17g}" if it in errors else ""
            fh.write(f"{it}\t{obj:.17g}{tail}\n")


def _sep_config(args, sample_rate: int) -> SepConfig:
    """The config of a solve from the flags and the input's sample rate."""
    cfg_stft = StftConfig(frame_len=args.frame, sample_rate=sample_rate)
    return SepConfig(rank=args.rank, iters=args.iters, seed=args.seed, stft_cfg=cfg_stft)


def _cmd_factorize(args) -> int:
    signal = read_wav(args.infile).samples
    cfg = _sep_config(args, signal.sample_rate)
    z = stft(signal, cfg.stft_cfg)
    result = cmf_factorize(z, args.rank, cfg, checkpoint_every=10 if args.log else 0)
    if args.log:
        _atomic_write(args.log, lambda tmp: _write_log(tmp, result))
    denom = frobenius_norm_sq(z)
    rel = result.final_error / denom if denom > 0 else 0.0
    print(f"relative complex-domain error: {rel:.6g}")
    return EXIT_OK


def _cmd_train(args) -> int:
    names = sorted(
        f for f in os.listdir(args.speaker_dir) if f.lower().endswith(".wav")
    )
    if not names:
        raise ValueError(f"no .wav files in {args.speaker_dir}")
    signals = [read_wav(os.path.join(args.speaker_dir, f)).samples for f in names]
    # the first file sets the rate; train_bases rejects any other
    cfg = _sep_config(args, signals[0].sample_rate)
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
        read_wav(args.mix).samples,
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
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--iters", type=int, default=500)
    solve.add_argument("--seed", type=int, default=0)
    frame = argparse.ArgumentParser(add_help=False)
    frame.add_argument("--frame", type=int, default=512)

    p = sub.add_parser("factorize", parents=[solve, frame], help="factorize one spectrogram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--log", default=None, help="tab-separated iteration log")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("train", parents=[solve, frame], help="train per-speaker bases")
    p.add_argument("--speaker-dir", required=True)
    p.add_argument("--speaker-id", required=True)
    p.add_argument("--rank", type=int, default=40)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("separate", parents=[solve], help="separate a two-speaker mixture")
    p.add_argument("--mix", required=True)
    p.add_argument("--bases-a", required=True)
    p.add_argument("--bases-b", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bit-depth", choices=["pcm16", "float32"], default="pcm16")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("eval", parents=[frame], help="evaluate a reconstruction")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--csv", action="store_true", help="one CSV row, not JSON")
    p.set_defaults(func=_cmd_eval)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main())
