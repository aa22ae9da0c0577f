"""Command-line surface: train, ablate, sweep-delta, heatmap.

A command exits 0 on success, 2 on a usage error, and otherwise with the
``exit_code`` of the package error it raised (see :mod:`seqattn.errors`);
an OSError exits 3. Every run writes a manifest.json capturing the
resolved configuration, seed, input digests and environment (Python,
numpy, BLAS, thread counts); re-running the same manifest reproduces all
metrics bit-for-bit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .backbone import load_precomputed, load_precomputed_record, split_text
from .data import SYNTHETIC_RULES, LabeledCorpus, make_synthetic, parse_tsv
from .errors import DataError, FormatError, SeqattnError
from .head import DEFAULT_POOLING, POOLING_STRATEGIES
from .model import load_checkpoint, save_checkpoint
from .sam import Order, SamConfig
from .svg import line_chart, token_heatmap
from .tensor import no_grad
from .train import (
    ABLATION_SETTINGS,
    TrainConfig,
    ablation_suite,
    default_delta_grid,
    delta_sweep,
    encode,
    metric_name_for,
    train_run,
)


# each training flag and the TrainConfig field it sets, in usage order;
# a flag's default and type are the field's
_TRAIN_FLAGS = (
    ("--lr", "lr"), ("--weight-decay", "weight_decay"), ("--dropout", "dropout"),
    ("--epochs", "max_epochs"), ("--batch", "batch_size"), ("--folds", "folds"),
    ("--lookahead-k", "lookahead_k"), ("--lookahead-alpha", "lookahead_alpha"), ("--seed", "seed"),
)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", help="TSV corpus: one 'label<TAB>text' per line")
    sub.add_argument("--synthetic", metavar="SPEC",
                     help=f"synthetic corpus 'rule[:n[:vocab]]', rule is {'|'.join(SYNTHETIC_RULES)}")
    sub.add_argument("--emb", default="table",
                     help="'table' (trainable lookup) or 'precomputed:PATH' (SAMEMB1 file)")
    sub.add_argument("--dim", type=int, default=32, help="embedding width D")
    sub.add_argument("--max-len", type=int, default=16, help="padded sequence length L")
    sub.add_argument("--delta", type=float, default=None, help="feature-gate threshold in [0, 1]")
    sub.add_argument("--order", choices=[o.value for o in Order], default=SamConfig.order.value)
    sub.add_argument("--no-fam", action="store_true", help="disable the feature-wise module")
    sub.add_argument("--no-tam", action="store_true", help="disable the token-wise module")
    sub.add_argument("--bottleneck-ratio", type=int, default=SamConfig.bottleneck_ratio)
    sub.add_argument("--pool", choices=POOLING_STRATEGIES, default=DEFAULT_POOLING)
    for flag, name in _TRAIN_FLAGS:
        default = getattr(TrainConfig, name)  # a dataclass keeps each default on the class
        sub.add_argument(flag, type=type(default), default=default)
    sub.add_argument("--out", required=True, help="output directory")


def _add_ablate_flags(sub: argparse.ArgumentParser) -> None:
    _add_model_flags(sub)
    sub.add_argument("--settings", help=f"comma list from {list(ABLATION_SETTINGS)}")


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    _add_model_flags(sub)
    sub.add_argument("--grid", default=":".join(map(str, default_delta_grid.__defaults__)), help="start:stop:step")


def _add_heatmap_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--text", help="raw input text (table-mode checkpoints)")
    sub.add_argument("--data", help="corpus file to pick an example from")
    sub.add_argument("--index", type=int, default=0, help="record index within --data")
    sub.add_argument("--out", required=True, help="output path prefix (.json and .svg)")


def _parse_synthetic(spec: str, parser: argparse.ArgumentParser) -> LabeledCorpus:
    parts = spec.split(":")
    rule = parts[0]
    if rule not in SYNTHETIC_RULES:
        parser.error(f"unknown synthetic rule {rule!r}: use {' or '.join(SYNTHETIC_RULES)}")
    try:
        n = int(parts[1]) if len(parts) > 1 else 2000
        vocab = int(parts[2]) if len(parts) > 2 else 50
        return make_synthetic(n=n, vocab_size=vocab, trigger_rule=rule, seed=0)
    except ValueError:
        parser.error(f"bad synthetic spec {spec!r}: expected rule[:n[:vocab]]")
    except DataError as exc:
        parser.error(f"bad synthetic spec {spec!r}: {exc}")


def _resolve_inputs(args, parser) -> tuple[LabeledCorpus, dict[str, str]]:
    """Returns (corpus, input digests). A SAMEMB1 corpus holds each record's
    (L_i, D) vectors in place of a text."""
    digests: dict[str, str] = {}
    if args.emb.startswith("precomputed:"):
        if args.data is not None or args.synthetic is not None:
            parser.error("--emb precomputed:PATH carries its own labels; drop --data/--synthetic")
        path = args.emb.split(":", 1)[1]
        digests[path] = _sha256(path)
        corpus = LabeledCorpus.from_pairs(load_precomputed(path))
        if corpus.records and corpus.records[0][0].shape[1] != args.dim:
            parser.error(f"--dim {args.dim} does not match the embedding file width "
                         f"{corpus.records[0][0].shape[1]}")
        return corpus, digests
    if args.emb != "table":
        parser.error(f"--emb must be 'table' or 'precomputed:PATH', got {args.emb!r}")
    if (args.data is None) == (args.synthetic is None):
        parser.error("exactly one of --data or --synthetic is required")
    if args.data is not None:
        digests[args.data] = _sha256(args.data)
        return parse_tsv(args.data), digests
    return _parse_synthetic(args.synthetic, parser), digests


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _build_configs(args, parser) -> tuple[SamConfig, TrainConfig]:
    if args.no_fam and args.delta is not None:
        parser.error("--delta configures the feature-wise filter; it conflicts with --no-fam")
    sam_cfg = SamConfig(
        d_model=args.dim,
        max_len=args.max_len,
        delta=0.0 if args.delta is None else args.delta,
        bottleneck_ratio=args.bottleneck_ratio,
        order=Order(args.order),
        fam_enabled=not args.no_fam,
        tam_enabled=not args.no_tam,
    )
    train_cfg = TrainConfig(**{name: getattr(args, flag[2:].replace("-", "_"))
                               for flag, name in _TRAIN_FLAGS})
    return sam_cfg, train_cfg


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What the bit-for-bit promise depends on besides the code: float
    results can change with the numpy or BLAS build and the thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _write_manifest(out_dir: Path, command: str, args, digests: dict, artifacts: list[str]) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "tool": "seqattn",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "input_digests": digests,
        "artifacts": artifacts,
        "environment": _environment(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _report_dict(result) -> dict:
    folds = []
    for fo in result.fold_outcomes:
        fold = {"fold": fo.fold, "diverged": fo.diverged}
        if not fo.diverged:
            fold.update(asdict(fo.report), best_epoch=fo.best_epoch,
                        confusion=fo.report.confusion.tolist())
        folds.append(fold)
    return {
        "metric_name": result.metric_name,
        "mean_metric": result.mean_metric,
        "seconds_per_epoch": result.seconds_per_epoch,
        "folds": folds,
    }


def cmd_train(args, parser) -> int:
    corpus, digests = _resolve_inputs(args, parser)
    sam_cfg, train_cfg = _build_configs(args, parser)
    result = train_run(corpus, sam_cfg, train_cfg, pooling=args.pool)
    # made only now, so that a rejected corpus leaves no empty directory behind
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "epochs.jsonl", "w") as fh:
        for record in result.history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    report = _report_dict(result)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    save_checkpoint(out_dir / "checkpoint.npz", result.model,
                    extra={"metric_name": result.metric_name, "metric": result.mean_metric})
    _write_manifest(out_dir, "train", args, digests,
                    ["epochs.jsonl", "report.json", "checkpoint.npz"])
    print(f"{result.metric_name}={result.mean_metric:.4f} "
          f"(mean over {len(result.fold_outcomes)} fold(s))")
    return 0


def cmd_ablate(args, parser) -> int:
    corpus, digests = _resolve_inputs(args, parser)
    sam_cfg, train_cfg = _build_configs(args, parser)
    settings = None if args.settings is None else [s.strip() for s in args.settings.split(",") if s.strip()]
    rows = ablation_suite(corpus, sam_cfg, train_cfg, settings=settings, pooling=args.pool)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "metric", "seconds_per_epoch"])
        for setting, result in rows:
            if result is None:
                writer.writerow([setting, "diverged", ""])
            else:
                writer.writerow([setting, f"{result.mean_metric:.6f}",
                                 f"{result.seconds_per_epoch:.4f}"])
    _write_manifest(out_dir, "ablate", args, digests, ["ablation.csv"])
    metric = metric_name_for(corpus.num_classes)
    for setting, result in rows:
        shown = "diverged" if result is None else f"{result.mean_metric:.4f}"
        print(f"{setting}: {metric}={shown}")
    return 0


def cmd_sweep_delta(args, parser) -> int:
    corpus, digests = _resolve_inputs(args, parser)
    if args.delta is not None:
        parser.error("--delta is swept; use --grid to control the range")
    sam_cfg, train_cfg = _build_configs(args, parser)
    try:
        start, stop, step = (float(v) for v in args.grid.split(":"))
    except ValueError:
        parser.error(f"bad --grid {args.grid!r}: expected start:stop:step")
    points = delta_sweep(corpus, sam_cfg, train_cfg, default_delta_grid(start, stop, step),
                         pooling=args.pool)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "metric"])
        for pt in points:
            writer.writerow([f"{pt.delta:.10g}", "diverged" if pt.metric is None else f"{pt.metric:.6f}"])
    chart = line_chart(
        ("metric", [(pt.delta, pt.metric) for pt in points if pt.metric is not None]),
        title="threshold sweep",
        x_label="delta",
        y_label="dev metric",
    )
    (out_dir / "sweep.svg").write_text(chart + "\n")
    _write_manifest(out_dir, "sweep-delta", args, digests, ["sweep.csv", "sweep.svg"])
    for pt in points:
        print(f"delta={pt.delta:.2f}: {'diverged' if pt.metric is None else f'{pt.metric:.4f}'}")
    return 0


def cmd_heatmap(args, parser) -> int:
    # an empty value is given all the same: an empty text is one <unk>
    if (args.text is None) == (args.data is None):
        parser.error("exactly one of --text or --data is required")
    # argv bytes that are not UTF-8 arrive as lone surrogates
    try:
        (args.text or "").encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"--text is not UTF-8 text: {exc.reason}") from None
    model = load_checkpoint(args.checkpoint)

    if model.vocab is not None:
        if args.text is not None:
            record = args.text
        else:
            corpus = parse_tsv(args.data)
            if not 0 <= args.index < len(corpus):
                raise DataError(f"--index {args.index} outside corpus of {len(corpus)} records")
            record = corpus.records[args.index][0]
    else:
        if args.data is None:
            parser.error("this checkpoint consumes precomputed embeddings; pass --data SAMEMB1_FILE")
        record, _ = load_precomputed_record(args.data, args.index)
        if record.shape[1] != model.cfg.d_model:
            raise FormatError(
                f"embedding width {record.shape[1]} does not match the checkpoint's {model.cfg.d_model}"
            )
    batch = encode(LabeledCorpus.from_pairs([(record, 0)]), model.vocab, model.cfg)
    # one label per position the encoder kept: an empty text is one <unk>
    length = int(batch.mask[0].sum())
    if model.vocab is not None:
        tokens = split_text(record)[:length] or ["<unk>"]
    else:
        tokens = [f"t{i}" for i in range(length)]

    with no_grad():
        _, trace = model.forward(batch)
    token_weights = trace.tam_map[0, : len(tokens)].tolist()
    feature_weights = trace.fam_map[0].tolist()

    warning = None
    if max(feature_weights, default=0.0) == 0.0:
        warning = "all feature gates are zero (threshold saturated): shading carries no signal"

    payload = {
        "tokens": tokens,
        "token_weights": token_weights,
        "feature_weights": feature_weights,
    }
    prefix = Path(args.out)
    if prefix.suffix == ".json":
        prefix = prefix.with_suffix("")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    texts = {".svg": token_heatmap(tokens, token_weights, warning) + "\n",
             ".json": json.dumps(payload, sort_keys=True) + "\n"}
    temps = {ext: Path(f"{prefix}{ext}.{os.getpid()}.tmp") for ext in texts}
    try:  # renamed into place, the JSON last: no new JSON is left without its SVG
        for ext, tmp in temps.items():
            tmp.write_text(texts[ext])
        for ext, tmp in temps.items():
            os.replace(tmp, f"{prefix}{ext}")
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {prefix}.json and {prefix}.svg")
    return 0


# name, help text, flag adder, handler
COMMANDS = (
    ("train", "k-fold training with per-epoch metrics", _add_model_flags, cmd_train),
    ("ablate", "train every ablation setting and tabulate", _add_ablate_flags, cmd_ablate),
    ("sweep-delta", "train across a threshold grid", _add_sweep_flags, cmd_sweep_delta),
    ("heatmap", "export attention maps for one input", _add_heatmap_flags, cmd_heatmap),
)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser reports a flag it does not know with its own
    usage, not with the top-level parser's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command gets its subparser, so the top-level help and the
    invalid-choice error name them all; only ``command`` gets its flags
    (none when None). Each ``add_argument`` builds a help
    formatter that queries the terminal size, so building every command's
    flags took about a third of a heatmap call's CPU time."""
    parser = argparse.ArgumentParser(
        prog="seqattn",
        description="Train and probe the sequential attention re-weighting stage.",
    )
    parser.add_argument("--version", action="version", version=f"seqattn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, help_text, add_flags, handler in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        if command == name:
            add_flags(sub)
        # a handler reports a configuration error with its command's usage
        sub.set_defaults(func=functools.partial(handler, parser=sub))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # top-level options take no values, so the first word that is not an
    # option names the command
    parser = build_parser(next((word for word in argv if not word.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        # the finite checks catch every overflow; numpy's warnings are noise.
        # A library warning prints as one line, as the heatmap's does
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    except (SeqattnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)  # an unreadable or unwritable file is a data problem
    except MemoryError as exc:  # numpy's message names the allocation; a run too large for memory exits 2
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
