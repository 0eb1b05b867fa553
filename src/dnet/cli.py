"""Command-line surface tying the toolkit together.

Subcommands: ``synth`` (generate a synthetic dataset), ``train``,
``predict``, ``eval``, and ``rf-analyze``. Every error path exits with
status 1 after printing one machine-parseable ``error: <code>: <message>``
line to stderr; outputs are deterministic given the configured seed.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DnetError, ManifestError, ShapeError
from .config import parse_run_config
from .convops import using_deterministic
from .losses import LOSS_FORMULA
from .manifest import as_rgb, load_manifest, write_manifest
from .metrics import MASK_THRESHOLD, ConfusionCounts, confusion, metrics, roc_pr_curves
from .model import DNet, load_checkpoint, save_checkpoint, encoder_layer_specs
from .pnm import read_pnm, write_mask_pgm, write_ppm, write_prob_pgm
from .receptive import LayerSpec, RFReport, rf_stack
from .training import predict_probs, synth_vessels, train

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with the standard error line, not 2
        raise ConfigError(f"arguments: {message}")


def _conv_mode(args):
    """The convolution mode that ``--conv`` names; without it, the one in effect."""
    return nullcontext() if args.conv is None else using_deterministic(args.conv == "exact")


def _cmd_synth(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be positive, got {args.n}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = synth_vessels(args.seed, args.n, args.height, args.width)
    entries = []
    for i, (img, mask) in enumerate(dataset):
        # Mask shares the image basename so eval can pair predictions with
        # ground truth by name.
        img_name = f"img_{i:03d}.ppm"
        mask_name = f"img_{i:03d}.pgm"
        write_ppm(out / img_name, img)
        write_mask_pgm(out / mask_name, mask[:, :, 0])
        entries.append((img_name, mask_name))
    write_manifest(out / "manifest.txt", "train", entries)
    print(f"wrote {len(dataset)} image/mask pairs and manifest.txt to {out}")
    return 0


def _cmd_train(args) -> int:
    model_cfg, train_cfg = parse_run_config(args.config)
    if (args.manifest is None) == (args.synth is None):
        raise ConfigError("train: provide exactly one of --manifest or --synth")
    print(LOSS_FORMULA)
    print(f"  with lambda={train_cfg.lam} beta={train_cfg.beta}")
    if args.synth is not None:
        if args.synth < 1:
            raise ConfigError(f"--synth must be positive, got {args.synth}")
        dataset = synth_vessels(
            train_cfg.seed, args.synth, args.synth_size, args.synth_size
        )
    else:
        dataset = load_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = DNet(model_cfg, seed=train_cfg.seed)
    try:
        with _conv_mode(args):
            trace = train(dataset, model, train_cfg)
    except ShapeError as exc:
        if args.manifest is None:
            raise
        raise ShapeError(f"{args.manifest}: {exc}") from exc
    ckpt = out / "checkpoint.dnet"
    save_checkpoint(model, ckpt)
    _write_csv(out / "loss.csv", dict(zip(("step", "lr", "loss"), zip(*trace))))
    print(f"trained {len(trace)} steps; loss {trace[0][2]:.6g} -> {trace[-1][2]:.6g}")
    print(f"wrote {ckpt} and {out / 'loss.csv'}")
    return 0


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    with _conv_mode(args):
        probs = predict_probs(model, as_rgb(read_pnm(args.image)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    prob_path = out / f"{stem}.prob.pgm"
    mask_path = out / f"{stem}.mask.pgm"
    write_prob_pgm(prob_path, probs)
    write_mask_pgm(mask_path, probs >= MASK_THRESHOLD)
    print(f"wrote {prob_path} and {mask_path}")
    return 0


def _gt_name(pred_name: str) -> str:
    """Ground-truth filename for a prediction file (strips .prob/.mask tags)."""
    stem = pred_name
    if stem.endswith(".pgm"):
        stem = stem[: -len(".pgm")]
    for tag in (".prob", ".mask"):
        if stem.endswith(tag):
            stem = stem[: -len(tag)]
    return stem + ".pgm"


_CSV_BLOCK_ROWS = 1024  # rows formatted per write; bounds the text held at once


def _write_csv(path, columns: dict) -> None:
    """One CSV column per (header, values) entry; numbers to 12 significant digits.

    Lines end in ``\r\n``. Each block of rows is formatted by one ``%`` over a
    repeated row template, so no per-value Python formatting call runs.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    template = ",".join("%s" if a.dtype.kind == "U" else "%.12g" for a in arrays) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(arrays[0]), _CSV_BLOCK_ROWS):
            block = [a[start:start + _CSV_BLOCK_ROWS].tolist() for a in arrays]
            fh.write(template * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    fov_dir = Path(args.fov) if args.fov else None
    # Probability maps only; thresholded .mask.pgm companions would double
    # count the same pixels.
    pred_files = sorted(
        p
        for p in pred_dir.iterdir()
        if p.suffix == ".pgm" and not p.name.endswith(".mask.pgm")
    )
    if not pred_files:
        raise ManifestError(f"eval: no .pgm files in {pred_dir}")
    counts = ConfusionCounts(0, 0, 0, 0)
    scores: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for pred_path in pred_files:
        gt_path = gt_dir / _gt_name(pred_path.name)
        if not gt_path.is_file():
            raise ManifestError(f"eval: missing ground truth {gt_path} for {pred_path.name}")
        pred = read_pnm(pred_path)
        gt = read_pnm(gt_path) > 0.5
        if pred.shape != gt.shape:
            raise ManifestError(
                f"eval: {pred_path} shape {pred.shape} vs ground truth {gt.shape}"
            )
        fov = None
        if fov_dir is not None:
            fov_path = fov_dir / _gt_name(pred_path.name)
            if not fov_path.is_file():
                raise ManifestError(f"eval: missing fov mask {fov_path}")
            fov = read_pnm(fov_path) > 0.5
            if fov.shape != gt.shape:
                raise ManifestError(
                    f"eval: fov mask {fov_path} shape {fov.shape} vs ground truth {gt.shape}"
                )
        counts = counts + confusion(pred >= MASK_THRESHOLD, gt, fov)
        scores.append(pred.ravel() if fov is None else pred[fov])
        labels.append(gt.ravel() if fov is None else gt[fov])
    # metrics() and roc_pr_curves() reject these as shape errors; here they
    # are defects of the input files.
    if counts.total == 0:
        raise ManifestError(f"eval: the FOV masks in {fov_dir} select no pixels")
    vessel = counts.tp + counts.fn
    if vessel in (0, counts.total):
        where = " inside the FOV" if fov_dir is not None else ""
        raise ManifestError(f"eval: the ground truth in {gt_dir} has no "
                            f"{'background' if vessel else 'vessel'} pixels{where}")

    report = metrics(counts)
    curves = roc_pr_curves(np.concatenate(scores), np.concatenate(labels))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = report.rows() + [("auc_roc", curves.auc_roc), ("auc_pr", curves.auc_pr)]
    names, values = zip(*rows)
    _write_csv(out / "metrics.csv", {"name": names, "value": values})
    _write_csv(out / "roc.csv",
               {"threshold": curves.thresholds, "fpr": curves.fpr, "tpr": curves.tpr})
    _write_csv(out / "pr.csv", {"threshold": curves.thresholds, "recall": curves.tpr,
                                "precision": curves.precision})
    for name, value in rows:
        print(f"{name},{value:.12g}")
    print(f"wrote metrics.csv, roc.csv, pr.csv to {out}")
    return 0


def _read_layers_file(path) -> list[LayerSpec]:
    layers: list[LayerSpec] = []
    for lineno, line in enumerate(Path(path).read_text(errors="replace").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 4:
            raise ConfigError(f"{path}:{lineno}: expected 'kind k s r', got {line!r}")
        kind, k, s, r = parts
        try:
            layers.append(LayerSpec(kind, int(k), int(s), int(r), f"line{lineno}"))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: k, s, r must be integers") from None
        except ShapeError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not layers:
        raise ConfigError(f"{path}: no layers found")
    return layers


def _print_rf_report(report: RFReport, out_path=None) -> None:
    lines = ["layer,k_eff,jump,rf"]
    for row in report.layers:
        lines.append(f"{row.name},{row.k_eff},{row.jump},{row.rf}")
    cov = report.coverage
    if cov is None:
        lines.append("coverage=n/a")
    elif cov.dense:
        lines.append("coverage=dense")
    else:
        lines.append("coverage=holes:" + ";".join(str(h) for h in cov.holes))
    text = "\n".join(lines)
    if out_path is not None:
        Path(out_path).write_text(text + "\n")
    print(text)


def _cmd_rf_analyze(args) -> int:
    if (args.layers is None) == (args.config is None):
        raise ConfigError("rf-analyze: provide exactly one of --layers or --config")
    if args.layers is not None:
        layers = _read_layers_file(args.layers)
    else:
        model_cfg, _ = parse_run_config(args.config)
        layers = encoder_layer_specs(model_cfg)
    _print_rf_report(rf_stack(layers), args.out)
    return 0


def _add_conv_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--conv", choices=("exact", "gemm"),
                   help="convolution forward: exact (tap-ordered, bit-reproducible) or "
                        "gemm (BLAS, faster); default: the mode in effect")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic vessel dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
    p.add_argument("--synth", type=int, help="train on N generated images instead")
    p.add_argument("--synth-size", type=int, default=64)
    p.add_argument("--out", required=True)
    _add_conv_option(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run a checkpoint on one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    _add_conv_option(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score probability maps against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--fov")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rf-analyze", help="receptive-field table and coverage verdict")
    p.add_argument("--layers", help="layer stack file: 'kind k s r' per line")
    p.add_argument("--config", help="derive the encoder path from a run config")
    p.add_argument("--out", help="also write the CSV to this file")
    p.set_defaults(func=_cmd_rf_analyze)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DnetError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing path, a directory given for a file, ...
        code = "not-found" if isinstance(exc, FileNotFoundError) else "io"
        print(f"error: {code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
