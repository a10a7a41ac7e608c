#!/usr/bin/env python3
"""MNIST holdout benchmark at reduced (14x14) scale.

Requires the four raw MNIST IDX files on local disk (this tool never
touches the network):

    train-images-idx3-ubyte   train-labels-idx1-ubyte
    t10k-images-idx3-ubyte    t10k-labels-idx1-ubyte

For each holdout digit, a fresh model is trained on the remaining nine
classes and every scorer is evaluated on a balanced nominal/novel test
set. The published full-scale reference numbers are printed alongside for
comparison; they are not expected to be matched at this scale.
"""

import argparse
import json
import sys
from pathlib import Path

from ndgan import cli
from ndgan.metrics import TABLE1_REFERENCE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mnist-dir", required=True, help="directory with the four IDX files")
    parser.add_argument("--out-dir", default="runs/mnist_holdout")
    parser.add_argument("--holdouts", default="0,5,9", help="comma-separated holdout digits")
    parser.add_argument("--steps", type=int, default=3000)
    parser.add_argument("--labels-per-class", type=int, default=100)
    parser.add_argument("--scorers", default="nd-gan-ratio,entropy,max-prob,knn-5")
    parser.add_argument("--seed", type=int, default=29)
    args = parser.parse_args()

    mnist = Path(args.mnist_dir)
    # labeled_fraction is resolved against the smallest class population of a
    # nine-class split; 5421 is the smallest MNIST train class (digit 5),
    # giving at least labels-per-class labeled examples everywhere.
    labeled_fraction = args.labels_per_class / 5421.0

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "holdout.json"
    config.write_text(json.dumps({
        "holdout": {
            "train_dataset": {
                "path": str(mnist / "train-images-idx3-ubyte"),
                "format": "idx",
                "labels_path": str(mnist / "train-labels-idx1-ubyte"),
                "downscale": {"side": 28, "target": 14},
            },
            "test_dataset": {
                "path": str(mnist / "t10k-images-idx3-ubyte"),
                "format": "idx",
                "labels_path": str(mnist / "t10k-labels-idx1-ubyte"),
                "downscale": {"side": 28, "target": 14},
            },
            "arch": "mnist",
            "train": {
                "total_steps": args.steps,
                "batch_size": 64,
                "labeled_fraction": labeled_fraction,
                "generator_loss": "feature-matching",
                "log_every": 500,
            },
            "holdout_classes": [int(h) for h in args.holdouts.split(",")],
            "scorers": [s.strip() for s in args.scorers.split(",")],
        },
        "seed": args.seed,
    }, indent=2))

    code = cli.main(["eval", "--config", str(config), "--out-dir", str(out)])
    if code:
        return code

    doc = json.loads((out / "metrics.json").read_text())
    print("\nper-split AUROC:")
    for row in doc["rows"]:
        print(f"  holdout {row['split']}: {row['scorer']:14s} {row['auroc']:.4f}")
    print("mean AUROC per scorer:", {k: round(v, 4) for k, v in doc["means"].items()})
    ref = TABLE1_REFERENCE["nd-gan-ratio"]
    print(f"published full-scale ND-GAN reference: mean {ref['mean']}, "
          f"per-holdout {ref['per_holdout']} (not comparable at desk scale)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
