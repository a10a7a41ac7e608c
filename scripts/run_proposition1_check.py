#!/usr/bin/env python3
"""Train only the discriminator against a fixed known mixture sampler and
compare it with the analytic optimal detector.

The fake batches come from pi * p_novel + (1 - pi) * p_data with both
densities known, so the trained discriminator's fake-class probability can
be ranked against the exact likelihood-ratio score.
"""

import argparse
import sys

import numpy as np

from ndgan import data as dio
from ndgan import densities as dn
from ndgan import gan, metrics, scores


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--pi", type=float, default=0.5)
    parser.add_argument("--novel-sigma", type=float, default=0.5)
    args = parser.parse_args()

    train, p_data = dio.gen_ring_mixture(4000, 8, 2.0, 0.2, seed=args.seed)
    p_novel = dn.gaussian([0.0, 0.0], args.novel_sigma**2)
    mix = dn.MixtureSpec(pi=args.pi, novel=p_novel, data=p_data)

    model = gan.build_gan(data_dim=2, K=1, arch="2d", seed=args.seed)
    config = gan.TrainConfig(total_steps=args.steps, batch_size=64, seed=args.seed, log_every=1000)
    model, _ = gan.train_gan(model, train, config, fake_source=mix.sample)

    axis = np.linspace(-3.0, 3.0, 45)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    covered = mix.pdf(grid) >= 0.01 * mix.pdf(grid).max()
    lr = dn.likelihood_ratio_score(p_data, p_novel, grid[covered])
    scorer = scores.Scorer(model, ["fake-prob"])
    fake_prob = scorer.score(grid[covered])["fake-prob"]

    try:
        from scipy.stats import spearmanr

        rho = spearmanr(fake_prob, lr).statistic
    except ImportError:  # rank correlation by hand
        ra = np.argsort(np.argsort(fake_prob))
        rb = np.argsort(np.argsort(lr))
        rho = float(np.corrcoef(ra, rb)[0, 1])

    rng = np.random.default_rng(args.seed + 1)
    nominal, novel = p_data.sample(2000, rng), p_novel.sample(2000, rng)
    auroc_learned = metrics.roc_from_arrays(
        scorer.score(nominal)["fake-prob"], scorer.score(novel)["fake-prob"]
    ).auroc
    auroc_analytic = metrics.roc_from_arrays(
        dn.likelihood_ratio_score(p_data, p_novel, nominal),
        dn.likelihood_ratio_score(p_data, p_novel, novel),
    ).auroc

    print(f"grid points compared: {int(covered.sum())}")
    print(f"spearman(fake-prob, likelihood ratio) = {rho:.4f}")
    print(f"auroc: learned {auroc_learned:.4f} vs analytic {auroc_analytic:.4f} "
          f"(|diff| = {abs(auroc_learned - auroc_analytic):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
