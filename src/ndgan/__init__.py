"""GAN-based simultaneous classification and novelty detection.

A K+1-class discriminator trained against a feature-matching generator
doubles as a classifier and a novelty detector; analytic Gaussian-mixture
oracles (likelihood-ratio detector, closed-form optimal discriminator)
provide the ground truth it is validated against.
"""

__version__ = "0.9.0"

from . import blas, cli, data, densities, gan, layers, metrics, rng, scores  # noqa: F401
