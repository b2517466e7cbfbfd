"""Octonion algebra, verified triality triples for the rank-8 spin group, and
the S3-symmetric geometry of S7 x S7, over exact or float scalars."""

# Callers import submodules; perfbench's set-up calls spin8.TrialityTriple.identity().
from .triality import TrialityTriple  # noqa: F401
