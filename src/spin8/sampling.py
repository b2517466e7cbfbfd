"""Random generators for group elements and sphere points.

Random triples are words in {g, tau(g), sigma(g)} for g built from random
unit octonions; these are valid group elements by construction and varying
the unit gives a rich family.  Random automorphism triples use conjugation by
cube roots of unity, x -> s x conj(s) with s^3 = 1, whose sixth power being 1
makes it an algebra automorphism; the verified-triple constructor re-checks
every sample anyway.
"""

from __future__ import annotations

from .octonion import (
    cube_root_of_unity,
    random_imaginary_unit,
    random_unit_octonion,
    sandwich_matrix,
)
from .symspace import SpherePoint
from .triality import (
    GammaElement,
    SemidirectElement,
    TrialityTriple,
    apply_sigma,
    apply_tau,
    spin_from_unit,
)


def random_generator(rng, backend) -> TrialityTriple:
    """One of g, tau(g), sigma(g) for g from a random unit octonion."""
    g = spin_from_unit(random_unit_octonion(rng, backend))
    twist = rng.randrange(3)
    if twist == 1:
        return apply_tau(g)
    if twist == 2:
        return apply_sigma(g)
    return g


def random_triple(rng, backend, max_len: int = 3, min_len: int = 1) -> TrialityTriple:
    """A random word of generators, re-verified at every step."""
    g = random_generator(rng, backend)
    for _ in range(rng.randint(min_len, max_len) - 1):
        g = g * random_generator(rng, backend)
    return g


def conjugation_triple(rng, backend) -> TrialityTriple:
    """The diagonal triple of x -> s x conj(s) for a random cube root s."""
    s = cube_root_of_unity(random_imaginary_unit(rng, backend))
    d = sandwich_matrix(s, s.conj())
    return TrialityTriple(d, d, d)


def random_g2(rng, backend, max_len: int = 2) -> TrialityTriple:
    """A random automorphism triple: a short product of conjugation triples."""
    g = conjugation_triple(rng, backend)
    for _ in range(rng.randint(1, max_len) - 1):
        g = g * conjugation_triple(rng, backend)
    return g


def random_gamma(rng) -> GammaElement:
    return GammaElement(rng.randrange(2), rng.randrange(3))


def random_semidirect(rng, backend, max_len: int = 2) -> SemidirectElement:
    return SemidirectElement(random_triple(rng, backend, max_len), random_gamma(rng))


def random_sphere_point(rng, backend) -> SpherePoint:
    return SpherePoint(
        random_unit_octonion(rng, backend), random_unit_octonion(rng, backend)
    )
