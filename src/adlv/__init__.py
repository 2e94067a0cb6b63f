"""Exact alcove combinatorics for nonemptiness of single affine
Deligne-Lusztig varieties at Iwahori level in the basic case.

All arithmetic is exact (integers and rationals); there is no floating
point anywhere in the library.
"""

from .cartan import (
    Root,
    RootSystem,
    SubsetProperties,
    subset_predicates,
)
from .weyl import (
    DiagramAutomorphism,
    FiniteWeylElement,
    enumerate_w0,
    longest_element,
    reduced_word,
    sigma_support,
    support,
)
from .iwahori import (
    AffineElement,
    AffineSupport,
    KottwitzClass,
    NewtonPoint,
    affine_sigma_support,
    apply_sigma_affine,
    enumerate_affine,
    kottwitz,
    newton,
    omega_elements,
)
from .alcove import (
    AlcoveProfile,
    DominantDecomposition,
    dominant_decompose,
)
from .criterion import (
    BgxReport,
    SigmaConjClassPoint,
    Verdict,
    bgx_cordial,
    decide_nonempty,
    defect,
    dim_one_strip_rank2,
    dim_shrunken,
    enumerate_b_g_mu,
    is_jw_alcove,
    j_rx,
    oracle_nonempty,
    shortcut_applies,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
