"""Exact sheaf cohomology of split bundles and Ulrich-bundle search on
projective spaces, generic curves and towers of projective bundles over
them, such as the Hirzebruch surfaces.

Quick tour::

    >>> from ulrichbundles import *
    >>> F1 = hirzebruch(1)
    >>> cohomology(F1, DivisorClass(F1, (0, 1))).h
    (3, 0, 0)
    >>> is_ulrich(F1, line_bundle(F1, (0, 1)), DivisorClass(F1, (1, 1))).verdict
    True
"""

from .cohomology import (
    CohomologyTable,
    cohomology,
    euler_characteristic,
    toric_cech_oracle,
)
from .errors import (
    BadTwist,
    BoxTooLarge,
    EngineError,
    GenericModeUnsupported,
    InternalInconsistency,
    NotAmple,
    NotSurjective,
    NotVeryAmple,
    ParseError,
    ScanBoxTooSmall,
    UnsupportedPolarisation,
    UnsupportedVariety,
)
from .kernelbundle import (
    KernelBundlePresentation,
    LinearFormMatrix,
    TwistedKernel,
    h0_multiplication_rank,
    kernel_cohomology,
    lemma_conditions_check,
    prop61_builder,
    random_presentation,
    staircase_matrix,
    staircase_presentation,
    sym_euler_matrix,
    sym_euler_presentation,
)
from .picard import (
    AmpleVerdict,
    DivisorClass,
    GenericCurve,
    P1xP1,
    ProjBundle,
    ProjSpace,
    SplitBundle,
    canonical_class,
    hirzebruch,
    is_ample,
    is_very_ample,
    line_bundle,
    minimal_ample_direction,
    parse_bundle,
    parse_divisor,
    parse_variety,
    render_bundle,
    render_divisor,
    render_variety,
    sym_power,
    very_ample_threshold,
    zero_divisor,
)
from .search import (
    ScanResult,
    SearchBox,
    pullback_ulrich_line_search,
    ulrich_line_bundles,
    zero_cohomology_line_bundles,
)
from .ulrich import (
    Polarisation,
    UlrichReport,
    direct_ulrich_check,
    is_ulrich,
    pullback_ulrich_criterion,
    semiorthogonality_probe,
    serre_partner,
)

__version__ = "0.1.0"
