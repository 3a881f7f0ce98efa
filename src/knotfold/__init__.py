"""Jones polynomial point clouds from knot diagram codes.

Compute Jones polynomials from DT or PD codes via the Kauffman bracket,
encode families of knots as q^0-aligned integer coefficient clouds, and
study their dimensionality and stability through crossing-number and norm
filtrations with a PCA core: covariance accumulated from scratch, the
eigensolve by LAPACK pinned to one BLAS thread.

The filtration and PCA exports load (with numpy) on first access, so
importing the package, and every command that does no analysis, starts
without numpy.  hashlib, which maps OpenSSL's libcrypto, loads only in
the functions that take a sha256 (pipeline.ingest and cache_key), so
importing the package, a family analysis and export run without it.
"""

import importlib

from .bracket import jones, kauffman_bracket
from .cloud import (
    AlignedCloud,
    KnotRecord,
    align,
    canonical_orientation,
)
from .diagrams import (
    DTSequence,
    PlanarDiagram,
    dt_code,
    is_alternating,
    mirror,
    parse_dt,
    parse_pd,
    realize_dt,
    writhe,
)
from .errors import KnotfoldError
from .families import family_cloud, jones_double_twist, jones_torus
from .laurent import LaurentPolynomial
from .pipeline import (
    AnalysisConfig,
    InvariantCache,
    compute_batch,
    generate_family,
    ingest,
    run_analysis,
)
from .signature import signature_from_diagram

__version__ = "0.1.0"

# export name -> submodule, for the exports loaded on first access
_LAZY = {
    **dict.fromkeys((
        "angle_trajectory",
        "crossing_filtration",
        "eigensystem_trajectory",
        "norm_filtration",
        "norm_histogram",
        "record_cloud",
        "relative_spread",
    ), "filtration"),
    **dict.fromkeys((
        "CovarianceAccumulator",
        "EigenSystem",
        "dimension_estimate",
        "project",
        "sym_eig",
    ), "pca"),
}

__all__ = sorted([
    "AlignedCloud", "AnalysisConfig", "DTSequence", "InvariantCache",
    "KnotRecord", "KnotfoldError", "LaurentPolynomial", "PlanarDiagram",
    "align", "canonical_orientation", "compute_batch", "dt_code",
    "family_cloud", "generate_family", "ingest", "is_alternating", "jones",
    "jones_double_twist", "jones_torus", "kauffman_bracket", "mirror",
    "parse_dt", "parse_pd", "realize_dt", "run_analysis",
    "signature_from_diagram", "writhe",
    *_LAZY,
])


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
