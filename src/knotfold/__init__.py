"""Jones polynomial point clouds from knot diagram codes.

Compute Jones polynomials from DT or PD codes via the Kauffman bracket,
encode families of knots as q^0-aligned integer coefficient clouds, and
study their dimensionality and stability through crossing-number and norm
filtrations with a PCA core: covariance accumulated from scratch, the
eigensolve by LAPACK pinned to one BLAS thread.
"""

from .bracket import jones, kauffman_bracket, skein_check
from .cloud import (
    AlignedCloud,
    CoefficientVector,
    KnotRecord,
    align,
    canonical_orientation,
    coeff_vector,
    embed,
    l2_norm,
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
    serialize_pd,
    writhe,
)
from .errors import KnotfoldError
from .families import jones_double_twist, jones_torus
from .filtration import (
    angle_trajectory,
    crossing_filtration,
    eigensystem_trajectory,
    norm_filtration,
    norm_histogram,
    relative_spread,
)
from .laurent import LaurentPolynomial, laurent_arith, substitute_inverse
from .pca import (
    CovarianceAccumulator,
    EigenSystem,
    PrincipalComponentAnalysis,
    dimension_estimate,
    normalized_variances,
    project,
    sym_eig,
)
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
