"""Higher q,t-Catalan polynomials, continuous Dyck path statistics, and the
limiting measures that connect them."""

from .discrete import (
    BouncePathM,
    BudgetExceededError,
    InvalidPathError,
    MDyckPath,
    area_m,
    bounce_m,
    bounce_path_m,
    catalan_number_m,
    dinv_m,
    enumerate_m_dyck,
    phi_m,
    sc_m,
)
from .qtpoly import (
    DiscreteMeasure,
    QtPolynomial,
    qt_catalan_area_bounce,
    qt_catalan_dinv_area,
    to_normalized_measure,
    transpose,
)
from .continuous import (
    BounceVector,
    ContinuousPath,
    DegenerateInputError,
    area,
    area_vector_from_bounce,
    bounce,
    bounce_vector,
    dinv,
    from_m_dyck,
    jacobian_count,
    normalized_m_stats,
    sc,
    sort_preimage_count,
    to_m_dyck,
    transform_T,
)
from .measure import (
    Histogram2D,
    SampleBatch,
    convergence_report,
    density_n4_cell_integrals,
    density_n4_total_integral,
    l1_distance,
    limit_cell_integrals,
    measure_preservation_check,
    polytope_volume,
    pushforward_histogram,
    sample_area_polytope,
)

__version__ = "0.1.0"
