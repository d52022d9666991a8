"""supneg: entanglement measures for tripartite pure qudit states.

Negativity and concurrence per cut and in total, GME variants, and upper
and lower bounds for two-component superpositions, all evaluated through
antisymmetric-generator bilinear forms and certified against a dense
partial-transpose oracle.
"""

from .bounds import (
    BoundsReport,
    CrossTermTable,
    evaluate_bounds,
    evaluate_bounds_batch,
    fit_gme_closed_form,
)
from .library import (
    ghz,
    haar_random,
    random_biseparable,
    random_superposition_spec,
    w_state,
    z_family,
)
from .measures import MeasureReport, cross_sums, measure_report
from .oracle import (
    density_matrix,
    hermitian_eigenvalues,
    negativities_pt_oracle,
    partial_transpose,
)
from .states import (
    Bipartition,
    PureState,
    SuperpositionSpec,
    bipartitions,
    load_state,
    matricize,
    new_state,
    normalize,
)

__version__ = "0.1.0"
