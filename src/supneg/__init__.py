"""supneg: entanglement measures for tripartite pure qudit states.

Negativity and concurrence per cut and in total, GME variants, and upper
and lower bounds for two-component superpositions, all evaluated through
antisymmetric-generator bilinear forms and certified against a dense
partial-transpose oracle.
"""

from .bounds import (
    BoundsReport,
    CrossTermTable,
    SuperpositionSpec,
    cross_terms,
    evaluate_bounds,
    evaluate_bounds_batch,
    fit_gme_closed_form,
    gme_negativity_bounds,
    min_combine_lower,
    min_combine_upper,
    total_negativity_bounds,
    z_family_sweep,
)
from .library import (
    ZFamilyParams,
    ghz,
    haar_random,
    random_biseparable,
    random_superposition_spec,
    w_state,
    z_family,
)
from .measures import (
    GeneratorPair,
    MeasureReport,
    bilinear_form,
    bilinear_matrix,
    concurrence_sq,
    cross_sum,
    cross_sums,
    generator_pairs,
    gme_concurrence,
    gme_negativity,
    is_biseparable,
    measure_report,
    multipartite_concurrence_sq,
    multipartite_negativity,
    negativity_schmidt,
    negativities_so,
    negativity_so,
)
from .oracle import (
    density_matrix,
    hermitian_eigenvalues,
    negativities_pt_oracle,
    negativity_pt_oracle,
    partial_transpose,
    trace_norm,
)
from .states import (
    Bipartition,
    PureState,
    SchmidtSpectrum,
    bipartitions,
    conjugate,
    load_state,
    matricize,
    new_state,
    normalize,
    reduced_density,
    save_state,
    schmidt_spectrum,
    superpose,
)

__version__ = "0.1.0"
