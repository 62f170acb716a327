"""Evaluation codes from projective surfaces over finite fields."""

from .gf import (
    FieldEmbedding,
    FiniteField,
    NotInSubfield,
    get_embedding,
    make_field,
    parse_field_spec,
)
from .poly import HomogPoly, monomials
from .projective import (
    BudgetExceeded,
    SectionScan,
    Surface,
    count_rational_points,
    enumerate_points,
    lines_on_surface,
    rational_points,
    section_scan,
    surface_from_text,
    surface_to_text,
)
from .codes import (
    DistanceResult,
    LinearCode,
    MonomialWitness,
    WeightEnumerator,
    apply_projective_transform,
    build_code,
    min_distance,
    weight_enumerator,
)
from .bounds import (
    BoundReport,
    CUBIC_CLASSES,
    build_bound_report,
    d1_bound,
    delpezzo6_Nr,
    ds_bound,
    hws_bound,
    ns_alarm,
    optimal_g1_count,
    predicted_Nr,
    sectional_genus_hypersurface,
)
from .families import (
    ClassificationResult,
    DegenerateInput,
    FrobeniusOrbit,
    classify_cubic,
    del_pezzo4_fixture,
    del_pezzo6,
    frobenius_orbit,
    geometric_witness_dp6,
    random_cubic_search,
    sample_cayley_salmon,
    shioda_surface,
    van_luijk_surface,
)

__version__ = "0.1.0"
