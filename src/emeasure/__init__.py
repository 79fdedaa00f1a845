"""Exact-arithmetic toolkit around the nested-interval enclosure of e:
irrationality-measure checks, Kempner-function machinery, continued-fraction
convergents, Cantor series classification, and range density scans.
"""

from .cantor import CantorSpec, CantorVerdict, cantor_partial_sum, classify
from .cfrac import (
    Convergent,
    PartialSumRecord,
    conjecture2_scan,
    convergents,
    corollary3_scan,
    is_convergent,
    partial_sum_record,
)
from .density import (
    DensityReport,
    conjecture1_counts,
    density_report,
    kempner_plan,
    kempner_range,
)
from .enclosure import (
    Interval,
    compare_distance_to_e,
    interval,
    partial_sum,
    render_distance,
)
from .kempner import (
    KempnerResult,
    factorize,
    kempner_S,
    kempner_S_naive,
    kempner_result,
    largest_prime_factor,
)
from .measures import (
    MeasureVerdict,
    check_prime_factor_bound,
    check_sharpness,
    check_theorem1,
    compare_bounds,
    corollary2_scan,
    known_measure_bound,
    theorem1_bound,
)

__version__ = "0.1.0"
