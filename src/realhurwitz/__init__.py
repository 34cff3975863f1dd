"""Signed enumeration of real polynomial branched coverings.

The library computes exact complex counts of symmetric-group factorizations
from the Goulden-Jackson closed form, finds every normalized complex
polynomial with prescribed real branch data through a certified multistart
solver, extracts the real solutions with their sign data, assembles real
isomorphism classes of coverings, and verifies that the two signed counts
agree.
"""

from .config import RunConfig, load_config
from .coverings import (
    CoveringClass,
    RealHurwitzResult,
    TheoremReport,
    covering_classes,
    normalize,
    real_hurwitz,
    theorem_check,
)
from .errors import (
    AmbiguousRealness,
    ClusterAmbiguity,
    CoveringAssemblyError,
    DegenerateConfiguration,
    HurwitzError,
    IncompleteEnumeration,
    InfraLimit,
    OvercountDetected,
    PropertyFailure,
    ScaleExceeded,
    SignMismatch,
    ValidationError,
)
from .factorizations import (
    HurwitzCount,
    class_size,
    count_factorizations,
    cycle_type,
    enumerate_class,
)
from .partitions import (
    BranchSpec,
    Partition,
    floor_sum_parity,
    o_count,
    parse_partition,
    parse_profiles,
    parse_values,
    partitions_of,
    reduce_partition,
    validate_branch_spec,
)
from .polysolve import (
    Solution,
    SolutionSet,
    SystemSpec,
    build_system,
    classify_real,
    residual,
    residual_and_jacobian,
    solve_all,
)
from .realsigns import (
    RealPolynomial,
    disorder_count,
    ordered_pair_count,
    polynomial_sign,
    real_preimage_sequence,
    s_number,
)
from .series import BasisFit, SeriesTable, basis_fit, h_value, one_part_spec, series_table
from .verify import VerifyReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRealness",
    "BasisFit",
    "BranchSpec",
    "ClusterAmbiguity",
    "CoveringAssemblyError",
    "CoveringClass",
    "DegenerateConfiguration",
    "HurwitzCount",
    "HurwitzError",
    "IncompleteEnumeration",
    "InfraLimit",
    "OvercountDetected",
    "Partition",
    "PropertyFailure",
    "RealHurwitzResult",
    "RealPolynomial",
    "RunConfig",
    "ScaleExceeded",
    "SignMismatch",
    "Solution",
    "SolutionSet",
    "SeriesTable",
    "SystemSpec",
    "TheoremReport",
    "ValidationError",
    "VerifyReport",
    "basis_fit",
    "build_system",
    "class_size",
    "classify_real",
    "count_factorizations",
    "covering_classes",
    "cycle_type",
    "disorder_count",
    "enumerate_class",
    "floor_sum_parity",
    "h_value",
    "load_config",
    "normalize",
    "o_count",
    "one_part_spec",
    "ordered_pair_count",
    "parse_partition",
    "parse_profiles",
    "parse_values",
    "partitions_of",
    "polynomial_sign",
    "real_hurwitz",
    "real_preimage_sequence",
    "reduce_partition",
    "residual",
    "residual_and_jacobian",
    "run_sweep",
    "s_number",
    "series_table",
    "solve_all",
    "theorem_check",
    "validate_branch_spec",
]
