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
    real_hurwitz,
    theorem_check,
)
from .errors import (
    AmbiguousRealness,
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
    count_factorizations,
    cycle_type,
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
    validate_branch_spec,
)
from .polysolve import (
    SolutionSet,
    SystemSpec,
    build_system,
    classify_real,
    residual,
    solve_all,
)
from .realsigns import (
    RealPolynomial,
    disorder_count,
    ordered_pair_count,
    polynomial_sign,
    s_number,
)
from .series import BasisFit, SeriesTable, basis_fit, h_value, one_part_spec, series_table
from .verify import VerifyReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRealness",
    "BasisFit",
    "BranchSpec",
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
    "SeriesTable",
    "SignMismatch",
    "SolutionSet",
    "SystemSpec",
    "TheoremReport",
    "ValidationError",
    "VerifyReport",
    "basis_fit",
    "build_system",
    "classify_real",
    "count_factorizations",
    "cycle_type",
    "disorder_count",
    "floor_sum_parity",
    "h_value",
    "load_config",
    "o_count",
    "one_part_spec",
    "ordered_pair_count",
    "parse_partition",
    "parse_profiles",
    "parse_values",
    "partitions_of",
    "polynomial_sign",
    "real_hurwitz",
    "residual",
    "run_sweep",
    "s_number",
    "series_table",
    "solve_all",
    "theorem_check",
    "validate_branch_spec",
]
