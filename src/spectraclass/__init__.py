"""Fuzzy-logic classification of mass spectra.

Pipeline: ingest peak-list spectra, evaluate a fuzzy rule base into
per-class memberships, harden to labels, accumulate ensemble peak
statistics for rule authoring, and smooth indeterminate spots on a
sample grid from their neighbors.
"""

from .classify import (
    Classification,
    MembershipVector,
    classify_batch,
    classify_iter,
    harden,
    memberships,
)
from .fuzzy import MembershipFn
from .rulebase import (
    ClassRule,
    RuleBase,
    builtin_basalt,
    parse_rulebase,
    serialize_rulebase,
    validate,
)
from .spatial import map_rows, read_grid_csv, read_grid_rows, reclassify_map
from .spectrum import (
    IonTarget,
    Spectrum,
    normalize,
    parse_spectrum,
)
from .stats import (
    StatBin,
    StatDB,
    build_statdb,
    class_vs_ensemble_report,
    peak_list,
)

__version__ = "0.1.0"
