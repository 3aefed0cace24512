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
from .fuzzy import MembershipFn, eval_expr, f_and, f_not, f_or, mu_high, mu_low
from .rulebase import (
    ClassRule,
    RuleBase,
    builtin_basalt,
    parse_rulebase,
    serialize_rulebase,
    validate,
)
from .spatial import SampleGrid, neighbors, reclassify_map, smoothed_membership
from .spectrum import (
    IonTarget,
    Spectrum,
    normalize,
    parse_spectrum,
    peak_abundance,
    serialize_spectrum,
)
from .stats import (
    StatBin,
    StatDB,
    build_statdb,
    class_vs_ensemble_report,
    full_presence_bins,
    peak_list,
)

__version__ = "0.1.0"
