"""Weighted translation dynamics on Orlicz spaces of locally compact groups."""

from .dynamics import (
    ConditionReport,
    PeriodicPointResult,
    Scenario,
    VERDICT_NOT_VERIFIED,
    VERDICT_REFUSED,
    VERDICT_VERIFIED,
    build_periodic_point,
    build_witness,
    check_chaotic,
    check_disjoint_chaotic,
    check_disjoint_mixing,
    check_disjoint_transitive,
    check_same_weight,
    verify_witness,
)
from .group import (
    AperiodicityCertificate,
    CompactSet,
    GroupElement,
    GroupModel,
    aperiodicity_bound,
)
from .orlicz import OrliczVector, indicator
from .translation import (
    ClampExpWeight,
    ConstantWeight,
    TableWeight,
    Weight,
    WeightedTranslation,
)
from .young import (
    CustomYoung,
    Delta2Report,
    PowerLogYoung,
    PowerYoung,
    YoungFunction,
)

__version__ = "0.1.0"
ACCEL_BACKEND = "numpy"  # kernels in _accel are numpy only

__all__ = [
    "ACCEL_BACKEND",
    "AperiodicityCertificate",
    "ClampExpWeight",
    "CompactSet",
    "ConditionReport",
    "ConstantWeight",
    "CustomYoung",
    "Delta2Report",
    "GroupElement",
    "GroupModel",
    "OrliczVector",
    "PeriodicPointResult",
    "PowerLogYoung",
    "PowerYoung",
    "Scenario",
    "TableWeight",
    "VERDICT_NOT_VERIFIED",
    "VERDICT_REFUSED",
    "VERDICT_VERIFIED",
    "Weight",
    "WeightedTranslation",
    "YoungFunction",
    "aperiodicity_bound",
    "build_periodic_point",
    "build_witness",
    "check_chaotic",
    "check_disjoint_chaotic",
    "check_disjoint_mixing",
    "check_disjoint_transitive",
    "check_same_weight",
    "indicator",
    "verify_witness",
]
