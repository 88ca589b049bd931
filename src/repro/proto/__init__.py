"""Prototype substrate: emulated Apache Traffic Server and Caffeine
deployments with origin, flash and resource-accounting models.
"""

from repro.proto.ats import (
    AtsServer,
    CostModel,
    PrototypeReport,
    ServedRequest,
    make_ats_baseline,
    run_prototype,
)
from repro.proto.caffeine import (
    CaffeineServer,
    make_caffeine_baseline,
    make_caffeine_lhr,
)
from repro.proto.flash import FlashStats, FlashStore
from repro.proto.origin import OriginServer, OriginStats

__all__ = [
    "AtsServer",
    "CaffeineServer",
    "CostModel",
    "FlashStats",
    "FlashStore",
    "OriginServer",
    "OriginStats",
    "PrototypeReport",
    "ServedRequest",
    "make_ats_baseline",
    "make_caffeine_baseline",
    "make_caffeine_lhr",
    "run_prototype",
]
