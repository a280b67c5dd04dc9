"""Cache building blocks: lines, LRU sets, slices, shadow tags, monitors."""

from .block import CacheLine
from .cache import SetAssocCache
from .lruset import LruSet
from .satcounter import DemandMonitorCounter, SaturatingCounter
from .shadowset import ShadowSet
from .stackdist import StackDistanceProfiler, StackDistanceSet
from .stackdist_stream import (
    DemandProfile,
    StreamingProfiler,
    concat_profiles,
    profile_chunks,
)

__all__ = [
    "CacheLine",
    "SetAssocCache",
    "LruSet",
    "DemandMonitorCounter",
    "SaturatingCounter",
    "ShadowSet",
    "StackDistanceProfiler",
    "StackDistanceSet",
    "DemandProfile",
    "StreamingProfiler",
    "concat_profiles",
    "profile_chunks",
]
