"""Stream samplers: WSD, GPS, GPS-A, and the uniform baselines.

All samplers are built on the composable kernel layer
(:mod:`repro.samplers.kernel`): the rank-threshold samplers instantiate
:class:`ThresholdSamplerKernel` with a reservoir policy, the uniform
baselines instantiate :class:`PairingSamplerKernel`, and both inherit
the batched ingestion fast paths.
"""

from repro.samplers.base import SubgraphCountingSampler
from repro.samplers.checkpoint import (
    load_sampler,
    restore_sampler,
    sampler_state_dict,
    save_sampler,
)
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.heap import IndexedMinHeap
from repro.samplers.kernel import PairingSamplerKernel, ThresholdSamplerKernel
from repro.samplers.random_pairing import RandomPairingReservoir
from repro.samplers.ranks import (
    ExponentialRank,
    InverseUniformRank,
    RankFunction,
    get_rank_function,
)
from repro.samplers.thinkd import ThinkD
from repro.samplers.thinkd_fast import ThinkDFast
from repro.samplers.triest import Triest
from repro.samplers.wrs import WRS
from repro.samplers.wsd import WSD

__all__ = [
    "SubgraphCountingSampler",
    "ThresholdSamplerKernel",
    "PairingSamplerKernel",
    "GPS",
    "GPSA",
    "WSD",
    "Triest",
    "ThinkD",
    "ThinkDFast",
    "WRS",
    "IndexedMinHeap",
    "RandomPairingReservoir",
    "RankFunction",
    "InverseUniformRank",
    "ExponentialRank",
    "get_rank_function",
    "save_sampler",
    "load_sampler",
    "sampler_state_dict",
    "restore_sampler",
]
