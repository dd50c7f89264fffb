"""SC core: bit-streams, RNG sources, SNGs, arithmetic, conversion.

This package contains the technology-independent half of the library — the
stochastic-computing semantics that both the CMOS baseline and the in-ReRAM
engine implement.
"""

from .backend import (
    ExecutionBackend,
    PackedBackend,
    UnpackedBackend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .bitstream import Bitstream
from .encoding import (
    binary_to_prob,
    bipolar_to_prob,
    prob_to_binary,
    prob_to_bipolar,
    prob_to_unipolar,
    quantize,
    unipolar_to_prob,
)
from .rng import (
    CounterRng,
    Lfsr,
    P2lsgRng,
    PAPER_POLY_8,
    PRIMITIVE_POLY_8,
    RandomSource,
    SobolRng,
    SoftwareRng,
    lfsr_period,
)
from .sng import (
    BiasedBitSource,
    BitSource,
    ComparatorSng,
    IdealBitSource,
    SegmentSng,
    unary_stream,
)
from .correlation import correlation_matrix, decorrelate, overlap_probability, scc
from .conversion import CounterConverter, ExactConverter, QuantizingConverter
from .accuracy import OP_SPECS, OpSpec, op_mse, sng_mse
from .deterministic import (
    clock_division_pair,
    deterministic_multiply,
    relatively_prime_pair,
    rotation_pair,
    unary_bits,
)
from .polynomial import (
    bernstein_eval_exact,
    bernstein_eval_sc,
    bernstein_from_power,
)
from .flow import FlowResult, ScFlow
from . import ops

__all__ = [
    "ExecutionBackend", "PackedBackend", "UnpackedBackend",
    "available_backends", "get_backend", "register_backend", "set_backend",
    "use_backend",
    "Bitstream",
    "binary_to_prob", "bipolar_to_prob", "prob_to_binary", "prob_to_bipolar",
    "prob_to_unipolar", "quantize", "unipolar_to_prob",
    "CounterRng", "Lfsr", "P2lsgRng", "PAPER_POLY_8", "PRIMITIVE_POLY_8", "RandomSource",
    "SobolRng", "SoftwareRng", "lfsr_period",
    "BiasedBitSource", "BitSource", "ComparatorSng", "IdealBitSource",
    "SegmentSng", "unary_stream",
    "correlation_matrix", "decorrelate", "overlap_probability", "scc",
    "CounterConverter", "ExactConverter", "QuantizingConverter",
    "OP_SPECS", "OpSpec", "op_mse", "sng_mse",
    "clock_division_pair", "deterministic_multiply",
    "relatively_prime_pair", "rotation_pair", "unary_bits",
    "bernstein_eval_exact", "bernstein_eval_sc", "bernstein_from_power",
    "FlowResult", "ScFlow",
    "ops",
]
