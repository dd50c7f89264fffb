"""repro — All-in-Memory Stochastic Computing using ReRAM (DAC 2025).

A full Python reproduction of the paper's system:

* :mod:`repro.core` — stochastic-computing semantics (bit-streams, SNGs,
  arithmetic, conversion, correlation control);
* :mod:`repro.reram` — behavioural ReRAM substrate (VCM device model,
  crossbar arrays, scouting logic, TRNG, ADC, fault model);
* :mod:`repro.logic` — XOR-AND-inverter graphs and synthesis onto
  scouting-logic schedules;
* :mod:`repro.imsc` — the paper's contribution: the all-in-memory SC engine
  (IMSNG, in-memory arithmetic, in-memory S-to-B, cost accounting);
* :mod:`repro.energy` — event-based energy/latency model and a simplified
  NVMain-style trace simulator;
* :mod:`repro.cmos` — the CMOS SC baseline (45 nm cell-level cost model);
* :mod:`repro.bincim` — the binary CIM baseline (AritPIM-style bit-serial
  arithmetic with fault injection);
* :mod:`repro.apps` — image compositing, bilinear interpolation and image
  matting on all backends, plus quality metrics;
* :mod:`repro.serve` — async request-serving layer: resident worker pool,
  fair round-robin tile scheduler, stdin/JSON service and client
  (``python -m repro serve``);
* :mod:`repro.analysis` — runners that regenerate every table and figure of
  the paper's evaluation.

How to run is described by one frozen :class:`repro.config.RunConfig`
threaded through every layer.  The package default is the **fast preset**
(``RunConfig.fast()``: packed backend, column S-to-B, sparse fault
masks); the paper-faithful oracles stay one preset away as
``RunConfig.oracle()``.
"""

from .config import RunConfig
from .core import (
    Bitstream,
    ComparatorSng,
    Lfsr,
    ScFlow,
    SegmentSng,
    SobolRng,
    SoftwareRng,
    ops,
    scc,
)

__version__ = "1.0.0"

__all__ = [
    "Bitstream",
    "ComparatorSng",
    "RunConfig",
    "Lfsr",
    "ScFlow",
    "SegmentSng",
    "SobolRng",
    "SoftwareRng",
    "ops",
    "scc",
    "__version__",
]
