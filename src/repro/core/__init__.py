"""Millipede: the paper's primary contribution.

* :mod:`corelet` - the simple in-order, 4-way-multithreaded MIMD core model
  shared by Millipede corelets and SSMC cores (the paper keeps their
  pipelines identical so only the memory system differs).
* :mod:`processor` - :class:`MimdProcessor`, the processor shell (launch,
  completion, copy-out) that Millipede, SSMC and the multicore share.
* :mod:`millipede` - the Millipede processor: corelets + row-oriented,
  flow-controlled cross-corelet prefetch buffer.
* :mod:`rate_match` - coarse-grain compute-memory rate matching (DFS).
"""

from repro.core.corelet import MimdCore
from repro.core.millipede import MillipedeProcessor
from repro.core.processor import MimdProcessor
from repro.core.rate_match import RateMatchController

__all__ = ["MimdCore", "MimdProcessor", "MillipedeProcessor",
           "RateMatchController"]
