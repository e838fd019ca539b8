"""Instrumentation: trace GUIDs and the runtime PM-address tracer.

Reproduces step ❶ of the paper's workflow: the analyzer assigns a
Globally Unique Identifier to every PM instruction, emits a metadata file
mapping ``GUID -> (source location, instruction)``, and instruments the
program so executions emit a ``<GUID, pmem_address>`` trace with buffered,
asynchronously flushed records.  Every PM instruction gets a tracing call
except a gep whose traced readers record the address it computes; the
metadata file lists those readers as the gep's carriers.
"""

from repro.instrument.guids import GuidMap
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace

__all__ = ["GuidMap", "instrument_module", "PMTrace"]
