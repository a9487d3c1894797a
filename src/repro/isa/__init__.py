"""Instruction-set foundations shared by every emulated extension.

This subpackage defines the three layers everything else builds on:

* :mod:`repro.isa.subword` -- packed subword arithmetic with MMX/SSE
  semantics (wrap-around and saturating adds, widening multiplies,
  sum-of-absolute-differences, saturating packs).
* :mod:`repro.isa.opcodes` -- the dynamic-instruction taxonomy used by the
  paper (scalar memory / scalar arithmetic / control / vector memory /
  vector arithmetic), functional-unit classes, execution latencies and
  the static descriptor of every opcode the emulation machines emit.
* :mod:`repro.isa.trace` -- the columnar dynamic-trace IR produced by the
  emulation machines and consumed by the timing model, mirroring the
  ATOM-generated traces the paper fed to the Jinks simulator
  (``docs/trace-ir.md`` describes the column layout).
"""

from repro.isa.opcodes import Category, FUClass, Latency
from repro.isa.trace import ColumnarTrace, Trace, TraceBuilder, TraceRecord

__all__ = [
    "Category", "ColumnarTrace", "FUClass", "Latency", "Trace",
    "TraceBuilder", "TraceRecord",
]
