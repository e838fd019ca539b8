"""PMLang intrinsic functions.

Intrinsics are the PMLang-visible surface of the PM substrate — the
equivalents of the PMDK calls and persistence instructions that the Arthas
analyzer recognises (Section 3.2 of the paper).  The table maps an
intrinsic call in PMLang source to an IR opcode; the compiler consults it,
and the analyzer's PM-variable identification keys off the resulting ops
(``alloc`` with space "pm", ``getroot``, ``persist`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class IntrinsicSpec:
    """Shape of one intrinsic: target opcode, arity, result, extras."""

    op: str
    arity: int
    has_dst: bool
    #: extra constant operands appended after the register args
    extra: Tuple = ()
    #: indices of arguments that must be string literals (moved into args)
    str_args: Tuple[int, ...] = ()


INTRINSICS: Dict[str, IntrinsicSpec] = {
    "pm_alloc": IntrinsicSpec("alloc", 1, True, extra=("pm",)),
    "valloc": IntrinsicSpec("alloc", 1, True, extra=("vol",)),
    "pm_free": IntrinsicSpec("free", 1, False, extra=("pm",)),
    "vfree": IntrinsicSpec("free", 1, False, extra=("vol",)),
    "pm_realloc": IntrinsicSpec("realloc", 2, True),
    "persist": IntrinsicSpec("persist", 2, False),
    "flush": IntrinsicSpec("flush", 2, False),
    "fence": IntrinsicSpec("fence", 0, False),
    "tx_begin": IntrinsicSpec("txbegin", 0, False),
    "tx_add": IntrinsicSpec("txadd", 2, False),
    "tx_commit": IntrinsicSpec("txcommit", 0, False),
    "tx_abort": IntrinsicSpec("txabort", 0, False),
    "set_root": IntrinsicSpec("setroot", 1, False),
    "get_root": IntrinsicSpec("getroot", 0, True),
    "assert_true": IntrinsicSpec("assert", 2, False, str_args=(1,)),
    "panic": IntrinsicSpec("panic", 1, False, str_args=(0,)),
    "emit": IntrinsicSpec("emit", 2, False, str_args=(0,)),
    "thread_yield": IntrinsicSpec("yield", 0, False),
    "nop": IntrinsicSpec("nop", 0, False),
}


def spec(name: str) -> Optional[IntrinsicSpec]:
    """The table entry for an intrinsic.  None for the compiler's special
    forms too: ``sizeof("struct")`` (compile-time constant), ``range``
    (for loops) and ``addr(p.field)`` / ``addr(a[i])`` (address-of, for
    field-granularity persists and tx_adds)."""
    return INTRINSICS.get(name)
