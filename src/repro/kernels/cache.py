"""The plan-adjacent kernel cache.

One :class:`KernelCache` lives on each :class:`~repro.api.session.
Session`, beside the prepared-statement plan cache: preparing (or
re-planning) a statement looks its scan shapes up here, binding a
:class:`~repro.kernels.fastpath.KernelProgram` on miss (the bind step
is called through the module global ``compile_kernel``, so a tracer can
wrap it). The cache is keyed by the full collision-free kernel key (see
:mod:`repro.kernels.signature`) and invalidated wholesale on the same
catalog ``stats_epoch`` bumps that trigger re-planning — DDL, drops,
renames, statistics arrival — so a kernel can never outlive the plan
shape it was bound for. ``?``-parameter re-binds do not touch the
cache at all: parameter values are outside the kernel key and are read
by the predicate closures at execution time.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.kernels.fastpath import KernelProgram, compile_kernel
from repro.kernels.signature import KernelSpec

#: kernels retained per session (LRU); shapes are few in practice
DEFAULT_CAPACITY = 64


class KernelCache:
    """LRU cache of bound :class:`KernelProgram` objects."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._programs: OrderedDict[str, KernelProgram] = OrderedDict()
        self.stats_epoch: int | None = None
        self.hits = 0
        self.compiles = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._programs)

    def lookup(self, spec: KernelSpec,
               stats_epoch: int) -> tuple[KernelProgram, str]:
        """``(program, 'hit'|'compiled')`` for ``spec``, binding on
        miss. A ``stats_epoch`` different from the one the cached
        programs were bound under clears the cache first — the same
        staleness rule the plan cache applies per statement."""
        if self.stats_epoch != stats_epoch:
            if self._programs:
                self.invalidations += 1
            self._programs.clear()
            self.stats_epoch = stats_epoch
        program = self._programs.get(spec.key)
        if program is not None:
            self._programs.move_to_end(spec.key)
            self.hits += 1
            return program, "hit"
        program = compile_kernel(spec)
        self._programs[spec.key] = program
        self.compiles += 1
        while len(self._programs) > self.capacity:
            self._programs.popitem(last=False)
        return program, "compiled"
