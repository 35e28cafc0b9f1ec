"""Scan kernels: the cached-block fast path and who gets it.

The generic batch pipeline (the :mod:`repro.core.blockscan` driver over
the per-format block compute, e.g. :mod:`repro.core.scan_batch`) walks
the same tokenize -> convert -> vectorize machinery for every block,
including the blocks a warm query finds fully cached. A scan may serve
such blocks through one plain function instead — probe the block with
side-effect-free peeks, then perform the generic charge sequence and
hand out the cached arrays.

- :mod:`repro.kernels.fastpath` — :func:`cached_block`, the fast path
  itself, tried per indexed block;
- :mod:`repro.kernels.cache` — :func:`compile_kernel`, the per-scan
  decision every ``BlockScan`` takes (so sessions, one-shot
  ``Database.query`` calls, rollup builds and partitioned children all
  get the fast path alike), and :func:`explain_note`, its static half
  as the EXPLAIN row ``kernel: cached-block [t]`` /
  ``kernel: none (<reason>) [t]``.

The kernel path is gated by ``config.scan_kernels`` (env
``REPRO_SCAN_KERNELS``) and is contractually bit-identical to the
generic path — results, PM/cache contents, priced counters and the
virtual clock — at any worker count; a block the fast path cannot
serve bails out to the generic code per block, never per query. Each
indexed block it is offered counts one zero-priced ``kernel_hits``
(served) or ``kernel_bailouts`` (probed and missed).
"""

from __future__ import annotations

from repro.kernels.cache import compile_kernel, explain_note
from repro.kernels.fastpath import cached_block

__all__ = ["cached_block", "compile_kernel", "explain_note"]
