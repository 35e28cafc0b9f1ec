"""The paper's primary contribution: PostgresRaw's in-situ machinery.

* :mod:`repro.core.positional_map` — the adaptive positional map (§4.2)
* :mod:`repro.core.cache` — the binary cache (§4.3)
* :mod:`repro.core.scan` — selective tokenize/parse/tuple-formation (§4.1)
* :mod:`repro.core.blockscan` — the raw-scan shell and the one
  block-streaming driver every raw format (CSV, JSONL, FITS) shares
* :mod:`repro.core.statistics` — on-the-fly statistics (§4.4)
* :mod:`repro.core.updates` — external updates / appends (§4.5)
* :mod:`repro.core.engine` — the PostgresRaw engine tying it together
"""

from repro.core.cache import BinaryCache
from repro.core.config import PostgresRawConfig
from repro.core.engine import PostgresRaw
from repro.core.positional_map import PositionalMap
from repro.core.prewarm import FsInterfacePrewarmer
from repro.core.tuner import IdleTuner, TuningReport

__all__ = ["PostgresRaw", "PostgresRawConfig", "PositionalMap",
           "BinaryCache", "IdleTuner", "TuningReport",
           "FsInterfacePrewarmer"]
