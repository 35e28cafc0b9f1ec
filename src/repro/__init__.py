"""repro: a full reproduction of *NoDB: Efficient Query Execution on Raw
Data Files* (Alagiannis et al., SIGMOD 2012).

Quickstart (session API)::

    import repro
    from repro.storage import VirtualFS

    vfs = VirtualFS()
    vfs.create("people.csv", b"1,alice\\n2,bob\\n")
    session = repro.connect(vfs=vfs)
    session.execute("CREATE TABLE people (id INTEGER, name VARCHAR) "
                    "USING csv OPTIONS (path 'people.csv')")
    row = session.execute("SELECT name FROM people WHERE id = ?",
                          (2,)).fetchone()
    assert row == ("bob",)

The pre-session surface remains: ``PostgresRaw.query(sql)`` returns an
eager :class:`QueryResult`. README.md holds the system map ("Columnar
pipeline", "Layout"); benchmarks/ holds the paper-figure reproductions
and benchmarks/e2e/README.md the wall-clock record.
"""

from repro.api import (
    Cursor,
    PreparedStatement,
    Scheduler,
    Session,
    connect,
)
from repro.core.cache import BinaryCache
from repro.core.config import PostgresRawConfig
from repro.core.engine import PostgresRaw
from repro.core.positional_map import PositionalMap
from repro.core.prewarm import FsInterfacePrewarmer
from repro.core.tuner import IdleTuner, TuningReport
from repro.engines.base import Database
from repro.engines.cfitsio import CFitsioProgram
from repro.engines.external import ExternalFilesDBMS
from repro.engines.loaded import LoadedDBMS
from repro.errors import CatalogError, ReproError
from repro.formats.registry import (
    FormatAdapter,
    available_formats,
    get_format,
    register_format,
)
from repro.simcost.clock import CostEvent, VirtualClock
from repro.simcost.model import CostModel
from repro.simcost.profiles import (
    CFITSIO_PROFILE,
    CSV_ENGINE_PROFILE,
    DBMS_X_EXTERNAL_PROFILE,
    DBMS_X_PROFILE,
    MYSQL_PROFILE,
    POSTGRESQL_PROFILE,
    POSTGRES_RAW_PROFILE,
    CostProfile,
)
from repro.sql.catalog import Column, Schema, TableInfo
from repro.sql.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    FLOAT,
    INTEGER,
    DataType,
    char,
    decimal,
    varchar,
)
from repro.sql.executor import QueryResult
from repro.storage.vfs import OSPageCache, VirtualFS

__version__ = "1.1.0"

__all__ = [
    # session/cursor façade (repro.api)
    "connect", "Session", "Cursor", "PreparedStatement", "Scheduler",
    # engines
    "PostgresRaw", "PostgresRawConfig", "LoadedDBMS", "ExternalFilesDBMS",
    "CFitsioProgram", "Database",
    # core structures
    "PositionalMap", "BinaryCache", "IdleTuner", "TuningReport",
    "FsInterfacePrewarmer",
    # catalog / types
    "Schema", "Column", "TableInfo", "DataType",
    "INTEGER", "BIGINT", "FLOAT", "DATE", "BOOLEAN",
    "varchar", "char", "decimal",
    # results
    "QueryResult",
    # cost model
    "VirtualClock", "CostModel", "CostEvent", "CostProfile",
    "POSTGRES_RAW_PROFILE", "POSTGRESQL_PROFILE", "DBMS_X_PROFILE",
    "MYSQL_PROFILE", "CSV_ENGINE_PROFILE", "DBMS_X_EXTERNAL_PROFILE",
    "CFITSIO_PROFILE",
    # format-adapter registry (CREATE TABLE ... USING <format>)
    "FormatAdapter", "register_format", "get_format", "available_formats",
    # storage
    "VirtualFS", "OSPageCache",
    # errors
    "ReproError", "CatalogError",
]
