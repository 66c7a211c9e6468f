"""snapshot: page versioning as an external service (paper Section 4).

RCS archives per URL, per-user seen-version control files, advisory
locking with simultaneous-request coalescing, HtmlDiff output caching,
BASE rewriting for relative links, and the CGI face with its keep-alive
trick against httpd timeouts.
"""

from .auth import AccountRegistry, AuthenticatedSnapshotService, AuthError
from .checkoutcache import CheckoutCache
from .diffcache import DiffCache
from .journal import (
    JournalError,
    JournalRecord,
    JournalScan,
    ResolvedJournal,
    SeenRecord,
    TxnAbort,
    TxnCommit,
    TxnIntent,
    resolve_entries,
    scan_journal,
)
from .keepalive import CgiTimeout, KeepAlive, KeepAliveResult
from .locking import LockError, LockManager, RequestCoalescer
from .options import StoreOptions
from .persistence import (
    JournalRecoveryWarning,
    StoreVerification,
    load_store,
    save_store,
    verify_store,
)
from .sched import (
    CRASH_POINTS,
    CrashPlan,
    DeadlockError,
    Failpoints,
    SimScheduler,
    SimulatedCrash,
)
from .service import OperationCosts, SnapshotService
from .wal import Transaction, WalError, WriteAheadLog
from .store import (
    RememberResult,
    ContentQuarantined,
    SnapshotError,
    SnapshotStore,
    add_base_directive,
)
from .usercontrol import SeenVersion, UserControl

__all__ = [
    "AccountRegistry",
    "AuthenticatedSnapshotService",
    "AuthError",
    "CgiTimeout",
    "CheckoutCache",
    "CRASH_POINTS",
    "CrashPlan",
    "DeadlockError",
    "DiffCache",
    "Failpoints",
    "JournalError",
    "JournalRecord",
    "JournalScan",
    "LockError",
    "ResolvedJournal",
    "SeenRecord",
    "SimScheduler",
    "SimulatedCrash",
    "Transaction",
    "TxnAbort",
    "TxnCommit",
    "TxnIntent",
    "WalError",
    "WriteAheadLog",
    "resolve_entries",
    "scan_journal",
    "JournalRecoveryWarning",
    "StoreVerification",
    "load_store",
    "save_store",
    "verify_store",
    "KeepAlive",
    "KeepAliveResult",
    "LockManager",
    "RequestCoalescer",
    "OperationCosts",
    "SnapshotService",
    "RememberResult",
    "ContentQuarantined",
    "SnapshotError",
    "SnapshotStore",
    "StoreOptions",
    "add_base_directive",
    "SeenVersion",
    "UserControl",
]
