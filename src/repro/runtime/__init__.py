"""Numeric out-of-core runtime: capacity-enforced plan execution.

Two executors share one op dispatch and one bit-identical-gradients
invariant: the synchronous :class:`OutOfCoreExecutor` (the oracle —
every transfer completes inline) and the asynchronous
:class:`AsyncOutOfCoreExecutor` (transfers overlap compute on per-link
streams, prefetched ahead of use and fenced before first use).  See
``docs/runtime.md`` for the stream model and its invariants.
"""

from .async_executor import AsyncOutOfCoreExecutor, RuntimeTrace
from .checkpoint import (
    CheckpointClosedError,
    CheckpointCorruptError,
    CheckpointManager,
    checkpoint_digest,
    load_checkpoint,
    load_checkpoint_full,
    save_checkpoint,
)
from .executor import OutOfCoreExecutor, OutOfCorePlanError
from .streams import (
    LINK_RESOURCES,
    OpRecord,
    StreamSet,
    TransferPacer,
    TransferRequest,
    TransferStream,
)
from .trainer import OutOfCoreTrainer

__all__ = ["OutOfCoreExecutor", "OutOfCorePlanError", "OutOfCoreTrainer",
           "AsyncOutOfCoreExecutor", "RuntimeTrace",
           "TransferPacer", "TransferStream", "TransferRequest",
           "StreamSet", "OpRecord", "LINK_RESOURCES",
           "save_checkpoint", "load_checkpoint", "load_checkpoint_full",
           "CheckpointClosedError", "CheckpointCorruptError",
           "CheckpointManager",
           "checkpoint_digest"]
