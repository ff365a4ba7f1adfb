"""High-performance log loading: nl_load front-end, stampede_loader module,
and the monitord real-time file follower."""
from repro.loader.checkpoint import Checkpoint, CheckpointManager
from repro.loader.dlq import DeadLetter, DeadLetterQueue
from repro.loader.monitord import Monitord, follow_file
from repro.loader.nl_load import (
    load_events,
    load_file,
    load_from_bus,
    main,
    make_loader,
)
from repro.loader.spill import SpillBuffer, SpillOverflowError
from repro.loader.stampede_loader import LoaderError, LoaderStats, StampedeLoader

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "DeadLetter",
    "DeadLetterQueue",
    "Monitord",
    "SpillBuffer",
    "SpillOverflowError",
    "follow_file",
    "load_events",
    "load_file",
    "load_from_bus",
    "main",
    "make_loader",
    "LoaderError",
    "LoaderStats",
    "StampedeLoader",
]
