"""``repro.parallel``: multiprocessing-sharded IR processing.

Verification of a large module is embarrassingly parallel at the
top-level-op granularity: :meth:`Operation.verify` only inspects the
op's own subtree and use-def links, so disjoint top-level subtrees can
be checked in separate OS processes.  This package pairs that
observation with the bytecode op-index section — each worker mmaps the
artifact, decodes the shared tables once, and forces *only its shard's
subtrees* through :class:`~repro.bytecode.lazy.LazyModuleReader`, so
no process ever materializes the whole module.

Diagnostics are merged back in deterministic top-level-op order and
are byte-for-byte identical to the serial reference
(:func:`verify_module_serial`), which the differential tests pin.

``irdl-opt`` and the dialect server verify in process through
``Session.verify``; this package serves the library API and the
end-to-end benchmark's ``parallel.verify.*`` probe.
"""

from repro.parallel.verify import (
    VerifyDiagnostic,
    VerifyReport,
    partition_entries,
    shard_verify_file,
    verify_module_serial,
)

__all__ = [
    "VerifyDiagnostic",
    "VerifyReport",
    "partition_entries",
    "shard_verify_file",
    "verify_module_serial",
]
