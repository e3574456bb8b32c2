"""Deterministic fault injection: named points, seedable plans, chaos tests.

See :mod:`repro.faults.plan` for the plan format and
:mod:`repro.faults.injector` for activation semantics.  Injection points
currently wired into the tree:

========================== ====================================================
``serving.worker.serve``    pool worker message loop (crash/delay/error)
``serving.diskcache.get``   shared-array cache read (corrupt → quarantine path)
``workspace.store.load``    artifact load (corrupt → checksum-mismatch path)
``serving.tcp.read``        TCP client response read (delay → read timeout)
``nas.search.checkpoint``   just after a search checkpoint is published
                            (error/crash → simulated kill for resume tests)
========================== ====================================================
"""

from repro.faults.injector import (
    FaultInjector,
    InjectedFault,
    fault_point,
    get_injector,
    reset_faults,
    use_faults,
)
from repro.faults.plan import ACTIONS, ENV_VAR, FaultPlan, FaultSpec

__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "get_injector",
    "reset_faults",
    "use_faults",
]
