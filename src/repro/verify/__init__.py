"""Constrained-random verification subsystem (UVM-style, in miniature).

Layers:

* :mod:`~repro.verify.rng` — seeded, named random streams; one root seed
  reproduces an entire session.
* :mod:`~repro.verify.stimulus` — constrained-random drivers for the
  stream, iterator, random-access and associative interfaces.
* :mod:`~repro.verify.monitor` — passive protocol checkers attached via
  ``Simulator.add_watcher`` / detached via ``remove_watcher``.
* :mod:`~repro.verify.coverage` — covergroups, bins, crosses, merged
  coverage databases with JSON export.
* :mod:`~repro.verify.scoreboard` — golden Python reference models checked
  transaction by transaction.
* :mod:`~repro.verify.session` — the one-call :func:`verify` harness and
  the registry of shipped targets (loaded lazily: it pulls in the whole
  container/design stack, which in turn imports this package).
* :mod:`~repro.verify.mutate` — test-only fault injection for the
  mutation smoke tests.

This ``__init__`` stays lightweight on purpose: the primitives import
:mod:`repro.verify.mutate` and :mod:`repro.video.frames` imports
:mod:`repro.verify.rng` at module load, so anything here that imported the
container stack back would create a cycle.
"""

from . import mutate
from .coverage import (
    CoverageDB,
    CoverageError,
    CoverBin,
    CoverCross,
    CoverGroup,
    CoverPoint,
)
from .monitor import (
    ArbiterMonitor,
    AssocMonitor,
    ExpectedStreamMonitor,
    IteratorMonitor,
    ProtocolMonitor,
    RandomPortMonitor,
    StreamContainerMonitor,
    VerificationError,
    Violation,
    WidthAdapterMonitor,
    WindowBufferMonitor,
)
from .rng import SEED_ENV, RngPool, default_seed, derive_seed, stream
from .scoreboard import (
    AssocModel,
    ExpectedStreamModel,
    FifoModel,
    LifoModel,
    LineBufferModel,
    MultisetModel,
    VectorModel,
)
from .stimulus import (
    AssocOpDriver,
    IteratorConstraints,
    IteratorOpDriver,
    RequestDriver,
    StreamConstraints,
    StreamPopDriver,
    StreamPushDriver,
)

#: Names resolved lazily from :mod:`repro.verify.session` (which imports
#: the container/design layers and must not load during package import).
_SESSION_EXPORTS = ("verify", "verify_all", "VerifyResult", "TargetSpec",
                    "TARGETS", "container_targets", "design_targets",
                    "metagen_targets")

__all__ = [
    "mutate",
    "CoverageDB", "CoverageError", "CoverBin", "CoverCross", "CoverGroup",
    "CoverPoint",
    "ArbiterMonitor", "AssocMonitor", "ExpectedStreamMonitor",
    "IteratorMonitor", "ProtocolMonitor", "RandomPortMonitor",
    "StreamContainerMonitor", "VerificationError", "Violation",
    "WidthAdapterMonitor", "WindowBufferMonitor",
    "SEED_ENV", "RngPool", "default_seed", "derive_seed", "stream",
    "AssocModel", "ExpectedStreamModel", "FifoModel", "LifoModel",
    "LineBufferModel", "MultisetModel", "VectorModel",
    "AssocOpDriver", "IteratorConstraints", "IteratorOpDriver",
    "RequestDriver", "StreamConstraints", "StreamPopDriver",
    "StreamPushDriver",
    *_SESSION_EXPORTS,
]


def __getattr__(name):
    if name == "session" or name in _SESSION_EXPORTS:
        # importlib rather than ``from . import session``: the latter
        # probes the package attribute first, which re-enters this hook.
        import importlib

        session = importlib.import_module(".session", __name__)
        if name == "session":
            return session
        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
