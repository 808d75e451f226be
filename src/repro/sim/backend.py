"""Runtime selection between the pure and compiled simulator cores.

Three knobs, highest priority first:

1. ``TrialSpec.backend`` / the ``backend=`` trial kwarg;
2. the ``REPRO_BACKEND`` environment variable;
3. the default: ``"pure"``.

``"pure"`` is the reference oracle — the plain-python
:class:`~repro.sim.simulator.Simulator`. ``"fast"`` is the compiled
:mod:`repro._fastcore` C extension (``fast-c``). The two are
bit-identical by contract, which is why the backend is *left out of
cache fingerprints* (:mod:`repro.experiments.engine`): a cached trial
is valid for either backend, and ``TrialResult.backend`` records which
core actually computed it.

Two cases run ``pure`` although ``fast`` was asked for, each with a
warning on the ``repro.backend`` logger: the extension is not built
(:func:`make_simulator` quotes the import error), and ``sanitize=True``
(the sanitizer's hook fires per event, which the compiled loop does
not honour; see ``repro.experiments.harness.run_trial``).
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from .simulator import Simulator

log = logging.getLogger("repro.backend")

PURE = "pure"
FAST = "fast"
BACKENDS = (PURE, FAST)

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(name: Optional[str] = None) -> str:
    """Normalize a backend request to ``"pure"`` or ``"fast"``.

    ``None`` consults :data:`ENV_VAR`, then defaults to ``"pure"``.
    Unknown names raise ``ValueError`` — a typo silently running the
    wrong core would be worse than a crash.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or PURE
    if name not in BACKENDS:
        raise ValueError(
            "unknown simulator backend %r (expected one of %s, or unset)"
            % (name, "/".join(BACKENDS))
        )
    return name


def make_simulator(backend: Optional[str] = None) -> Simulator:
    """A fresh simulator for the resolved ``backend``.

    The returned object's ``backend_name`` says what actually runs:
    ``"fast-c"``, or ``"pure"`` — also for ``"fast"`` when the extension
    is not built, which logs one warning per simulator.
    """
    if resolve_backend(backend) == FAST:
        from repro._fastcore import FASTCORE_ERROR, FastCore

        if FastCore is not None:
            return FastCore()
        log.warning(
            "backend=fast needs the compiled repro._fastcore extension "
            "(%s); falling back to backend=pure",
            FASTCORE_ERROR,
        )
    return Simulator()
