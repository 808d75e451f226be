"""Compiled fast core for the simulator hot path (opt-in backend).

``repro._fastcore._corec`` is a hand-written C extension
(``backend_name == "fast-c"``), built by ``scripts/build_fastcore.py``
or the optional ``setup.py`` extension build. It is bit-identical to
the pure backend (same firing order, same RNG draw order, same
``TrialResult`` bytes); it only changes speed.

Importing this package never fails. ``FASTCORE_KIND`` is ``"fast-c"``
when the extension loaded and None otherwise; then ``FastCore`` is None
and ``FASTCORE_ERROR`` keeps the import error (an absent extension is
the no-toolchain install working as designed, and ``backend="fast"``
runs pure with a logged reason — see :mod:`repro.sim.backend`).
"""

from __future__ import annotations

FASTCORE_ERROR = None

try:  # pragma: no cover - exercised only when the extension is built
    from ._corec import FastCore

    FASTCORE_KIND = "fast-c"
except ImportError as exc:
    FASTCORE_ERROR = exc
    FastCore = None
    FASTCORE_KIND = None

__all__ = ["FastCore", "FASTCORE_KIND", "FASTCORE_ERROR"]
