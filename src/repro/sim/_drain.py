"""Drain-loop codegen: one template, two loop bodies.

The simulator's drain loop exists in two flavours:

* **plain** — the default hot loop (exactly what ``Simulator.run`` used
  to inline);
* **sanitized** — the same loop plus an invariant-check hook every N
  fired events.

Historically these were hand-written twins that had to be kept in step
by code review. They are now *generated* from the fragments below, so a
change to the shared body (tombstone skip, slab recycle, clock checks)
lands in both by construction. The compiled fast core
(``repro._fastcore._corec``) ports the plain loop.

Behavioural identity of the variants — same firing order, same counter
values observable from inside any callback, same final stats — is
asserted by ``tests/sim/test_drain_variants.py``.
"""

from __future__ import annotations

from heapq import heappop
from sys import getrefcount

from .errors import ClockError
from .events import CANCELLED, FIRED


def _recycle(var: str, indent: int) -> str:
    """The inlined ``EventSlab.release`` fast path (refcount-gated)."""
    pad = " " * indent
    return (
        "{p}if getref({v}) == 2:\n"
        "{p}    nfree = len(free)\n"
        "{p}    if nfree < cap:\n"
        "{p}        free.append({v})\n"
        "{p}        if nfree >= slab.high_water:\n"
        "{p}            slab.high_water = nfree + 1\n"
    ).format(p=pad, v=var)


_SCALAR_TEMPLATE = """\
def {name}(self, deadline):
    pop = heappop
    getref = getrefcount
    slab = self._slab
    free = slab._free
    cap = slab.max_free
    advance = self._advance
{setup}\
    while True:
        cur = self._cur
        while cur:
            head = cur[0]
            event = head[2]
            if event.state == CANCELLED:
                pop(cur)
                self._tombstones -= 1
                del head
{recycle_skip}\
                continue
            time = head[0]
            if time > deadline:
                break
            if time < self._now:
                raise ClockError(
                    "event at t=%d behind clock t=%d" % (time, self._now)
                )
            pop(cur)
            del head
            self._now = time
            event.state = FIRED
            self._fired += 1
            event.callback(*event.args)
{recycle_fire}\
{post_fire}\
        else:
            if advance(deadline):
                continue
        break
"""

_SANITIZE_SETUP = """\
    hook = self._sanitize_hook
    every = self._sanitize_every
    countdown = every
"""

_SANITIZE_POST_FIRE = """\
            countdown -= 1
            if countdown <= 0:
                countdown = every
                hook()
"""

def _render(kind: str, name: str) -> str:
    if kind not in ("plain", "sanitized"):
        raise ValueError("unknown drain kind %r" % (kind,))
    sanitized = kind == "sanitized"
    return _SCALAR_TEMPLATE.format(
        name=name,
        setup=_SANITIZE_SETUP if sanitized else "",
        post_fire=_SANITIZE_POST_FIRE if sanitized else "",
        recycle_skip=_recycle("event", 16),
        recycle_fire=_recycle("event", 12),
    )


def make_drain(kind: str, name: str = None):
    """Compile and return the drain function for ``kind``.

    ``kind`` is ``"plain"`` or ``"sanitized"``. The returned function
    has signature ``(self, deadline)`` and is called by
    :meth:`~repro.sim.simulator.Simulator.run`.
    """
    name = name or "drain_" + kind
    source = _render(kind, name)
    namespace = {
        "heappop": heappop,
        "getrefcount": getrefcount,
        "CANCELLED": CANCELLED,
        "FIRED": FIRED,
        "ClockError": ClockError,
    }
    code = compile(source, "<drain:%s>" % kind, "exec")
    exec(code, namespace)
    return namespace[name]


#: Rendered sources, for inspection and for the identity test's "the
#: scalar variants differ only by the sanitizer fragments" assertion.
DRAIN_SOURCES = {
    kind: _render(kind, "drain_" + kind) for kind in ("plain", "sanitized")
}

drain_plain = make_drain("plain")
drain_sanitized = make_drain("sanitized")
