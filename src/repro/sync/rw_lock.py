"""Reader-writer ticket lock (Mellor-Crummey & Scott's fair R/W lock,
in the compact "rwticket" formulation).

Three counters in separate cache lines:

``users``
    the ticket sequencer — every acquirer (reader or writer) takes one
    ticket with an atomic fetch-and-add;
``write``
    the writer turnstile — a *writer* with ticket ``t`` may enter when
    ``write == t``, i.e. when every earlier ticket holder has released;
``read``
    the reader turnstile — a *reader* with ticket ``t`` may enter when
    ``read == t``, and immediately advances ``read`` to admit the next
    reader, so consecutive readers overlap.

Releases: a writer advances both turnstiles (it owned the lock
exclusively); a reader advances only ``write`` (atomically — readers
release concurrently), keeping writers out until the whole reader batch
has left.  Fairness is strict ticket order: a waiting writer blocks
later readers, so neither side starves.

Mechanism mapping: ticket fetch and reader release go through
:func:`repro.sync.rmw.fetch_add`; turnstile advances that wake spinners
go through :func:`repro.sync.rmw.coherent_release_store` (plain
invalidating store for LL/SC / Atomic, handler store for ActMsg, update
push for AMO).

**MAO is refused.**  Under MAO, atomics execute uncached at the memory
controller and polling must use uncached reads of *separate* coherent
flag variables (the paper's §3.2 discipline).  Here the ``write`` word
is both the target of the readers' release fetch-and-add (which MAO
would place in uncached space) and the word writers spin on coherently
(and that write-release plain-stores) — one word straddling both
domains, which the MAO architecture cannot express.  The constructor
raises :class:`UnsupportedMechanismError` so sweeps and fuzzers can
skip the cell explicitly instead of simulating something unbuildable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.mechanism import Mechanism
from repro.sync.rmw import coherent_release_store, fetch_add

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.cpu.processor import Processor


class UnsupportedMechanismError(ValueError):
    """A lock algorithm cannot be built over the requested mechanism."""


class RwTicketLock:
    """Fair reader-writer ticket lock, parameterized by mechanism."""

    _counter = 0

    def __init__(self, machine: "Machine", mechanism: Mechanism,
                 home_node: int = 0) -> None:
        if mechanism is Mechanism.MAO:
            raise UnsupportedMechanismError(
                "rw lock cannot be built over MAO: the 'write' turnstile "
                "is both an atomic fetch-add target (reader release, "
                "uncached under MAO) and a coherently-spun word (writer "
                "entry) — one word cannot live in both domains")
        self.machine = machine
        self.mechanism = mechanism
        self.home_node = home_node
        uid = RwTicketLock._counter
        RwTicketLock._counter = uid + 1
        self.users = machine.alloc(f"rw{uid}.users", home_node)
        self.write = machine.alloc(f"rw{uid}.write", home_node)
        self.read = machine.alloc(f"rw{uid}.read", home_node)
        self._writers: dict[int, int] = {}   # cpu -> ticket while held
        self._readers: dict[int, int] = {}
        self.acquisitions = 0                # readers + writers admitted

    # ------------------------------------------------------------------
    def acquire_write(self, proc: "Processor"):
        """Coroutine: take a ticket, wait for exclusive ownership.
        Returns the ticket."""
        me = proc.cpu_id
        my = yield from fetch_add(proc, self.mechanism, self.users.addr, 1)
        yield proc.spin_until(self.write.addr, lambda v, my=my: v == my)
        self._writers[me] = my
        if self._readers or len(self._writers) > 1:
            raise AssertionError(
                f"rw exclusion violated: writers={self._writers} "
                f"readers={self._readers}")
        self.acquisitions += 1
        return my

    def release_write(self, proc: "Processor"):
        """Coroutine: advance both turnstiles (exclusive owner)."""
        my = self._writers.pop(proc.cpu_id, None)
        if my is None:
            raise RuntimeError(
                f"cpu{proc.cpu_id} released rw write lock it does not hold")
        # admit the next reader first, then the next writer: two plain
        # stores (we own both words exclusively right now)
        yield from coherent_release_store(
            proc, self.mechanism, self.read.addr, my + 1, delta=1)
        yield from coherent_release_store(
            proc, self.mechanism, self.write.addr, my + 1, delta=1)

    def acquire_read(self, proc: "Processor"):
        """Coroutine: take a ticket, wait for our reader turn, pass the
        turn straight on to the next reader.  Returns the ticket."""
        me = proc.cpu_id
        my = yield from fetch_add(proc, self.mechanism, self.users.addr, 1)
        yield proc.spin_until(self.read.addr, lambda v, my=my: v == my)
        self._readers[me] = my
        if self._writers:
            raise AssertionError(
                f"rw exclusion violated: writers={self._writers} "
                f"readers={self._readers}")
        self.acquisitions += 1
        # admit the successor reader (we hold the turn exclusively, so a
        # release-store is enough; a queued writer's ticket keeps it out)
        yield from coherent_release_store(
            proc, self.mechanism, self.read.addr, my + 1, delta=1)
        return my

    def release_read(self, proc: "Processor"):
        """Coroutine: count this reader out of the writer turnstile."""
        my = self._readers.pop(proc.cpu_id, None)
        if my is None:
            raise RuntimeError(
                f"cpu{proc.cpu_id} released rw read lock it does not hold")
        # concurrent with other readers' releases => must be atomic
        yield from fetch_add(proc, self.mechanism, self.write.addr, 1)

    def holder(self):
        """Diagnostics: ('w', cpu) | ('r', cpus) | None."""
        if self._writers:
            (cpu,) = self._writers
            return ("w", cpu)
        if self._readers:
            return ("r", sorted(self._readers))
        return None
