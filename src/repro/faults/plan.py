"""The :class:`FaultPlan`: a seeded, composable set of fault injectors.

A plan bundles injectors (see :mod:`repro.faults.injectors`) with its own
named random streams and exposes one method per seam of the stack.  Each
seam method is a *conditional* wrapper: when the plan holds no injector
relevant to that seam it returns its argument **unchanged**, which is the
zero-cost-when-disabled guarantee -- :meth:`FaultPlan.none` runs are
bit-for-bit identical to runs with no plan at all.

Fired faults are recorded as :class:`FaultEvent` entries on the plan, so
experiments and the reliability layer can report ground truth about what
was injected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.faults.injectors import (
    BinMissWindow,
    HackMissBurst,
    MoteCrash,
    SerialByteCorruption,
    StuckTransmitter,
    VerdictFlip,
    WindowedHackMiss,
)
from repro.group_testing.model import BinObservation, ObservationKind, QueryModel
from repro.obs import get_registry
from repro.radio.irregularity import HackMissModel, IdealRadioModel
from repro.sim.rng import RngRegistry

#: Import-time instruments (inert until metrics are enabled).  Fired
#: faults are rare, so the per-kind counter lookup in :meth:`FaultPlan.record`
#: is off the hot path.
_OBS = get_registry()
_F_INJECTED = _OBS.counter("faults.injected")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (motes -> core)
    from repro.motes.testbed import Testbed

#: Any injector type a plan accepts.
Injector = (
    BinMissWindow
    | HackMissBurst
    | MoteCrash
    | SerialByteCorruption
    | StuckTransmitter
    | VerdictFlip
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired.

    Attributes:
        kind: Injector category, e.g. ``"bin-miss"``, ``"mote-crash"``.
        where: Location of the firing -- ``"query#12"``, ``"t=5000us"``,
            ``"serial"``.
        detail: Free-form description of what was done.
    """

    kind: str
    where: str
    detail: str = ""


class FaultyModel:
    """A :class:`~repro.group_testing.model.QueryModel` wrapper applying
    observation-level faults the ``detection_failure`` hook cannot express.

    Handles :class:`~repro.faults.injectors.BinMissWindow` (query-indexed
    drop bursts -- the wrapper sees *every* query, so window indices are
    exact) and the ``p_fake`` direction of
    :class:`~repro.faults.injectors.VerdictFlip` (fabricated activity on a
    silent bin).  Construct via :meth:`FaultPlan.wrap_model`, which skips
    the wrapper entirely when no relevant injector is present.

    Args:
        model: The wrapped query model.
        windows: Drop-burst windows.
        fakes: Verdict flips with a non-zero ``p_fake``.
        rng: The plan's model-fault stream.
        plan: Owning plan (receives :class:`FaultEvent` records).
    """

    def __init__(
        self,
        model: QueryModel,
        windows: Sequence[BinMissWindow],
        fakes: Sequence[VerdictFlip],
        rng: np.random.Generator,
        plan: "FaultPlan",
    ) -> None:
        self._model = model
        self._windows = tuple(windows)
        self._fakes = tuple(fakes)
        self._rng = rng
        self._plan = plan
        self._index = 0

    @property
    def queries_used(self) -> int:
        """Total queries charged (delegated to the wrapped model)."""
        return self._model.queries_used

    @property
    def population_size(self) -> int:
        """Participant count (delegated to the wrapped model)."""
        return self._model.population_size

    def begin_round(self, bins: Sequence[Sequence[int]]) -> None:
        """Forward the round hook when the wrapped model has one."""
        hook = getattr(self._model, "begin_round", None)
        if hook is not None:
            hook(bins)

    def query(self, members: Sequence[int]) -> BinObservation:
        """Query the wrapped model, then apply observation-level faults."""
        obs = self._model.query(members)
        index = self._index
        self._index += 1
        if obs.kind is not ObservationKind.SILENT:
            for window in self._windows:
                if window.covers(index) and self._rng.random() < window.p_miss:
                    self._plan.record(
                        FaultEvent(
                            kind="bin-miss",
                            where=f"query#{index}",
                            detail=f"burst dropped {obs.kind.value} verdict",
                        )
                    )
                    return BinObservation(
                        kind=ObservationKind.SILENT, min_positives=0
                    )
        else:
            for fake in self._fakes:
                if fake.p_fake > 0.0 and self._rng.random() < fake.p_fake:
                    self._plan.record(
                        FaultEvent(
                            kind="bin-fake",
                            where=f"query#{index}",
                            detail="fabricated 1+ activity on silent bin",
                        )
                    )
                    return BinObservation(
                        kind=ObservationKind.ACTIVITY, min_positives=1
                    )
        return obs


class _Babbler:
    """The scheduled jammer behind
    :class:`~repro.faults.injectors.StuckTransmitter` (testbed side)."""

    #: Hardware-address block for jammer radios (above participant ids,
    #: distinct from the multihop interference block 0xFD00).
    BASE_ADDR = 0xFB00

    def __init__(self, testbed: "Testbed", spec: StuckTransmitter, index: int) -> None:
        from repro.radio.cc2420 import Cc2420Radio  # local: avoid cycle
        from repro.radio.frames import DataFrame

        self._frame_cls = DataFrame
        self._sim = testbed.sim
        self._spec = spec
        self._address = self.BASE_ADDR + index
        self._radio = Cc2420Radio(
            self._sim, testbed.channel, address=self._address, auto_ack=False
        )
        self._radio.set_short_address(self._address)
        self._seq = 0
        self._sim.schedule_at(spec.start_us, self._fire, label="babble-start")

    def _fire(self) -> None:
        if self._sim.now >= self._spec.start_us + self._spec.duration_us:
            return
        if not self._radio.is_transmitting():
            end = self._radio.transmit(
                self._frame_cls(
                    src=self._address,
                    dst=self._address,  # nobody decodes it; pure jam energy
                    seq=self._seq % 256,
                    ack_request=False,
                    payload={"type": "babble"},
                    payload_bytes=self._spec.payload_bytes,
                )
            )
            self._seq += 1
            # Re-fire exactly at end-of-air: a stuck transmitter leaves
            # no inter-frame gap, so CCA never samples a clear medium.
            self._sim.schedule_at(end, self._fire, label="babble")
        else:  # pragma: no cover - defensive; the radio is ours alone
            self._sim.schedule(10.0, self._fire, label="babble")


class FaultPlan:
    """A composable, seeded fault-injection plan.

    Args:
        injectors: The injector set (see :mod:`repro.faults.injectors`).
        seed: Root seed for all fault randomness; independent of the
            workload/bin/channel streams so injecting faults never
            perturbs the underlying run's random choices.

    Example:
        >>> from repro.faults import FaultPlan, VerdictFlip
        >>> plan = FaultPlan([VerdictFlip(p_drop=0.1, only_single=True)], seed=3)
        >>> plan.enabled
        True
        >>> FaultPlan.none().enabled
        False
    """

    def __init__(
        self, injectors: Sequence[Injector] = (), *, seed: int = 0
    ) -> None:
        self._injectors = tuple(injectors)
        self._rngs = RngRegistry(seed)
        self._events: List[FaultEvent] = []

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: every seam returns its argument unchanged."""
        return cls()

    @property
    def injectors(self) -> tuple[Injector, ...]:
        """The configured injectors."""
        return self._injectors

    @property
    def enabled(self) -> bool:
        """Whether the plan holds any injector at all."""
        return bool(self._injectors)

    def __bool__(self) -> bool:
        """Truthiness mirrors :attr:`enabled`."""
        return self.enabled

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Faults that actually fired so far (injection ground truth)."""
        return tuple(self._events)

    def record(self, event: FaultEvent) -> None:
        """Append a fired-fault record (called by the seam wrappers)."""
        self._events.append(event)
        if _OBS.enabled:
            _F_INJECTED.inc()
            _OBS.counter(f"faults.injected.{event.kind}").inc()

    def _select(self, kind: type) -> list:
        return [i for i in self._injectors if isinstance(i, kind)]

    # ------------------------------------------------------------------
    # Seam: abstract models
    # ------------------------------------------------------------------

    def detection_hook(
        self, base: Optional[Callable[[int], float]] = None
    ) -> Optional[Callable[[int], float]]:
        """Compose drop-type flips into a ``detection_failure`` hook.

        Args:
            base: The hook the model would otherwise use (may be
                ``None``).

        Returns:
            ``base`` unchanged when the plan has no drop-type
            :class:`~repro.faults.injectors.VerdictFlip`; otherwise a
            hook combining base and injected miss probabilities as
            independent events.
        """
        flips = [f for f in self._select(VerdictFlip) if f.p_drop > 0.0]
        if not flips:
            return base

        def hook(k: int) -> float:
            survive = 1.0 if base is None else 1.0 - base(k)
            for flip in flips:
                survive *= 1.0 - flip.drop_probability(k)
            return 1.0 - survive

        return hook

    def wrap_model(self, model: QueryModel) -> QueryModel:
        """Apply observation-level faults to a query model.

        Returns:
            ``model`` unchanged when the plan holds no
            :class:`~repro.faults.injectors.BinMissWindow` and no
            fake-type flip; otherwise a :class:`FaultyModel`.
        """
        windows = self._select(BinMissWindow)
        fakes = [f for f in self._select(VerdictFlip) if f.p_fake > 0.0]
        if not windows and not fakes:
            return model
        return FaultyModel(
            model, windows, fakes, self._rngs.stream("faults.model"), self
        )

    # ------------------------------------------------------------------
    # Seam: packet-level channel
    # ------------------------------------------------------------------

    def wrap_hack_miss(
        self,
        base: Optional[HackMissModel | IdealRadioModel],
        clock: Callable[[], float],
    ) -> Optional[HackMissModel | IdealRadioModel | WindowedHackMiss]:
        """Compose timed HACK-miss bursts over the channel's base model.

        Args:
            base: The configured irregularity model (may be ``None``).
            clock: Callable returning the current simulated time (us).

        Returns:
            ``base`` unchanged when the plan holds no
            :class:`~repro.faults.injectors.HackMissBurst`; otherwise a
            :class:`~repro.faults.injectors.WindowedHackMiss`.
        """
        bursts = self._select(HackMissBurst)
        if not bursts:
            return base
        return WindowedHackMiss(base, bursts, clock)

    # ------------------------------------------------------------------
    # Seam: serial control plane
    # ------------------------------------------------------------------

    def corrupt_wire(self, data: bytes) -> bytes:
        """Pass wire bytes through the configured serial corruption.

        Each byte is hit with per-injector probability ``p_byte``; a hit
        flips one random bit.  Returns ``data`` unchanged (same object)
        when no :class:`~repro.faults.injectors.SerialByteCorruption` is
        configured.
        """
        corruptions = self._select(SerialByteCorruption)
        if not corruptions or not data:
            return data
        rng = self._rngs.stream("faults.serial")
        out = bytearray(data)
        hits = 0
        for corruption in corruptions:
            if corruption.p_byte <= 0.0:
                continue
            mask = rng.random(len(out)) < corruption.p_byte
            for i in np.flatnonzero(mask):
                out[i] ^= 1 << int(rng.integers(8))
                hits += 1
        if hits:
            self.record(
                FaultEvent(
                    kind="serial-corruption",
                    where="serial",
                    detail=f"{hits} byte(s) corrupted in a {len(out)}-byte frame",
                )
            )
            return bytes(out)
        return data

    # ------------------------------------------------------------------
    # Seam: testbed (motes + medium)
    # ------------------------------------------------------------------

    def arm_testbed(self, testbed: "Testbed") -> None:
        """Schedule mote crashes/reboots and stuck transmitters.

        Called by :class:`repro.motes.testbed.Testbed` during
        construction when its config carries a plan; a plan with no
        testbed injectors schedules nothing.

        Raises:
            ValueError: If a :class:`~repro.faults.injectors.MoteCrash`
                names a mote outside the testbed.
        """
        for crash in self._select(MoteCrash):
            if not 0 <= crash.mote_id < testbed.num_participants:
                raise ValueError(
                    f"MoteCrash mote_id {crash.mote_id} outside "
                    f"[0, {testbed.num_participants})"
                )
            self._arm_crash(testbed, crash)
        for index, spec in enumerate(self._select(StuckTransmitter)):
            _Babbler(testbed, spec, index)

    def _arm_crash(self, testbed: "Testbed", crash: MoteCrash) -> None:
        mote = testbed.participants[crash.mote_id]

        def do_crash() -> None:
            mote.crash()
            self.record(
                FaultEvent(
                    kind="mote-crash",
                    where=f"t={testbed.sim.now:.0f}us",
                    detail=f"participant {crash.mote_id} powered off",
                )
            )

        def do_reboot() -> None:
            mote.reboot()
            self.record(
                FaultEvent(
                    kind="mote-reboot",
                    where=f"t={testbed.sim.now:.0f}us",
                    detail=f"participant {crash.mote_id} restarted",
                )
            )

        testbed.sim.schedule_at(crash.at_us, do_crash, label="fault-crash")
        if crash.reboot_at_us is not None:
            testbed.sim.schedule_at(
                crash.reboot_at_us, do_reboot, label="fault-reboot"
            )
