"""The shared singlehop broadcast medium.

All radios are attached to one :class:`Channel` (the paper's single-hop
assumption).  A transmission occupies the medium for its frame's air time;
overlapping transmissions form a *busy period* (a maximal temporally
connected cluster) that is resolved when its last member ends:

* **Lone frame** -- every listening radio decodes it, except that a lone
  hardware ACK may be *missed* per the radio-irregularity model (the
  testbed's dominant error source).
* **Identical-ACK superposition** -- all cluster members are hardware ACKs
  for the same sequence number: they interfere non-destructively and the
  cluster is decoded as a single ACK with superposition count ``k``,
  missed with probability ``miss(k)`` (decaying in ``k``).
* **Collision** -- anything else: each listening radio independently runs
  the capture model and either decodes the captured frame or observes
  undecodable energy.

Every listening radio is also informed of the busy period itself
(``on_channel_busy``), which is what CCA-based RCD (pollcast) and the
2+ model's "activity but no message" observation are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Protocol

import numpy as np

from repro.radio.capture import CaptureModel, ProbabilisticCaptureModel
from repro.radio.frames import AckFrame, DataFrame, FrameKind
from repro.radio.irregularity import HackMissModel, IdealRadioModel
from repro.radio.timing import DEFAULT_TIMING, PhyTiming
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.radio.cc2420 import Cc2420Radio


class ChannelListener(Protocol):
    """What the channel requires of an attached radio."""

    @property
    def address(self) -> int:
        """The radio's unique hardware identifier (mote id)."""
        ...

    def is_transmitting(self) -> bool:
        """Whether the radio is currently in TX (half-duplex: deaf)."""
        ...

    def on_frame(
        self, frame: DataFrame | AckFrame, *, superposition: int = 1
    ) -> None:
        """Deliver a successfully decoded frame."""
        ...

    def on_channel_busy(self, start: float, end: float) -> None:
        """Notify of a busy period the radio heard but did not decode into
        this callback (fired for every busy period, decoded or not)."""
        ...


@dataclass
class Transmission:
    """One frame on the air.

    Attributes:
        sender: Hardware id of the transmitting radio.
        frame: The frame being sent.
        start: Air-time start (us).
        end: Air-time end (us).
        power_dbm: Received-power proxy used by power-capture models.
    """

    sender: int
    frame: DataFrame | AckFrame
    start: float
    end: float
    power_dbm: float = 0.0
    _resolved: bool = field(default=False, repr=False)


class Channel:
    """The singlehop broadcast medium.

    Args:
        sim: The discrete-event simulator.
        rng: Randomness for capture and irregularity draws.
        timing: PHY timing (frame air times).
        capture_model: Collision resolution model (default ``1/k``
            probabilistic capture).
        hack_miss: Radio-irregularity model for (superposed) hardware
            ACKs (default ideal -- no misses).
        tracer: Optional structured tracer.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        *,
        timing: PhyTiming = DEFAULT_TIMING,
        capture_model: Optional[CaptureModel] = None,
        hack_miss: Optional[HackMissModel | IdealRadioModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._sim = sim
        self._rng = rng
        self._timing = timing
        self._capture = capture_model or ProbabilisticCaptureModel()
        self._hack_miss = hack_miss or IdealRadioModel()
        self._tracer = tracer if tracer is not None else Tracer(enabled=False, name="channel")
        self._radios: List[ChannelListener] = []
        # Membership sets: the attached radios' addresses and identities.
        self._addresses: set[int] = set()
        self._members: set[int] = set()
        self._active: List[Transmission] = []
        self._cluster: List[Transmission] = []
        self._history: List[tuple[float, float]] = []
        self._frames_sent = 0
        self._hack_deliveries = 0
        self._hack_misses = 0

    @property
    def timing(self) -> PhyTiming:
        """The channel's PHY timing."""
        return self._timing

    @property
    def frames_sent(self) -> int:
        """Total transmissions initiated on this channel."""
        return self._frames_sent

    @property
    def hack_deliveries(self) -> int:
        """(Superposed) HACK clusters successfully latched by a receiver
        -- ground-truth diagnostic for false-negative analysis."""
        return self._hack_deliveries

    @property
    def hack_misses(self) -> int:
        """(Superposed) HACK clusters a receiver failed to latch due to
        radio irregularity -- each one is a potential false negative."""
        return self._hack_misses

    def attach(self, radio: ChannelListener) -> None:
        """Register a radio as a member of the singlehop neighbourhood.

        Raises:
            ValueError: On duplicate hardware ids.
        """
        if radio.address in self._addresses:
            raise ValueError(f"duplicate radio address {radio.address}")
        self._radios.append(radio)
        self._addresses.add(radio.address)
        self._members.add(id(radio))

    def transmit(
        self,
        sender: ChannelListener,
        frame: DataFrame | AckFrame,
        *,
        power_dbm: float = 0.0,
    ) -> Transmission:
        """Put a frame on the air starting now.

        The sender must already be attached.  Returns the transmission
        record; its end-of-air resolution is scheduled automatically.

        Raises:
            ValueError: If the sender is not attached.
        """
        if id(sender) not in self._members:
            raise ValueError(f"radio {sender.address} is not attached")
        duration = self._timing.frame_airtime_us(frame.mpdu_bytes)
        tx = Transmission(
            sender=sender.address,
            frame=frame,
            start=self._sim.now,
            end=self._sim.now + duration,
            power_dbm=power_dbm,
        )
        self._active.append(tx)
        self._frames_sent += 1
        self._tracer.emit(
            "radio.tx.start",
            f"mote{sender.address}",
            time=self._sim.now,
            kind=frame.kind.value,
            end=tx.end,
        )
        self._sim.schedule_at(tx.end, lambda: self._on_tx_end(tx), label="tx-end")
        return tx

    def cca_busy(self) -> bool:
        """Clear-channel assessment: is any transmission on the air now?"""
        now = self._sim.now
        return any(t.start <= now < t.end for t in self._active)

    def rssi_dbm(self) -> float:
        """Aggregate received power right now (-100 dBm noise floor)."""
        now = self._sim.now
        mw = sum(
            10.0 ** (t.power_dbm / 10.0)
            for t in self._active
            if t.start <= now < t.end
        )
        if mw <= 0:
            return -100.0
        return float(10.0 * np.log10(mw))

    def activity_in(self, t0: float, t1: float) -> bool:
        """Whether any transmission overlapped the window ``[t0, t1)``.

        Considers both completed and in-flight transmissions; used by
        window-based CCA sampling (pollcast's vote phase).
        """
        if t1 < t0:
            raise ValueError(f"empty window: [{t0}, {t1})")
        for s, e in self._history:
            if s < t1 and e > t0:
                return True
        return any(t.start < t1 and t.end > t0 for t in self._active)

    # ------------------------------------------------------------------
    # Busy-period resolution
    # ------------------------------------------------------------------

    def _on_tx_end(self, tx: Transmission) -> None:
        self._active.remove(tx)
        self._cluster.append(tx)
        self._history.append((tx.start, tx.end))
        if len(self._history) > 100_000:
            del self._history[:50_000]
        # The busy period extends while any active transmission overlaps
        # the cluster; with zero propagation delay "overlaps" reduces to
        # "is already on the air".
        if not self._active:
            cluster, self._cluster = self._cluster, []
            self._resolve_cluster(cluster)

    def _resolve_cluster(self, cluster: List[Transmission]) -> None:
        start = min(t.start for t in cluster)
        end = max(t.end for t in cluster)
        senders = {t.sender for t in cluster}
        receivers = [
            r
            for r in self._radios
            if r.address not in senders and not r.is_transmitting()
        ]
        for r in receivers:
            r.on_channel_busy(start, end)

        if len(cluster) == 1:
            self._deliver_single(cluster[0], receivers)
            return

        acks = [t for t in cluster if t.frame.kind is FrameKind.ACK]
        if len(acks) == len(cluster):
            first = acks[0].frame
            assert isinstance(first, AckFrame)
            if all(
                isinstance(t.frame, AckFrame) and first.superposes_with(t.frame)
                for t in cluster
            ):
                self._deliver_superposition(first, len(cluster), receivers)
                return

        # Heterogeneous collision: per-receiver capture.
        powers = [t.power_dbm for t in cluster]
        for r in receivers:
            winner = self._capture.select(powers, self._rng)
            if winner is not None:
                frame = cluster[winner].frame
                self._tracer.emit(
                    "radio.rx.capture",
                    f"mote{r.address}",
                    time=self._sim.now,
                    sender=cluster[winner].sender,
                )
                r.on_frame(frame, superposition=1)
            else:
                self._tracer.emit(
                    "radio.rx.collision",
                    f"mote{r.address}",
                    time=self._sim.now,
                    colliders=len(cluster),
                )

    def _deliver_single(
        self, tx: Transmission, receivers: List[ChannelListener]
    ) -> None:
        frame = tx.frame
        if isinstance(frame, AckFrame) and frame.hardware:
            # A lone HACK may still be missed by radio irregularity; one
            # draw decides the waveform's fate for this busy period.
            self._deliver_superposition(frame, 1, receivers)
            return
        for r in receivers:
            r.on_frame(frame, superposition=1)

    def _deliver_superposition(
        self, frame: AckFrame, k: int, receivers: List[ChannelListener]
    ) -> None:
        """Resolve a (possibly degenerate, ``k = 1``) HACK superposition.

        The irregularity draw happens once per busy period: either the
        waveform is latched by the listeners or it is not.  The counters
        therefore count *events*, which is what the Fig 4 false-negative
        analysis consumes.
        """
        miss = self._hack_miss.miss_probability(k)
        if miss and self._rng.random() < miss:
            self._hack_misses += 1
            self._tracer.emit(
                "radio.rx.hack_miss",
                "channel",
                time=self._sim.now,
                superposition=k,
            )
            return
        self._hack_deliveries += 1
        for r in receivers:
            self._tracer.emit(
                "radio.rx.superposition",
                f"mote{r.address}",
                time=self._sim.now,
                superposition=k,
            )
            r.on_frame(frame, superposition=k)
