"""Tests for the shared broadcast medium: delivery, superposition,
collision and CCA semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio.capture import ProbabilisticCaptureModel
from repro.radio.cc2420 import Cc2420Radio
from repro.radio.channel import Channel
from repro.radio.frames import AckFrame, BROADCAST_ADDR, DataFrame
from repro.radio.irregularity import HackMissModel
from repro.sim.kernel import Simulator


def build(n_radios=3, seed=0, **channel_kwargs):
    sim = Simulator()
    channel = Channel(sim, np.random.default_rng(seed), **channel_kwargs)
    radios = [Cc2420Radio(sim, channel, address=i) for i in range(n_radios)]
    return sim, channel, radios


def collect_frames(radio):
    received = []
    radio.receive_callback = lambda frame, k: received.append((frame, k))
    return received


def collect_acks(radio):
    received = []
    radio.ack_callback = lambda ack, k: received.append((ack, k))
    return received


def test_lone_broadcast_delivered_to_all_listeners():
    sim, channel, radios = build(3)
    rx1 = collect_frames(radios[1])
    rx2 = collect_frames(radios[2])
    frame = DataFrame(src=0, dst=BROADCAST_ADDR, seq=1, payload_bytes=4)
    radios[0].transmit(frame)
    sim.run()
    assert len(rx1) == 1 and len(rx2) == 1
    assert rx1[0][0].seq == 1


def test_sender_does_not_hear_itself():
    sim, channel, radios = build(2)
    rx0 = collect_frames(radios[0])
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=1))
    sim.run()
    assert rx0 == []


def test_duplicate_addresses_rejected():
    sim = Simulator()
    channel = Channel(sim, np.random.default_rng(0))
    Cc2420Radio(sim, channel, address=5)
    with pytest.raises(ValueError):
        Cc2420Radio(sim, channel, address=5)


def test_unattached_sender_rejected():
    sim, channel, radios = build(1)
    other_sim = Simulator()
    other_channel = Channel(other_sim, np.random.default_rng(0))
    stranger = Cc2420Radio(other_sim, other_channel, address=9)
    with pytest.raises(ValueError):
        channel.transmit(stranger, DataFrame(src=9, dst=BROADCAST_ADDR, seq=0))


def test_sender_sharing_a_member_address_rejected():
    """Membership is by radio, not by address: a stranger that reuses an
    attached radio's address still may not transmit."""
    sim, channel, radios = build(2)
    other_channel = Channel(Simulator(), np.random.default_rng(0))
    impostor = Cc2420Radio(sim, other_channel, address=1)
    with pytest.raises(ValueError, match="not attached"):
        channel.transmit(impostor, DataFrame(src=1, dst=BROADCAST_ADDR, seq=0))


def test_cca_busy_during_transmission():
    sim, channel, radios = build(2)
    assert not channel.cca_busy()
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0))
    assert channel.cca_busy()
    sim.run()
    assert not channel.cca_busy()


def test_rssi_reflects_activity():
    sim, channel, radios = build(2)
    assert channel.rssi_dbm() == -100.0
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0))
    assert channel.rssi_dbm() == pytest.approx(0.0)  # tx power 0 dBm
    sim.run()


def test_activity_in_window():
    sim, channel, radios = build(2)
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0))
    sim.run()
    end = sim.now
    assert channel.activity_in(0.0, end)
    assert not channel.activity_in(end + 1, end + 100)
    with pytest.raises(ValueError):
        channel.activity_in(10.0, 5.0)


def test_busy_notification_fires_for_undecodable_collision():
    sim, channel, radios = build(3, capture_model=ProbabilisticCaptureModel(lambda k: 0.0))
    busy = []
    radios[2].busy_callback = lambda s, e: busy.append((s, e))
    rx = collect_frames(radios[2])
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0, payload_bytes=4))
    radios[1].transmit(DataFrame(src=1, dst=BROADCAST_ADDR, seq=1, payload_bytes=4))
    sim.run()
    assert len(busy) == 1
    assert rx == []  # collided, never captured


def test_collision_capture_delivers_one_frame():
    sim, channel, radios = build(
        3, capture_model=ProbabilisticCaptureModel(lambda k: 1.0)
    )
    rx = collect_frames(radios[2])
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0, payload_bytes=4))
    radios[1].transmit(DataFrame(src=1, dst=BROADCAST_ADDR, seq=1, payload_bytes=4))
    sim.run()
    assert len(rx) == 1
    assert rx[0][0].seq in (0, 1)


def test_identical_hack_superposition_decoded_as_one():
    """Two radios auto-acking the same poll produce one decodable ACK with
    superposition count 2 at the initiator."""
    sim, channel, radios = build(3)
    initiator, a, b = radios
    acks = collect_acks(initiator)
    # Both receivers share the ephemeral address 0x9000.
    a.set_short_address(0x9000)
    b.set_short_address(0x9000)
    initiator.transmit(
        DataFrame(src=0, dst=0x9000, seq=42, ack_request=True)
    )
    sim.run()
    assert len(acks) == 1
    ack, k = acks[0]
    assert isinstance(ack, AckFrame)
    assert ack.seq == 42
    assert k == 2


def test_hack_miss_model_suppresses_superposition():
    sim, channel, radios = build(
        3, hack_miss=HackMissModel(p_single=1.0, decay=1.0)
    )
    initiator, a, b = radios
    acks = collect_acks(initiator)
    a.set_short_address(0x9000)
    b.set_short_address(0x9000)
    initiator.transmit(DataFrame(src=0, dst=0x9000, seq=1, ack_request=True))
    sim.run()
    assert acks == []
    assert channel.hack_misses == 1
    assert channel.hack_deliveries == 0


def test_hack_counters_track_deliveries():
    sim, channel, radios = build(2)
    initiator, a = radios
    collect_acks(initiator)
    a.set_short_address(0x9000)
    initiator.transmit(DataFrame(src=0, dst=0x9000, seq=1, ack_request=True))
    sim.run()
    assert channel.hack_deliveries >= 1
    assert channel.hack_misses == 0


def test_frames_sent_counter():
    sim, channel, radios = build(2)
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0))
    sim.run()
    assert channel.frames_sent == 1


def test_transmitting_radio_misses_concurrent_frame():
    """Half duplex: a radio cannot receive while its own frame is on air."""
    sim, channel, radios = build(2)
    rx1 = collect_frames(radios[1])
    # Same start time, same duration: both transmitting, neither receives.
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0, payload_bytes=4))
    radios[1].transmit(DataFrame(src=1, dst=BROADCAST_ADDR, seq=1, payload_bytes=4))
    sim.run()
    assert rx1 == []


def test_partially_overlapping_frames_form_one_busy_period():
    """A frame starting mid-way through another joins the same cluster:
    listeners get exactly one busy notification spanning both."""
    sim, channel, radios = build(3, capture_model=ProbabilisticCaptureModel(lambda k: 0.0))
    busy = []
    radios[2].busy_callback = lambda s, e: busy.append((s, e))
    long_frame = DataFrame(src=0, dst=BROADCAST_ADDR, seq=0, payload_bytes=60)
    short_frame = DataFrame(src=1, dst=BROADCAST_ADDR, seq=1, payload_bytes=4)
    radios[0].transmit(long_frame)
    # Start the second frame while the first is still on the air.
    sim.schedule(200.0, lambda: radios[1].transmit(short_frame))
    sim.run()
    assert len(busy) == 1
    start, end = busy[0]
    assert start == 0.0
    assert end == pytest.approx(
        channel.timing.frame_airtime_us(long_frame.mpdu_bytes)
    )


def test_rssi_aggregates_simultaneous_transmissions():
    sim, channel, radios = build(3)
    radios[0].transmit(DataFrame(src=0, dst=BROADCAST_ADDR, seq=0, payload_bytes=20))
    radios[1].transmit(DataFrame(src=1, dst=BROADCAST_ADDR, seq=1, payload_bytes=20))
    # Two 0 dBm signals sum to ~3 dBm.
    assert channel.rssi_dbm() == pytest.approx(3.01, abs=0.05)
    sim.run()


def test_history_pruning_keeps_recent_activity_visible():
    sim, channel, radios = build(2)
    # Force many busy periods to trigger the history cap logic safely.
    for i in range(50):
        sim.schedule(
            i * 2000.0,
            lambda i=i: radios[0].transmit(
                DataFrame(src=0, dst=BROADCAST_ADDR, seq=i % 256)
            ),
        )
    sim.run()
    last_start = 49 * 2000.0
    assert channel.activity_in(last_start, last_start + 500.0)
