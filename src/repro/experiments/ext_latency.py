"""Extension experiment: wall-clock latency and energy of the schemes.

The paper argues tcast's *time* advantage but plots query/slot counts;
this extension converts everything to microseconds on the 802.15.4
timing model so the latency claim is directly inspectable:

* **tcast (backcast)** -- measured on the packet-level testbed: each bin
  query is announce + turnaround + guard + poll + ACK-wait (~2.5x one
  reply slot).  Because of that per-query overhead the RCD advantage is a
  *scale* effect: at the paper's 12-mote testbed size sequential ordering
  is still wall-clock competitive, and the crossover appears as the
  neighbourhood grows (default here: 48 participants).
* **CSMA** -- measured on the packet-level testbed too: positive
  participants contend with real 802.15.4 CSMA/CA (backoff, CCA, BEB,
  link-layer ACK retries) and the initiator stops at the t-th distinct
  reply or after a quiet period (see :mod:`repro.mac.csma_packet`).
* **Sequential** -- measured on the packet-level testbed as well: the
  initiator broadcasts a schedule, positive nodes reply in their
  exclusive slots, and the session stops at the t-th reply or at
  impossibility (see :mod:`repro.mac.tdma_packet`).

The initiator's radio energy for tcast comes from the emulated CC2420
ledger; the baselines get the same RX-centric accounting (initiator
listens for the whole session).

Reproduction finding (recorded in EXPERIMENTS.md, note D5): measured
unslotted CSMA/CA is considerably better than the paper's slotted
abstraction suggests -- clear-channel assessment defers rather than
collides, and early termination at the t-th reply keeps its latency flat
past ``x = t``.  Its residual weaknesses are exactly the ones the paper
argues from: every *negative* verdict pays the full quiet-period timeout
and is heuristic rather than certified, while tcast certifies both
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core import TwoTBins
from repro.experiments.common import ExperimentResult, Series, ShardTask, run_cells
from repro.motes.testbed import Testbed, TestbedConfig
from repro.radio.energy import EnergyProfile
from repro.radio.timing import DEFAULT_TIMING
from repro.sim.rng import derive_seed
from repro.workloads.scenarios import x_sweep

DEFAULT_PARTICIPANTS = 48
DEFAULT_T = 8

#: MPDU of a baseline reply frame (MAC overhead + 2-byte payload).
_REPLY_MPDU_BYTES = 13


def reply_slot_us() -> float:
    """Duration of one baseline reply slot (frame + turnaround)."""
    t = DEFAULT_TIMING
    return t.frame_airtime_us(_REPLY_MPDU_BYTES) + t.turnaround_us


@dataclass(frozen=True, kw_only=True)
class _LatencyCell(ShardTask):
    """One ``x`` as a shard (``n`` is the participant count): its values
    (run range ``[0, 6)``) are the mean tcast, CSMA and sequential
    session latencies (ms), then the same schemes' mean initiator
    energies (mJ)."""

    runs: int

    def costs(self) -> List[float]:
        participants, threshold, x = self.n, self.threshold, self.x
        t_lat, c_lat, s_lat, t_en, c_en, s_en = [], [], [], [], [], []
        for run_idx in range(self.runs):
            cell_seed = derive_seed(self.seed, f"x{x}/r{run_idx}")
            rng = np.random.default_rng(cell_seed)
            positives = [
                int(p) for p in rng.choice(participants, size=x, replace=False)
            ] if x else []

            tb = Testbed(TestbedConfig(num_participants=participants, seed=cell_seed))
            tb.configure_positives(positives)
            run_res = tb.run_threshold_query(TwoTBins(), threshold)
            t_lat.append(run_res.elapsed_us / 1000.0)
            t_en.append(run_res.initiator_energy_uj / 1000.0)

            # Fresh testbed for the measured packet-level CSMA session
            # (the collector claims the initiator's receive callback).
            tb_csma = Testbed(
                TestbedConfig(num_participants=participants, seed=cell_seed + 1)
            )
            tb_csma.configure_positives(positives)
            csma = tb_csma.run_csma_collection(threshold, quiet_us=8_000.0)
            c_lat.append(csma.duration_us / 1000.0)
            tb_csma.initiator_radio.energy.finalize(tb_csma.sim.now)
            c_en.append(tb_csma.initiator_radio.energy.total_uj / 1000.0)

            tb_tdma = Testbed(
                TestbedConfig(num_participants=participants, seed=cell_seed + 2)
            )
            tb_tdma.configure_positives(positives)
            schedule = np.random.default_rng(cell_seed + 3).permutation(participants)
            seq = tb_tdma.run_tdma_collection(
                threshold, schedule=[int(v) for v in schedule]
            )
            s_lat.append(seq.duration_us / 1000.0)
            tb_tdma.initiator_radio.energy.finalize(tb_tdma.sim.now)
            s_en.append(tb_tdma.initiator_radio.energy.total_uj / 1000.0)
        return [float(np.mean(v)) for v in (t_lat, c_lat, s_lat, t_en, c_en, s_en)]


def run(
    *,
    runs: int = 60,
    seed: int = 2030,
    participants: int = DEFAULT_PARTICIPANTS,
    threshold: int = DEFAULT_T,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Measure per-scheme session latency (ms) across the ``x`` sweep.

    Args:
        runs: Repetitions per grid point.
        seed: Root seed.
        participants: Neighbourhood size (testbed scale).
        threshold: Threshold ``t``.
        jobs: Worker processes (the cells are shards, bit-identical
            to serial).
    """
    xs = x_sweep(participants, points=16)
    tcast_ms, csma_ms, seq_ms, tcast_mj, csma_mj, seq_mj = run_cells([
        _LatencyCell(
            seed=seed, label="latency", x=x, n=participants,
            threshold=threshold, run_lo=0, run_hi=6, runs=runs,
        )
        for x in xs
    ], jobs=jobs)
    profile = EnergyProfile()
    notes = (
        f"initiator energy per session (CC2420 @ {profile.voltage_v:g} V): "
        f"tcast {min(tcast_mj):.2f}-{max(tcast_mj):.2f} mJ, "
        f"CSMA {min(csma_mj):.2f}-{max(csma_mj):.2f} mJ, "
        f"sequential {min(seq_mj):.2f}-{max(seq_mj):.2f} mJ "
        "(the initiator listens for the whole session, so energy tracks "
        "latency)",
        f"sequential reply slot {reply_slot_us():.0f} us (measured "
        "end-to-end); CSMA measured with an 8 ms quiet period",
    )
    fxs = tuple(float(x) for x in xs)
    return ExperimentResult(
        exp_id="ext_latency",
        title="session latency on the 802.15.4 timing model",
        parameters={
            "participants": participants,
            "t": threshold,
            "runs": runs,
            "seed": seed,
        },
        series=(
            Series(label="tcast/backcast", xs=fxs, ys=tcast_ms),
            Series(label="CSMA", xs=fxs, ys=csma_ms),
            Series(label="Sequential", xs=fxs, ys=seq_ms),
        ),
        xlabel="x (positive nodes)",
        ylabel="mean session latency (ms)",
        notes=notes,
    )
