"""Simulated joint single-shot readout with per-qubit confusion errors,
excitation-number post-selection, and distribution fidelities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import rng_stream
from .sector import QuantumState

__all__ = [
    "ReadoutModel",
    "ShotCounts",
    "sample_shots",
    "post_select",
    "overlap_fidelity",
    "thermal_excited_probability",
]

# h/k_B in mK per GHz: h * 1e9 / (k_B * 1e-3)
_H_OVER_KB_MK_PER_GHZ = 6.62607015e-34 * 1e9 / (1.380649e-23 * 1e-3)
# A model other than perfect readout draws and corrupts n_shots x n_sites
# entries, about 18 bytes each, and takes at most this many (about 90 MB);
# perfect readout holds 8 bytes per shot, bounded by scenarios.MAX_SHOTS.
MAX_NOISY_SHOT_ENTRIES = 5 * 10**6


@dataclass(frozen=True)
class ReadoutModel:
    """Independent per-qubit confusion matrix plus optional thermal excitation.

    f0[j] = P(read 0 | true 0), f1[j] = P(read 1 | true 1). Thermal excitation
    flips a true 0 to 1 at preparation, modelling spurious heating that
    post-selection is meant to suppress.
    """

    f0: np.ndarray
    f1: np.ndarray
    thermal_excitation: np.ndarray

    @classmethod
    def uniform(cls, n_sites: int, f0: float = 0.966, f1: float = 0.919, thermal: float = 0.0) -> "ReadoutModel":
        return cls.validate_arrays(np.full(n_sites, f0), np.full(n_sites, f1), np.full(n_sites, thermal))

    @classmethod
    def perfect(cls, n_sites: int) -> "ReadoutModel":
        return cls.uniform(n_sites, 1.0, 1.0, 0.0)

    @classmethod
    def from_device(cls, device, sites, thermal_from_temperature: bool = False) -> "ReadoutModel":
        """Per-qubit fidelities for the given site order; optionally derive the
        thermal excitation from each qubit's effective temperature."""
        f0, f1, thermal = [], [], []
        for q in sites:
            params = device.qubits[q]
            f0.append(params.readout_fidelity_0)
            f1.append(params.readout_fidelity_1)
            if thermal_from_temperature:
                thermal.append(
                    thermal_excited_probability(params.effective_temperature_mk, params.idle_frequency_ghz)
                )
            else:
                thermal.append(0.0)
        return cls.validate_arrays(f0, f1, thermal)

    @classmethod
    def validate_arrays(cls, f0, f1, thermal) -> "ReadoutModel":
        f0, f1, thermal = (np.asarray(a, dtype=float) for a in (f0, f1, thermal))
        for name, arr in (("f0", f0), ("f1", f1), ("thermal_excitation", thermal)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} probabilities must lie in [0, 1]")
        return cls(f0, f1, thermal)

    @property
    def n_sites(self) -> int:
        return len(self.f0)

    @property
    def is_perfect(self) -> bool:
        """No thermal excitation and f0 = f1 = 1: every shot reads as drawn."""
        return not self.thermal_excitation.any() and bool(np.all(self.f0 == 1.0) and np.all(self.f1 == 1.0))


@dataclass(frozen=True)
class ShotCounts:
    """The distinct occupation rows a readout observed, bool (distinct x
    n_sites), in ascending bitstring order with site 0 the first character,
    and how many shots read each (int64, all positive)."""

    rows: np.ndarray
    mults: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.rows.shape[1]

    @property
    def n_shots(self) -> int:
        return int(self.mults.sum())

    def bitstrings(self) -> list[str]:
        """Each row as its bitstring, the one spelling of the shots."""
        n = self.n_sites
        text = (self.rows.view(np.uint8) + ord("0")).tobytes().decode()
        # sliced by row, so rows of zero sites spell ""
        return [text[i * n : (i + 1) * n] for i in range(len(self.rows))]

    @property
    def counts(self) -> dict:
        """The shots as a dict from bitstring to count, in bitstring order."""
        return dict(zip(self.bitstrings(), self.mults.tolist()))

    def populations(self) -> np.ndarray:
        """Per-site excitation frequency across the retained shots."""
        return (self.mults @ self.rows) / max(self.n_shots, 1)


def sample_shots(state: QuantumState, readout: ReadoutModel, n_shots: int, seed: int) -> ShotCounts:
    """Draw bitstrings from |amplitude|^2, then corrupt them per qubit.

    The draws are `Generator.choice`'s: one uniform per shot from the call's
    stream, sent to the first basis row whose cumulative probability exceeds
    it. Perfect readout needs only their histogram, which it counts from the
    sorted uniforms (`_inverse_cdf_counts`) and holds 8 bytes per shot; any
    other model draws the rows with `choice` and corrupts each shot in turn,
    and is refused before any draw past MAX_NOISY_SHOT_ENTRIES shots x sites.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    state.check_normalized()
    n = state.basis.n_sites
    if readout.n_sites != n:
        raise ValueError(f"readout model covers {readout.n_sites} sites, state has {n}")
    if not readout.is_perfect and n_shots * n > MAX_NOISY_SHOT_ENTRIES:
        raise ValueError(
            f"{n_shots} shots on {n} sites exceed MAX_NOISY_SHOT_ENTRIES = {MAX_NOISY_SHOT_ENTRIES} "
            "shots x sites for a noisy readout model"
        )
    # re^2 + im^2, as in sector.populations, rounds alike under every numpy SIMD level
    p = state.amplitudes.real**2 + state.amplitudes.imag**2
    p = p / p.sum()
    rng = rng_stream(seed, 0x5A)
    if readout.is_perfect:
        # u < 0 and u >= 1 never hold, so the corruption draws would flip
        # nothing, and the stream is local to this call: skipping both leaves
        # the shots unchanged. Every shot then reads as its drawn basis row,
        # and the basis rows are already sorted, so the rows' counts are the
        # histogram in bitstring order. Any other model makes both draws, in
        # order, and histograms the observed rows.
        cdf = p.cumsum()  # built as choice builds it
        cdf /= cdf[-1]
        u = rng.random(n_shots)  # the uniforms choice would draw
        u.sort()
        mults = _inverse_cdf_counts(cdf, u)
        seen = np.flatnonzero(mults)
        rows, mults = state.basis.rows[seen], mults[seen]
    else:
        drawn = rng.choice(state.basis.dimension, size=n_shots, p=p)
        bits = state.basis.rows[drawn]  # n_shots x n_sites, true occupations
        u = rng.random(size=bits.shape)
        thermal = ~bits & (u < readout.thermal_excitation)
        bits = bits | thermal
        u = rng.random(size=bits.shape)
        flip_1to0 = bits & (u >= readout.f1)
        flip_0to1 = ~bits & (u >= readout.f0)
        observed = (bits & ~flip_1to0) | flip_0to1
        # one packed byte key per shot, site 0 in the top bit, so the keys
        # sort bytewise like the bit rows (np.unique(observed, axis=0) takes
        # over 20x as long on 50,000 shots of 62 sites)
        packed = np.packbits(observed, axis=1)
        keys, mults = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_counts=True)
        rows = np.unpackbits(keys.view(np.uint8).reshape(len(keys), -1), axis=1, count=n).view(bool)
    return ShotCounts(rows, mults)


def _inverse_cdf_counts(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many of the sorted uniforms `u` fall on each entry of the
    nondecreasing `cdf`: entry i counts those in [cdf[i-1], cdf[i]), the ones
    `cdf.searchsorted(u, side="right")` sends to i. So the counts are
    `np.bincount` of those indices, found by inversion over sorted uniforms
    (Devroye, Non-Uniform Random Variate Generation, 1986, ch. III) in
    O(len(cdf) log len(u)) after the sort."""
    return np.diff(u.searchsorted(cdf, side="left"), prepend=0)


def post_select(counts: ShotCounts, n_excitations: int) -> tuple[ShotCounts, float]:
    """Keep the rows holding the prepared excitation number, and give the
    kept shots' share of all shots (the retention)."""
    keep = counts.rows.sum(axis=1) == n_excitations
    kept = ShotCounts(counts.rows[keep], counts.mults[keep])
    if kept.n_shots == 0:
        raise ValueError("post-selection retained zero shots; statistics unusable")
    return kept, kept.n_shots / counts.n_shots


def overlap_fidelity(p, q) -> float:
    """Squared statistical overlap (sum sqrt(p q))^2 / (sum p * sum q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share an index set")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("distributions must be nonnegative")
    sp_, sq = p.sum(), q.sum()
    if sp_ == 0 or sq == 0:
        raise ValueError("cannot compare an all-zero distribution")
    return float(np.sum(np.sqrt(p * q)) ** 2 / (sp_ * sq))


def thermal_excited_probability(temperature_mk: float, qubit_frequency_ghz: float) -> float:
    """Two-level Boltzmann equilibrium excited fraction x / (1 + x) at
    temperature T, with x = exp(-h f / k_B T); 0 at T <= 0."""
    if temperature_mk <= 0:
        return 0.0
    x = np.exp(-_H_OVER_KB_MK_PER_GHZ * qubit_frequency_ghz / temperature_mk)
    return float(x / (1.0 + x))
