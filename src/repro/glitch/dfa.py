"""Differential fault analysis of the on-chip AES (the glitch payoff).

The paper's passive attack freezes SRAM and reads the key schedule out;
register-resident AES (TRESOR-style, :class:`~repro.crypto.onchip.
RegisterAes`) defeats that by never letting the schedule touch SRAM.
Fault injection re-opens the door: glitch the engine so that a single
bit of the state flips *between ShiftRows and SubBytes of the final
round*, and each faulty ciphertext differs from the correct one in
exactly one byte.  For the faulted position ``i``::

    c[i]  = SBOX[s]        ^ k10[i]
    c'[i] = SBOX[s ^ 2^b]  ^ k10[i]

so the last-round-key byte ``k10[i]`` must satisfy
``HW(INV_SBOX[c[i] ^ k] ^ INV_SBOX[c'[i] ^ k]) == 1``.  A handful of
faults per byte position intersects the candidate sets down to one
value; inverting the AES-128 key schedule then yields the master key.

This is the classic single-byte DFA (Giraud 2004) restricted to
single-bit faults — deliberately the weakest variant, because the point
here is the pipeline (glitch → faulty ciphertext → key), not DFA
novelty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crypto.aes import (
    AES_BLOCK_BYTES,
    INV_SBOX,
    encrypt_with_schedule,
    key_schedule_core,
)
from ..crypto.onchip import RegisterAes
from ..devices import glitch_rig
from ..errors import GlitchError, ReproError
from ..rng import generator
from ..soc.bootrom import BootMedia
from .campaign import DEFAULT_SPEC, _rig_waveform
from .faultmodel import default_fault_model
from .waveform import GlitchPulse

#: Stop collecting once every byte position has this many faults.
FAULTS_PER_BYTE = 3

#: Safety cap on glitched encryptions per DFA run.
MAX_ATTEMPTS = 4_000


def glitched_encrypt(
    round_keys: list[bytes],
    plaintext: bytes,
    rng: np.random.Generator,
    fault_probability: float,
) -> bytes:
    """Encrypt one block; maybe flip one state bit before the last round.

    :func:`~repro.crypto.aes.encrypt_with_schedule`, except that with
    ``fault_probability`` a uniformly random bit of the state is flipped
    after the last ShiftRows — the glitch landing in the final-round
    datapath.  The draw discipline is fixed (one uniform, then two
    integer draws only when it fires) so the stream stays aligned
    across attempts.
    """
    if len(plaintext) != AES_BLOCK_BYTES:
        raise ReproError(f"AES blocks are {AES_BLOCK_BYTES} bytes")
    if not 0.0 <= fault_probability <= 1.0:
        raise GlitchError("fault probability must lie in [0, 1]")
    flip = None
    if float(rng.uniform()) < fault_probability:
        flip = (int(rng.integers(0, AES_BLOCK_BYTES)), int(rng.integers(0, 8)))
    return encrypt_with_schedule(round_keys, plaintext, flip)


def recover_last_round_key(
    correct: bytes, faulty: list[bytes]
) -> list[int | None]:
    """Intersect single-bit DFA candidates per byte position.

    Returns one recovered key byte per position, or ``None`` where the
    collected faults have not narrowed the candidates to a single value.
    Multi-byte differentials (double faults) are skipped — a real
    campaign cannot tell them apart from noise, so neither do we.
    """
    if len(correct) != AES_BLOCK_BYTES:
        raise ReproError(f"AES blocks are {AES_BLOCK_BYTES} bytes")
    candidates: list[set[int] | None] = [None] * AES_BLOCK_BYTES
    for ciphertext in faulty:
        diff_positions = [
            i for i in range(AES_BLOCK_BYTES) if ciphertext[i] != correct[i]
        ]
        if len(diff_positions) != 1:
            continue
        position = diff_positions[0]
        matches = {
            k
            for k in range(256)
            if bin(
                INV_SBOX[correct[position] ^ k]
                ^ INV_SBOX[ciphertext[position] ^ k]
            ).count("1")
            == 1
        }
        if candidates[position] is None:
            candidates[position] = matches
        else:
            candidates[position] &= matches
    return [
        next(iter(c)) if c is not None and len(c) == 1 else None
        for c in candidates
    ]


def invert_aes128_schedule(last_round_key: bytes) -> bytes:
    """Walk the AES-128 key expansion backwards from round key 10."""
    if len(last_round_key) != 16:
        raise ReproError("AES-128 round keys are 16 bytes")
    words = [None] * 44
    for j in range(4):
        words[40 + j] = last_round_key[4 * j : 4 * j + 4]
    for i in range(43, 3, -1):
        temp = words[i - 1]
        if i % 4 == 0:
            # words[i] = words[i-4] ^ g(words[i-1]); invert for i-4 once
            # words[i-1] is known, which the descending walk guarantees.
            temp = key_schedule_core(temp, i // 4)
        words[i - 4] = bytes(a ^ b for a, b in zip(words[i], temp))
    return b"".join(words[0:4])


@dataclass
class DfaResult:
    """Outcome of one AES glitch-DFA run."""

    correct_ciphertext: bytes
    faulty_ciphertexts: list[bytes]
    attempts: int
    recovered_k10: list[int | None]
    recovered_key: bytes | None
    true_key: bytes
    notes: list[str] = field(default_factory=list)

    @property
    def bytes_recovered(self) -> int:
        """How many of the 16 last-round-key bytes were pinned down."""
        return sum(1 for b in self.recovered_k10 if b is not None)

    @property
    def key_correct(self) -> bool:
        """Whether the full recovered master key matches the truth."""
        return self.recovered_key == self.true_key


def aes_glitch_dfa(
    seed: int,
    pulse: GlitchPulse | None = None,
    faults_per_byte: int = FAULTS_PER_BYTE,
    max_attempts: int = MAX_ATTEMPTS,
) -> DfaResult:
    """End-to-end demo: glitch the rig's register-AES, recover the key.

    Boots a :func:`~repro.devices.glitch_rig`, installs a random key in
    the vector register file, derives the per-encryption fault
    probability from the die-seen waveform of ``pulse`` (minimum rail
    voltage through the fault model — the same physics as the campaign),
    then collects faulty ciphertexts until every byte position has
    ``faults_per_byte`` single-byte differentials or the attempt budget
    runs out.  Recovery intersects DFA candidates and inverts the
    schedule.
    """
    if faults_per_byte < 1:
        raise GlitchError("need at least one fault per byte position")
    board = glitch_rig(seed=seed)
    board.boot(BootMedia("dfa-victim"))
    rng = generator(seed, "glitch", "dfa")
    key = bytes(int(b) for b in rng.integers(0, 256, size=16))
    engine = RegisterAes(board.soc.core(0))
    engine.install_key(key)
    plaintext = bytes(int(b) for b in rng.integers(0, 256, size=16))
    correct = engine.encrypt(plaintext)

    pulse = pulse or GlitchPulse(
        offset_s=0.0,
        width_s=DEFAULT_SPEC.widths_s[-1],
        depth_v=DEFAULT_SPEC.depths_v[-1],
    )
    waveform = _rig_waveform(board, pulse, DEFAULT_SPEC.nominal_v)
    model = default_fault_model(DEFAULT_SPEC.nominal_v)
    fault_probability = model.fault_probability(waveform.minimum())
    notes = [
        f"die-seen minimum rail {waveform.minimum():.3f} V -> "
        f"per-encryption fault probability {fault_probability:.3f}"
    ]
    if fault_probability <= 0.0:
        notes.append("pulse too shallow after decoupling: no faults possible")

    schedule = engine.schedule()
    faulty: list[bytes] = []
    per_position = [0] * AES_BLOCK_BYTES
    attempts = 0
    while (
        attempts < max_attempts
        and fault_probability > 0.0
        and min(per_position) < faults_per_byte
    ):
        attempts += 1
        ciphertext = glitched_encrypt(
            schedule, plaintext, rng, fault_probability
        )
        diff = [
            i
            for i in range(AES_BLOCK_BYTES)
            if ciphertext[i] != correct[i]
        ]
        if len(diff) == 1:
            faulty.append(ciphertext)
            per_position[diff[0]] += 1

    recovered_k10 = recover_last_round_key(correct, faulty)
    recovered_key: bytes | None = None
    if all(b is not None for b in recovered_k10):
        recovered_key = invert_aes128_schedule(bytes(recovered_k10))
        notes.append(
            "all 16 last-round-key bytes pinned; schedule inverted"
        )
    else:
        notes.append(
            f"{sum(1 for b in recovered_k10 if b is None)} byte positions "
            f"still ambiguous after {attempts} attempts"
        )
    return DfaResult(
        correct_ciphertext=correct,
        faulty_ciphertexts=faulty,
        attempts=attempts,
        recovered_k10=recovered_k10,
        recovered_key=recovered_key,
        true_key=key,
        notes=notes,
    )
