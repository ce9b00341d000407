"""Error-correcting AES key reconstruction from decayed memory images.

The original cold boot attack recovered keys from DRAM dumps with bit
errors by exploiting the redundancy of the key schedule: the expanded
words are deterministic functions of the 16 key bytes, so a noisy
window over-determines the key massively.

:func:`reconstruct_with_decay_model` decodes in the DRAM decay regime,
where the attacker knows each cell's ground state: observed bits that
differ from ground are certainly genuine, the rest are erasures that
the schedule's relations fill back in, and a bounded steepest-descent
pass mops up what they leave.
"""

from __future__ import annotations

import numpy as np

from ..crypto.aes import INV_SBOX, RCON, SBOX, schedule_bytes
from ..errors import ReproError

#: Full AES-128 schedule length.
SCHEDULE_BYTES = 176


def _steepest_descent(
    key: bytes, score, max_passes: int
) -> tuple[bytes, int]:
    """Single-best-flip descent over the 128 key bits."""
    current = bytearray(key)
    best = score(bytes(current))
    for _ in range(max_passes):
        if best == 0:
            break
        best_bit = -1
        best_candidate = best
        for bit in range(128):
            byte_index, bit_index = divmod(bit, 8)
            current[byte_index] ^= 1 << bit_index
            candidate = score(bytes(current))
            current[byte_index] ^= 1 << bit_index
            if candidate < best_candidate:
                best_candidate = candidate
                best_bit = bit
        if best_bit < 0:
            break
        byte_index, bit_index = divmod(best_bit, 8)
        current[byte_index] ^= 1 << bit_index
        best = best_candidate
    return bytes(current), best


def reconstruct_with_decay_model(
    window: bytes,
    ground_state: bytes,
    max_peel_iterations: int = 64,
    max_passes: int = 12,
) -> bytes | None:
    """DRAM decoder: exploit the known per-cell decay direction.

    ``ground_state`` gives each bit's fully-decayed value (0 for true
    cells, 1 for anti-cells).  An observed bit that differs from its
    ground state must be genuine data; a bit at ground state is either
    genuine or decayed — an *erasure* with a known fallback value.

    Decoding is iterative peeling over the schedule's relations:

    * within a round (``i % 4 != 0``): ``w[i] = w[i-4] ^ w[i-1]`` is a
      per-bit XOR triple — any bit follows from the other two;
    * at round boundaries (``i % 4 == 0``): per byte ``j``,
      ``w[i][j] = w[i-4][j] ^ SBOX[w[i-1][(j+1)%4]] (^ Rcon)`` — any of
      the three bytes follows from the other two (via INV_SBOX).

    Peeling repeats until fixpoint; unresolved bits fall back to their
    ground value, and a bounded trusted-penalty descent mops up.  Only a
    key whose recomputed schedule matches every trusted bit is returned.
    """
    if len(window) != SCHEDULE_BYTES or len(ground_state) != SCHEDULE_BYTES:
        raise ReproError(
            f"window and ground state must be {SCHEDULE_BYTES} bytes"
        )
    observed = np.unpackbits(
        np.frombuffer(window, dtype=np.uint8), bitorder="little"
    )
    ground = np.unpackbits(
        np.frombuffer(ground_state, dtype=np.uint8), bitorder="little"
    )
    bits = observed.copy()
    known = observed != ground  # trusted bits are exactly the non-ground ones

    def bit_slice(word: int, byte: int | None = None):
        if byte is None:
            start = word * 32
            return slice(start, start + 32)
        start = word * 32 + byte * 8
        return slice(start, start + 8)

    def byte_value(word: int, byte: int) -> int:
        chunk = bits[bit_slice(word, byte)]
        return int(np.packbits(chunk, bitorder="little")[0])

    def set_byte(word: int, byte: int, value: int) -> None:
        chunk = np.unpackbits(np.uint8(value), bitorder="little")
        bits[bit_slice(word, byte)] = chunk
        known[bit_slice(word, byte)] = True

    for _ in range(max_peel_iterations):
        changed = False
        for i in range(4, 44):
            if i % 4 != 0:
                # Linear per-bit triple: w[i] ^ w[i-4] ^ w[i-1] == 0.
                slices = [bit_slice(i), bit_slice(i - 4), bit_slice(i - 1)]
                masks = [known[s] for s in slices]
                values = [bits[s] for s in slices]
                for target in range(3):
                    others = [k for k in range(3) if k != target]
                    derivable = (
                        masks[others[0]] & masks[others[1]] & ~masks[target]
                    )
                    if derivable.any():
                        derived = values[others[0]] ^ values[others[1]]
                        bits[slices[target]] = np.where(
                            derivable, derived, values[target]
                        )
                        known[slices[target]] |= derivable
                        changed = True
            else:
                rcon = RCON[i // 4 - 1]
                for j in range(4):
                    source_byte = (j + 1) % 4
                    adjust = rcon if j == 0 else 0
                    know_out = known[bit_slice(i, j)].all()
                    know_prev = known[bit_slice(i - 4, j)].all()
                    know_in = known[bit_slice(i - 1, source_byte)].all()
                    if know_prev and know_in and not know_out:
                        set_byte(
                            i, j,
                            byte_value(i - 4, j)
                            ^ SBOX[byte_value(i - 1, source_byte)]
                            ^ adjust,
                        )
                        changed = True
                    elif know_out and know_in and not know_prev:
                        set_byte(
                            i - 4, j,
                            byte_value(i, j)
                            ^ SBOX[byte_value(i - 1, source_byte)]
                            ^ adjust,
                        )
                        changed = True
                    elif know_out and know_prev and not know_in:
                        set_byte(
                            i - 1, source_byte,
                            INV_SBOX[
                                byte_value(i, j)
                                ^ byte_value(i - 4, j)
                                ^ adjust
                            ],
                        )
                        changed = True
        if not changed:
            break

    # Phase 2: Gallager-style message passing for the bits hard peeling
    # could not reach.  Every unresolved bit keeps its ground-state
    # fallback as a weak prior and takes votes from the linear triples
    # it participates in, using the current (partially corrected) word
    # values; trusted/peeled bits never move.  A few sweeps resolve the
    # moderate-decay regime the pure erasure peel cannot.
    frozen = known.copy()
    for _ in range(16):
        votes = np.zeros(observed.size, dtype=np.float32)
        counts = np.zeros(observed.size, dtype=np.float32)
        for i in range(4, 44):
            if i % 4 == 0:
                continue
            s_out = bit_slice(i)
            s_a = bit_slice(i - 4)
            s_b = bit_slice(i - 1)
            predictions = (
                (bits[s_a] ^ bits[s_b], s_out),
                (bits[s_out] ^ bits[s_b], s_a),
                (bits[s_out] ^ bits[s_a], s_b),
            )
            for predicted, target in predictions:
                votes[target] += predicted
                counts[target] += 1.0
        # Ground prior: half a vote toward the fallback value.
        votes += ground * 0.5
        counts += 0.5
        updated = (votes * 2 > counts).astype(np.uint8)
        movable = ~frozen
        if (bits[movable] == updated[movable]).all():
            break
        bits[movable] = updated[movable]

    trustworthy = observed != ground

    def penalty(key: bytes) -> int:
        expected = np.unpackbits(
            np.frombuffer(schedule_bytes(key), dtype=np.uint8),
            bitorder="little",
        )
        return int(np.count_nonzero(trustworthy & (expected != observed)))

    peeled_key = np.packbits(bits[:128], bitorder="little").tobytes()
    refined, score = _steepest_descent(peeled_key, penalty, max_passes)
    return refined if score == 0 else None
