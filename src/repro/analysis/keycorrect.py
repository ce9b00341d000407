"""Error-correcting AES key reconstruction from decayed memory images.

The original cold boot attack recovered keys from DRAM dumps with bit
errors by exploiting the redundancy of the key schedule: the expanded
words are deterministic functions of the 16 key bytes, so a noisy
window over-determines the key massively.  Naive hill climbing over key
bits gets trapped by the expansion's avalanche, so the decoder works
structurally, like the original attack:

Each key word ``w0..w3`` can be derived several independent ways from
the observed window (AES-128 expansion relations)::

    w1 = obs(w1) = obs(w4)^obs(w5)      = obs(w4)^obs(w8)^obs(w9)
    w2 = obs(w2) = obs(w5)^obs(w6)      = obs(w5)^obs(w9)^obs(w10)
    w3 = obs(w3) = obs(w6)^obs(w7)      = obs(w6)^obs(w10)^obs(w11)
    w0 = obs(w0) = obs(w4)^g1(w3)       = obs(w8)^g2(obs(w7))^g1(w3)

(where ``g_r`` is SubWord∘RotWord ⊕ Rcon_r,
:func:`~repro.crypto.aes.key_schedule_core`).  A sparse error corrupts
at most one estimate of any given bit, so per-bit majority voting over
the three estimates recovers the true word.  A bounded steepest-descent
pass then mops up any residual coincidences, and the result is accepted
only if the recomputed schedule sits within the expected noise floor of
the window.

:func:`reconstruct_with_decay_model` extends this to the DRAM decay
regime, where the attacker knows each cell's ground state: observed
bits that differ from ground are certainly genuine, and the voting
prefers estimates built purely from such trusted bits.
"""

from __future__ import annotations

import numpy as np

from ..crypto.aes import (
    INV_SBOX,
    RCON,
    SBOX,
    key_schedule_core,
    schedule_bytes,
)
from ..errors import ReproError
from .hamming import hamming_distance

#: Full AES-128 schedule length.
SCHEDULE_BYTES = 176


def _words(window: bytes) -> list[bytes]:
    return [window[i : i + 4] for i in range(0, len(window), 4)]


def _xor(*parts: bytes) -> bytes:
    out = bytearray(4)
    for part in parts:
        for i in range(4):
            out[i] ^= part[i]
    return bytes(out)


def _g_inverse_free_w0(words: list[bytes], w3: bytes) -> list[bytes]:
    """The three independent estimates of key word w0."""
    return [
        words[0],
        _xor(words[4], key_schedule_core(w3, 1)),
        _xor(
            words[8],
            key_schedule_core(words[7], 2),
            key_schedule_core(w3, 1),
        ),
    ]


def _bit_majority(estimates: list[bytes]) -> bytes:
    """Per-bit majority over an odd number of 4-byte estimates."""
    stacked = np.stack(
        [
            np.unpackbits(np.frombuffer(e, dtype=np.uint8), bitorder="little")
            for e in estimates
        ]
    )
    voted = (stacked.sum(axis=0) * 2 > len(estimates)).astype(np.uint8)
    return np.packbits(voted, bitorder="little").tobytes()


def _vote_pair(primary: bytes, secondary: bytes, observed: bytes) -> bytes:
    """Two-estimate vote: agreement wins, disagreement keeps observed."""
    p = np.unpackbits(np.frombuffer(primary, dtype=np.uint8), bitorder="little")
    s = np.unpackbits(np.frombuffer(secondary, dtype=np.uint8), bitorder="little")
    o = np.unpackbits(np.frombuffer(observed, dtype=np.uint8), bitorder="little")
    voted = np.where(p == s, p, o)
    return np.packbits(voted, bitorder="little").tobytes()


def _repair_window(window: bytes) -> bytes:
    """One belief-propagation round over the whole schedule.

    Every expanded word is re-estimated from its own backward and
    forward relations and majority-voted against the observed value,
    which scrubs sparse errors out of the words the key vote reads.
    """
    words = _words(window)
    repaired = list(words)
    for i in range(4, 44):
        estimates = [words[i]]
        if i % 4 != 0:
            estimates.append(_xor(words[i - 4], words[i - 1]))
        else:
            estimates.append(
                _xor(words[i - 4], key_schedule_core(words[i - 1], i // 4))
            )
        j = i + 4
        if j <= 43:
            if j % 4 != 0:
                estimates.append(_xor(words[j], words[j - 1]))
            else:
                estimates.append(
                    _xor(words[j], key_schedule_core(words[j - 1], j // 4))
                )
        if len(estimates) == 3:
            repaired[i] = _bit_majority(estimates)
        else:
            repaired[i] = _vote_pair(estimates[0], estimates[1], words[i])
    return b"".join(repaired)


def _voted_key(window: bytes) -> bytes:
    """Structural consistency-voting reconstruction of the key words."""
    words = _words(window)
    w1 = _bit_majority(
        [words[1], _xor(words[4], words[5]), _xor(words[4], words[8], words[9])]
    )
    w2 = _bit_majority(
        [words[2], _xor(words[5], words[6]), _xor(words[5], words[9], words[10])]
    )
    w3 = _bit_majority(
        [words[3], _xor(words[6], words[7]), _xor(words[6], words[10], words[11])]
    )
    w0 = _bit_majority(_g_inverse_free_w0(words, w3))
    return w0 + w1 + w2 + w3


def _schedule_distance(key: bytes, window: bytes) -> int:
    return hamming_distance(schedule_bytes(key), window)


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


def _pair_kick(key: bytes, score, shortlist: int = 12) -> tuple[bytes, int]:
    """Escape a single-flip local minimum with one two-bit move.

    Ranks all single flips, then evaluates every pair among the most
    promising bits — the classic fix for XOR-coupled error pairs that
    no single flip improves.
    """
    current = bytearray(key)
    base = score(bytes(current))
    singles = []
    for bit in range(128):
        byte_index, bit_index = divmod(bit, 8)
        current[byte_index] ^= 1 << bit_index
        singles.append((score(bytes(current)), bit))
        current[byte_index] ^= 1 << bit_index
    singles.sort()
    best = base
    best_pair: tuple[int, int] | None = None
    top = [bit for _score, bit in singles[:shortlist]]
    for first_index in range(len(top)):
        for second_index in range(first_index + 1, len(top)):
            for bit in (top[first_index], top[second_index]):
                byte_index, bit_index = divmod(bit, 8)
                current[byte_index] ^= 1 << bit_index
            candidate = score(bytes(current))
            if candidate < best:
                best = candidate
                best_pair = (top[first_index], top[second_index])
            for bit in (top[first_index], top[second_index]):
                byte_index, bit_index = divmod(bit, 8)
                current[byte_index] ^= 1 << bit_index
    if best_pair is None:
        return key, base
    for bit in best_pair:
        byte_index, bit_index = divmod(bit, 8)
        current[byte_index] ^= 1 << bit_index
    return bytes(current), best


def reconstruct_aes128_key(
    window: bytes,
    max_passes: int = 6,
    accept_threshold_bits: int = 24,
) -> bytes | None:
    """Reconstruct an AES-128 key from a noisy 176-byte schedule window.

    Handles sparse unbiased bit errors anywhere in the window —
    including inside the key bytes themselves.  Returns None when the
    residual distance never drops below ``accept_threshold_bits`` (the
    window is probably not a key schedule at all).
    """
    if len(window) != SCHEDULE_BYTES:
        raise ReproError(f"window must be {SCHEDULE_BYTES} bytes")
    repaired = _repair_window(window)
    twice_repaired = _repair_window(repaired)
    candidates = [
        _voted_key(twice_repaired),
        _voted_key(repaired),
        _voted_key(window),
        twice_repaired[:16],
        repaired[:16],
        window[:16],
    ]
    best_key: bytes | None = None
    best_score = accept_threshold_bits + 1
    scorer = lambda k: _schedule_distance(k, window)  # noqa: E731
    for candidate in candidates:
        refined, score = _steepest_descent(candidate, scorer, max_passes)
        if score > accept_threshold_bits:
            # Stalled above the noise floor: try one two-bit escape,
            # then resume the descent from there.
            kicked, kicked_score = _pair_kick(refined, scorer)
            if kicked_score < score:
                refined, score = _steepest_descent(
                    kicked, scorer, max_passes
                )
        if score < best_score:
            best_score = score
            best_key = refined
        if best_score <= accept_threshold_bits:
            break
    return best_key if best_score <= accept_threshold_bits else None


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
