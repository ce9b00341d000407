"""AES (FIPS-197) implemented from scratch.

Both sides of the reproduction need AES:

* victims run TRESOR/CaSE-style on-chip encryption, so their key
  schedules must be real;
* the attacker's key-schedule search (:mod:`repro.analysis.keysearch`)
  validates candidate keys by recomputing the expansion, the Halderman
  et al. technique.

Only the textbook algorithm is implemented — tables are generated from
the GF(2^8) definitions at import time rather than hard-coded, which
doubles as a self-check.
"""

from __future__ import annotations

from ..errors import ReproError

#: AES block size in bytes.
AES_BLOCK_BYTES = 16

_KEY_ROUNDS = {16: 10, 24: 12, 32: 14}


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    """Generate the S-box from multiplicative inverses + affine map."""
    # Multiplicative inverses via exp/log tables over generator 3.
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value = _gf_mul(value, 3)
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    def inverse(x: int) -> int:
        return 0 if x == 0 else exp[255 - log[x]]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for x in range(256):
        b = inverse(x)
        s = 0
        for shift in (0, 4, 5, 6, 7):
            s ^= ((b >> shift) | (b << (8 - shift))) & 0xFF
        s ^= 0x63
        sbox[x] = s
        inv_sbox[s] = x
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

#: Round constants: ``RCON[r - 1]`` is the first byte of Rcon for
#: schedule round ``r``.
RCON = [1]
while len(RCON) < 14:
    RCON.append(_xtime(RCON[-1]))


def rounds_for_key(key: bytes) -> int:
    """Number of AES rounds for a 16/24/32-byte key."""
    try:
        return _KEY_ROUNDS[len(key)]
    except KeyError:
        raise ReproError(
            f"AES keys are 16/24/32 bytes, got {len(key)}"
        ) from None


def key_schedule_core(word: bytes, round_index: int) -> bytes:
    """``SubWord(RotWord(word)) ^ Rcon`` of schedule round
    ``round_index`` (1-based): the non-linear step of the expansion."""
    out = bytearray(SBOX[b] for b in word[1:] + word[:1])
    out[0] ^= RCON[round_index - 1]
    return bytes(out)


def expand_key(key: bytes) -> list[bytes]:
    """Expand a key into the list of 16-byte round keys."""
    rounds = rounds_for_key(key)
    nk = len(key) // 4
    words = [key[i * 4 : i * 4 + 4] for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = key_schedule_core(temp, i // nk)
        elif nk > 6 and i % nk == 4:
            temp = bytes(SBOX[b] for b in temp)
        words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
    return [
        b"".join(words[4 * r : 4 * r + 4]) for r in range(rounds + 1)
    ]


def schedule_bytes(key: bytes) -> bytes:
    """The full key schedule as one contiguous byte string.

    For AES-128 this is the 176-byte layout the original cold boot
    attack scans memory images for.
    """
    return b"".join(expand_key(key))


def _sub_bytes(state: list[int]) -> list[int]:
    return [SBOX[b] for b in state]


def _inv_sub_bytes(state: list[int]) -> list[int]:
    return [INV_SBOX[b] for b in state]


# State layout: column-major, state[4*c + r] = row r of column c.
_SHIFT_MAP = [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]
_INV_SHIFT_MAP = [4 * ((c - r) % 4) + r for c in range(4) for r in range(4)]


def _shift_rows(state: list[int]) -> list[int]:
    return [state[i] for i in _SHIFT_MAP]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[i] for i in _INV_SHIFT_MAP]


def _mix_single_column(col: list[int], matrix: tuple[int, ...]) -> list[int]:
    return [
        _gf_mul(col[0], matrix[(0 - r) % 4])
        ^ _gf_mul(col[1], matrix[(1 - r) % 4])
        ^ _gf_mul(col[2], matrix[(2 - r) % 4])
        ^ _gf_mul(col[3], matrix[(3 - r) % 4])
        for r in range(4)
    ]


def _mix_columns(state: list[int], matrix: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    for c in range(4):
        out.extend(_mix_single_column(state[4 * c : 4 * c + 4], matrix))
    return out


_MIX = (2, 3, 1, 1)
_INV_MIX = (14, 11, 13, 9)


def _add_round_key(state: list[int], round_key: bytes) -> list[int]:
    return [b ^ k for b, k in zip(state, round_key)]


def encrypt_with_schedule(
    round_keys: list[bytes],
    plaintext: bytes,
    flip: tuple[int, int] | None = None,
) -> bytes:
    """Encrypt one block from an already-expanded schedule.

    ``flip=(byte, bit)`` flips that bit of the state between the final
    ShiftRows and SubBytes, the single-bit fault that
    :mod:`repro.glitch.dfa` exploits.  The two steps commute, so with
    no flip this is plain AES.
    """
    if len(plaintext) != AES_BLOCK_BYTES:
        raise ReproError(f"AES blocks are {AES_BLOCK_BYTES} bytes")
    state = _add_round_key(list(plaintext), round_keys[0])
    for round_key in round_keys[1:-1]:
        state = _add_round_key(
            _mix_columns(_shift_rows(_sub_bytes(state)), _MIX), round_key
        )
    state = _shift_rows(state)
    if flip is not None:
        byte_index, bit = flip
        state[byte_index] ^= 1 << bit
    return bytes(_add_round_key(_sub_bytes(state), round_keys[-1]))


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """Encrypt one 16-byte block."""
    return encrypt_with_schedule(expand_key(key), plaintext)


def decrypt_block(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt one 16-byte block."""
    if len(ciphertext) != AES_BLOCK_BYTES:
        raise ReproError(f"AES blocks are {AES_BLOCK_BYTES} bytes")
    round_keys = expand_key(key)
    state = _add_round_key(list(ciphertext), round_keys[-1])
    for round_key in reversed(round_keys[1:-1]):
        state = _mix_columns(
            _add_round_key(_inv_sub_bytes(_inv_shift_rows(state)), round_key),
            _INV_MIX,
        )
    state = _add_round_key(_inv_sub_bytes(_inv_shift_rows(state)), round_keys[0])
    return bytes(state)
