"""The byte-level wire: encode, transmit-with-retry, decode.

This is the self-healing link layer every transport shares.  A halo
message is (optionally) fp16-compressed into its wire image
(:func:`encode_wire`), pushed through the possibly faulty link
(:func:`transmit` — CRC-32 detection and bounded exponential-backoff
retransmission when ``checksum`` is armed, silent degradation when it
is not), and decoded back to working precision (:func:`decode_wire`).

The functions are transport-agnostic pure byte plumbing: the
in-process reference transport runs them at post time in the parent;
the shared-memory transport runs the *same* functions inside each rank
worker on the frames that actually crossed the process boundary — so
drop/corrupt/truncate/duplicate faults and the retry protocol behave
identically on a real parallel wire.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.grid import compression


class HaloExchangeError(RuntimeError):
    """A halo message could not be delivered intact within the retry
    budget (detected, but unrecovered)."""


def transmit(payload: np.ndarray, *, stats, injector, checksum: bool,
             max_retries: int, msg_id: int) -> np.ndarray:
    """Send one message through the (possibly faulty) link.

    ``payload`` is the flat uint8 wire image.  Returns the received
    bytes.  With checksums enabled a bad delivery is detected and
    retransmitted (bounded, exponential backoff); without them the
    receiver has no way to know and degrades silently.  ``stats`` is
    the :class:`~repro.grid.comms.lattice.CommsStats` block charged
    with the protocol-visible events; ``injector`` the duck-typed
    fault hook (``deliver(payload, message, attempt, stats) ->
    list[np.ndarray]``), or ``None`` for a perfect link.
    """
    if injector is None and not checksum:
        return payload
    for attempt in range(max_retries + 1):
        if injector is None:
            copies = [payload]
        else:
            copies = injector.deliver(payload, message=msg_id,
                                      attempt=attempt, stats=stats)
        if not checksum:
            # No detection: take the first delivery at face value.
            if not copies:
                return np.zeros_like(payload)  # "timeout" -> zeros
            got = copies[0]
            if got.size < payload.size:  # truncated -> zero-padded
                got = np.concatenate(
                    [got, np.zeros(payload.size - got.size,
                                   dtype=np.uint8)]
                )
            return got[:payload.size]
        # Checksummed path: CRC over the intact payload travels in
        # the (never-corrupted) message envelope.
        # CRCs read the contiguous images in place (buffer protocol).
        crc = zlib.crc32(np.ascontiguousarray(payload))
        good = None
        for i, got in enumerate(copies):
            ok = (got.size == payload.size
                  and zlib.crc32(np.ascontiguousarray(got)) == crc)
            if ok and good is None:
                good = got
            elif i > 0:
                stats.duplicates_discarded += 1
        if good is not None:
            if attempt > 0:
                stats.recovered_messages += 1
            return good
        if not copies:
            stats.detected_drops += 1
        else:
            stats.detected_corruptions += 1
        if attempt < max_retries:
            stats.retries += 1
            stats.backoff_units += 1 << attempt
    stats.unrecovered_failures += 1
    raise HaloExchangeError(
        f"halo message {msg_id} undeliverable after "
        f"{max_retries} retries"
    )


def encode_wire(data: np.ndarray, compress: bool) -> np.ndarray:
    """The flat uint8 wire image of a complex field (fp16-interleaved
    when ``compress``, raw bytes otherwise)."""
    if compress:
        wire16 = compression.compress_complex(data)
        return np.ascontiguousarray(wire16).view(np.uint8).ravel()
    return np.ascontiguousarray(data).view(np.uint8).ravel()


def decode_wire(received: np.ndarray, compress: bool, dtype,
                shape) -> np.ndarray:
    """Invert :func:`encode_wire` on the received bytes (always a
    fresh array — the wire owns its buffers)."""
    if compress:
        return compression.decompress_complex(
            received.copy().view(np.float16), dtype
        ).reshape(shape)
    return received.copy().view(dtype).reshape(shape)


def exchange_field(data: np.ndarray, *, compress: bool, checksum: bool,
                   injector, stats, max_retries: int, dtype) -> np.ndarray:
    """One full wire transaction on a field: encode, transmit, decode.

    The caller has already charged ``stats.record`` for this message
    (the 0-based ordinal the injector schedules against is therefore
    ``stats.messages - 1``).  With a pristine uncompressed link this
    is the zero-copy fast path: the field itself is the "received"
    array, exactly as the historical in-process exchange behaved.
    """
    pristine = injector is None
    msg_id = stats.messages - 1
    if not compress and pristine and not checksum:
        return data
    wire = encode_wire(data, compress)
    if compress and pristine and not checksum:
        received = wire
    else:
        received = transmit(wire, stats=stats, injector=injector,
                            checksum=checksum, max_retries=max_retries,
                            msg_id=msg_id)
    return decode_wire(received, compress, dtype, data.shape)
