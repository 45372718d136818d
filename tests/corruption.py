"""Corruption sweeps for the binary readers: a corrupt file must either load
or raise the reader's own format error, never anything else."""


def prefixes(data):
    """Every proper prefix of `data`, the empty one included."""
    return [data[:n] for n in range(len(data))]


def bit_flips(data, start=0, stop=None):
    """Every copy of `data` with one bit of data[start:stop] flipped."""
    stop = len(data) if stop is None else stop
    out = []
    for bit in range(8 * start, 8 * stop):
        bad = bytearray(data)
        bad[bit // 8] ^= 1 << (bit % 8)
        out.append(bytes(bad))
    return out


def sweep(path, variants, read, error):
    """Write each variant to `path` and call `read(path)`.  Each call must
    return or raise `error`; any other exception fails, naming the variant.
    Returns what the reads that loaded returned."""
    loaded = []
    for i, data in enumerate(variants):
        path.write_bytes(data)
        try:
            loaded.append(read(path))
        except error:
            pass
        except Exception as exc:
            raise AssertionError(
                f"variant {i} of {len(variants)} ({len(data)} bytes) raised "
                f"{type(exc).__name__}, not {error.__name__}: {exc}") from exc
    return loaded
