"""A stdin for running the CLI in process."""

import io


def byte_stdin(data: str | bytes, encoding: str = "utf-8") -> io.TextIOWrapper:
    """data as a real stdin gives it: a text stream over its bytes (a str
    as UTF-8), with the `.buffer` that the pattern reader reads."""
    return io.TextIOWrapper(io.BytesIO(data.encode() if isinstance(data, str) else data), encoding=encoding)
