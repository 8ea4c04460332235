"""A full disk, simulated: an ``open`` whose writes to one path fail half-way."""

import errno
from pathlib import Path


class HalfWrite:
    """A text file that stores half of what it is given, then fails as a
    full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))


def open_failing_on(target: Path, real_open=open):
    """An ``open`` that hands back a HalfWrite for a write to ``target`` or
    to ``target`` + ".tmp", and the real file otherwise."""

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = Path(file).name.removesuffix(".tmp")
        if set(mode) & set("wax+") and Path(file).parent / name == target:
            return HalfWrite(fh)
        return fh

    return failing_open
