"""Forked CSV writers: each formats a share of the blocks and sends it back through a pipe.

`cli._write_tables` imports this module only when a subcommand's tables are
large enough to fork writers (README), so a serial run never loads it: with
bytecode writing off, every module is compiled on each run, and its compile
memory counts in the peak.
"""

from __future__ import annotations

import os
import warnings


def fork_writers(n: int, processes: int, encoded, children: list) -> None:
    """Fork children 1, ..., processes - 1 and append (pid, read end of its pipe) of each
    to children; child r sends encoded(j) for j in range(r, n, processes), in order.

    A child inherits the tables, so nothing is pickled.  It sends each block's bytes after
    their 8-byte length, and on any fault stops sending.  It closes the pipe ends it does
    not own and always leaves through os._exit.
    """
    for rank in range(1, processes):
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns when a process with other OS threads (BLAS) forks;
                # the child only formats with numpy and leaves through os._exit
                warnings.filterwarnings("ignore", r".*multi-threaded, use of fork\(\)",
                                        DeprecationWarning)
                pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            try:
                os.close(read_fd)
                for _, pipe in children:
                    pipe.close()
                with open(write_fd, "wb") as pipe:
                    for j in range(rank, n, processes):
                        data = encoded(j)
                        pipe.write(len(data).to_bytes(8, "little") + data)
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, open(read_fd, "rb")))


def receive(pipe) -> bytes | None:
    """The next block's bytes from a child's pipe, or None if the child sent no more."""
    if len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little")
        if len(data := pipe.read(size)) == size:
            return data
    return None
