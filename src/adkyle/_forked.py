"""Forked CSV writers: each formats a share of the blocks and sends it back through a pipe.

`cli._write_csvs` imports this module only when a subcommand's tables are
large enough to fork writers (README), so a serial run never loads it: with
bytecode writing off, every module is compiled on each run, and its compile
memory counts in the peak.
"""

from __future__ import annotations

import os
import warnings

# the exceptions a child sends back, to be raised again in the parent with their message;
# the record names one by its index
SENT = (ValueError, MemoryError)


def fork_writers(blocks, processes: int, encoded, children: list) -> None:
    """Fork children 1, ..., processes - 1 and append (pid, read end of its pipe) of each
    to children; child r sends encoded(block) of blocks r, r + processes, ... in order.

    A child inherits the blocks, so nothing is pickled.  It sends each block's bytes after
    their signed 8-byte length; a ValueError or MemoryError is sent as a negated length,
    the index of its kind in SENT and its message.  A child closes the pipe ends it does
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
            status = 1
            try:
                os.close(read_fd)
                for _, pipe in children:
                    pipe.close()
                with open(write_fd, "wb") as pipe:
                    try:
                        for i, block in enumerate(blocks):
                            if i % processes == rank:
                                data = encoded(block)
                                pipe.write(len(data).to_bytes(8, "little", signed=True) + data)
                    except SENT as exc:
                        data = bytes([isinstance(exc, MemoryError)]) + str(exc).encode()
                        pipe.write((-len(data)).to_bytes(8, "little", signed=True) + data)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, open(read_fd, "rb")))


def receive(pipe) -> bytes:
    """The next block's bytes from a child's pipe; an exception the child sent is raised here."""
    if len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little", signed=True)
        if len(data := pipe.read(abs(size))) == abs(size):
            if size < 0:
                raise SENT[data[0]](data[1:].decode())
            return data
    raise ChildProcessError("adkyle.cli: a CSV writer process died")
