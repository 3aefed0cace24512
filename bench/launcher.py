"""Run one program; print its wall time (ns), exit code, peak RSS (KiB) and CPU time (ns).

usage: python -I -S launcher.py STDOUT_FILE STDERR_FILE PROGRAM [ARG...]

The benchmark starts every timed child through this small interpreter.
A child started by vfork (as subprocess and posix_spawn do) inherits its
parent's peak resident size in ru_maxrss, so a child of the large
benchmark process would report the benchmark's memory, not its own.
"""

import os
import sys
import time

out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
           (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
t0 = time.perf_counter_ns()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
t1 = time.perf_counter_ns()
print(t1 - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
      round((usage.ru_utime + usage.ru_stime) * 1e9))
