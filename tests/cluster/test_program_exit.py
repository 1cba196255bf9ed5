"""A program reaps what its crews hired before it exits.

A ``local`` crew outlives its runs and goes with the thread that launched
it -- but the main thread never ends before the interpreter does, so the
crew retires when the program exits, before any exit hook registered
ahead of ``repro``: such a hook finds no child process left, running or
unreaped.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.transport import available_transports

pytestmark = pytest.mark.transport

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import atexit, operator, os


@atexit.register  # before repro is imported, so it runs after repro's hooks
def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    else:
        print("a child is left")


from repro.cluster import MachineSpec, run_spmd


def rank_fn(comm):
    return comm.allreduce(comm.rank, op=operator.add)


machine = MachineSpec(nodes=3, cores_per_node=1, transport="local")
for _ in range(2):  # a hired crew, then one that was sent the run
    print(run_spmd(machine, rank_fn, nranks=3).results)
"""


@pytest.mark.skipif("local" not in available_transports(nranks=3),
                    reason="LocalTransport unavailable (no fork)")
def test_a_program_that_ran_local_leaves_no_child_at_exit():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[3, 3, 3]"] * 2 + ["no child left"]
