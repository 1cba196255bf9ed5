"""Reachability hook: record every ``src/repro`` code object a process enters.

Inert unless ``REACH_OUT`` names a directory.  With it set (the driver,
``python tools/reach``, sets it and puts this directory on
``PYTHONPATH``), every Python thread of the process runs under a profile
function, and the process appends ``file<TAB>first line`` of each code
object it entered under this repo's ``src/repro`` (found from this
file's own path) to ``REACH_OUT/<pid>.txt`` when it exits: through
``atexit``, or through ``os._exit``, which a forked ``local`` crew
member takes.  A forked child inherits its parent's set,
so its dump is a superset of its own calls; the driver takes the union.
"""
import os

_OUT = os.environ.get("REACH_OUT")
_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__)))),
    "src", "repro")

if _OUT:
    import atexit
    import sys
    import threading

    _seen = set()

    def _profile(frame, event, arg):
        _seen.add(frame.f_code)

    def _dump():
        lines = {f"{os.path.realpath(c.co_filename)}\t{c.co_firstlineno}\n"
                 for c in list(_seen)}
        lines = [ln for ln in lines if ln.startswith(_ROOT)]
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a") as f:
            f.writelines(sorted(lines))

    _real_exit = os._exit

    def _exit(code):
        sys.setprofile(None)
        _dump()
        _real_exit(code)

    os._exit = _exit
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
