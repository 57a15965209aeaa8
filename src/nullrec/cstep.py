"""The Euler drift step in C: build, cache and load cstep.c.

cstep.c runs a block of Euler drift steps in one call, with the bits of the
guarded numpy step (see its header).  The library is built at first use,
never at import, with the host's ``cc`` and FLAGS, into
$XDG_CACHE_HOME/nullrec (default ~/.cache/nullrec) under a name that hashes
the source, the compiler command and the machine.  A build writes a temporary
file and renames it into place, so concurrent first uses cannot race; where
the cache cannot be written, the build goes to a temporary directory of this
process.  Importing this module builds and loads nothing.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading

import numpy as np

from .basis import _f1_trig, principal_f1, sinc

__all__ = ["CompileError", "Step", "load", "term_kinds"]

CC = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# the kinds of psi that cstep.c evaluates
_F1, _SINC, _F1_SIN, _F1_COS = range(4)


class CompileError(RuntimeError):
    """The C compiler is missing or failed."""


def term_kinds(psis):
    """(kind, frequency) of each psi for cstep.c, or None if one is not built in.

    psis must be unwrapped: a built-in psi is principal_f1, sinc or a partial
    of _f1_trig with an int k and np.sin or np.cos, and nothing else.  These
    names are unwrapped too, since a tracer may rebind them to wrappers.
    """
    f1, sinc_ = inspect.unwrap(principal_f1), inspect.unwrap(sinc)
    kinds = []
    for f in psis:
        if f is f1:
            kinds.append((_F1, 0.0))
        elif f is sinc_:
            kinds.append((_SINC, 0.0))
        elif (isinstance(f, functools.partial) and f.func is _f1_trig and not f.args
              and f.keywords.keys() == {"k", "trig"} and type(f.keywords["k"]) is int
              and any(f.keywords["trig"] is trig for trig in (np.sin, np.cos))):
            kind = _F1_SIN if f.keywords["trig"] is np.sin else _F1_COS
            kinds.append((kind, float(f.keywords["k"])))
        else:
            return None
    return tuple(kinds)


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "nullrec")


_private = []  # this process's TemporaryDirectory, once the cache has failed it
_private_lock = threading.Lock()


def _private_dir() -> str:
    import tempfile

    with _private_lock:
        if not _private:
            _private.append(tempfile.TemporaryDirectory(prefix="nullrec-"))
    return _private[0].name


def _build(source: bytes, directory: str, name: str) -> str:
    """directory/name, compiled from source unless it is there already.

    OSError: directory/name cannot be written; CompileError: the compiler is
    missing or failed.
    """
    import subprocess
    import tempfile

    path = os.path.join(directory, name)
    if os.path.exists(path):
        return path
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        try:
            proc = subprocess.run([CC, *FLAGS, "-x", "c", "-o", tmp, "-", "-lm"],
                                  input=source, capture_output=True)
        except OSError as exc:
            raise CompileError(f"{CC}: {exc}") from exc
        if proc.returncode != 0:
            detail = proc.stderr.decode(errors="replace").strip().splitlines()
            raise CompileError(f"{CC} exited with {proc.returncode}"
                               + (f": {detail[-1]}" if detail else ""))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load():
    """nullrec_euler_block of the built library, loaded with ctypes.

    Builds the library unless the cache has it.  CompileError: no compiler
    works; OSError: the library cannot be loaded.
    """
    import ctypes
    import hashlib
    import platform
    from importlib import resources

    source = resources.files(__package__).joinpath("cstep.c").read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join((CC, *FLAGS)).encode(),
                                     platform.machine().encode()])).hexdigest()
    name = f"cstep-{key[:16]}.so"
    try:
        path = _build(source, _cache_dir(), name)
    except OSError:
        path = _build(source, _private_dir(), name)
    fn = ctypes.CDLL(path).nullrec_euler_block
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    fn.argtypes = [i64, i64, ptr, i64, dbl, dbl, i64, ptr, ptr, ptr, ptr, ptr, i64, i64,
                   ptr, i64]
    fn.restype = i64
    return fn


class Step:
    """nullrec_euler_block bound to the drift terms of one lane chunk.

    kinds are term_kinds of the basis psis, terms the (slot, coefficient)
    pairs of the drift, and kept (K, L, width) takes, for each slot of
    kept_slots in turn, psi at the state before each step.  Steps run in
    tiles of `tile`, and the step saves each tile's noise in a buffer of its
    own.
    """

    def __init__(self, fn, kinds, terms, kept, kept_slots, tile):
        if (kept.dtype != np.float64 or kept.ndim != 3 or len(kept) != len(kept_slots)
                or (kept.size and kept.strides[2] != kept.itemsize) or tile < 1):
            raise ValueError("kept must be float64 (K, L, width), a row per lane and "
                             "kept slot, with contiguous rows, and tile positive")
        self.fn, self.kept, self.tile = fn, kept, tile
        self.kind = np.array([kinds[i][0] for i, _ in terms], dtype=np.int32)
        self.freq = np.array([kinds[i][1] for i, _ in terms])
        self.coef = np.array([c for _, c in terms])
        self.keep = np.array([kept_slots.index(i) if i in kept_slots else -1
                              for i, _ in terms], dtype=np.int64)
        self.save = np.empty(kept.shape[1] * tile)
        self.args = (len(terms), self.kind.ctypes.data, self.freq.ctypes.data,
                     self.coef.ctypes.data, self.keep.ctypes.data, kept.ctypes.data,
                     *(s // kept.itemsize for s in kept.strides[:2]),
                     self.save.ctypes.data, tile)

    def __call__(self, blk, steps, sig_sqdt, dt) -> int:
        """Run steps [0, steps) of blk (L, >= steps + 1) as cstep.c does.

        blk is float64 with contiguous rows, and kept has its L rows of at
        least steps.  Returns steps, or the first step of the tile that raised
        a floating-point flag or left a state non-finite: from that step on,
        blk holds its noise again.
        """
        lanes = blk.shape[0]
        if (blk.dtype != np.float64 or blk.ndim != 2 or blk.strides[1] != blk.itemsize
                or blk.shape[1] <= steps or self.kept.shape[1] != lanes
                or self.kept.shape[2] < steps):
            raise ValueError("blk does not fit the step's lanes and kept rows")
        return self.fn(lanes, steps, blk.ctypes.data, blk.strides[0] // blk.itemsize,
                       sig_sqdt, dt, *self.args)
