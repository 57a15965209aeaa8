"""The compiled kernels of cstep.c: build, cache and load them.

cstep.c runs a block of Euler drift steps in one call, with the bits of the
guarded numpy step, and, linked with numpy's libnpyrandom.a, draws each lane's
Philox normals with the bits of numpy's standard_normal and runs a driftless
block (draws, cumulative sum and crossing scan) in one call (see its header).
The library is built at first use, never at import, with the host's ``cc``
and FLAGS, into $XDG_CACHE_HOME/nullrec (default ~/.cache/nullrec) under a
name that hashes the source, the compiler command, the machine and the numpy
version.  A build writes a temporary file and renames it into place, so
concurrent first uses cannot race; where the cache cannot be written, the
build goes to a temporary directory of this process.  Importing this module
builds and loads nothing.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading

import numpy as np

from .basis import _f1_trig, principal_f1, sinc

__all__ = ["CompileError", "Library", "Step", "Streams", "load", "term_kinds"]

CC = "cc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

# the kinds of psi that cstep.c evaluates
_F1, _SINC, _F1_SIN, _F1_COS = range(4)

MASK64 = (1 << 64) - 1
STATE = 11  # uint64 words of a lane's stream: key[2], counter[4], buffer[4], buffer_pos


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


def _build(source: bytes, command, directory: str, name: str) -> str:
    """directory/name, compiled from source unless it is there already.

    command(out) is the compiler's argument list, which reads the source from
    standard input.  OSError: directory/name cannot be written; CompileError:
    the compiler is missing or failed.
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
            proc = subprocess.run(command(tmp), input=source, capture_output=True)
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


def _npyrandom():
    """numpy's include directory and its libnpyrandom.a, or None where it ships no .a."""
    lib = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
    include = np.get_include()
    if not (os.path.isfile(lib)
            and os.path.isfile(os.path.join(include, "numpy", "random", "bitgen.h"))):
        return None
    return include, lib


def _source() -> bytes:
    """The C source that load builds: this package's cstep.c."""
    from importlib import resources

    return resources.files(__package__).joinpath("cstep.c").read_bytes()


class Library:
    """The loaded library: euler, its drift step, and the noise kernels.

    normals and driftless are None where noise_missing says why: numpy ships
    no libnpyrandom.a, or the probe of its ziggurat tables failed.
    """

    def __init__(self, euler, normals=None, driftless=None, noise_missing=None):
        self.euler, self.normals, self.driftless = euler, normals, driftless
        self.noise_missing = noise_missing


_init_lock = threading.Lock()


def load() -> Library:
    """The built library, loaded with ctypes.

    Builds the library unless the cache has it, linked with numpy's
    libnpyrandom.a where numpy ships it, and then probes numpy's ziggurat
    tables.  CompileError: no compiler works; OSError: the library cannot be
    loaded.
    """
    import ctypes
    import hashlib
    import platform

    source = _source()
    npyrandom = _npyrandom()
    head, tail = [CC, *FLAGS], ["-x", "c", "-", "-lm"]
    if npyrandom is not None:
        include, archive = npyrandom
        head += ["-I", include, "-DNULLREC_NORMALS"]
        tail[3:3] = ["-x", "none", archive]
    key = hashlib.sha256(b"\0".join([source, " ".join(head + tail).encode(),
                                     platform.machine().encode(),
                                     np.__version__.encode()])).hexdigest()
    name = f"cstep-{key[:16]}.so"

    def command(out):
        return [*head, "-o", out, *tail]

    try:
        path = _build(source, command, _cache_dir(), name)
    except OSError:
        path = _build(source, command, _private_dir(), name)
    lib = ctypes.CDLL(path)
    i64, i32, ptr, dbl = ctypes.c_int64, ctypes.c_int, ctypes.c_void_p, ctypes.c_double
    euler = lib.nullrec_euler_block
    euler.argtypes = [i64, i64, ptr, i64, dbl, dbl, i64, ptr, ptr, ptr, ptr, ptr, i64, i64,
                      ptr, i64]
    euler.restype = i64
    if npyrandom is None:
        return Library(euler, noise_missing=f"numpy {np.__version__} ships no libnpyrandom.a")
    with _init_lock:
        probed = lib.nullrec_normals_init() == 0
    if not probed:
        return Library(euler, noise_missing="the probe of numpy's ziggurat tables failed")
    normals, driftless = lib.nullrec_normals, lib.nullrec_driftless_block
    normals.argtypes = [i64, ptr, i64, ptr, i64]
    normals.restype = None
    driftless.argtypes = [i64, ptr, i64, ptr, i64, dbl, i32, dbl, ptr, ptr, i64, ptr]
    driftless.restype = i32
    return Library(euler, normals, driftless)


def _rows(a, dtype, lanes, width):
    """Whether a is a dtype (lanes, >= width) array with contiguous rows."""
    return (a.dtype == dtype and a.ndim == 2 and a.shape[0] == lanes and a.shape[1] >= width
            and (a.size == 0 or a.strides[1] == a.itemsize))


class Streams:
    """The Philox streams of a lane chunk, drawn by cstep.c.

    state (L, STATE) uint64 holds each lane's numpy Philox state, from key
    (seed, lane) at counter 0 with an empty buffer, as lane_rng(seed, lane)
    starts; each call moves it where numpy's standard_normal would.
    """

    def __init__(self, lib: Library, seed: int, lanes):
        self.lib = lib
        self.state = np.zeros((len(lanes), STATE), dtype=np.uint64)
        self.state[:, 0] = seed & MASK64
        self.state[:, 1] = [lane & MASK64 for lane in lanes]
        self.state[:, 10] = 4

    def fill(self, out):
        """Fill each lane's row of out (L, n) with its next n normals."""
        if not _rows(out, np.float64, len(self.state), out.shape[-1]):
            raise ValueError("out must be float64 (L, n) with contiguous rows")
        self.lib.normals(len(self.state), self.state.ctypes.data, out.shape[1],
                         out.ctypes.data, out.strides[0] // out.itemsize)

    def driftless(self, blk, steps, sig_sqdt, scan=None) -> bool:
        """Run steps [0, steps) of blk (L, >= steps + 1) without drift.

        Column 0 of blk holds the state before the block, and the state after
        each step goes in the next.  scan is None or (threshold, mode, hits,
        nhits): the crossing scan then runs on from each lane's mode (int32
        (L,), 0 or 1) and records its downcrossing steps in its row of hits
        (int32 (L, >= (steps + 2) // 2)) and their count in nhits (int64 (L,)).
        Returns False, with the streams and modes as they were, where a
        floating-point flag was raised.
        """
        lanes = len(self.state)
        if not _rows(blk, np.float64, lanes, steps + 1):
            raise ValueError("blk must be float64 (L, > steps) with contiguous rows")
        args = [0, 0.0, None, None, 0, None]
        if scan is not None:
            threshold, mode, hits, nhits = scan
            if not (_rows(hits, np.int32, lanes, (steps + 2) // 2)
                    and all(a.dtype == dtype and a.shape == (lanes,) and a.flags.c_contiguous
                            for a, dtype in ((mode, np.int32), (nhits, np.int64)))):
                raise ValueError("mode, hits and nhits do not fit the lanes and steps")
            args = [1, threshold, mode.ctypes.data, hits.ctypes.data,
                    hits.strides[0] // hits.itemsize, nhits.ctypes.data]
            saved_mode = mode.copy()
        saved = self.state.copy()
        if self.lib.driftless(lanes, self.state.ctypes.data, steps, blk.ctypes.data,
                              blk.strides[0] // blk.itemsize, sig_sqdt, *args):
            self.state[...] = saved
            if scan is not None:
                mode[...] = saved_mode
            return False
        return True


class Step:
    """nullrec_euler_block of lib bound to the drift terms of one lane chunk.

    kinds are term_kinds of the basis psis, terms the (slot, coefficient)
    pairs of the drift, and kept (K, L, width) takes, for each slot of
    kept_slots in turn, psi at the state before each step.  Steps run in
    tiles of `tile`, and the step saves each tile's noise in a buffer of its
    own.
    """

    def __init__(self, lib, kinds, terms, kept, kept_slots, tile):
        if (kept.dtype != np.float64 or kept.ndim != 3 or len(kept) != len(kept_slots)
                or (kept.size and kept.strides[2] != kept.itemsize) or tile < 1):
            raise ValueError("kept must be float64 (K, L, width), a row per lane and "
                             "kept slot, with contiguous rows, and tile positive")
        self.fn, self.kept, self.tile = lib.euler, kept, tile
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
