"""Where on-disk caches live and how entries are written (leaf module).

Shared by :mod:`repro.cache` (pickled pipelines / baselines / search
scores) and the simulator's stage-code store
(:mod:`repro.pipette.batchpath`), which cannot import :mod:`repro.cache`
without a cycle (``cache`` -> ``runtime.executor`` -> ``pipette``). One
convention for both: ``REPRO_CACHE_DIR`` (default
``~/.cache/phloem-repro``) holds one sub-directory per store,
``REPRO_NO_CACHE=1`` turns every disk layer off, and entries appear
atomically (write-then-rename) so concurrent readers never observe a
partial file.
"""

import os


def cache_dir():
    """The on-disk cache directory, or ``None`` when disk caching is off."""
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    path = os.environ.get("REPRO_CACHE_DIR")
    if not path:
        path = os.path.join(os.path.expanduser("~"), ".cache", "phloem-repro")
    return path


def write_atomic(path, data):
    """Write ``data`` (bytes) to ``path`` via a temp file + rename.

    Best-effort: returns False (leaving no temp file behind) when the
    directory cannot be created or written — every disk layer sits behind
    an in-process one that already holds the value.
    """
    # tempfile pulls in shutil, bz2, lzma and random (~5 ms): a process that
    # only takes hits never stores, so only one that stores imports it.
    import tempfile

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True
