"""Host and build fingerprint attached to every benchmark record.

Two records are comparable only when their host fields agree: the same
CPU model, hardware thread count, last-level cache size, dispatched SIMD
level and CPU frequency governor. The source revision is recorded too,
but it is what a comparison is *about*, so it is not a host field.
"""

import glob
import hashlib
import os
import subprocess

HOST_FIELDS = ("cpu_model", "nproc", "llc", "simd", "governor")


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def llc_size():
    """Size of the highest cache level cpu0 reports, e.g. '107520K'."""
    best = (-1, "unknown")
    for idx in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(os.path.join(idx, "level"))
        size = _read(os.path.join(idx, "size"))
        if level is not None and size is not None and int(level) > best[0]:
            best = (int(level), size)
    return best[1]


def governor():
    return _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") or "unreadable"


def source_revision(root):
    """git sha when the tree is a checkout, else a hash of src/ contents."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def collect(root, simd_level):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count() or 1,
        "llc": llc_size(),
        "simd": simd_level,
        "governor": governor(),
        "revision": source_revision(root),
    }


class FingerprintMismatch(Exception):
    pass


def require_same_host(a, b):
    """Raise FingerprintMismatch naming every host field that differs."""
    diff = [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in HOST_FIELDS if a.get(k) != b.get(k)]
    if diff:
        raise FingerprintMismatch("refusing to compare records from different hosts: "
                                  + "; ".join(diff))
