#!/usr/bin/env python3
"""Sample where one command spends its CPU time, without `perf`.

    scripts/profile.py <delay_s> <seconds> -- <cmd> [args...]

Starts <cmd>, lets it run for <delay_s> seconds unsampled (set-up, warm
caches), samples every thread of it for <seconds> seconds, lets it run to
completion, and prints:

* the kernel / user split of the samples;
* the top symbols, kernel ones from /proc/kallsyms, user ones through
  /proc/<pid>/maps, `readelf` LOAD segments and `nm`;
* the busiest threads by name.

Sampling is one `perf_event_open` software CPU-clock event per CPU the
command may run on, one sample (IP and TID) per 100 us of CPU time. The
events are opened on the forked child before it execs <cmd> and are
inherited, so every thread and child process <cmd> ever starts is
sampled, including short-lived workers spawned by threads other than the
main one. An inherited per-task event can only be mmapped per CPU, hence
one event (and one ring buffer, drained every 20 ms) per CPU. The events
stay disabled through the delay and are enabled together, which enables
every inherited copy.

Files without a symbol table (a stripped libc) are printed as
`file+0xoffset`: the nearest dynamic symbol would name memset and
memmove `__nss_database_lookup`. The command's exit status is returned.
Needs a kernel that lets this user sample its own processes, kernel
included (root, or `perf_event_paranoid` <= 1).
"""

import bisect
import ctypes
import mmap
import os
import re
import struct
import subprocess
import sys
import time
from collections import Counter

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
FLAG_DISABLED = 1 << 0
FLAG_INHERIT = 1 << 1
FLAG_EXCLUDE_HV = 1 << 6
FLAG_COMM = 1 << 9
PERF_FLAG_FD_CLOEXEC = 1 << 3
PERF_EVENT_IOC_ENABLE = 0x2400
PERF_EVENT_IOC_DISABLE = 0x2401
PERF_RECORD_LOST = 2
PERF_RECORD_COMM = 3
PERF_RECORD_SAMPLE = 9
MISC_CPUMODE_MASK = 7
MISC_KERNEL = 1
SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5

PERIOD_NS = 100_000
DRAIN_S = 0.020
SNAPSHOT_S = 0.5
DATA_PAGES = 64
TOP = 30

PAGE = mmap.PAGESIZE
libc = ctypes.CDLL(None, use_errno=True)


def perf_event_open(pid, cpu):
    attr = bytearray(ATTR_SIZE)
    struct.pack_into("<IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_CPU_CLOCK, PERIOD_NS,
                     PERF_SAMPLE_IP | PERF_SAMPLE_TID, 0,
                     FLAG_DISABLED | FLAG_INHERIT | FLAG_EXCLUDE_HV | FLAG_COMM)
    buf = (ctypes.c_char * ATTR_SIZE).from_buffer(attr)
    nr = SYS_PERF_EVENT_OPEN[os.uname().machine]
    fd = libc.syscall(nr, buf, pid, cpu, -1, PERF_FLAG_FD_CLOEXEC)
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open(cpu {cpu}): {os.strerror(err)}")
    return fd


def ioctl(fd, request):
    if libc.ioctl(fd, request, 0) < 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


class Ring:
    """One event's mmapped ring buffer: a metadata page, then the data."""

    def __init__(self, fd):
        self.fd = fd
        self.size = DATA_PAGES * PAGE
        self.map = mmap.mmap(fd, PAGE + self.size, mmap.MAP_SHARED,
                             mmap.PROT_READ | mmap.PROT_WRITE)

    def bytes(self, pos, n):
        start = PAGE + pos % self.size
        end = start + n
        if end <= PAGE + self.size:
            return self.map[start:end]
        return self.map[start:] + self.map[PAGE:PAGE + end - PAGE - self.size]

    def drain(self):
        """Yields (type, misc, payload) for every record not yet read."""
        head = struct.unpack_from("<Q", self.map, 1024)[0]
        tail = struct.unpack_from("<Q", self.map, 1032)[0]
        while tail < head:
            kind, misc, size = struct.unpack("<IHH", self.bytes(tail, 8))
            if size < 8:
                break
            yield kind, misc, self.bytes(tail + 8, size - 8)
            tail += size
        struct.pack_into("<Q", self.map, 1032, head)


class Profile:
    def __init__(self, root):
        self.root = root
        self.samples = Counter()  # (pid, kernel, ip)
        self.threads = Counter()  # tid
        self.comm = {}            # tid -> thread name
        self.maps = {}            # pid -> [(start, end, offset, path)]
        self.lost = 0

    def take(self, ring):
        for kind, misc, payload in ring.drain():
            if kind == PERF_RECORD_SAMPLE:
                ip, pid, tid = struct.unpack_from("<QII", payload)
                kernel = misc & MISC_CPUMODE_MASK == MISC_KERNEL
                self.samples[(pid, kernel, ip)] += 1
                self.threads[tid] += 1
            elif kind == PERF_RECORD_COMM:
                _, tid = struct.unpack_from("<II", payload)
                name = payload[8:].split(b"\0", 1)[0].decode(errors="replace")
                self.comm[tid] = name
            elif kind == PERF_RECORD_LOST:
                self.lost += struct.unpack_from("<QQ", payload)[1]

    def snapshot(self):
        """Records the maps of every sampled process and the thread names."""
        pids = {self.root} | {pid for pid, _, _ in self.samples}
        for pid in pids:
            try:
                with open(f"/proc/{pid}/maps") as f:
                    self.maps[pid] = parse_maps(f)
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/comm") as f:
                        self.comm[int(tid)] = f.read().strip()
            except OSError:
                pass  # the process or thread is gone; keep what we had


def parse_maps(lines):
    maps = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6 or "x" not in fields[1]:
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        maps.append((start, end, int(fields[2], 16), fields[5].strip()))
    return maps


class KernelSymbols:
    def __init__(self):
        self.addrs, self.names = [], []
        try:
            with open("/proc/kallsyms") as f:
                entries = []
                for line in f:
                    parts = line.split()
                    if len(parts) >= 3 and parts[1] in "tTwW":
                        module = parts[3] if len(parts) > 3 else "[kernel]"
                        entries.append((int(parts[0], 16), f"{parts[2]} {module}"))
        except OSError:
            entries = []
        entries.sort()
        self.addrs = [a for a, _ in entries]
        self.names = [n for _, n in entries]

    def name(self, ip):
        i = bisect.bisect_right(self.addrs, ip) - 1
        if i < 0 or self.addrs[-1] == 0:
            return "[kernel, no kallsyms]"
        return self.names[i]


RUST_HASH = re.compile(r"::h[0-9a-f]{16}$")


class FileSymbols:
    """A file's LOAD segments (file offset -> address) and text symbols."""

    def __init__(self, path):
        self.base = os.path.basename(path)
        self.loads, self.addrs, self.syms = [], [], []
        try:
            out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                                 text=True, check=False).stdout
        except OSError:
            return
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                offset, vaddr, filesz = int(f[1], 16), int(f[2], 16), int(f[4], 16)
                self.loads.append((offset, vaddr, filesz))
        out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only", path],
                             capture_output=True, text=True, check=False).stdout
        for line in out.splitlines():
            f = line.split(maxsplit=3)
            if len(f) == 4 and f[2] in "tTwW":
                addr, size, name = int(f[0], 16), int(f[1], 16), f[3]
            elif len(f) == 3 and f[1] in "tTwW":
                addr, size, name = int(f[0], 16), None, f[2]
            else:
                continue
            self.addrs.append(addr)
            self.syms.append((size, RUST_HASH.sub("", name)))

    def name(self, file_offset):
        vaddr = next((file_offset - o + v for o, v, n in self.loads
                      if o <= file_offset < o + n), None)
        if vaddr is not None and self.addrs:
            i = bisect.bisect_right(self.addrs, vaddr) - 1
            if i >= 0:
                size, name = self.syms[i]
                if size is None or vaddr < self.addrs[i] + size:
                    return f"{name} [{self.base}]"
        return f"{self.base}+{file_offset:#x}"


class Symbolizer:
    def __init__(self, profile):
        self.profile = profile
        self.kernel = KernelSymbols()
        self.files = {}

    def name(self, pid, kernel, ip):
        if kernel:
            return self.kernel.name(ip)
        for start, end, offset, path in self.profile.maps.get(pid, ()):
            if start <= ip < end:
                if not path.startswith("/"):
                    return path or "[anonymous]"
                if path not in self.files:
                    self.files[path] = FileSymbols(path)
                return self.files[path].name(ip - start + offset)
        return f"[pid {pid}, unmapped]"


def start_gated(cmd):
    """Forks `cmd`, held before exec until the returned pipe is written."""
    gate_r, gate_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(gate_w)
        os.read(gate_r, 1)
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.close(gate_r)
    return pid, gate_w


def report(profile, window_s):
    total = sum(profile.samples.values())
    print(f"\nprofile: {total} samples ({PERIOD_NS // 1000} us of CPU each) in a "
          f"{window_s:.1f} s window, {len(profile.threads)} threads, "
          f"{profile.lost} lost", file=sys.stderr)
    if total == 0:
        return
    kernel = sum(n for (_, k, _), n in profile.samples.items() if k)
    print(f"kernel {100 * kernel / total:.1f}%  user {100 * (total - kernel) / total:.1f}%",
          file=sys.stderr)
    sym = Symbolizer(profile)
    by_symbol = Counter()
    for key, n in profile.samples.items():
        by_symbol[sym.name(*key)] += n
    print(f"\n{'share':>6}  {'samples':>7}  symbol", file=sys.stderr)
    for name, n in by_symbol.most_common(TOP):
        print(f"{100 * n / total:5.1f}%  {n:7}  {name}", file=sys.stderr)
    by_thread = Counter()
    for tid, n in profile.threads.items():
        by_thread[profile.comm.get(tid, f"tid {tid}")] += n
    print(f"\n{'share':>6}  {'samples':>7}  thread", file=sys.stderr)
    for name, n in by_thread.most_common(10):
        print(f"{100 * n / total:5.1f}%  {n:7}  {name}", file=sys.stderr)


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        sys.exit(__doc__.split("\n\n")[1])
    delay, seconds, cmd = float(argv[0]), float(argv[1]), argv[3:]
    pid, gate = start_gated(cmd)
    try:
        rings = [Ring(perf_event_open(pid, cpu)) for cpu in sorted(os.sched_getaffinity(0))]
    except OSError as err:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        sys.exit(f"profile.py: {err}")
    os.write(gate, b"x")
    os.close(gate)
    profile = Profile(pid)

    started = time.monotonic()
    enabled_at, status = None, None
    next_snapshot = started
    while status is None:
        now = time.monotonic()
        if enabled_at is None and now - started >= delay:
            for ring in rings:
                ioctl(ring.fd, PERF_EVENT_IOC_ENABLE)
            enabled_at = now
        if enabled_at is not None and now - enabled_at >= seconds:
            break
        for ring in rings:
            profile.take(ring)
        if now >= next_snapshot:
            profile.snapshot()
            next_snapshot = now + SNAPSHOT_S
        done, raw = os.waitpid(pid, os.WNOHANG)
        if done:
            status = raw
        else:
            time.sleep(DRAIN_S)
    window = time.monotonic() - enabled_at if enabled_at is not None else 0.0
    if status is None:
        profile.snapshot()
    for ring in rings:
        ioctl(ring.fd, PERF_EVENT_IOC_DISABLE)
        profile.take(ring)
    if status is None:
        status = os.waitpid(pid, 0)[1]
    report(profile, window)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
