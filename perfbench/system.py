"""The system under test: building it, running it as a child, driving its daemon.

Every figure about the program comes from the child process itself: wall
time around the child's life, and user+sys CPU and peak RSS from
`os.wait4` on that child. Nothing is read from the benchmark's own
process, so no shared process-lifetime high-water mark leaks in.
"""

import json
import os
import select
import socket
import subprocess
import sys
import threading
import time

HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")


class Binaries:
    def __init__(self, target_dir):
        release = os.path.join(target_dir, "release")
        self.typefuse = os.path.join(release, "typefuse")
        self.harness = os.path.join(release, "perfbench-harness")
        self.allocs = os.path.join(release, "perfbench-allocs")


def check_checkout(root):
    """The benchmark builds the program from the checkout it runs in."""
    needed = ["Cargo.toml", "Cargo.lock", os.path.join("crates", "cli", "Cargo.toml"), HARNESS_MANIFEST]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise SystemExit(f"perfbench: not a typefuse checkout, missing {', '.join(missing)}")


def build(root):
    """Build the shipped `typefuse` binary and the harness, release mode."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "typefuse-cli"], ["--manifest-path", HARNESS_MANIFEST]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return Binaries(target)


class ChildRun:
    """Wall time, CPU and peak RSS of one finished child process."""

    def __init__(self, status, wall_s, rusage):
        self.status = status
        self.wall_s = wall_s
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    @property
    def ok(self):
        return self.status == 0


def reap(proc, started, timeout=None):
    """Wait for `proc` and account its resources with wait4.

    After `timeout` seconds the child is killed, and still reaped.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                proc.kill()
                deadline = None
            else:
                time.sleep(0.005)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave no child behind.
        try:
            proc.kill()
            os.wait4(proc.pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass
        raise
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, rusage)


def run_child(cmd, stdout_path, timeout=60):
    """Run `cmd` with stdout written to `stdout_path`; kill it after `timeout` s."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        return reap(proc, started, timeout)


def check_call(cmd):
    """Run a set-up step; any failure aborts the benchmark without a result."""
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} failed: {done.stderr.decode(errors='replace')}")


class Daemon:
    """A `typefuse serve` child watching one file, and a protocol session.

    Requests go one JSON object per line over TCP; every reply is one
    envelope per line. The session is only used from one thread at a time
    (`lock` guards it when a poller thread shares it).
    """

    def __init__(self, binary, watched, checkpoint_dir, log_path):
        cmd = [binary, "serve", "--listen", "127.0.0.1:0", "--watch", f"s={watched}"]
        if checkpoint_dir is not None:
            cmd += ["--checkpoint-dir", checkpoint_dir]
        self.log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log)
        self.run = None
        self.lock = threading.Lock()
        try:
            # Line one on stdout is the `listening` envelope with the port.
            if not select.select([self.proc.stdout], [], [], 30)[0]:
                raise TimeoutError("daemon did not report its address")
            first = json.loads(self.proc.stdout.readline())
            host, port = first["payload"]["addr"].rsplit(":", 1)
            self.sock = socket.create_connection((host, int(port)), timeout=15)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.stream = self.sock.makefile("rwb")
            self.request({"op": "health"})
        except Exception:
            self.stop()
            raise

    def request(self, op):
        with self.lock:
            self.stream.write(json.dumps(op).encode() + b"\n")
            self.stream.flush()
            line = self.stream.readline()
        if not line:
            raise ConnectionError("daemon closed the session")
        reply = json.loads(line)
        if reply.get("kind") == "error":
            raise RuntimeError(f"daemon error: {reply['payload']}")
        return reply["payload"]

    def records(self):
        return self.request({"op": "health"})["records"]

    def stop(self):
        """Shut the daemon down, wait for it and return its ChildRun."""
        if self.run is not None:
            return self.run
        try:
            self.request({"op": "shutdown"})
        except Exception:
            self.proc.kill()
        for closer in ("stream", "sock"):
            try:
                getattr(self, closer).close()
            except Exception:
                pass
        self.run = reap(self.proc, self.started, timeout=30)
        self.proc.stdout.close()
        self.log.close()
        return self.run
