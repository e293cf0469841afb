"""Starting, timing, querying and stopping `dlcirc serve --listen` children."""

import ctypes
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import time

import workloads

LISTENING = re.compile(rb"dlcirc serve: listening on [^\s:]+:(\d+)")
START_TIMEOUT_S = 120.0


class ServeError(RuntimeError):
    pass


def die_with_parent():
    """Runs in a child before exec: the kernel sends it SIGKILL if the
    benchmark process dies first, so no child outlives a killed run."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class ServeProcess:
    """One `dlcirc serve` child. Every instance is registered in `live` until
    stopped, so the caller can stop all of them on any exit path."""

    live = []

    def __init__(self, binary, workdir, program, graph, snapshot_dir=None):
        self.cmd = [str(binary), "serve", "--program", str(program),
                    "--graph", str(graph), "--semiring", workloads.SEMIRING,
                    "--construction", "auto", "--listen", "127.0.0.1:0",
                    "--max-batch", str(workloads.MAX_BATCH)]
        if snapshot_dir is not None:
            self.cmd += ["--snapshot-dir", str(snapshot_dir)]
        self.workdir = workdir
        self.proc = None
        self.port = None
        self.banner = b""

    def start(self, first_request):
        """Spawns the server and returns the seconds from spawn to the first
        ok response to `first_request` (a request line)."""
        env = {k: v for k, v in os.environ.items() if k != "DLCIRC_THREADS"}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, cwd=self.workdir, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE,
                                     preexec_fn=die_with_parent)
        ServeProcess.live.append(self)
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        deadline = t0 + START_TIMEOUT_S
        try:
            while self.port is None:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    raise ServeError("server did not start listening in time")
                chunk = os.read(self.proc.stderr.fileno(), 65536)
                if not chunk:
                    raise ServeError("server exited during start-up: " +
                                     self.banner.decode(errors="replace"))
                self.banner += chunk
                m = LISTENING.search(self.banner)
                if m:
                    self.port = int(m.group(1))
        finally:
            sel.close()
        response = self.request([first_request])[0]
        elapsed = time.perf_counter() - t0
        if not response.get("ok"):
            raise ServeError(f"first request failed: {response}")
        return elapsed

    def banner_text(self):
        return self.banner.decode(errors="replace")

    def request(self, lines):
        """Sends request lines on a fresh connection; returns the parsed
        responses in order."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=60) as s:
            s.sendall("".join(line + "\n" for line in lines).encode())
            buf = b""
            while buf.count(b"\n") < len(lines):
                chunk = s.recv(1 << 20)
                if not chunk:
                    raise ServeError("server closed a control connection")
                buf += chunk
        return [json.loads(line) for line in buf.decode().splitlines()]

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM in /proc status")

    def stop(self):
        """SIGINT (the server drains and exits 0); SIGKILL if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        if self in ServeProcess.live:
            ServeProcess.live.remove(self)

    @classmethod
    def stop_all(cls):
        for p in list(cls.live):
            p.stop()
