"""Host transports: how a campaign executor reaches a worker host.

A :class:`Transport` answers five questions about a named host -- run a
command to completion, spawn a long-lived worker, copy a file there,
copy a file back, and "what is the mtime of this remote path?" (the
heartbeat primitive: a shard worker appends to its store's segment
files as it completes points, so supervision is clock math over the
newest mtime in the store's segment directory).

Three implementations ship:

* :class:`SshTransport` -- real ``ssh``/``scp`` against hosts from the
  campaign manifest.  Hosts are anything the local ssh config resolves
  (``user@host``, aliases); remote scratch and the remote python are
  constructor knobs.
* :class:`LocalTransport` -- hosts are worker slots on this machine
  that share the orchestrator's filesystem: commands run as local
  subprocesses and workers write the campaign's stores in place, so
  nothing ships.  ``--executor subprocess`` runs on it.
* :class:`LoopbackTransport` -- a :class:`LocalTransport` whose hosts
  are *labels* mapped to disjoint local scratch directories, with
  copies as file copies.  The full remote code path (ship, spawn,
  heartbeat, tarball back) runs with zero infrastructure, which is how
  CI and the failover tests exercise ``--executor ssh`` end to end.

Remote "paths" are plain strings joined with POSIX separators; only the
transport interprets them, so an executor never needs to know whether a
host is across the ocean or a directory away.
"""

from __future__ import annotations

import os
import posixpath
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence


class TransportError(RuntimeError):
    """A transport operation failed (copy, spawn, remote command)."""


def worker_env() -> Dict[str, str]:
    """Child-process environment where the running ``repro`` wins the import race."""
    import repro

    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    extra = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + os.pathsep + extra if extra else src_root
    return env


class Transport:
    """Reach one named host: run, spawn, push, pull, stat.

    The contract is synchronous and file-shaped on purpose: everything
    a campaign ships is either a command line (the worker), a tarball
    (the store) or a small JSON file (rebalanced points), and the only
    telemetry supervision needs is one mtime.
    """

    #: Registry name (the manifest's ``transport`` field).
    name = "abstract"

    #: Hosts see the orchestrator's filesystem: workers write the
    #: campaign's own stores in place and no store is shipped.
    shares_filesystem = False

    def run(
        self, host: str, command: Sequence[str],
        timeout: Optional[float] = None,
    ) -> subprocess.CompletedProcess:
        """Run ``command`` on ``host`` to completion, output captured."""
        raise NotImplementedError

    def spawn(self, host: str, command: Sequence[str], stdout) -> subprocess.Popen:
        """Start ``command`` on ``host``; stdout/stderr stream to ``stdout``."""
        raise NotImplementedError

    def push(self, host: str, local: str, remote: str) -> None:
        """Copy the local file ``local`` to ``remote`` on ``host``."""
        raise NotImplementedError

    def pull(self, host: str, remote: str, local: str) -> None:
        """Copy ``remote`` on ``host`` to the local file ``local``."""
        raise NotImplementedError

    def mtime(self, host: str, remote: str) -> Optional[float]:
        """Epoch mtime of ``remote`` on ``host``; None if absent/unreachable.

        For a directory: the newest mtime of the files in it, None if it
        holds none (a store's segment directory is its heartbeat).
        """
        raise NotImplementedError

    def scratch_root(self, host: str) -> str:
        """Directory on ``host`` campaigns may create scratch trees under."""
        raise NotImplementedError

    def python(self, host: str) -> str:
        """The python executable worker commands run under on ``host``."""
        raise NotImplementedError


class SshTransport(Transport):
    """Plain ``ssh``/``scp``: the production fleet transport.

    ``ssh_command``/``scp_command`` default to batch mode (no password
    prompts -- a fleet host that needs one is indistinguishable from a
    hung worker, so fail fast instead).  ``python`` names the remote
    interpreter, which must already have ``repro`` importable; the
    runbook in ``docs/campaigns.md`` covers provisioning.
    """

    name = "ssh"

    def __init__(
        self,
        python: str = "python3",
        scratch: str = "/tmp/repro-fleet",
        ssh_command: Sequence[str] = ("ssh", "-oBatchMode=yes"),
        scp_command: Sequence[str] = ("scp", "-q", "-oBatchMode=yes"),
    ) -> None:
        self._python = python
        self._scratch = scratch
        self._ssh = list(ssh_command)
        self._scp = list(scp_command)

    def ssh_argv(self, host: str, command: Sequence[str]) -> List[str]:
        """The local argv that runs ``command`` on ``host``.

        The remote side goes through a shell, so the command is
        shell-quoted as one string -- exposed separately from
        :meth:`run`/:meth:`spawn` so tests can pin the quoting without
        an ssh daemon.
        """
        return self._ssh + [host, shlex.join(command)]

    def run(self, host, command, timeout=None):
        return subprocess.run(
            self.ssh_argv(host, command),
            capture_output=True, text=True, timeout=timeout,
        )

    def spawn(self, host, command, stdout):
        return subprocess.Popen(
            self.ssh_argv(host, command),
            stdout=stdout, stderr=subprocess.STDOUT,
        )

    def push(self, host, local, remote):
        result = subprocess.run(
            self._scp + [str(local), f"{host}:{remote}"],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise TransportError(
                f"scp to {host}:{remote} failed: {result.stderr.strip()}"
            )

    def pull(self, host, remote, local):
        result = subprocess.run(
            self._scp + [f"{host}:{remote}", str(local)],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise TransportError(
                f"scp from {host}:{remote} failed: {result.stderr.strip()}"
            )

    @staticmethod
    def mtime_command(remote: str) -> List[str]:
        """The remote command behind :meth:`mtime`: one ``sh -c``.

        For a directory it stats every file in it (an empty directory
        fails like a missing path); ``stat -c %Y`` is GNU, ``stat -f
        %m`` the BSD fallback.
        """
        return ["sh", "-c",
                f"p={shlex.quote(remote)}; "
                'if [ -d "$p" ]; then set -- "$p"/*; else set -- "$p"; fi; '
                '[ -e "$1" ] || exit 1; '
                'stat -c %Y "$@" 2>/dev/null || stat -f %m "$@"']

    def mtime(self, host, remote):
        # Any failure -- no file yet, host unreachable -- reads as "no
        # heartbeat".
        result = self.run(host, self.mtime_command(remote))
        if result.returncode != 0:
            return None
        try:
            return max(float(line) for line in result.stdout.split())
        except ValueError:
            return None

    def scratch_root(self, host):
        return self._scratch

    def python(self, host):
        return self._python


def _safe_label(host: str) -> str:
    """A host label as a single safe path component."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", str(host)).strip("._") or "host"
    return cleaned


class LocalTransport(Transport):
    """Worker slots on this machine, sharing the orchestrator's filesystem.

    Hosts are slot labels (``local-1`` ...); commands run as local
    subprocesses with the running ``repro`` first on ``PYTHONPATH``.
    Every slot sees the campaign root, so workers write the shard
    stores in place and :meth:`push`/:meth:`pull` have nothing to do.
    Not a registry entry: ``--executor subprocess`` is how a campaign
    gets one.
    """

    name = "local"
    shares_filesystem = True

    def run(self, host, command, timeout=None):
        return subprocess.run(
            list(command), capture_output=True, text=True,
            timeout=timeout, env=worker_env(),
        )

    def spawn(self, host, command, stdout):
        return subprocess.Popen(
            list(command), stdout=stdout, stderr=subprocess.STDOUT,
            env=worker_env(),
        )

    def push(self, host, local, remote):
        pass

    def pull(self, host, remote, local):
        pass

    def mtime(self, host, remote):
        return newest_mtime(remote)

    def python(self, host):
        return sys.executable


class LoopbackTransport(LocalTransport):
    """"Remote" hosts as local scratch directories, workers as subprocesses.

    Every host label gets its own directory under ``base`` and its own
    store/scratch tree inside it, so a three-"host" campaign genuinely
    ships tarballs between three disjoint stores -- the whole ssh
    executor code path (forward-ship, spawn, heartbeat polling, tarball
    back, rebalance) runs unmodified with subprocesses standing in for
    ssh sessions.
    """

    name = "loopback"
    shares_filesystem = False

    def __init__(self, base: Optional[str] = None) -> None:
        self.base = Path(
            base if base is not None
            else tempfile.mkdtemp(prefix="repro-loopback-")
        )

    def host_dir(self, host: str) -> Path:
        path = self.base / _safe_label(host)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def push(self, host, local, remote):
        try:
            Path(remote).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(str(local), str(remote))
        except OSError as exc:
            raise TransportError(f"copy to {host}:{remote} failed: {exc}") from exc

    def pull(self, host, remote, local):
        try:
            Path(local).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(str(remote), str(local))
        except OSError as exc:
            raise TransportError(
                f"copy from {host}:{remote} failed: {exc}"
            ) from exc

    def scratch_root(self, host):
        return str(self.host_dir(host) / "scratch")


#: Transport registry: the manifest's ``transport`` field resolves here.
TRANSPORTS = {
    SshTransport.name: SshTransport,
    LoopbackTransport.name: LoopbackTransport,
}


def resolve_transport(spec, root: Optional[str] = None) -> Optional[Transport]:
    """A :class:`Transport` from a manifest/CLI spelling (or instance).

    ``None`` passes through (the executor picks its default), an
    instance passes through untouched (tests inject doctored
    transports), and a registry name is constructed -- ``loopback``
    rooted under ``<root>/remote-scratch`` when a campaign root is
    given, so its per-host trees land somewhere inspectable.
    """
    if spec is None or isinstance(spec, Transport):
        return spec
    name = str(spec)
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {name!r}; available: "
            f"{', '.join(sorted(TRANSPORTS))}"
        )
    if name == LoopbackTransport.name and root is not None:
        base = Path(os.path.expanduser(str(root))) / "remote-scratch"
        return LoopbackTransport(base=str(base))
    return TRANSPORTS[name]()


def newest_mtime(path) -> Optional[float]:
    """Epoch mtime of ``path``; for a directory, of its newest file.

    None when ``path`` is missing or a directory holding no files -- a
    store whose worker has written nothing has no heartbeat yet.
    """
    try:
        if not os.path.isdir(path):
            return os.stat(path).st_mtime
        with os.scandir(path) as entries:
            times = [
                entry.stat().st_mtime
                for entry in entries
                if not entry.name.startswith(".") and entry.is_file()
            ]
    except OSError:
        return None
    return max(times, default=None)


def join_remote(*parts: str) -> str:
    """Join remote path components (POSIX separators, transports own meaning)."""
    return posixpath.join(*parts)
