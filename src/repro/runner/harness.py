"""Drive a scenario across live roles; launch everything on localhost.

:func:`run_coordinator` is the coordinator process's body: build the local
replica, wire the TCP transport into it, install the
:class:`~repro.runner.remote.RemoteMixEngine` in place of its engine, and
run the plan through the ordinary :class:`~repro.faults.runner.ScenarioRunner`
— the identical code path the in-process reference uses, with the
distributed behaviour injected only through that engine subclass and the
runner's ``control`` hook.  That shared path is the parity argument: there
is no separate distributed round loop that could drift, and the mix roles
run the engine's own precompute and mix stages.

:func:`run_localhost` is the all-in-one harness: spawn the mix and mailbox
roles as subprocesses of this interpreter, wait for their ``READY`` lines,
spawn a coordinator subprocess over the collected peer map, and hand back
the scenario summary it wrote.  Used by the ``--role all`` CLI, the
distributed parity test, and the CI smoke job.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.errors import ConfigurationError, TransportError
from repro.faults.plan import FaultPlan
from repro.faults.runner import ScenarioReport, ScenarioRunner
from repro.runner import protocol
from repro.runner.remote import DistributedControl, RemoteMixEngine
from repro.transport.tcp import TcpTransport

__all__ = ["default_owners", "run_coordinator", "run_localhost"]

#: The mailbox role's process name ("mbx", not "mailbox", because the hub's
#: shard *servers* are named ``mailbox-N`` and owner-map keys must not
#: collide with peer names).
MAILBOX_ROLE = "mbx-0"
READY_PREFIX = "XRD-RUNNER-READY"


def default_owners(config: DeploymentConfig, num_mix: int) -> Dict[str, str]:
    """Node name → owning role, for the standard localhost layout.

    Mix servers round-robin across the mix roles; the whole mailbox tier —
    the ``mailbox-hub`` delivery target and every ``mailbox-N`` shard —
    belongs to the single mailbox role.  Users and the population need no
    entry: the transport's routing falls back to the envelope's *source*
    owner, which is exactly the authoritative side of a fetch.
    """
    if num_mix < 1:
        raise ConfigurationError("the harness needs at least one mix role")
    owners = {
        f"server-{index}": f"mix-{index % num_mix}"
        for index in range(config.num_servers)
    }
    owners["mailbox-hub"] = MAILBOX_ROLE
    for index in range(config.num_mailbox_servers):
        owners[f"mailbox-{index}"] = MAILBOX_ROLE
    return owners


def run_coordinator(
    config: DeploymentConfig,
    plan: FaultPlan,
    peers: Dict[str, Tuple[str, int]],
    owners: Dict[str, str],
    staggered: bool = False,
) -> ScenarioReport:
    """Drive ``plan`` against live roles; returns the scenario report.

    ``peers`` maps role names to listening addresses; ``owners`` maps node
    names to the role that owns them.  Sends the wiring to every role,
    runs the scenario, then broadcasts ``SHUTDOWN``.
    """
    deployment = Deployment.create(config)
    try:
        transport = TcpTransport(
            deployment.group,
            node_name="coordinator",
            config_digest=protocol.config_digest(config),
        )
        # The deployment owns the transport from here, so every exit closes it.
        deployment.use_transport(transport)
        transport.set_peers(peers, owners)
        role_peers = sorted(set(owners.values()))
        control = DistributedControl(transport, role_peers, plan.seed)
        control.send_peers(peers, owners)
        control.ping()
        backend = deployment.engine.backend
        deployment.engine = RemoteMixEngine(deployment, transport, owners, backend)
        runner = ScenarioRunner(deployment, plan, staggered=staggered, control=control)
        report = runner.run()
        control.shutdown()
        return report
    finally:
        deployment.close()


def run_localhost(
    config: DeploymentConfig,
    plan: FaultPlan,
    num_mix: int = 2,
    timeout: float = 300.0,
    staggered: bool = False,
    python: str = sys.executable,
    keep_report: Optional[str] = None,
) -> Dict:
    """Run the whole distributed deployment as localhost subprocesses.

    Spawns ``num_mix`` mix roles and one mailbox role, then a coordinator
    process that drives ``plan`` to completion (including any blame and
    recovery rounds) and writes its scenario summary; returns that summary
    as a dict.  ``keep_report`` additionally copies the summary JSON to the
    given path (the CI smoke job uploads it as an artifact).  ``timeout``
    bounds the whole run — READY lines, coordinator, role exits — and a
    child that misses it is a :class:`TransportError` naming the child.
    """
    deadline: Optional[float] = None

    def remaining() -> float:
        """Seconds left of ``timeout``, counted from the first call."""
        nonlocal deadline
        # xrdlint: disable=XRD102 - subprocess deadline, not protocol state
        now = time.monotonic()
        deadline = now + timeout if deadline is None else deadline
        return max(deadline - now, 0.0)

    remaining()  # start the clock
    workdir = tempfile.mkdtemp(prefix="xrd-runner-")
    children = []
    # The children must import the same ``repro`` this process runs (the
    # caller may have it on sys.path without PYTHONPATH — pytest's
    # ``pythonpath`` setting does not propagate to subprocesses).
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (package_root, env.get("PYTHONPATH")) if part
    )

    def fail(name: str, proc: subprocess.Popen, reason: str) -> TransportError:
        if proc.poll() is None:
            proc.kill()  # so its stderr ends here instead of at the child's leisure
        try:
            _, stderr = proc.communicate(timeout=5)
        except (subprocess.TimeoutExpired, ValueError):
            stderr = ""
        return TransportError(
            f"{name} {reason}" + (f"; stderr:\n{stderr[-2000:]}" if stderr else "")
        )

    def read_line(name: str, proc: subprocess.Popen) -> str:
        """``proc``'s first stdout line, read under the deadline."""
        data = b""
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while b"\n" not in data:
                if not selector.select(remaining()):
                    raise fail(name, proc, f"printed no READY line within {timeout}s")
                chunk = os.read(proc.stdout.fileno(), 4096)
                data += chunk
                if not chunk:  # the role exited
                    break
        return data.partition(b"\n")[0].decode(errors="replace").strip()

    try:
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w") as handle:
            json.dump(protocol.config_to_dict(config), handle, sort_keys=True)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as handle:
            json.dump(protocol.plan_to_dict(plan), handle, sort_keys=True)

        roles = [(f"mix-{index}", "mix") for index in range(num_mix)]
        roles.append((MAILBOX_ROLE, "mailbox"))
        for name, kind in roles:
            proc = subprocess.Popen(
                [python, "-m", "repro.runner", "--role", kind,
                 "--name", name, "--config", config_path],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            children.append((name, proc))

        peers: Dict[str, Tuple[str, int]] = {}
        for name, proc in children:
            line = read_line(name, proc)
            parts = line.split()
            if len(parts) != 4 or parts[0] != READY_PREFIX:
                raise fail(name, proc, f"failed to start (got {line!r})")
            peers[parts[1]] = (parts[2], int(parts[3]))

        peers_path = os.path.join(workdir, "peers.json")
        with open(peers_path, "w") as handle:
            json.dump(
                {
                    "peers": {name: list(address) for name, address in peers.items()},
                    "owners": default_owners(config, num_mix),
                },
                handle,
                sort_keys=True,
            )
        report_path = os.path.join(workdir, "report.json")
        command = [python, "-m", "repro.runner", "--role", "coordinator",
                   "--config", config_path, "--spec", plan_path,
                   "--peers", peers_path, "--report", report_path]
        if staggered:
            command.append("--staggered")
        coordinator = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        children.append(("coordinator", coordinator))
        try:
            coordinator.wait(timeout=remaining())
        except subprocess.TimeoutExpired as exc:
            raise fail("coordinator", coordinator, f"timed out after {timeout}s") from exc
        if coordinator.returncode != 0:
            raise fail(
                "coordinator", coordinator,
                f"exited with status {coordinator.returncode}",
            )
        with open(report_path) as handle:
            summary = json.load(handle)
        # The coordinator broadcast SHUTDOWN before exiting: the roles
        # should be draining out on their own.
        for name, proc in children[:-1]:
            try:
                proc.wait(timeout=remaining())
            except subprocess.TimeoutExpired as exc:
                raise fail(name, proc, "did not exit after SHUTDOWN") from exc
        if keep_report is not None:
            shutil.copyfile(report_path, keep_report)
        return summary
    finally:
        for _, proc in children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        shutil.rmtree(workdir, ignore_errors=True)
