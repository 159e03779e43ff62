"""The process-per-role distributed runtime (DESIGN.md §10).

This package turns the single-process deployment into a real distributed
system: a **coordinator** process drives the round pipeline, **mix** role
processes run the engine's precompute and mix stages for the chains they
own, and a **mailbox** role process owns the
mailbox tier — each a separate OS process holding its own deterministic
replica of the deployment, wired together by
:class:`~repro.transport.tcp.TcpTransport` sockets.

The deterministic-replica model: every role calls
``Deployment.create(config)`` with the identical config (enforced by the
handshake's config digest), so all processes derive bit-identical servers,
chains, mailboxes, and users from the shared seed.  Honest per-round
randomness comes from per-(member, round) derived streams, so a role that
executes only *its* chains, announcing rounds lazily and out of order,
still produces exactly the bytes the in-process reference would — which is
what lets the parity suite demand bit-identical
:class:`~repro.engine.stages.RoundReport` fingerprints across
``{inproc, localhost-tcp}``.

Layout:

* :mod:`repro.runner.protocol` — control opcodes and the JSON
  serialisations of configs, fault plans, and scenario reports.
* :mod:`repro.runner.roles` — the role handlers and :class:`RoleNode`
  (one live replica + listening transport, usable in-process or as a
  child process).
* :mod:`repro.runner.remote` — the coordinator's side: its round engine
  (one ``MIX`` RPC per chain) and the scenario-control broadcaster.
* :mod:`repro.runner.harness` — ``run_coordinator`` (drive a scenario
  against live roles) and ``run_localhost`` (spawn everything as
  localhost subprocesses).
* ``python -m repro.runner`` — the launch CLI (:mod:`repro.runner.__main__`).
"""

from repro.runner.harness import default_owners, run_coordinator, run_localhost
from repro.runner.remote import DistributedControl, RemoteMixEngine
from repro.runner.roles import MailboxRoleHandler, MixRoleHandler, RoleHandler, RoleNode

__all__ = [
    "DistributedControl",
    "MailboxRoleHandler",
    "MixRoleHandler",
    "RemoteMixEngine",
    "RoleHandler",
    "RoleNode",
    "default_owners",
    "run_coordinator",
    "run_localhost",
]
