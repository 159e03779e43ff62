"""Mailbox servers (§5.1): per-user message stores trusted only for availability."""

from repro.mailbox.mailbox import Mailbox, MailboxServer, ShardedMailboxHub

__all__ = ["Mailbox", "MailboxServer", "ShardedMailboxHub"]
