"""A real-socket transport: every envelope crosses a TCP connection.

:class:`TcpTransport` implements the synchronous :class:`~repro.transport.
base.Transport` contract over asyncio sockets (DESIGN.md §10).  An asyncio
event loop runs on a dedicated daemon thread; ``deliver`` serialises the
envelope with :func:`~repro.transport.frames.encode_envelope_frame`, sends
it as a length-prefixed request frame to the peer that *owns* the
destination node, and returns the payload decoded from the peer's framed
reply — the bytes have crossed a real socket and been parsed by another
process (or, standalone, this process's own listener).

Routing: the transport carries an *owner map* (node name → peer name) and a
*peer map* (peer name → address).  An envelope goes to the owner of its
destination; when the destination is local, to the owner of its source
(whoever holds the authoritative state — e.g. a mailbox fetch is answered
by the mailbox process); and when both are local, it loops through this
process's own listener, so every envelope crosses a socket without
exception.  With no maps at all (the standalone ``transport="tcp"`` config
knob) the transport runs a loopback *reflector*: its own listener parses
each inbound envelope, checks its payload's whole structure against the
received buffer, and sends the same payload bytes back, which the requester
checks again — so every envelope of a single-process deployment still
crosses a real socket and parses at both ends.

What a listener does with inbound requests is pluggable via
:class:`RequestHandler` — the process-per-role runner
(:mod:`repro.runner.roles`) installs handlers that apply mailbox deliveries
to the local shard state or execute a chain's mixing; the default
:class:`ReflectingHandler` just proves the bytes parse.  Role handlers run
on a small thread pool, never on the event loop, so a handler is free to
call ``deliver`` itself (a mix server forwarding a batch to the next chain
member in another process) without deadlocking the loop; the reflector's
bounded validate-and-return runs on the loop itself
(:attr:`RequestHandler.runs_on_loop`).

Failure behaviour is fail-fast, matching the synchronous round model: a
refused connection, a rejected handshake, a mid-request disconnect, or a
reply timeout surfaces as :class:`~repro.errors.TransportError` to the
caller — there are no retries and no buffering, because a round that lost a
message cannot be bit-identical to the reference anyway (DESIGN.md §10.4).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro import trace
from repro.errors import DecodingError, TransportError
from repro.transport import frames
from repro.transport.base import Transport
from repro.transport.codec import decode_payload, encode_payload
from repro.transport.envelope import Envelope

__all__ = ["RequestHandler", "ReflectingHandler", "TcpTransport"]


class RequestHandler:
    """What a listening endpoint does with inbound requests.

    Handlers run on the transport's worker thread pool, return the reply
    body bytes, and signal failure by raising — the transport turns the
    exception into an ``ERROR`` frame for the requester.  A handler whose
    work is bounded and never calls back into the transport may set
    ``runs_on_loop`` and skip the hop to the pool.
    """

    #: Run on the event loop thread instead of the worker pool.  Only for
    #: bounded work that never blocks and never calls ``deliver``: the loop
    #: would deadlock waiting for its own reply.
    runs_on_loop = False

    def handle_envelope(self, envelope: Envelope) -> bytes:
        """Consume one inbound envelope; return the reply payload bytes."""
        raise NotImplementedError

    def handle_control(self, body: bytes) -> bytes:
        """Consume one control message; return the reply bytes."""
        raise TransportError("this node accepts no control messages")


class ReflectingHandler(RequestHandler):
    """Default listener behaviour: validate the envelope, send its payload back.

    By the time the handler sees the envelope its frame has been parsed and
    its payload checked against the received buffer (every batch kind is a
    view validated once; see :mod:`repro.transport.codec`).  Re-encoding a
    view is its count and blob, so the reply is the request's payload bytes
    unchanged — every accepted encoding is canonical — and the requester
    validates them again.  That is bounded work that never calls back into
    the transport, so it runs on the event loop.
    """

    runs_on_loop = True

    def __init__(self, group: Any) -> None:
        self.group = group

    def handle_envelope(self, envelope: Envelope) -> bytes:
        return encode_payload(self.group, envelope)


class _Connection:
    """One established outbound connection (event-loop side only)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.pending: Dict[int, asyncio.Future] = {}
        self.pump_task: Optional[asyncio.Task] = None
        self.closed = False


async def _read_frame(reader: asyncio.StreamReader) -> Tuple[int, int, bytes]:
    prefix = await reader.readexactly(4)
    length = int.from_bytes(prefix, "big")
    payload = await reader.readexactly(length)
    return frames.decode_frame_payload(payload)


class TcpTransport(Transport):
    """Length-prefixed envelope frames over real asyncio TCP sockets."""

    name = "tcp"

    def __init__(
        self,
        group: Any,
        node_name: str = "node",
        handler: Optional[RequestHandler] = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        start_server: bool = True,
        group_kind: Optional[str] = None,
        config_digest: bytes = b"",
        request_timeout: float = 120.0,
        handler_threads: int = 8,
    ) -> None:
        self.group = group
        self.node_name = node_name
        self.group_kind = group_kind if group_kind is not None else type(group).__name__
        self.config_digest = config_digest
        self.request_timeout = request_timeout
        self.handler = handler if handler is not None else ReflectingHandler(group)
        #: peer name → (host, port); node name → peer name.
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._owners: Dict[str, str] = {}
        self._closed = False
        self._close_lock = threading.Lock()
        self._request_ids = itertools.count(1)  # event-loop side only
        self._connections: Dict[str, _Connection] = {}  # event-loop side only
        self._connect_locks: Dict[str, asyncio.Lock] = {}  # event-loop side only
        self._accepted_writers: set = set()  # event-loop side only
        self._handler_tasks: set = set()  # event-loop side only
        self._server = None
        self.local_address: Optional[Tuple[str, int]] = None
        self._executor = ThreadPoolExecutor(
            max_workers=handler_threads, thread_name_prefix="xrd-tcp-handler"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=f"xrd-tcp-{node_name}", daemon=True
        )
        self._thread.start()
        if start_server:
            self.local_address = self._call(self._start_server(listen_host, listen_port))

    # -- synchronous facade over the loop thread --------------------------------

    def _call(self, coro: Awaitable, timeout: Optional[float] = None) -> Any:
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TransportError(
                f"{self.node_name}: request timed out after {timeout}s"
            ) from None

    # -- wiring -----------------------------------------------------------------

    def set_peers(
        self, peers: Dict[str, Tuple[str, int]], owners: Dict[str, str]
    ) -> None:
        """Install the peer address map and the node-ownership map (both
        built before either is replaced)."""
        self._peers, self._owners = (
            {name: (host, int(port)) for name, (host, port) in peers.items()}, dict(owners)
        )

    def _route(self, envelope: Envelope) -> str:
        """The peer that must observe this envelope (see the module docstring)."""
        owner = self._owners.get(envelope.destination)
        if owner is None or owner == self.node_name:
            owner = self._owners.get(envelope.source, owner)
        if owner is None or owner == self.node_name:
            return self.node_name
        return owner

    # -- Transport contract ------------------------------------------------------

    def _frame(self, envelope: Envelope) -> bytes:
        """Frame ``envelope``; its link record carries the payload's wire bytes,
        never the routing header."""
        payload_wire = encode_payload(self.group, envelope)
        trace.link(envelope, len(payload_wire))
        return frames.frame_envelope(envelope, payload_wire)

    def deliver(self, envelope: Envelope) -> object:
        wire = self._frame(envelope)
        reply = self.request(self._route(envelope), frames.FRAME_ENVELOPE, wire)
        return decode_payload(self.group, envelope.kind, reply)

    def deliver_many(self, envelopes: Sequence[Envelope]) -> List[object]:
        """Pipelined batch delivery: all requests in flight concurrently."""
        envelopes = list(envelopes)
        items: List[Tuple[str, int, bytes]] = []
        for envelope in envelopes:
            items.append((self._route(envelope), frames.FRAME_ENVELOPE, self._frame(envelope)))
        replies = self.request_batch(items)
        return [
            decode_payload(self.group, envelope.kind, reply)
            for envelope, reply in zip(envelopes, replies)
        ]

    # -- requests ----------------------------------------------------------------

    def request(self, peer: str, frame_type: int, body: bytes) -> bytes:
        """Send one request frame to ``peer``; block for the correlated reply."""
        if self._closed:
            raise TransportError(f"{self.node_name}: transport is closed")
        return self._call(
            self._request_async(peer, frame_type, body), self.request_timeout
        )

    def request_batch(self, items: Sequence[Tuple[str, int, bytes]]) -> List[bytes]:
        """Issue several requests concurrently; replies in request order."""
        if self._closed:
            raise TransportError(f"{self.node_name}: transport is closed")
        if not items:
            return []

        async def _gather() -> List[bytes]:
            return await asyncio.gather(
                *(self._request_async(peer, frame_type, body)
                  for peer, frame_type, body in items)
            )

        return list(self._call(_gather(), self.request_timeout))

    def control(self, peer: str, body: bytes) -> bytes:
        """Send one runner control message (opaque to the transport)."""
        return self.request(peer, frames.FRAME_CONTROL, body)

    async def _request_async(self, peer: str, frame_type: int, body: bytes) -> bytes:
        conn = await self._ensure_connection(peer)
        request_id = next(self._request_ids)
        reply_future = self._loop.create_future()
        conn.pending[request_id] = reply_future
        data = frames.encode_frame(frame_type, request_id, body)
        try:
            async with conn.write_lock:
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            conn.pending.pop(request_id, None)
            raise TransportError(f"connection to {peer} failed: {exc}") from exc
        reply_type, reply_body = await reply_future
        if reply_type == frames.FRAME_ERROR:
            raise TransportError(
                f"peer {peer} reported: {frames.decode_error(reply_body)}"
            )
        if reply_type != frames.FRAME_REPLY:
            raise TransportError(f"unexpected frame type {reply_type} from {peer}")
        return reply_body

    # -- outbound connections ----------------------------------------------------

    def _address_of(self, peer: str) -> Tuple[str, int]:
        if peer == self.node_name:
            if self.local_address is None:
                raise TransportError(
                    f"{self.node_name}: self-routed envelope but no local listener"
                )
            return self.local_address
        address = self._peers.get(peer)
        if address is None:
            raise TransportError(
                f"{self.node_name}: no route to peer {peer!r} "
                f"(known: {sorted(self._peers)})"
            )
        return address

    async def _ensure_connection(self, peer: str) -> _Connection:
        lock = self._connect_locks.setdefault(peer, asyncio.Lock())
        async with lock:
            conn = self._connections.get(peer)
            if conn is not None and not conn.closed:
                return conn
            host, port = self._address_of(peer)
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError as exc:
                raise TransportError(
                    f"cannot connect to peer {peer!r} at {host}:{port}: {exc}"
                ) from exc
            hello = frames.Hello(
                node=self.node_name,
                group_kind=self.group_kind,
                config_digest=self.config_digest,
            )
            writer.write(
                frames.encode_frame(frames.FRAME_HELLO, 0, frames.encode_hello(hello))
            )
            await writer.drain()
            try:
                reply_type, _, reply_body = await _read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError) as exc:
                writer.close()
                raise TransportError(
                    f"peer {peer!r} closed the connection during the handshake"
                ) from exc
            if reply_type == frames.FRAME_ERROR:
                writer.close()
                raise TransportError(
                    f"peer {peer!r} rejected the handshake: "
                    f"{frames.decode_error(reply_body)}"
                )
            if reply_type != frames.FRAME_HELLO_ACK:
                writer.close()
                raise TransportError(
                    f"peer {peer!r} answered the handshake with frame type {reply_type}"
                )
            frames.decode_hello(reply_body)  # the peer's asserted identity must parse
            conn = _Connection(reader, writer)
            conn.pump_task = self._loop.create_task(self._pump(peer, conn))
            self._connections[peer] = conn
            return conn

    async def _pump(self, peer: str, conn: _Connection) -> None:
        """Match inbound reply frames to their pending requests."""
        try:
            while True:
                reply_type, request_id, body = await _read_frame(conn.reader)
                future = conn.pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result((reply_type, body))
        except (asyncio.IncompleteReadError, ConnectionError, DecodingError,
                asyncio.CancelledError) as exc:
            conn.closed = True
            for future in conn.pending.values():
                if not future.done():
                    future.set_exception(
                        TransportError(f"connection to {peer} lost: {exc!r}")
                    )
            conn.pending.clear()
            if self._connections.get(peer) is conn:
                del self._connections[peer]
            conn.writer.close()

    # -- the listener ------------------------------------------------------------

    async def _start_server(self, host: str, port: int) -> Tuple[str, int]:
        self._server = await asyncio.start_server(self._serve_client, host, port)
        sockname = self._server.sockets[0].getsockname()
        return (sockname[0], sockname[1])

    def _check_hello(self, hello: frames.Hello) -> Optional[str]:
        """Why an inbound peer must be rejected, or ``None`` to accept."""
        if hello.group_kind != self.group_kind:
            return (
                f"group kind mismatch: peer {hello.node!r} runs "
                f"{hello.group_kind!r}, this node runs {self.group_kind!r}"
            )
        if self.config_digest and hello.config_digest and (
            hello.config_digest != self.config_digest
        ):
            return (
                f"deployment config digest mismatch with peer {hello.node!r}: "
                "the processes were launched from different configs"
            )
        return None

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        self._accepted_writers.add(writer)
        try:
            try:
                frame_type, request_id, body = await _read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError, DecodingError):
                return
            if frame_type != frames.FRAME_HELLO:
                writer.write(frames.encode_frame(
                    frames.FRAME_ERROR, request_id,
                    frames.encode_error("expected a HELLO frame first"),
                ))
                await writer.drain()
                return
            try:
                hello = frames.decode_hello(body)
                rejection = self._check_hello(hello)
            except DecodingError as exc:
                hello, rejection = None, str(exc)
            if rejection is not None:
                writer.write(frames.encode_frame(
                    frames.FRAME_ERROR, request_id, frames.encode_error(rejection)
                ))
                await writer.drain()
                return
            own_hello = frames.Hello(
                node=self.node_name,
                group_kind=self.group_kind,
                config_digest=self.config_digest,
            )
            writer.write(frames.encode_frame(
                frames.FRAME_HELLO_ACK, request_id, frames.encode_hello(own_hello)
            ))
            await writer.drain()
            while True:
                frame_type, request_id, body = await _read_frame(reader)
                task = self._loop.create_task(
                    self._handle_request(frame_type, request_id, body, writer, write_lock)
                )
                self._handler_tasks.add(task)
                task.add_done_callback(self._handler_tasks.discard)
        except (asyncio.IncompleteReadError, ConnectionError, DecodingError):
            pass  # peer went away; its pending requests fail on their side
        finally:
            self._accepted_writers.discard(writer)
            writer.close()

    async def _run_handler(self, method: Callable[[Any], bytes], argument: Any) -> bytes:
        """Run a handler method where its handler says: inline on the loop,
        or on the worker pool."""
        if self.handler.runs_on_loop:
            return method(argument)
        return await self._loop.run_in_executor(self._executor, method, argument)

    async def _handle_request(
        self,
        frame_type: int,
        request_id: int,
        body: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            if frame_type == frames.FRAME_ENVELOPE:
                envelope = frames.decode_envelope_frame(self.group, body)
                reply = await self._run_handler(self.handler.handle_envelope, envelope)
            elif frame_type == frames.FRAME_CONTROL:
                reply = await self._run_handler(self.handler.handle_control, body)
            else:
                raise TransportError(f"unexpected request frame type {frame_type}")
            out = frames.encode_frame(frames.FRAME_REPLY, request_id, reply)
        except Exception as exc:  # noqa: BLE001 - every handler failure goes to the peer
            out = frames.encode_frame(
                frames.FRAME_ERROR,
                request_id,
                frames.encode_error(f"{type(exc).__name__}: {exc}"),
            )
        try:
            async with write_lock:
                writer.write(out)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # requester is gone; nothing to tell it

    # -- teardown ----------------------------------------------------------------

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._handler_tasks):
            task.cancel()
        for conn in list(self._connections.values()):
            if conn.pump_task is not None:
                conn.pump_task.cancel()
            conn.writer.close()
        self._connections.clear()
        for writer in list(self._accepted_writers):
            writer.close()
        self._accepted_writers.clear()

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(10)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        if not self._thread.is_alive():
            self._loop.close()
        self._executor.shutdown(wait=False)
