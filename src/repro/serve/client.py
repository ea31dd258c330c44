"""Blocking wire clients: shard hop (unix socket) and front door (TCP).

Both speak the frame protocol over a small pool of persistent
connections, so concurrent router threads (or bench client threads)
never interleave frames on one socket.  Connection failures drop the
pooled socket and surface as :class:`ConnectionFailed`, on which the
router's reconnect loop tries again — reconnecting picks up a respawned
worker transparently.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.errors import ReproError
from repro.serve.protocol import ProtocolError, recv_frame, send_frame


class ConnectionFailed(ReproError):
    """The peer is unreachable or hung up mid-request.

    ``request_sent`` distinguishes the safe-to-retry case (we never
    transmitted the request) from the ambiguous one (an update may or
    may not have been applied before the connection died).
    """

    def __init__(self, message: str, request_sent: bool = False) -> None:
        super().__init__(message)
        self.request_sent = request_sent


class _WireClient:
    """A pool of persistent framed connections to one address."""

    def __init__(self, timeout: float = 10.0, pool_size: int = 8) -> None:
        self.timeout = timeout
        self._pool_size = pool_size
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()

    # subclasses provide the transport
    def _connect(self) -> socket.socket:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        try:
            sock = self._connect()
        except OSError as exc:
            raise ConnectionFailed(
                f"cannot connect to {self.describe()}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < self._pool_size:
                self._idle.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    def request(self, message: dict) -> dict:
        """One request/response round trip.

        Raises :class:`ConnectionFailed` on transport trouble and
        :class:`ProtocolError` on garbage; a response frame with
        ``ok: false`` is returned as-is (typed errors are data, not
        exceptions — the router decides what is fatal).
        """
        sock = self._checkout()
        sent = False
        try:
            send_frame(sock, message)
            sent = True
            response = recv_frame(sock)
        except (OSError, ProtocolError) as exc:
            try:
                sock.close()
            except OSError:
                pass
            raise ConnectionFailed(
                f"request to {self.describe()} failed: {exc}",
                request_sent=sent,
            ) from exc
        if response is None:
            try:
                sock.close()
            except OSError:
                pass
            raise ConnectionFailed(
                f"{self.describe()} closed the connection",
                request_sent=True,
            )
        self._checkin(sock)
        return response

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass


class ShardClient(_WireClient):
    """Client for one shard worker's unix socket."""

    def __init__(
        self,
        socket_path: str,
        timeout: float = 10.0,
        pool_size: int = 8,
    ) -> None:
        super().__init__(timeout=timeout, pool_size=pool_size)
        self.socket_path = socket_path

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        return sock

    def describe(self) -> str:
        return f"shard@{self.socket_path}"


class TcpClient(_WireClient):
    """Client for the front door's TCP port (bench / smoke / tools)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        pool_size: int = 8,
    ) -> None:
        super().__init__(timeout=timeout, pool_size=pool_size)
        self.host = host
        self.port = port

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def describe(self) -> str:
        return f"serve@{self.host}:{self.port}"

    # convenience wrappers for scripted round trips -----------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def load(self, xml: str, name: str = "serve") -> int:
        response = self.request({"op": "load", "xml": xml, "name": name})
        _raise_on_error(response)
        return int(response["doc"])

    def query(self, xpath: str, doc: Optional[int] = None) -> dict:
        message: dict = {"op": "query", "xpath": xpath}
        if doc is not None:
            message["doc"] = doc
        response = self.request(message)
        _raise_on_error(response)
        return response

    def update(self, doc: int, change: dict) -> dict:
        response = self.request(
            {"op": "update", "doc": doc, "change": change}
        )
        _raise_on_error(response)
        return response

    def stats(self) -> dict:
        response = self.request({"op": "stats"})
        _raise_on_error(response)
        return response

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})


def _raise_on_error(response: dict) -> None:
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ReproError(
            f"serve error [{error.get('type', 'unknown')}]: "
            f"{error.get('message', '')}"
        )
