"""The design-space query server: dispatch, provenance, transports.

:class:`DesignSpaceService` is the transport-independent core — a pure
``request dict -> response dict`` dispatcher implementing the contract
tables in :mod:`repro.service.contract`.  Warm queries answer from the
fitted surrogate in well under a millisecond; anything the surrogate
cannot answer — no grid loaded, node off the grid, point outside the
hull of the tensors, a NaN-contaminated cell, a shifted process
corner — falls back to an exact batched root-solve, and every
successful answer carries a provenance footer (schema hash, answering
tier, grid id, recorded error bound).

Two asyncio transports wrap the same core: newline-delimited JSON over
stdio (:func:`serve_stdio`) and a minimal HTTP/1.1 endpoint
(:func:`serve_http`, ``POST /query`` with a JSON body, ``GET /info``).
Both are driven by ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys

from .. import perf
from ..cache import model_schema_hash
from ..errors import OptimizationError, ParameterError, ReproError
from ..device.corners import Corner
from ..scaling.roadmap import node_by_name
from .contract import (
    ALL_METRICS,
    CORNERS,
    ERROR_CODES,
    FLAVOUR_MULTIPLIERS,
    PROTOCOL_VERSION,
    QUERY_TYPES,
    REQUEST_FIELDS,
)
from .exact import corner_snm_vmin, exact_design, exact_point, in_domain
from .surrogate import Surrogate

__all__ = ["DesignSpaceService", "serve_stdio", "serve_http"]


def _jsonable(value: float) -> float | None:
    """NaN becomes null on the wire (JSON has no NaN)."""
    return None if math.isnan(value) else value


class DesignSpaceService:
    """Query dispatcher over an optional surrogate plus the exact tier.

    With ``surrogate=None`` every data query answers from the exact
    tier (the degraded no-grid mode ``repro serve`` falls back to when
    the cache holds no tensors for the current model schema hash).
    """

    def __init__(self, surrogate: Surrogate | None = None) -> None:
        self.surrogate = surrogate
        self.schema_hash = model_schema_hash()

    # -- envelopes ----------------------------------------------------

    def _error(self, code: str, message: str, request) -> dict:
        assert code in ERROR_CODES
        perf.bump("service.errors")
        envelope = {"ok": False, "error": code, "message": message}
        if isinstance(request, dict) and "id" in request:
            envelope["id"] = request["id"]
        return envelope

    def _provenance(self, source: str,
                    metrics: tuple[str, ...]) -> dict:
        grid_id = None
        bound: dict[str, float | None] | None = None
        if source != "exact" and self.surrogate is not None:
            grid_id = self.surrogate.grid.spec.grid_id()
            recorded = self.surrogate.grid.error_bounds_rel or {}
            bound = {m: recorded.get(m) for m in metrics}
        return {
            "schema_hash": self.schema_hash,
            "source": source,
            "grid_id": grid_id,
            "error_bound_rel": bound,
            "protocol": PROTOCOL_VERSION,
        }

    # -- request validation -------------------------------------------

    def _validate(self, request: dict, query: str):
        """Contract check; returns an error envelope or None.

        Field presence and JSON types are checked against
        :data:`repro.service.contract.REQUEST_FIELDS`; ``metrics``
        entries against the served set; a pinned ``schema_hash``
        against the live model sources.
        """
        fields = REQUEST_FIELDS[query]
        for name, (kind, required, _doc) in fields.items():
            if name not in request:
                if required:
                    return self._error(
                        "bad_request",
                        f"missing required field {name!r}", request)
                continue
            value = request[name]
            if kind == "number" and not (isinstance(value, (int, float))
                                         and not isinstance(value, bool)):
                return self._error(
                    "bad_request", f"field {name!r} must be a number",
                    request)
            if kind == "string" and not isinstance(value, str):
                return self._error(
                    "bad_request", f"field {name!r} must be a string",
                    request)
            if kind == "array[string]" and not (
                    isinstance(value, list)
                    and all(isinstance(v, str) for v in value)):
                return self._error(
                    "bad_request",
                    f"field {name!r} must be an array of strings", request)
        unknown = sorted(set(request) - set(fields))
        if unknown:
            return self._error(
                "bad_request", f"unknown field(s): {', '.join(unknown)}",
                request)
        pinned = request.get("schema_hash")
        if pinned is not None and pinned != self.schema_hash:
            return self._error(
                "stale_schema",
                f"request pinned schema {pinned!r} but the server's "
                f"model sources hash to {self.schema_hash!r}", request)
        for metric in request.get("metrics", ()):
            if metric not in ALL_METRICS:
                return self._error(
                    "unknown_metric",
                    f"{metric!r} is not served; metrics: "
                    f"{', '.join(ALL_METRICS)}", request)
        return None

    # -- the two answer tiers -----------------------------------------

    def _point_values(self, node, l_poly_nm: float, ioff: float,
                      vdd_v: float, metrics: tuple[str, ...]
                      ) -> tuple[dict[str, float], str]:
        """Metric values at one point, surrogate-first.

        The surrogate answers only when it covers the node and every
        requested value comes back finite; a NaN from any metric —
        out-of-hull coordinates or a NaN-contaminated cell — sends the
        whole point to the exact tier so one query never mixes tiers.
        Returns ``(values, source)``.
        """
        if self.surrogate is not None:
            approx = self.surrogate.query(
                node.name, l_poly_nm / node.l_poly_nm,
                math.log10(ioff), vdd_v, metrics)
            if approx is not None and not any(
                    math.isnan(v) for v in approx.values()):
                perf.bump("service.surrogate_hits")
                return approx, "surrogate"
        perf.bump("service.exact_fallbacks")
        values = exact_point(node, l_poly_nm, ioff, vdd_v)
        return {m: values[m] for m in metrics}, "exact"

    # -- query handlers -----------------------------------------------

    def _handle_info(self, request: dict) -> dict:
        grid = None
        bounds = None
        if self.surrogate is not None:
            spec = self.surrogate.grid.spec
            grid = {"grid_id": spec.grid_id(), "axes": spec.to_meta()}
            bounds = self.surrogate.grid.error_bounds_rel
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "schema_hash": self.schema_hash,
            "grid": grid,
            "metrics": list(ALL_METRICS),
            "error_bounds_rel": bounds,
        }

    def _point_args(self, request: dict):
        """Resolve and domain-check the shared point fields.

        Returns ``(node, l_poly_nm, ioff, vdd_v)`` or an error
        envelope (``unknown_node`` / ``out_of_hull``).
        """
        try:
            node = node_by_name(str(request["node"]))
        except ParameterError as err:
            return self._error("unknown_node", str(err), request)
        l_poly_nm = float(request["l_poly_nm"])
        ioff = float(request["ioff_target_a_per_um"])
        vdd_v = float(request["vdd_v"])
        if not in_domain(node, l_poly_nm, ioff, vdd_v):
            return self._error(
                "out_of_hull",
                f"point (L_poly = {l_poly_nm:g} nm, I_off = {ioff:g} "
                f"A/um, V_dd = {vdd_v:g} V) lies outside the exact "
                f"tier's validated domain for {node.name}", request)
        return node, l_poly_nm, ioff, vdd_v

    def _handle_metrics(self, request: dict) -> dict:
        resolved = self._point_args(request)
        if isinstance(resolved, dict):
            return resolved
        node, l_poly_nm, ioff, vdd_v = resolved
        metrics = tuple(request.get("metrics", ALL_METRICS))
        values, source = self._point_values(
            node, l_poly_nm, ioff, vdd_v, metrics)
        return {
            "ok": True,
            "values": {m: _jsonable(values[m]) for m in metrics},
            "provenance": self._provenance(source, metrics),
        }

    def _handle_flavour_menu(self, request: dict) -> dict:
        resolved = self._point_args(request)
        if isinstance(resolved, dict):
            return resolved
        node, l_poly_nm, base_ioff, vdd_v = resolved
        metrics = tuple(request.get("metrics", ALL_METRICS))
        flavours: dict[str, dict] = {}
        sources = set()
        for flavour, multiplier in FLAVOUR_MULTIPLIERS.items():
            ioff = base_ioff * multiplier
            if not in_domain(node, l_poly_nm, ioff, vdd_v):
                return self._error(
                    "out_of_hull",
                    f"the {flavour} target {ioff:g} A/um (x{multiplier:g} "
                    f"of the base) leaves the validated domain", request)
            values, source = self._point_values(
                node, l_poly_nm, ioff, vdd_v, metrics)
            sources.add(source)
            flavours[flavour] = {
                "ioff_target_a_per_um": ioff,
                "values": {m: _jsonable(values[m]) for m in metrics},
                "source": source,
            }
        source = sources.pop() if len(sources) == 1 else "mixed"
        return {
            "ok": True,
            "flavours": flavours,
            "provenance": self._provenance(source, metrics),
        }

    def _handle_snm_vmin(self, request: dict) -> dict:
        corner_name = str(request.get("corner", "tt")).lower()
        if corner_name not in CORNERS:
            return self._error(
                "bad_request",
                f"corner must be one of {', '.join(CORNERS)}", request)
        resolved = self._point_args(request)
        if isinstance(resolved, dict):
            return resolved
        node, l_poly_nm, ioff, vdd_v = resolved
        metrics = ("snm_mv", "vmin_v")
        if corner_name == "tt":
            values, source = self._point_values(
                node, l_poly_nm, ioff, vdd_v, metrics)
        else:
            # Shifted corners re-dope the device pair, which the grid
            # axes do not cover: always the exact tier.
            perf.bump("service.exact_fallbacks")
            design = exact_design(node, l_poly_nm, ioff)
            values = corner_snm_vmin(design, vdd_v,
                                     Corner(corner_name))
            source = "exact"
        return {
            "ok": True,
            "corner": corner_name,
            "values": {m: _jsonable(values[m]) for m in metrics},
            "provenance": self._provenance(source, metrics),
        }

    # -- dispatch -----------------------------------------------------

    def handle(self, request) -> dict:
        """Answer one decoded request; never raises.

        The entry point both transports call.  Contract violations map
        to the error taxonomy; anything unexpected is caught and
        reported as ``internal`` so one bad query cannot take the
        server down.
        """
        perf.bump("service.queries")
        if not isinstance(request, dict):
            return self._error(
                "bad_request", "request must be a JSON object", request)
        query = request.get("query")
        if query not in QUERY_TYPES:
            return self._error(
                "unknown_query",
                f"unknown query {query!r}; expected one of "
                f"{', '.join(QUERY_TYPES)}", request)
        envelope = self._validate(request, query)
        if envelope is not None:
            return envelope
        try:
            if query == "info":
                response = self._handle_info(request)
            elif query == "metrics":
                response = self._handle_metrics(request)
            elif query == "flavour_menu":
                response = self._handle_flavour_menu(request)
            else:
                response = self._handle_snm_vmin(request)
        except OptimizationError as err:
            response = self._error("solver_failure", str(err), request)
        except ReproError as err:
            response = self._error("internal", str(err), request)
        except Exception as err:  # repro: noqa[RPR002] served as an 'internal' error envelope; the server must survive any query
            response = self._error(
                "internal", f"{type(err).__name__}: {err}", request)
        if response.get("ok") and "id" in request:
            response["id"] = request["id"]
        return response

    def handle_line(self, line: str) -> dict:
        """Decode one JSON line and answer it (stdio transport core)."""
        try:
            request = json.loads(line)
        except ValueError as err:
            return self._error("bad_request",
                               f"malformed JSON: {err}", None)
        return self.handle(request)


# -- transports --------------------------------------------------------

async def serve_stdio(service: DesignSpaceService,
                      reader: asyncio.StreamReader | None = None,
                      writer=None) -> None:
    """Serve newline-delimited JSON until EOF.

    One request object per input line, one response object per output
    line.  ``reader``/``writer`` default to this process's stdio
    (injectable in tests: any object with ``readline``/``write``).
    Responses are flushed per line, so a driving process can pipeline
    synchronously.
    """
    if reader is None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    while True:
        raw = await reader.readline()
        if not raw:
            break
        line = raw.decode() if isinstance(raw, bytes) else raw
        if not line.strip():
            continue
        payload = json.dumps(service.handle_line(line), sort_keys=True)
        if writer is None:
            sys.stdout.write(payload + "\n")
            sys.stdout.flush()
        else:
            writer.write((payload + "\n").encode())
            drain = getattr(writer, "drain", None)
            if drain is not None:
                await drain()


_HTTP_MAX_BODY = 1 << 20


def _http_response(status: str, response: dict, keep_alive: bool) -> bytes:
    payload = json.dumps(response, sort_keys=True).encode()
    connection = "keep-alive" if keep_alive else "close"
    return (f"HTTP/1.1 {status}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {connection}\r\n\r\n".encode() + payload)


async def _handle_http_client(service: DesignSpaceService,
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
    """One HTTP/1.1 connection: ``POST /query`` or ``GET /info``.

    A request whose ``Content-Length`` is malformed (400) or over
    :data:`_HTTP_MAX_BODY` (413) gets an error response and the
    connection closes: its body cannot be skipped safely, so reading
    on would parse body bytes as the next request.
    """
    try:
        while True:
            request_line = await reader.readline()
            if not request_line:
                break
            parts = request_line.decode("latin-1").split()
            method = parts[0].upper() if parts else ""
            target = parts[1] if len(parts) > 1 else ""
            length = 0
            framing_error: tuple[str, str] | None = None
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _sep, value = header.decode("latin-1").partition(":")
                if name.strip().lower() != "content-length":
                    continue
                text = value.strip()
                # Compare digit counts first: int() refuses very long
                # digit strings.
                size = text.lstrip("0") or "0"
                if not (text.isascii() and text.isdecimal()):
                    framing_error = ("400 Bad Request",
                                     f"malformed Content-Length {text!r}")
                elif (len(size) > len(str(_HTTP_MAX_BODY))
                      or int(size) > _HTTP_MAX_BODY):
                    framing_error = (
                        "413 Payload Too Large",
                        f"body of {size} bytes exceeds the "
                        f"{_HTTP_MAX_BODY}-byte limit")
                else:
                    length = int(size)
            if framing_error is not None:
                status, message = framing_error
                writer.write(_http_response(
                    status, {"ok": False, "error": "bad_request",
                             "message": message}, keep_alive=False))
                await writer.drain()
                break
            body = await reader.readexactly(length) if length else b""
            if method == "GET" and target == "/info":
                response = service.handle({"query": "info"})
                status = "200 OK"
            elif method == "POST" and target == "/query":
                response = service.handle_line(body.decode())
                status = "200 OK" if response.get("ok") else "400 Bad Request"
            else:
                response = {"ok": False, "error": "bad_request",
                            "message": "use POST /query or GET /info"}
                status = "404 Not Found"
            writer.write(_http_response(status, response, keep_alive=True))
            await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError, ValueError):
        pass
    finally:
        writer.close()


async def serve_http(service: DesignSpaceService, host: str = "127.0.0.1",
                     port: int = 8337) -> None:
    """Serve the HTTP transport until cancelled.

    Prints the bound address (the OS picks the port when ``port=0``,
    which the smoke tooling uses to avoid collisions).
    """
    async def client(reader, writer):
        await _handle_http_client(service, reader, writer)

    server = await asyncio.start_server(client, host, port)
    bound = server.sockets[0].getsockname()
    print(f"serving design space on http://{bound[0]}:{bound[1]} "
          f"(schema {service.schema_hash})", flush=True)
    async with server:
        await server.serve_forever()
