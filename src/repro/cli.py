"""Command-line interface: ``python -m repro <command>``.

Every submittable verb is a thin frontend over :mod:`repro.api` and is
declared once, as a request class in :mod:`repro.api.requests` — its
flags, defaults, choices and help text live there, :func:`build_parser`
derives the subparser, and ``python -m repro <verb> --help`` is the
reference. argv becomes the typed request, :func:`repro.api.handle`
executes it, and the CLI prints ``Response.output`` verbatim — the daemon
runs the same requests through the same handlers, so one-shot and served
results are interchangeable.

Two commands are not requests and are written out in this module:

* ``serve`` — run the long-lived compile-and-simulate daemon
  (:mod:`repro.service`): async socket server, fork worker pool, shared
  caches, per-client rate limits;
* ``submit [submit flags] VERB ...`` — run any request verb on a daemon
  instead of in-process, byte-identical stdout included.

``--quiet`` (or ``REPRO_QUIET=1``) silences the stderr telemetry
(wall-clock/cache chatter); figure results on stdout are unaffected.
"""

import argparse
import sys

from . import api


def _cmd_request(args):
    """Every submittable verb: build its API request from the parsed argv,
    execute it in-process and print its payload. A request the handler
    refuses (:class:`api.ApiError`) exits 2 with one line on stderr, like
    an argparse error."""
    try:
        response = api.handle(api.REQUEST_TYPES[args.verb].from_args(args))
    except api.ApiError as exc:
        print("repro %s: error: %s" % (args.verb, exc), file=sys.stderr)
        return 2
    if response.output:
        sys.stdout.write(response.output)
    return response.exit_code


# ---------------------------------------------------------------------------
# Service frontends: serve / submit


def _cmd_serve(args):
    from .obs import set_quiet
    from .service.daemon import serve_main
    from .service.protocol import default_socket_path

    if args.quiet:
        set_quiet(True)
    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = default_socket_path(create_dir=True)
    return serve_main(
        socket_path=socket_path,
        host=args.host,
        port=args.port,
        workers=args.workers,
        rate=args.rate,
        burst=args.burst,
        quota=args.quota,
    )


def _cmd_submit(args):
    import json

    from .client import ServiceClient, ServiceError
    from .obs import log
    from .service.protocol import default_socket_path

    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = default_socket_path()
    argv = list(args.argv)
    if argv and argv[0] == "--":
        argv = argv[1:]

    control = None
    for flag, action in (
        ("ping", "ping"),
        ("server_stats", "stats"),
        ("server_telemetry", "telemetry"),
        ("shutdown", "shutdown"),
    ):
        if getattr(args, flag):
            control = action
    if control is None and not argv:
        print("submit: give a verb to run (e.g. `repro submit metrics bfs`)")
        return 2

    request = None
    if control is None:
        # The submitted verb's argv goes through the ordinary parser.
        parsed = build_parser(argv).parse_args(argv)
        request_cls = api.REQUEST_TYPES.get(parsed.verb)
        if request_cls is None:
            print(
                "submit: verb %r runs only in-process (submit one of: %s)"
                % (argv[0], ", ".join(sorted(api.REQUEST_TYPES)))
            )
            return 2
        request = request_cls.from_args(parsed)

    try:
        with ServiceClient(
            socket_path=socket_path,
            host=args.host,
            port=args.port,
            client_id=args.client,
            timeout=args.timeout,
        ) as client:
            if args.wait is not None:
                client.wait_ready(timeout=args.wait)
            if control is not None:
                reply = client.control(control)
                if control == "telemetry":
                    # Raw text exposition, ready for a Prometheus scrape target.
                    sys.stdout.write(reply["text"])
                else:
                    print(json.dumps(reply, sort_keys=True))
                return 0
            response = client.submit(request)
    except ServiceError as exc:
        print("submit: error: %s" % exc, file=sys.stderr)
        return 1
    if response.error is not None:
        print(
            json.dumps({"verb": response.verb, "error": response.error}, sort_keys=True),
            file=sys.stderr,
        )
        return response.exit_code or 1
    if args.stream:
        for record in response.records:
            print(json.dumps(record, sort_keys=True))
    elif response.output:
        sys.stdout.write(response.output)
    if response.cache is not None:
        log(
            "submit: cache %s",
            " ".join(
                "%s %d/%d" % (layer, c["hits"], c["hits"] + c["misses"])
                for layer, c in sorted(response.cache.items())
            ),
        )
    return response.exit_code


#: Help lines of the subcommand groups that request verbs nest under.
_GROUP_HELP = {"bench": "benchmark harness utilities (currently: perf)"}


def build_parser(argv=None):
    """The ``repro`` parser; given the ``argv`` it is about to parse, only
    the verb that argv names gets its flags.

    Declaring a verb's flags resolves their choice lists, and those live in
    the toolchain (``demo``'s benchmarks are the ten workload modules): the
    other verbs keep their name and help line — every ``--help`` page reads
    the same — and ``repro emit`` imports nothing ``emit`` does not run.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phloem reproduction: compile, simulate, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every submittable verb is declared once, as a request class in
    # repro.api.requests: its subcommand path, help line, flags and defaults
    # all come from there. serve/submit are not requests.
    groups = {(): sub}  # command-path prefix -> the subparsers it holds
    for request_cls in api.REQUEST_TYPES.values():
        command = request_cls.COMMAND or (request_cls.VERB,)
        *prefix, leaf = command
        prefix = tuple(prefix)
        if prefix not in groups:
            (name,) = prefix
            group = sub.add_parser(name, help=_GROUP_HELP[name])
            groups[prefix] = group.add_subparsers(dest=name + "_command", required=True)
        verb_parser = groups[prefix].add_parser(leaf, help=request_cls.HELP)
        if argv is None or tuple(argv[: len(command)]) == command:
            request_cls.add_arguments(verb_parser)
        verb_parser.set_defaults(func=_cmd_request, verb=request_cls.VERB)

    serve = sub.add_parser(
        "serve", help="run the compile-and-simulate daemon (async server + worker pool)"
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket to listen on (default: REPRO_SOCKET env or the "
        "cache directory's serve.sock)",
    )
    serve.add_argument("--host", default=None, help="listen on TCP instead of a unix socket")
    serve.add_argument("--port", type=int, default=0, help="TCP port (0 picks a free one)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="fork worker processes (0 = execute inline in the server)",
    )
    serve.add_argument(
        "--rate", type=float, default=10.0,
        help="per-client token-bucket refill rate, requests/s (<=0 disables)",
    )
    serve.add_argument(
        "--burst", type=float, default=20.0, help="per-client token-bucket depth"
    )
    serve.add_argument(
        "--quota", type=int, default=4,
        help="per-client in-flight job quota (<=0 disables)",
    )
    serve.add_argument("--quiet", action="store_true", help=api.requests.QUIET_HELP)
    serve.set_defaults(func=_cmd_serve, verb="serve")

    submit = sub.add_parser(
        "submit", help="run a verb on a daemon: repro submit [flags] VERB ..."
    )
    submit.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon unix socket (default: REPRO_SOCKET env or the cache "
        "directory's serve.sock)",
    )
    submit.add_argument("--host", default=None, help="daemon TCP host")
    submit.add_argument("--port", type=int, default=0, help="daemon TCP port")
    submit.add_argument(
        "--client", default="cli", help="client identity for rate limits and quotas"
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="socket timeout in seconds"
    )
    submit.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="poll until the daemon answers a ping before submitting",
    )
    submit.add_argument(
        "--stream", action="store_true",
        help="print the response's records as JSONL in place of the verb's "
        "stdout payload",
    )
    submit.add_argument("--ping", action="store_true", help="liveness probe only")
    submit.add_argument(
        "--server-stats", action="store_true", help="print the daemon's counters"
    )
    submit.add_argument(
        "--server-telemetry", action="store_true",
        help="print the daemon's telemetry as Prometheus text exposition",
    )
    submit.add_argument("--shutdown", action="store_true", help="stop the daemon")
    submit.add_argument(
        "argv", nargs=argparse.REMAINDER, metavar="VERB ...",
        help="the verb (and its flags) to run on the daemon",
    )
    submit.set_defaults(func=_cmd_submit, verb="submit")

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
