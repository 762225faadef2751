"""Command-line interface.

Makes the library usable without writing Python::

    python -m repro generate --size 0.5 -o auction.xml
    python -m repro encode auction.xml -o auction.npz
    python -m repro query auction.npz "/descendant::increase/ancestor::bidder"
    python -m repro query auction.npz "//open_auction[bidder]" --engine vectorized
    python -m repro query auction.npz "//open_auction[bidder]" --mode count
    python -m repro query auction.xml "//person[profile]" --serialize --limit 2
    python -m repro info auction.npz
    python -m repro sql "/descendant::profile/descendant::education"
    python -m repro shard -o store --generate 8 --size 0.2 --shards 4
    python -m repro serve-batch store "//open_auction[bidder]/seller" --backend fabric:4
    python -m repro serve-batch store "//person" --mode exists
    python -m repro serve store --port 8080 --rate 50 --queue-limit 32
    python -m repro update store ops.json --verify "//person"
    python -m repro explain store "/descendant::increase/ancestor::bidder"

Documents may be given as ``.xml`` (parsed + encoded on the fly) or as
``.npz`` archives produced by ``encode`` (instant load).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.counters import JoinStatistics
from repro.encoding.decode import subtree
from repro.encoding.doctable import DocTable
from repro.encoding.persist import load, save
from repro.encoding.prepost import encode
from repro.engine.sqlgen import path_to_sql
from repro.errors import ReproError, StoreNotFoundError, XPathSyntaxError
from repro.xmark.generator import XMarkConfig, generate
from repro.xmltree.model import NodeKind
from repro.xmltree.parser import parse_file
from repro.xmltree.serializer import serialize, write_file
from repro.xpath.evaluator import Evaluator

__all__ = ["main", "build_parser"]


def _load_document(path: str) -> DocTable:
    if os.path.isdir(path):
        raise ReproError(
            f"{path}: a directory, not one .xml / .npz document "
            "(a sharded store is read by explain, serve and serve-batch)"
        )
    if path.endswith(".npz"):
        return load(path)
    return encode(parse_file(path))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    config = XMarkConfig(seed=args.seed)
    started = time.perf_counter()
    tree = generate(args.size, config)
    write_file(tree, args.output, pretty=args.pretty)
    doc = encode(tree)
    print(
        f"wrote {args.output}: {len(doc):,} nodes, height {doc.height}, "
        f"{time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    doc = encode(parse_file(args.document))
    save(doc, args.output)
    print(
        f"encoded {len(doc):,} nodes (height {doc.height}) to {args.output} "
        f"in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    stats = JoinStatistics()
    evaluator = Evaluator(
        doc,
        engine=args.engine,
        pushdown=args.pushdown,
        stats=stats,
    )
    if args.mode != "materialize":
        if args.serialize or args.limit is not None:
            print(
                f"error: --serialize/--limit have no effect with "
                f"--mode {args.mode}",
                file=sys.stderr,
            )
            return 2
        started = time.perf_counter()
        value = evaluator.evaluate(args.xpath, mode=args.mode)
        elapsed = time.perf_counter() - started
        print(str(value).lower() if args.mode == "exists" else value)
        print(f"{args.mode} in {elapsed * 1000:.2f} ms", file=sys.stderr)
        if args.stats:
            print(f"join statistics: {stats.as_dict()}", file=sys.stderr)
        return 0
    started = time.perf_counter()
    result = evaluator.evaluate(args.xpath)
    elapsed = time.perf_counter() - started
    shown = result if args.limit is None else result[: args.limit]
    for pre in shown:
        pre = int(pre)
        if args.serialize:
            print(serialize(subtree(doc, pre)))
        else:
            kind = doc.kind_of(pre).name.lower()
            label = doc.tag_of(pre) or (doc.value_of(pre) or "")[:40]
            print(f"{pre}\t{doc.post_of(pre)}\t{kind}\t{label}")
    if args.limit is not None and len(result) > args.limit:
        print(f"... ({len(result) - args.limit} more)", file=sys.stderr)
    print(
        f"{len(result):,} nodes in {elapsed * 1000:.2f} ms",
        file=sys.stderr,
    )
    if args.stats:
        print(f"join statistics: {stats.as_dict()}", file=sys.stderr)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    print(f"nodes           {len(doc):,}")
    print(f"height          {doc.height}")
    print(f"distinct tags   {len(doc.tag.dictionary):,}")
    print(f"column storage  {doc.memory_footprint():,} bytes")
    for kind in NodeKind:
        count = int((doc.kind == int(kind)).sum())
        if count:
            print(f"  {kind.name.lower():24s} {count:,}")
    counts = sorted(
        (
            (tag, len(doc.pres_with_tag(tag)))
            for tag in doc.tag.dictionary
            if tag
        ),
        key=lambda kv: -kv[1],
    )
    print("top tags:")
    for tag, count in counts[: args.top]:
        print(f"  {tag:24s} {count:,}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.service import ShardedStore

    documents = []
    for path in args.documents:
        documents.append((os.path.basename(path), parse_file(path)))
    if args.generate:
        for i in range(args.generate):
            config = XMarkConfig(seed=args.seed + i)
            documents.append((f"xmark-{i:02d}", generate(args.size, config)))
    if not documents:
        print("error: no documents (pass .xml files or --generate N)", file=sys.stderr)
        return 1
    started = time.perf_counter()
    store = ShardedStore.build(
        args.output, documents, shards=args.shards,
        compression=args.compression,
    )
    summary = store.describe()
    nodes = sum(entry["nodes"] for entry in summary["shards"])
    print(
        f"built {args.output}: {len(documents)} documents, "
        f"{store.shard_count} shards, {nodes:,} nodes, "
        f"compression {summary['compression']}, "
        f"{time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.service import ShardedStore

    store = ShardedStore.open(args.directory)
    # Open every shard plane so each reports its resident bytes per node.
    for shard_id in store.shard_ids():
        store.collection(shard_id)
    info = store.info()
    print(f"store          {info['directory']}")
    print(f"epoch          {info['epoch']}")
    print(f"compression    {info['compression']}")
    print(f"documents      {info['documents']}")
    print(f"bytes on disk  {info['total_bytes_on_disk']:,}")
    print(f"logical bytes  {info['total_logical_bytes']:,} (members at column width)")
    if info["shards"]:
        first = info["shards"][0]
        print(
            f"columns        {', '.join(first['stored_columns'])} "
            f"({first['derived_columns']})"
        )
    for shard in info["shards"]:
        line = (
            f"  shard {shard['id']:<4d} v{shard['format_version']}  "
            f"{shard['nodes']:>10,} nodes  "
            f"{shard['bytes_on_disk']:>12,}B on disk"
        )
        for name in ("tag", "value"):  # entries / raw bytes -> bytes stored
            d = shard[f"{name}_dictionary"]
            line += f"  {name} dict {d['entries']:,}/{d['bytes']:,}B->{d['stored_bytes']:,}B"
        line += f"  members {shard['logical_bytes']:,}B->{shard['stored_bytes']:,}B"
        line += "  widths " + " ".join(
            f"{column}:{shard['members'][column]['dtype']}" for column in shard["stored_columns"]
        )
        if "resident_bytes_per_node" in shard:
            line += f"  resident {shard['resident_bytes_per_node']} B/node"
        print(line)
    return 0


def _at_least(minimum: int):
    """argparse type for a count flag: below ``minimum`` is a usage error."""

    def count(value: str) -> int:
        number = int(value)
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {number}")
        return number

    return count


def _backend_spec(value: str) -> str:
    """argparse type for ``--backend``: a bad spec is a usage error."""
    from repro.service.backend import parse_backend_spec

    try:
        parse_backend_spec(value)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error))
    return value


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.service import QueryService, ShardedStore

    queries = list(args.queries)
    if args.queries_file:
        with open(args.queries_file) as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    queries.append(line)
    if not queries:
        print("error: no queries (pass them or --queries-file)", file=sys.stderr)
        return 1
    if args.mode == "exists" and args.per_document:
        print(
            "error: --per-document has no effect with --mode exists",
            file=sys.stderr,
        )
        return 2
    store = ShardedStore.open(args.store)
    service = QueryService(store, backend=args.backend)
    with service:
        for round_number in range(1, args.repeat + 1):
            started = time.perf_counter()
            results = service.execute_batch(
                queries, use_cache=not args.no_cache, mode=args.mode
            )
            elapsed = time.perf_counter() - started
            for result in results:
                flag = "warm" if result.from_cache else "cold"
                if result.mode == "exists":
                    shown = "true" if result.exists else "false"
                    print(f"{shown:>8}  {flag}  {result.query}")
                else:
                    print(f"{result.total:>8,}  {flag}  {result.query}")
                if args.per_document and result.mode != "exists":
                    for name, count in result.counts().items():
                        print(f"          {name:24s} {count:,}")
            rate = len(queries) / elapsed if elapsed > 0 else float("inf")
            print(
                f"round {round_number}: {len(queries)} queries in "
                f"{elapsed * 1000:.2f} ms ({rate:,.0f} q/s)",
                file=sys.stderr,
            )
        if args.stats:
            print(f"service statistics: {service.stats_snapshot()}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import QueryService, ShardedStore

    # Fabric workers fork here, before the server and its event loop load.
    service = QueryService(ShardedStore.open(args.store), backend=args.backend)
    with service:
        import asyncio

        from repro.server import QueryServer, ServerConfig

        config = ServerConfig(
            host=args.host,
            port=args.port,
            rate=args.rate,
            burst=args.burst,
            peer_rate_factor=args.peer_rate_factor,
            queue_limit=args.queue_limit,
        )
        asyncio.run(QueryServer(service, config).serve())
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json

    from repro.service import QueryService, ShardedStore, parse_ops

    try:
        with open(args.ops) as f:
            raw = json.load(f)
    except json.JSONDecodeError as error:
        print(f"error: {args.ops}: not valid JSON ({error})", file=sys.stderr)
        return 1
    # An ops file may name its payload's XML file; the path is read
    # here, relative to the working directory, and sent on as "xml".
    listed = raw.get("ops", raw) if isinstance(raw, dict) else raw
    for op in listed if isinstance(listed, list) else ():
        if isinstance(op, dict) and isinstance(op.get("file"), str) and "xml" not in op:
            with open(op.pop("file"), encoding="utf-8") as f:
                op["xml"] = f.read()
    ops = parse_ops(raw)
    if args.verify is not None:
        from repro.xpath.parser import parse_xpath

        # Validate *before* the batch commits: a malformed verify
        # expression must be a pure usage error, not one that leaves
        # the store mutated behind an exit code 2.
        parse_xpath(args.verify)
    store = ShardedStore.open(args.store)
    before = store.epoch
    started = time.perf_counter()
    with QueryService(store, backend="serial") as service:
        summary = service.apply_updates(ops)
        if args.verify:
            result = service.execute(args.verify)
            print(f"{result.total:>8,}  {args.verify}")
    elapsed = time.perf_counter() - started
    shards = ", ".join(str(s) for s in summary["shards"]) or "none"
    print(
        f"applied {summary['applied']} op(s) to shard(s) {shards}: "
        f"epoch {before} -> {summary['epoch']}, {elapsed * 1000:.2f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    print(path_to_sql(args.xpath, eq1_delimiter=args.eq1))
    return 0


def _render_analysis(observations) -> str:
    """The per-operator table of ``explain --analyze``: observed rows
    aggregated by operator signature (summed across shards)."""
    order: List[tuple] = []
    agg = {}
    for observed in observations:
        for step in observed.steps:
            sig = tuple(step.signature)
            if sig not in agg:
                agg[sig] = [0, 0, 0, 0]
                order.append(sig)
            cell = agg[sig]
            cell[0] += step.n_in
            cell[1] += step.n_out
            cell[2] += step.touched
            cell[3] += step.ns
    drives = len(observations)
    shards = len({o.shard_id for o in observations})
    lines = [f"observed: {drives} drive(s) over {shards} shard(s)"]
    lines.append(
        f"  {'operator':<42} {'in':>10} {'out':>10} {'touched':>10} {'ms':>8}"
    )
    for sig in order:
        n_in, n_out, touched, ns = agg[sig]
        kind, axis, detail = sig
        if kind == "pred":
            label = f"{axis} filter [{detail}]"
        elif kind == "pos":
            label = f"{axis}::{detail} (positional)"
        else:
            label = f"{axis}::{detail}"
        lines.append(
            f"  {label:<42.42} {n_in:>10,} {n_out:>10,} {touched:>10,} "
            f"{ns / 1e6:>8.2f}"
        )
    scanned = sum(o.scanned for o in observations)
    skipped = sum(o.skipped for o in observations)
    if scanned or skipped:
        lines.append(
            f"  staircase: {scanned:,} scanned, {skipped:,} skipped "
            f"({skipped / max(1, scanned + skipped):.0%} skip efficacy)"
        )
    return "\n".join(lines)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.xpath.pipeline import compile_plan, observed_drive
    from repro.xpath.planner import Planner

    store = None
    doc = None
    if os.path.isdir(args.document):
        from repro.service import ShardedStore

        store = ShardedStore.open(args.document)
        root_tag = store.virtual_root_tag
        source = (
            f"{args.document} (store, epoch {store.epoch}, "
            f"{store.shard_count} shards, {store.total_nodes():,} nodes)"
        )
    else:
        doc = _load_document(args.document)
        root_tag = doc.tag_of(doc.root)
        source = f"{args.document} ({len(doc):,} nodes)"
    plan = Planner(frozenset((root_tag,))).plan(args.xpath)
    print(f"source: {source}")
    print(plan.describe())
    print()
    print(compile_plan(plan, mode=args.mode).describe())
    if args.analyze:
        print()
        if store is not None:
            from repro.service import QueryService

            # Serial: the observation path is identical on every
            # backend, and analyze is a one-shot diagnostic.
            with QueryService(
                store, engine=args.engine, backend="serial"
            ) as service:
                result, plan, observations = service.analyze(
                    args.xpath, engine=args.engine
                )
            total, elapsed_ms = result.total, result.elapsed_s * 1000
        else:
            # The same driver, with an observer, an analyzed shard
            # group runs through.
            observation, pres = observed_drive(
                compile_plan(plan), Evaluator(doc, engine=args.engine)
            )
            observations = [observation]
            total, elapsed_ms = len(pres), observation.elapsed_ns / 1e6
        print(_render_analysis(observations))
        print(f"result: {total:,} node(s), {elapsed_ms:.2f} ms")
    if args.operators:
        from repro.engine.explain import explain

        if store is not None:
            print(
                "(--operators needs a single document, not a store)",
                file=sys.stderr,
            )
        else:
            print()
            # Every eligible name test is pushed down, as in the plan.
            print(explain(doc, args.xpath, pushdown=True))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Staircase join reproduction — XPath over pre/post-encoded XML.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("generate", help="generate an XMark-style document")
    cmd.add_argument("--size", type=float, default=1.0, help="nominal MB (default 1.0)")
    cmd.add_argument("--seed", type=int, default=2003)
    cmd.add_argument("--pretty", action="store_true", help="indent the output")
    cmd.add_argument("-o", "--output", required=True)
    cmd.set_defaults(handler=_cmd_generate)

    cmd = commands.add_parser("encode", help="pre/post encode an XML file to .npz")
    cmd.add_argument("document")
    cmd.add_argument("-o", "--output", required=True)
    cmd.set_defaults(handler=_cmd_encode)

    cmd = commands.add_parser("query", help="evaluate an XPath expression")
    cmd.add_argument("document", help=".xml or .npz file")
    cmd.add_argument("xpath")
    cmd.add_argument("--pushdown", action="store_true", help="push name tests below joins")
    cmd.add_argument(
        "--engine", choices=("scalar", "vectorized"), default=None,
        help="execution engine: per-node scalar loops (default) or numpy "
        "bulk kernels for every axis step",
    )
    cmd.add_argument("--serialize", action="store_true", help="print result subtrees as XML")
    cmd.add_argument("--limit", type=_at_least(0), default=None, help="show at most N results")
    cmd.add_argument("--stats", action="store_true", help="print join statistics")
    cmd.add_argument(
        "--mode", choices=("materialize", "count", "exists"), default="materialize",
        help="result mode: node rows (default), the result cardinality, "
        "or an early-terminating existence check",
    )
    cmd.set_defaults(handler=_cmd_query)

    cmd = commands.add_parser("info", help="document statistics")
    cmd.add_argument("document")
    cmd.add_argument("--top", type=_at_least(0), default=10, help="tags to list")
    cmd.set_defaults(handler=_cmd_info)

    cmd = commands.add_parser("shard", help="build a sharded document store")
    cmd.add_argument("documents", nargs="*", help=".xml files to load")
    cmd.add_argument(
        "-o", "--output", required=True, help="store directory to create"
    )
    cmd.add_argument(
        "--shards", type=_at_least(1), default=4,
        help="shard count (clamped to the number of documents; default 4)",
    )
    cmd.add_argument(
        "--generate", type=_at_least(0), default=0, metavar="N",
        help="also generate N XMark documents (seeds seed..seed+N-1)",
    )
    cmd.add_argument("--size", type=float, default=0.2, help="nominal MB per generated document")
    cmd.add_argument("--seed", type=int, default=2003)
    cmd.add_argument(
        "--compression", choices=("auto", "none", "packed"), default="auto",
        help="shard archive members (v10): packed = deflated, none = stored "
        "(memory-mapped when a shard opens), auto = packed for large shards "
        "(default)",
    )
    cmd.set_defaults(handler=_cmd_shard)

    cmd = commands.add_parser(
        "store",
        help="inspect a sharded store (bytes on disk, columns, dictionaries, "
        "resident bytes per node)",
    )
    cmd.add_argument(
        "action", choices=("info",),
        help="info: per-shard bytes on disk / format / column + dictionary "
        "sizes, column widths, and resident bytes per node of each opened plane",
    )
    cmd.add_argument("directory", help="store directory built by `shard`")
    cmd.set_defaults(handler=_cmd_store)

    cmd = commands.add_parser(
        "serve-batch", help="run a query batch against a sharded store"
    )
    cmd.add_argument("store", help="store directory built by `shard`")
    cmd.add_argument("queries", nargs="*", help="XPath expressions")
    cmd.add_argument(
        "--queries-file", default=None,
        help="file with one query per line (# comments allowed)",
    )
    cmd.add_argument(
        "--backend", type=_backend_spec, default=None, metavar="NAME[:N]",
        help="execution backend: serial (in-process) or fabric with an "
        "optional lane count (e.g. fabric:4: this process and 3 workers); "
        "default: $REPRO_BACKEND, "
        "else serial",
    )
    cmd.add_argument(
        "--repeat", type=_at_least(1), default=1,
        help="run the batch N times (later rounds hit the result cache)",
    )
    cmd.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    cmd.add_argument(
        "--mode", choices=("materialize", "count", "exists"),
        default="materialize",
        help="result mode for every query of the batch: per-document "
        "ranks (default), per-document counts, or one boolean",
    )
    cmd.add_argument(
        "--per-document", action="store_true", help="print per-document result counts"
    )
    cmd.add_argument("--stats", action="store_true", help="print cache statistics")
    cmd.set_defaults(handler=_cmd_serve_batch)

    cmd = commands.add_parser(
        "serve",
        help="serve a sharded store over HTTP/JSON (asyncio, admission control)",
    )
    cmd.add_argument("store", help="store directory built by `shard`")
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8080, help="0 = OS-assigned")
    cmd.add_argument(
        "--rate", type=float, default=0.0,
        help="per-client requests/second; over-rate requests get 429 + "
        "Retry-After (0 disables; default 0)",
    )
    cmd.add_argument(
        "--burst", type=float, default=16.0,
        help="per-client token-bucket burst (default 16)",
    )
    cmd.add_argument(
        "--peer-rate-factor", type=float, default=4.0,
        help="per-peer backstop bucket = this x the per-client rate/burst "
        "(bounds X-Client-Id rotation; 0 disables the backstop; default 4)",
    )
    cmd.add_argument(
        "--queue-limit", type=int, default=64,
        help="bound on admitted-but-unanswered requests; beyond it the "
        "server sheds with 503 + Retry-After (0 disables; default 64)",
    )
    cmd.add_argument(
        "--backend", type=_backend_spec, default=None, metavar="NAME[:N]",
        help="execution backend: serial (in-process) or fabric with an "
        "optional lane count (e.g. fabric:4: this process and 3 workers); "
        "default: $REPRO_BACKEND, "
        "else serial",
    )
    cmd.set_defaults(handler=_cmd_serve)

    cmd = commands.add_parser(
        "update", help="apply a JSON ops file to a sharded store"
    )
    cmd.add_argument("store", help="store directory built by `shard`")
    cmd.add_argument(
        "ops",
        help='JSON ops file: a list of {"op": add|remove|update|insert|'
        'delete|replace, "document": name, ...} objects; subtree '
        'payloads via "xml", "file", "text" or "attribute"',
    )
    cmd.add_argument(
        "--verify", metavar="XPATH", default=None,
        help="run one query after the update and print its result count",
    )
    cmd.set_defaults(handler=_cmd_update)

    cmd = commands.add_parser("sql", help="translate XPath to Figure-3 style SQL")
    cmd.add_argument("xpath")
    cmd.add_argument("--eq1", action="store_true", help="add the Equation (1) delimiter")
    cmd.set_defaults(handler=_cmd_sql)

    cmd = commands.add_parser(
        "explain",
        help="show the plan for a query (rewrites, pushdown, pipeline)",
    )
    cmd.add_argument(
        "document",
        help=".xml / .npz file, or a store directory built by `shard`",
    )
    cmd.add_argument("xpath")
    cmd.add_argument(
        "--engine", choices=("scalar", "vectorized"), default="vectorized",
        help="engine --analyze runs on (default: vectorized)",
    )
    cmd.add_argument(
        "--operators", action="store_true",
        help="also print the operator-level rendering (single documents)",
    )
    cmd.add_argument(
        "--analyze", action="store_true",
        help="run the query with the observation layer attached and "
        "print rows in / out and time per operator",
    )
    cmd.add_argument(
        "--mode", choices=("materialize", "count", "exists"),
        default="materialize",
        help="terminal of the printed physical pipeline (default: materialize)",
    )
    cmd.set_defaults(handler=_cmd_explain)

    return parser


def _one_line(error: BaseException) -> str:
    """First line of an error message (XPath syntax errors carry a
    multi-line caret rendering; the CLI contract is one ``error:`` line)."""
    text = str(error).strip()
    return text.splitlines()[0] if text else type(error).__name__


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: ``0`` success, ``1`` runtime failure, ``2`` usage error
    (malformed XPath, missing input file, a path that is not a sharded
    store) — every verb reports usage errors as a one-line ``error:``
    message, never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except XPathSyntaxError as error:
        print(f"error: {_one_line(error)}", file=sys.stderr)
        return 2
    except StoreNotFoundError as error:
        print(f"error: {_one_line(error)}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {_one_line(error)}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The downstream consumer (head, grep -q, …) closed the pipe
        # early — that is its prerogative, not a failure.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
