"""Jinks-style command-line simulator driver.

Run any kernel version on any modeled (or registered custom) machine,
sweep a whole design-space grid in parallel with a persistent result
store, orchestrate a sharded campaign, or inspect/validate the machine
registry::

    python -m repro kernel motion1 --isa vmmx128 --way 2
    python -m repro kernel idct --machine vmmx256 --way 16 --listing 20
    python -m repro sweep --grid fig4 --jobs 4
    python -m repro sweep --kernels idct,ycc --isas mmx64,vmmx128 --ways 2,8
    python -m repro sweep --machines mmx256,vmmx256 --ways 2,16
    python -m repro sweep --grid fig4 --shard 1/2 --store-root /tmp/campaign
    python -m repro campaign run --grid fig4 --shards 2
    python -m repro campaign status --root /tmp/campaign
    python -m repro campaign resume --root /tmp/campaign
    python -m repro store --store-root /tmp/merged merge /tmp/campaign/shard-*
    python -m repro store verify
    python -m repro store missing --grid fig4
    python -m repro serve --port 8377
    python -m repro machines
    python -m repro machines --validate
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import os
import tarfile
import time

#: Default location of the pinned machine-fingerprint manifest
#: (``machines --validate`` reads it, ``--write-manifest`` regenerates).
DEFAULT_MANIFEST = os.path.join("tests", "machine_manifest.json")

#: Kernel the registry validation smoke-times on a non-paper machine.
SMOKE_KERNEL = "addblock"


def _cmd_list(_args) -> int:
    from repro.kernels.registry import KERNELS
    from repro.machines import registered_machines

    print("kernels:")
    for name, spec in KERNELS.items():
        print(f"  {name:10s} {spec.app:10s} {spec.description}")
    print("\nmachines (python -m repro machines for details):")
    for spec in registered_machines():
        flag = "--isa" if spec.is_native_program else "--machine"
        print(f"  {flag} {spec.name} --way {spec.way}")
    return 0


def _validate_way(way: int) -> str | None:
    if not isinstance(way, int) or isinstance(way, bool) or way < 1:
        return f"--way must be a positive integer, got {way!r}"
    return None


def _cmd_kernel(args) -> int:
    from repro.isa.disasm import listing, mnemonic_histogram
    from repro.kernels.base import execute
    from repro.kernels.registry import KERNELS
    from repro.machines import get_machine, is_registered, machine_names
    from repro.sweep.engine import trace_source
    from repro.sweep.points import SweepPoint
    from repro.timing.simulator import simulate_kernel

    if args.name not in KERNELS:
        print(f"unknown kernel {args.name!r}; try: python -m repro list")
        return 1
    error = _validate_way(args.way)
    if error:
        print(error)
        return 1
    machine = args.machine
    if machine is not None:
        if not is_registered(machine):
            print(
                f"unknown machine {machine!r}; registered: "
                f"{', '.join(machine_names())}"
            )
            return 1
        spec = get_machine(machine, args.way)
        version = spec.program
    else:
        version = args.isa
        spec = get_machine(version, args.way)
    _, program, _ = trace_source(SweepPoint(
        kernel=args.name, version=version, way=args.way, seed=args.seed,
        machine=machine,
    ))
    run = execute(KERNELS[args.name], program, seed=args.seed)
    print(run.trace.summary())
    print(f"functional check: {'ok' if run.correct else 'FAILED'}")
    timing = simulate_kernel(
        args.name, version, args.way, seed=args.seed, machine=machine
    )
    result = timing.result
    print(
        f"{args.way}-way {timing.machine_name}"
        + (f" (executing {program} binaries)" if program != timing.machine_name else "")
        + f": {result.cycles} cycles for "
        f"{result.instructions} instructions (IPC {result.ipc:.2f}), "
        f"{timing.cycles_per_invocation:.1f} cycles/invocation"
    )
    print(
        f"cycles by category: "
        + ", ".join(f"{k}={v}" for k, v in sorted(result.cat_cycles.items()))
    )
    print(
        f"branches: {result.branch_mispredicts}/{result.branch_lookups} mispredicted; "
        f"L1 misses {result.l1_misses}/{result.l1_accesses}, "
        f"L2 misses {result.l2_misses}/{result.l2_accesses}"
    )
    print("\nhottest mnemonics:")
    for name, count in mnemonic_histogram(run.trace, top=8):
        print(f"  {name:12s} {count}")
    if args.listing:
        print("\nlisting:")
        print(listing(run.trace, limit=args.listing))
    return 0 if run.correct else 2


def _split(text: str):
    return tuple(part for part in text.replace(",", " ").split() if part)


def _cmd_sweep(args) -> int:
    from repro.experiments.report import render_table
    from repro.sweep import (
        default_jobs,
        parse_shard_spec,
        read_points_file,
        shard_store_root,
        sweep,
    )

    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard_spec(args.shard)
        except ValueError as exc:
            print(exc)
            return 1
    if args.store is not None and args.store_root is not None:
        print("--store and --store-root name the same directory; pass only one")
        return 1
    if args.store_root is not None:
        # A campaign directory: each shard gets its own store root
        # underneath it, ready for `python -m repro store merge`.
        root = args.store_root
        if shard is not None:
            root = str(shard_store_root(root, *shard))
        os.environ["REPRO_STORE"] = root
    elif args.store is not None:
        # The store is selected through the environment so worker
        # processes and nested simulate_kernel calls agree on it.
        os.environ["REPRO_STORE"] = args.store

    if args.isas != "all" and args.machines is not None:
        print("--isas and --machines name the same axis; pass only one")
        return 1

    # The axis flags a --points-file or a --grid stands in for.
    axes_given = [
        flag
        for flag, value, default in (
            ("--kernels", args.kernels, "all"),
            ("--isas", args.isas, "all"),
            ("--machines", args.machines, None),
            ("--ways", args.ways, "all"),
            ("--seeds", args.seeds, "0"),
        )
        if value != default
    ]
    if args.points_file is not None:
        overridden = (["--grid"] if args.grid is not None else []) + axes_given
        if overridden:
            print(
                f"--points-file carries its own point list; "
                f"drop {', '.join(overridden)}"
            )
            return 1
        try:
            points = read_points_file(args.points_file)
        except (OSError, ValueError) as exc:
            print(f"--points-file: {exc}")
            return 1
    else:
        if args.grid and axes_given:
            print(
                f"--grid {args.grid} defines its own axes; "
                f"drop {', '.join(axes_given)} or spell the grid out "
                "explicitly"
            )
            return 1
        machines = args.machines
        if machines is None and args.isas != "all":
            machines = args.isas
        points, error = _axis_points(args, machines)
        if points is None:
            print(error)
            return 1

    jobs = args.jobs if args.jobs is not None else default_jobs()

    def progress(done, total, point, source):
        if not args.quiet:
            print(f"[{done}/{total}] {point.label:40s} {source}")

    report = sweep(points, jobs=jobs, progress=progress, shard=shard)
    if not args.quiet:
        rows = [
            (
                point.label,
                report[point].result.cycles,
                report[point].result.instructions,
                round(report[point].cycles_per_invocation, 1),
                source,
            )
            for point, source in zip(report.points, report.sources)
        ]
        print()
        print(
            render_table(
                ("point", "cycles", "instructions", "cycles/invocation", "source"),
                rows,
                title="Sweep results",
            )
        )
        print()
    print(report.summary())
    return 0


def _machine_rows():
    from repro.machines import registered_machines

    for spec in registered_machines():
        g = spec.geometry
        yield (
            spec.name,
            spec.way,
            spec.program,
            g.row_bits,
            g.lanes,
            g.max_vl,
            g.logical_regs,
            "yes" if g.matrix else "no",
            spec.fingerprint()[:12],
        )


def _manifest_payload() -> dict:
    from repro.machines import registered_machines

    return {
        "schema": 1,
        "machines": {
            spec.label: spec.fingerprint() for spec in registered_machines()
        },
    }


def _cmd_machines(args) -> int:
    from repro.experiments.report import render_table

    if args.write_manifest:
        payload = _manifest_payload()
        with open(args.manifest, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(payload['machines'])} fingerprints to {args.manifest}")
        return 0
    if args.validate:
        return _validate_machines(args.manifest)
    print(
        render_table(
            ("machine", "way", "program", "row bits", "lanes", "max VL",
             "logical regs", "matrix", "fingerprint"),
            list(_machine_rows()),
            title="Registered machines",
        )
    )
    return 0


def _validate_machines(manifest_path: str) -> int:
    """Instantiate, round-trip and fingerprint-check every machine.

    Also smoke-times one kernel on a non-paper machine, proving the
    registry's beyond-the-table entries sweep end-to-end.  Exits
    non-zero on any mismatch -- the CI gate.
    """
    from repro.machines import (
        get_family,
        json_roundtrip,
        registered_machines,
    )
    from repro.timing.simulator import simulate_kernel

    specs = registered_machines()
    failures = []
    for spec in specs:
        rebuilt = json_roundtrip(spec)
        if rebuilt != spec:
            failures.append(f"{spec.label}: JSON round-trip changed the spec")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        pinned = manifest.get("machines", {})
    except FileNotFoundError:
        print(
            f"manifest {manifest_path!r} not found; generate it with "
            "python -m repro machines --write-manifest"
        )
        return 1
    except ValueError as exc:
        print(f"manifest {manifest_path!r} is not valid JSON: {exc}")
        return 1
    current = {spec.label: spec.fingerprint() for spec in specs}
    for label, fingerprint in current.items():
        expected = pinned.get(label)
        if expected is None:
            failures.append(f"{label}: not pinned in {manifest_path}")
        elif expected != fingerprint:
            failures.append(
                f"{label}: fingerprint {fingerprint[:12]}... != pinned "
                f"{expected[:12]}... (regenerate the manifest if the "
                "change is intentional)"
            )
    for label in pinned:
        if label not in current:
            failures.append(f"{label}: pinned but no longer registered")
    smoke = next(
        (spec for spec in specs if not get_family(spec.name).paper), None
    )
    if smoke is None:
        failures.append("no non-paper machine registered to smoke-test")
    else:
        timing = simulate_kernel(
            SMOKE_KERNEL, smoke.program, smoke.way,
            machine=None if smoke.is_native_program else smoke.name,
        )
        if timing.result.cycles <= 0:
            failures.append(f"{smoke.label}: smoke timing returned no cycles")
        else:
            print(
                f"smoke: {SMOKE_KERNEL} on {smoke.label} -> "
                f"{timing.result.cycles} cycles "
                f"(IPC {timing.result.ipc:.2f})"
            )
    if failures:
        print(f"machine registry validation FAILED ({len(failures)}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"machine registry ok: {len(specs)} machines, fingerprints match "
        f"{manifest_path}"
    )
    return 0


def _store_for_maintenance(args):
    """Resolve the store a ``store`` verb operates on, or (None, error)."""
    from repro.sweep import ResultStore, default_store

    if getattr(args, "store_root", None) is not None:
        return ResultStore(args.store_root), None
    store = default_store()
    if store is None:
        return None, (
            "the result store is disabled (REPRO_STORE=off); pass "
            "--store-root DIR to name one explicitly"
        )
    return store, None


def _axis_points(args, machines):
    """The deduped point list named by --grid or the axis flags.

    Shared by ``sweep`` and ``store missing``: the flags are parsed
    here, and :func:`repro.sweep.points.resolve_points` validates them
    and builds the list; ``machines`` is the machine-axis flag's text
    (None: the paper ISAs).  Returns ``(points, error_message)``.
    """
    from repro.sweep.points import resolve_points

    def ints(text):
        try:
            return tuple(int(part) for part in _split(text))
        except ValueError as exc:
            raise ValueError(
                f"--ways/--seeds take comma-separated integers: {exc}"
            ) from None

    try:
        if args.grid:
            return resolve_points(args.grid), None
        return resolve_points(
            kernels=_split(args.kernels) if args.kernels != "all" else None,
            machines=_split(machines) if machines is not None else None,
            ways=ints(args.ways) if args.ways != "all" else None,
            seeds=ints(args.seeds),
        ), None
    except ValueError as exc:
        return None, str(exc)


def _cmd_store(args) -> int:
    from repro.sweep import ResultStore

    store, error = _store_for_maintenance(args)
    if store is None:
        print(error)
        return 1

    if args.verb == "stats":
        stats = store.stats()
        if args.json:
            # The machine-readable contract: the same schema-stamped
            # mapping ``/metrics`` embeds, stable for scripts to parse.
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"store {stats['root']}:")
        print(f"  {stats['records']} records, {stats['bytes']} bytes")
        for kind, count in stats["by_kind"].items():
            print(f"  {kind}: {count}")
        for code, count in stats["code_versions"].items():
            current = " (current)" if code == stats["current_code"] else ""
            print(f"  code {code[:12]}...: {count} records{current}")
        if stats["unstamped"]:
            print(f"  unstamped (pre-maintenance records): {stats['unstamped']}")
        if stats["corrupt"]:
            print(f"  corrupt (run 'store verify' for detail): {stats['corrupt']}")
        return 0

    if args.verb == "verify":
        report = store.verify()
        print(report.summary())
        return 0 if report.ok else 1

    if args.verb == "missing":
        from repro.sweep import point_key

        points, error = _axis_points(args, args.machines)
        if points is None:
            print(error)
            return 1
        keyed = {point_key(point): point for point in points}
        absent = store.missing(list(keyed))
        for key in absent:
            print(f"{key}  {keyed[key].label}")
        print(
            f"store {store.root}: {len(points) - len(absent)}/{len(points)} "
            f"points present, {len(absent)} missing"
        )
        # Exit 2 (not 1) so scripts can tell "work to do" from "usage
        # error" -- the campaign dispatcher keys off this.
        return 2 if absent else 0

    if args.verb == "gc":
        stats = store.gc(
            keep_code_versions=args.keep_code,
            drop_unstamped=args.drop_unstamped,
            dry_run=args.dry_run,
        )
        prefix = "[dry-run] " if args.dry_run else ""
        print(prefix + stats.summary())
        return 0

    if args.verb == "merge":
        total = 0
        conflicted = False
        for source in args.sources:
            try:
                stats = store.merge(ResultStore(source))
            except ValueError as exc:
                print(exc)
                return 1
            except OSError as exc:
                print(f"merge from {source!r} failed: {exc}")
                return 1
            print(stats.summary())
            total += stats.merged
            # Conflicts keep ours, so continuing is safe: merge every
            # source, then fail loudly rather than leave later shards
            # silently unmerged.
            for key in stats.conflicts:
                print(f"  conflict (kept ours): {key}")
                conflicted = True
        print(f"store {store.root}: {total} records merged in")
        return 1 if conflicted else 0

    if args.verb == "export":
        try:
            count = store.export(args.archive)
        except OSError as exc:
            print(f"export to {args.archive!r} failed: {exc}")
            return 1
        print(f"exported {count} records to {args.archive}")
        return 0

    if args.verb == "import":
        try:
            stats = store.import_(args.archive)
        except (OSError, tarfile.TarError) as exc:
            print(f"import from {args.archive!r} failed: {exc}")
            return 1
        print(stats.summary())
        # Rejected members mean the archive lost records in transit --
        # campaign scripts must see that in the exit code.
        return 1 if stats.conflicts or stats.rejected else 0

    print(f"unknown store verb {args.verb!r}")  # pragma: no cover
    return 1


def _campaign_manifest_from_args(args):
    """Resolve the :class:`CampaignManifest` a campaign verb operates on.

    Precedence: an explicit ``--manifest FILE``; else ``<--root>/
    campaign.json`` when it exists and no axis flags were given; else a
    fresh manifest built from the flags (written by ``run``).  Returns
    ``(manifest, error_message)``.
    """
    from repro.sweep.dispatch import (
        MANIFEST_NAME,
        CampaignError,
        CampaignManifest,
        campaign_home,
    )

    if args.manifest is not None:
        try:
            return CampaignManifest.load(args.manifest), None
        except CampaignError as exc:
            return None, str(exc)
    axis_flags = (args.grid, args.kernels, args.machines, args.ways,
                  args.seeds, args.shards)
    axes_given = any(value is not None for value in axis_flags)
    if args.root is not None:
        existing = os.path.join(os.path.expanduser(args.root), MANIFEST_NAME)
        if os.path.exists(existing) and not axes_given:
            try:
                return CampaignManifest.load(existing), None
            except CampaignError as exc:
                return None, str(exc)
        if args.verb in ("status", "resume") and not axes_given:
            # Refuse to fabricate a default manifest for a directory
            # that holds no campaign: status would otherwise report a
            # phantom "0/N shards complete" for a mistyped --root.
            return None, f"no campaign manifest at {existing}"
    if args.verb in ("status", "resume") and not axes_given and args.root is None:
        return None, (
            f"name the campaign: --root DIR (holding {MANIFEST_NAME}), "
            "--manifest FILE, or the original --grid/--shards flags"
        )
    # Only the flags the user actually gave are passed along, so
    # CampaignManifest's own dataclass defaults stay the single source
    # of truth for every campaign default.
    kwargs = {"root": args.root or "", "grid": args.grid}
    if args.kernels:
        kwargs["kernels"] = _split(args.kernels)
    if args.machines:
        kwargs["machines"] = _split(args.machines)
    try:
        if args.ways:
            kwargs["ways"] = tuple(int(w) for w in _split(args.ways))
        if args.seeds:
            kwargs["seeds"] = tuple(int(s) for s in _split(args.seeds))
        if args.hosts:
            kwargs["hosts"] = _split(args.hosts)
        for name, value in (
            ("shards", args.shards),
            ("executor", args.executor),
            ("transport", args.transport),
            ("jobs", args.jobs),
            ("max_attempts", args.retries),
        ):
            if value is not None:
                kwargs[name] = value
        manifest = CampaignManifest(**kwargs)
    except (CampaignError, ValueError) as exc:
        return None, str(exc)
    if not manifest.root:
        # Deterministic default root: rerunning the same command finds
        # the same campaign directory and therefore resumes it.
        import dataclasses

        manifest = dataclasses.replace(
            manifest, root=str(campaign_home() / manifest.slug())
        )
    return manifest, None


def _cmd_campaign(args) -> int:
    import dataclasses

    from repro.sweep.dispatch import (
        CampaignError,
        campaign_status,
        make_executor,
        run_campaign,
    )

    # Supervision flags are durations: zero or negative values would
    # either kill every attempt instantly or spin the poll loop, so
    # reject them by name (the $REPRO_JOBS precedent).
    for flag, value in (
        ("--timeout", args.timeout),
        ("--poll-interval", args.poll_interval),
        ("--heartbeat-window", args.heartbeat_window),
    ):
        if value is not None and value <= 0:
            print(f"{flag} takes a positive number of seconds, got {value}")
            return 1

    manifest, error = _campaign_manifest_from_args(args)
    if manifest is None:
        print(error)
        return 1
    # Policy flags override what a loaded manifest recorded: resuming a
    # dead subprocess campaign with --executor local is legitimate.
    overrides = {}
    if args.executor is not None:
        overrides["executor"] = args.executor
    if args.hosts:
        overrides["hosts"] = _split(args.hosts)
    if args.transport is not None:
        overrides["transport"] = args.transport
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.retries is not None:
        overrides["max_attempts"] = args.retries
    if overrides:
        try:
            manifest = dataclasses.replace(manifest, **overrides)
        except CampaignError as exc:
            print(exc)
            return 1

    if (
        args.verb in ("status", "resume")
        and args.manifest is None
        and not manifest.manifest_path().exists()
    ):
        # Axis flags that resolve to a campaign that was never started
        # must error like a mistyped --root would, not report a phantom
        # "0/N shards complete".
        print(
            f"no campaign manifest at {manifest.manifest_path()}; "
            "start the campaign with 'python -m repro campaign run'"
        )
        return 1

    if args.verb == "status":
        report = campaign_status(manifest)
        print(report.summary())
        for status in report.shards:
            beat = status.progress.heartbeat
            if beat is not None and not status.progress.done:
                print(
                    f"  shard {status.index + 1} last store write: "
                    f"{time.time() - beat:.0f}s ago"
                )
        return 0

    def echo(line: str) -> None:
        if not args.quiet:
            print(line)

    try:
        executor = make_executor(
            manifest,
            poll_interval=args.poll_interval,
            timeout=args.timeout,
            heartbeat_window=args.heartbeat_window,
        )
        report = run_campaign(manifest, executor=executor, echo=echo)
    except CampaignError as exc:
        print(exc)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    if args.store is not None:
        # Through the environment so nested simulate_kernel calls and
        # backfill sweeps agree on it, exactly as `sweep --store` does.
        os.environ["REPRO_STORE"] = args.store
    from repro.sweep import default_store

    store = default_store()
    if store is None:
        print(
            "the result store is disabled (REPRO_STORE=off); the server "
            "needs one -- pass --store DIR"
        )
        return 1

    from repro.serve import ServeApp, serve_forever

    log = None if args.quiet else print
    app = ServeApp(
        store=store,
        cache_bytes=args.cache_mb * 1024 * 1024,
        workers=args.workers,
        coalesce=not args.no_coalesce,
        log=log,
    )

    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

        def ready(host: str, port: int) -> None:
            print(
                f"serving on http://{host}:{port} (store {store.root}, "
                f"{args.workers} workers, coalescing "
                f"{'off' if args.no_coalesce else 'on'})",
                flush=True,
            )

        await serve_forever(app, args.host, args.port, ready=ready, stop=stop)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover
        pass
    print("server drained; bye")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The complete ``python -m repro`` argument parser.

    Exposed as a function so tests (and the docs link-checker) can
    introspect the registered subcommands and their flags without
    executing anything.
    """
    from repro.emu import VERSION_NAMES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list kernels and machines")
    machines = sub.add_parser(
        "machines", help="inspect or validate the machine registry"
    )
    machines.add_argument("--validate", action="store_true",
                          help="check every registered spec against the "
                               "fingerprint manifest and smoke-time one kernel")
    machines.add_argument("--manifest", default=DEFAULT_MANIFEST, metavar="PATH",
                          help=f"fingerprint manifest (default: {DEFAULT_MANIFEST})")
    machines.add_argument("--write-manifest", action="store_true",
                          help="regenerate the fingerprint manifest")
    kernel = sub.add_parser("kernel", help="emulate + time one kernel")
    kernel.add_argument("name")
    kernel.add_argument("--isa", default="vmmx128", choices=list(VERSION_NAMES),
                        help="kernel version / architected machine")
    kernel.add_argument("--machine", default=None, metavar="NAME",
                        help="registered machine to time on (its program "
                             "selects the kernel version; overrides --isa)")
    kernel.add_argument("--way", type=int, default=2,
                        help="machine width (any positive integer; widths "
                             "beyond 2/4/8 come from the scaling curves)")
    kernel.add_argument("--seed", type=int, default=0)
    kernel.add_argument("--listing", type=int, default=0, metavar="N",
                        help="print the first N trace records")
    sweep = sub.add_parser(
        "sweep", help="evaluate a design-space grid (parallel, store-backed)"
    )
    sweep.add_argument("--grid", default=None, metavar="NAME",
                       help="named grid: fig4, fig5, fig6, fig7 or full")
    sweep.add_argument("--kernels", default="all",
                       help="comma-separated kernel names (default: all)")
    sweep.add_argument("--isas", default="all",
                       help="comma-separated ISA versions (default: the four "
                            "paper ISAs)")
    sweep.add_argument("--machines", default=None,
                       help="comma-separated registered machine names "
                            "(alias of --isas that also accepts non-paper "
                            "machines such as mmx256)")
    sweep.add_argument("--ways", default="all",
                       help="comma-separated machine widths (default: 2,4,8)")
    sweep.add_argument("--seeds", default="0",
                       help="comma-separated workload seeds (default: 0)")
    sweep.add_argument("--points-file", default=None, metavar="FILE",
                       help="JSON point list written by the campaign "
                            "rebalancer (see write_points_file); replaces "
                            "--grid and the axis flags")
    sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="parallel worker processes (default: $REPRO_JOBS or 1)")
    sweep.add_argument("--store", default=None, metavar="PATH",
                       help="result-store directory (default: $REPRO_STORE or "
                            "~/.cache/repro-sweep; 'off' disables)")
    sweep.add_argument("--shard", default=None, metavar="I/N",
                       help="run only shard I of N (1-based, e.g. 1/4); "
                            "shards are trace-grouped so each kernel is "
                            "emulated in exactly one shard")
    sweep.add_argument("--store-root", default=None, metavar="DIR",
                       help="campaign directory: each shard writes its own "
                            "store under DIR (shard-I-of-N), ready for "
                            "'store merge'")
    sweep.add_argument("--quiet", action="store_true",
                       help="only print the final summary line")
    store = sub.add_parser(
        "store", help="maintain a result store (merge, gc, verify, stats, "
                      "missing, export, import)"
    )
    store.add_argument("--store-root", default=None, metavar="DIR",
                       help="store to operate on (default: $REPRO_STORE or "
                            "~/.cache/repro-sweep)")
    verbs = store.add_subparsers(dest="verb", required=True)
    stats_p = verbs.add_parser(
        "stats", help="record counts, sizes and code versions"
    )
    stats_p.add_argument("--json", action="store_true",
                         help="emit the schema-stamped machine-readable "
                              "stats mapping instead of prose")
    missing = verbs.add_parser(
        "missing",
        help="list the points of a grid this store has no record for "
             "(exit 0 complete, 2 incomplete)",
    )
    missing.add_argument("--grid", default=None, metavar="NAME",
                         help="named grid: fig4, fig5, fig6, fig7 or full")
    missing.add_argument("--kernels", default="all",
                         help="comma-separated kernel names (default: all)")
    missing.add_argument("--machines", default=None,
                         help="comma-separated registered machine names "
                              "(default: the four paper ISAs)")
    missing.add_argument("--ways", default="all",
                         help="comma-separated machine widths "
                              "(default: 2,4,8)")
    missing.add_argument("--seeds", default="0",
                         help="comma-separated workload seeds (default: 0)")
    verbs.add_parser("verify", help="re-hash every payload; non-zero exit on "
                                    "any corruption")
    gc = verbs.add_parser("gc", help="drop records from retired code versions")
    gc.add_argument("--keep-code", action="append", default=[], metavar="HEX",
                    help="extra code-version digest to keep (repeatable; the "
                         "current version is always kept)")
    gc.add_argument("--drop-unstamped", action="store_true",
                    help="also drop records written before code-version "
                         "stamping existed")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without removing it")
    merge = verbs.add_parser(
        "merge", help="merge per-shard stores into this one"
    )
    merge.add_argument("sources", nargs="+", metavar="SRC",
                       help="store roots to merge in (e.g. DIR/shard-1-of-2)")
    export = verbs.add_parser(
        "export", help="write all records to a deterministic tarball"
    )
    export.add_argument("archive", metavar="ARCHIVE.tar.gz")
    imp = verbs.add_parser("import", help="load an exported tarball")
    imp.add_argument("archive", metavar="ARCHIVE.tar.gz")
    campaign = sub.add_parser(
        "campaign",
        help="orchestrate a sharded sweep campaign (run, status, resume)",
    )
    campaign_verbs = campaign.add_subparsers(dest="verb", required=True)
    campaign_run = campaign_verbs.add_parser(
        "run",
        help="launch every shard of a campaign, then merge + verify + "
             "promote the result store (idempotent: complete shards are "
             "skipped)",
    )
    campaign_status_p = campaign_verbs.add_parser(
        "status",
        help="per-shard progress and heartbeats, read from the shard "
             "stores (safe while workers run)",
    )
    campaign_resume = campaign_verbs.add_parser(
        "resume",
        help="restart a killed campaign from its manifest + shard stores "
             "(recomputes only missing points)",
    )
    for verb_parser in (campaign_run, campaign_status_p, campaign_resume):
        verb_parser.add_argument(
            "--root", default=None, metavar="DIR",
            help="campaign directory (holds campaign.json, the per-shard "
                 "stores, logs/ and the promoted merged store; default: a "
                 "deterministic directory under $REPRO_CAMPAIGN_HOME or "
                 "~/.cache/repro-campaigns)")
        verb_parser.add_argument(
            "--manifest", default=None, metavar="FILE",
            help="explicit campaign manifest to operate on (overrides "
                 "--root)")
        verb_parser.add_argument(
            "--grid", default=None, metavar="NAME",
            help="named grid: fig4, fig5, fig6, fig7 or full")
        verb_parser.add_argument(
            "--kernels", default=None,
            help="comma-separated kernel names (default: all)")
        verb_parser.add_argument(
            "--machines", default=None,
            help="comma-separated registered machine names (default: the "
                 "four paper ISAs)")
        verb_parser.add_argument(
            "--ways", default=None,
            help="comma-separated machine widths (default: 2,4,8)")
        verb_parser.add_argument(
            "--seeds", default=None,
            help="comma-separated workload seeds (default: 0)")
        verb_parser.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="number of shards to split the campaign into (default: 2)")
        verb_parser.add_argument(
            "--executor", default=None, metavar="NAME",
            help="shard launcher: 'local' (in-process, default), "
                 "'subprocess' (one supervised python -m repro sweep "
                 "worker slot per shard on this machine) or 'ssh' "
                 "(workers on fleet hosts; needs --hosts)")
        verb_parser.add_argument(
            "--hosts", default=None, metavar="A,B,C",
            help="comma-separated fleet hosts for the ssh executor "
                 "(anything your ssh config resolves; shards round-robin "
                 "over them and dead hosts' work rebalances onto "
                 "survivors)")
        verb_parser.add_argument(
            "--transport", default=None, metavar="NAME",
            help="how the ssh executor reaches hosts: 'ssh' (default) or "
                 "'loopback' (hosts are local scratch directories -- "
                 "exercises the full fleet path with zero infrastructure)")
        verb_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes per shard sweep (default: 1)")
        verb_parser.add_argument(
            "--retries", type=int, default=None, metavar="K",
            help="maximum attempts per shard before the campaign fails "
                 "(default: 3; every attempt recomputes only what its "
                 "shard store lacks)")
        verb_parser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="kill a shard attempt that runs longer than this "
                 "(default: no wall-clock limit)")
        verb_parser.add_argument(
            "--poll-interval", type=float, default=None, metavar="SECONDS",
            help="supervision poll cadence for worker executors "
                 "(default: 0.5)")
        verb_parser.add_argument(
            "--heartbeat-window", type=float, default=None, metavar="SECONDS",
            help="declare a worker attempt dead when its store goes "
                 "this long without a write "
                 "(default: no heartbeat supervision)")
        verb_parser.add_argument(
            "--quiet", action="store_true",
            help="only print the final campaign summary")
    serve = sub.add_parser(
        "serve",
        help="asyncio HTTP query front-end over the result store "
             "(figures, tables, points, batched re-timing)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8377,
                       help="TCP port (default: 8377; 0 picks a free one)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="result-store directory to serve from (default: "
                            "$REPRO_STORE or ~/.cache/repro-sweep)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="background executor threads (default: 2; "
                            "compute is lock-serialised, extra workers "
                            "only parallelise store reads)")
    serve.add_argument("--cache-mb", type=int, default=64, metavar="MB",
                       help="payload-cache (response body) budget in MiB "
                            "(default: 64)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable single-flight request coalescing "
                            "(benchmarking aid)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "machines":
        return _cmd_machines(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "kernel" and args.machine is None and args.isa == "scalar":
        print("timing configs exist for SIMD ISAs; use --isa mmx64/.../vmmx128")
        return 1
    return _cmd_kernel(args)


if __name__ == "__main__":
    raise SystemExit(main())
