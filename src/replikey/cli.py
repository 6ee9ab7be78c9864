"""Command line front end.

Every capability of the library is reachable as a subcommand over plain
files: genealogy text in, canonical text or stats out; inventory JSON in,
plans or updated inventories out; simulation parameters in, JSON or CSV
reports out.

Exit codes: 0 on success (a failed verification verdict is still a
success, the verdict is the answer), 1 on domain errors such as parse
failures or replication refusals, 2 on usage errors. Diagnostics go to
the error stream as a single line naming the file and line for parse
errors or the refusal rule for replication errors. Output files are only
written on success.

Everything is deterministic: rerunning a subcommand on the same inputs
produces byte-identical output, and the only randomness, in trust-sim,
is driven entirely by --seed.
"""

import argparse
import datetime
import json
import sys
import warnings
from fractions import Fraction

from . import genealogy as gen
from . import integrity as integ
from . import replicator as rep
from . import spreadsim as sim
from .units import GB, _count, _exact, _int_text, _json_pieces, sig6

__all__ = ["dispatch", "entry", "CliError"]


class CliError(Exception):
    """Domain error with a ready-to-print one-line message."""


# ---------------------------------------------------------------------------
# shared plumbing


def _load(path: str, read):
    """``read`` applied to the UTF-8 text of the file at ``path``.

    Every input file goes through here: a failure to read or decode it,
    or any error ``read`` raises for its content, becomes a one-line
    CliError naming the file.  Once ``read`` succeeds, each warning it
    emitted (genealogy lint findings) becomes one ``warning: <path>: ...``
    line on stderr.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise CliError(f"{path}: not valid UTF-8") from None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = read(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except (TypeError, ValueError, integ.IntegrityError, rep.ReplicationError) as exc:
            raise CliError(f"{path}: {exc}") from exc
    for w in caught:
        print(f"warning: {path}: {w.message}", file=sys.stderr)
    return loaded


_GROUP = 4096  # pieces per write when they are small
_GROUP_CHARS = 1 << 20  # a run of pieces longer than this is written piece by piece


def _write(fh, pieces: list) -> None:
    """Write ``pieces`` to the text stream ``fh`` in runs of ``_GROUP``:
    a run of fewer than ``_GROUP_CHARS`` characters joined into one
    write, a longer one, which holds a large piece, a piece at a time.
    Small pieces then pay one write call per run, not one each, and no
    join copies a large piece."""
    for start in range(0, len(pieces), _GROUP):
        run = pieces[start : start + _GROUP]
        if sum(map(len, run)) < _GROUP_CHARS:
            fh.write("".join(run))
        else:
            fh.writelines(run)


def _emit(pieces: list, out_path):
    """Write a handler's str pieces, all built before the file opens,
    never joined into one document."""
    if out_path in (None, "-"):
        _write(sys.stdout, pieces)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(fh, pieces)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _csv(rows) -> str:
    return "".join(",".join(str(cell) for cell in row) + "\n" for row in rows)


def _arg(check, parse=str):
    """An argparse type: a flag's text read by ``parse`` and passed by the
    library's ``check``, whose ValueError becomes argparse's usage line."""

    def convert(text: str):
        try:
            return check("value", parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


# ---------------------------------------------------------------------------
# genealogy subcommands


def _cmd_genealogy_parse(args) -> list:
    return next(gen._render((_load(args.input, gen.parse),)))  # serialize's pieces


def _cmd_genealogy_stats(args) -> list:
    s = gen.stats(_load(args.input, gen.parse))
    first, last = (
        None if t is None else t.isoformat(sep=" ") for t in (s.first_event, s.last_event)
    )
    if args.format == "json":
        doc = {
            "births": s.birth_count,
            "spawns": s.spawn_count,
            "upgrades": s.upgrade_count,
            "provenance_headers": s.provenance_count,
            "max_embedding_depth": s.max_embedding_depth,
            "first_event": first,
            "last_event": last,
        }
        return _json_pieces(doc)
    return [
        f"births={s.birth_count} spawns={s.spawn_count} upgrades={s.upgrade_count}\n"
        f"provenance_headers={s.provenance_count}\n"
        f"max_embedding_depth={s.max_embedding_depth}\n"
        f"first_event={first or 'none'}\n"
        f"last_event={last or 'none'}\n"
    ]


# ---------------------------------------------------------------------------
# replication subcommands


def _make_plan(args, inventory) -> rep.ClonePlan:
    target_id = rep.select_target(inventory)
    source = rep._boot_source(inventory)
    target = rep._device(inventory, target_id)
    mode = args.mode
    if mode == "auto":
        mode = "fresh" if target.contents is None else "upgrade"
    if mode == "fresh":
        return rep.plan_clone(
            source, target, args.bandwidth, allow_overwrite=args.allow_overwrite
        )
    return rep.plan_upgrade(source, target, args.bandwidth, upgrade_ratio=args.ratio)


def _plan_to_json(plan: rep.ClonePlan) -> list:
    doc = {
        "mode": plan.mode.value,
        "source": plan.source,
        "target": plan.target,
        "copy_set": sorted(plan.copy_set),
        "preserve_set": sorted(plan.preserve_set),
        "bytes_total": plan.bytes_total,
        "duration_s": sig6(plan.duration_s),
        "allow_overwrite": plan.allow_overwrite,
    }
    return _json_pieces(doc)


def _cmd_clone_plan(args) -> list:
    inventory = _load(args.inventory, rep.inventory_from_json)
    return _plan_to_json(_make_plan(args, inventory))


def _cmd_clone_exec(args) -> list:
    inventory = _load(args.inventory, rep.inventory_from_json)
    plan = _make_plan(args, inventory)
    updated = rep.execute_plan(plan, inventory, args.at)
    return _json_pieces(rep._inventory_doc(updated))


# ---------------------------------------------------------------------------
# simulation subcommands


def _sim_output(result, fmt: str) -> list:
    if fmt == "csv":
        return [_csv(sim.time_series_rows(result))]
    return _json_pieces(sim._result_doc(result))


def _cmd_sim_room(args) -> list:
    image_bytes = args.image_gb * GB
    if image_bytes.denominator != 1:
        raise CliError("image size must come to a whole number of bytes")
    config = sim.SimConfig(
        n_participants=args.n,
        seeds=args.seeds,
        ports_per_host=args.ports,
        image_bytes=int(image_bytes),
        bandwidth_mb_s=args.bandwidth,
        setup_delay_s=args.setup_s,
        track_genealogies=not args.count_only,
    )
    return _sim_output(sim.run_room(config), args.format)


def _cmd_sim_redeploy(args) -> list:
    result = _load(args.config, lambda text: sim.run_redeployment(sim.sim_config_from_json(text)))
    return _sim_output(result, args.format)


def _cmd_trust_sim(args) -> list:
    config = integ.TrustSimConfig(
        population=args.population,
        tampered_initial=args.tampered,
        meetings=args.meetings,
        protocol=integ.Protocol(args.protocol),
        rng_seed=args.seed,
        quarantine_flagged=not args.no_quarantine,
    )
    return _json_pieces(integ._trust_doc(integ.run_trust_sim(config)))


# ---------------------------------------------------------------------------
# integrity subcommands


def _key_on_device(args) -> rep.KeyState:
    """The key on ``--device`` (default: the boot source) of ``--inventory``."""
    inventory = _load(args.inventory, rep.inventory_from_json)
    if args.device is None:
        device = rep._boot_source(inventory)
    else:
        device = rep._device(inventory, args.device)
    if device.contents is None:
        raise CliError(f"device {device.id!r} holds no key")
    return device.contents


def _cmd_manifest(args) -> list:
    return [integ.manifest_to_text(integ.build_manifest(_key_on_device(args)))]


def _cmd_verify(args) -> list:
    key = _key_on_device(args)
    reference = _load(args.reference, integ.manifest_from_text)
    verdict = integ.check_against(key, reference)
    out = f"verdict={verdict.outcome.value}\n"
    if verdict.offending_path is not None:
        out += f"offending_path={verdict.offending_path}\n"
    return [out]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replikey",
        description="Model self-replicating bootable USB keys: genealogy "
        "logs, clone planning, spread simulation, integrity checks.",
    )
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)
    count = _arg(_count, _int_text)  # a count flag, in the text grammar of a log's counts

    def sub(name, handler, help_text):
        p = subs.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument(
            "-o",
            "--output",
            default=None,
            help="output file (default: standard output)",
        )
        return p

    p = sub("genealogy-parse", _cmd_genealogy_parse, "reprint a genealogy canonically")
    p.add_argument("input", help="genealogy text file")

    p = sub("genealogy-stats", _cmd_genealogy_stats, "count a genealogy's events")
    p.add_argument("input", help="genealogy text file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    def clone_flags(p):
        p.add_argument("--inventory", required=True, help="inventory JSON file")
        p.add_argument(
            "--bandwidth",
            type=_arg(_exact),
            default=sim.SimConfig.bandwidth_mb_s,
            help=f"write speed in decimal MB/s (default {float(sim.SimConfig.bandwidth_mb_s)})",
        )
        p.add_argument("--mode", choices=("auto", "fresh", "upgrade"), default="auto")
        p.add_argument(
            "--ratio",
            type=_arg(_exact),
            default=rep.DEFAULT_UPGRADE_RATIO,
            help="fraction of the image rewritten by an upgrade (default %(default)s)",
        )
        p.add_argument("--allow-overwrite", action="store_true")

    p = sub("clone-plan", _cmd_clone_plan, "select a target and plan the write")
    clone_flags(p)

    p = sub("clone-exec", _cmd_clone_exec, "plan and apply, printing the new inventory")
    clone_flags(p)
    p.add_argument(
        "--at",
        type=_arg(gen._timestamp, datetime.datetime.fromisoformat),
        required=True,
        help="completion timestamp, e.g. '2013-02-17 13:01:38+00:00'",
    )

    p = sub("sim-room", _cmd_sim_room, "spread one key through a room")
    p.add_argument("--n", type=count, required=True, help="participants")
    p.add_argument("--seeds", type=count, default=sim.SimConfig.seeds)
    p.add_argument("--ports", type=count, default=sim.SimConfig.ports_per_host)
    p.add_argument("--image-gb", type=_arg(_exact), default=Fraction(sim.SimConfig.image_bytes, GB))
    p.add_argument("--bandwidth", type=_arg(_exact), default=sim.SimConfig.bandwidth_mb_s)
    p.add_argument("--setup-s", type=_arg(_exact), default=sim.SimConfig.setup_delay_s)
    p.add_argument(
        "--count-only",
        action="store_true",
        help="skip per-key genealogies, keeping counts only",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub("sim-redeploy", _cmd_sim_redeploy, "push releases through a seeded fleet")
    p.add_argument("--config", required=True, help="simulation config JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub("trust-sim", _cmd_trust_sim, "measure infection spread under a protocol")
    p.add_argument("--population", type=count, required=True)
    p.add_argument("--tampered", type=count, default=0)
    p.add_argument("--meetings", type=count, required=True)
    p.add_argument(
        "--protocol",
        choices=tuple(proto.value for proto in integ.Protocol),
        required=True,
    )
    p.add_argument("--seed", type=int, default=0, help="drives all randomness")
    p.add_argument("--no-quarantine", action="store_true")

    p = sub("manifest", _cmd_manifest, "print a key's reference manifest")
    p.add_argument("--inventory", required=True)
    p.add_argument("--device", default=None, help="device id (default: boot source)")

    p = sub("verify", _cmd_verify, "check a key against a reference manifest")
    p.add_argument("--inventory", required=True)
    p.add_argument("--device", default=None, help="device id (default: boot source)")
    p.add_argument("--reference", required=True, help="manifest text file")

    return parser


def dispatch(argv=None) -> int:
    """Run one invocation; returns the exit code without exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _emit(args.handler(args), args.output)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except rep.ReplicationError as exc:
        print(f"error: {exc.rule}: {exc}", file=sys.stderr)
        return 1
    except (integ.IntegrityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
