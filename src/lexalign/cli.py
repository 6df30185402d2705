"""Command-line front end.

One executable, subcommands for each operation. Exit codes: 0 success,
1 usage error, 2 data error (bad files, shapes, vocabulary problems),
3 external service error (translation endpoint failures).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys

from . import __version__
from .dictionary import (clean_dictionary, load_dictionary, merge_dictionaries,
                         save_dictionary, split_dictionary)
from .errors import DataError, ExternalServiceError, LexalignError, LocatedError, \
    PipelineStageError, TranslationError, describe, read_lines
from .options import DEFAULT_NORMALIZE, DICT_DIRECTIONS, MEEMI, METHODS, NORM_STEPS, \
    ONE_PAIR_METHODS, OOV_POLICIES, ORTHOGONAL
from .translate import HttpTranslationClient, MAX_WORKERS, ReplayClient, reverse_filter, \
    translate_wordlist

# Only numpy-free modules are imported above, so --version, --help and the
# dict-* commands start without numpy; each numeric command imports what it
# uses when it runs.

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SERVICE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_steps(text: str) -> tuple:
    if text in ("", "none"):
        return ()
    steps = tuple(part.strip() for part in text.split(","))
    bad = [step for step in steps if step not in NORM_STEPS]
    if bad:
        raise DataError(f"unknown normalization steps {bad}, expected some of {NORM_STEPS}")
    return steps


def _parse_ks(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"bad k list {text!r}, expected comma-separated integers") from None


def _bounded(kind, low, high, what: str):
    """An argparse type: the text read as kind, accepted from low to high;
    anything else, NaN included, is a usage error that says what."""
    def check(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return check


_worker_count = _bounded(int, 1, MAX_WORKERS, f"an integer from 1 to {MAX_WORKERS}")
_rate = _bounded(float, sys.float_info.min, sys.float_info.max, "a finite number above 0")
_retry_count = _bounded(int, 0, math.inf, "an integer of 0 or more")


def run_pipeline(config):
    """pipeline.run_pipeline, imported when called. perfbench/tracer.py times a
    `run` by wrapping this module attribute, so cmd_run calls it by this name
    until the library records its own stage timings."""
    from .pipeline import run_pipeline
    return run_pipeline(config)


def cmd_align(args) -> int:
    from .embeddings import language_of
    from .pipeline import fit_files, read_dictionary, write_spaces
    steps = _parse_steps(args.normalize)
    if args.method in ONE_PAIR_METHODS and not args.out_ref:
        raise _UsageError(f"method {args.method} moves the reference space too; "
                          f"pass --out-ref")
    ref_lang = language_of(args.ref, args.ref_lang)
    lang = language_of(args.other, args.other_lang)
    dictionaries = {lang: read_dictionary(args.dict, ref_lang, lang, args.dict_direction)}
    aligned = fit_files(args.method, (args.ref, ref_lang), [(args.other, lang)], dictionaries,
                        steps, args.max_words, args.lowercase,
                        reweight_p=args.reweight_p, reduce_dim=args.reduce_dim)
    write_spaces([(aligned[lang], args.out, None)]
                 + ([(aligned[ref_lang], args.out_ref, None)] if args.out_ref else []))
    return EXIT_OK


def cmd_align_multi(args) -> int:
    from .embeddings import language_of
    from .pipeline import fit_files, read_dictionary, write_spaces
    steps = _parse_steps(args.normalize)
    pair_parts = [text.split(":") for text in args.pair]
    for text, parts in zip(args.pair, pair_parts):
        if len(parts) != 3:
            raise _UsageError(f"bad --pair {text!r}, expected LANG:VEC:DICT")
    ref_lang = language_of(args.ref, args.ref_lang)
    dictionaries = {lang: read_dictionary(dict_path, ref_lang, lang, "ref2other")
                    for lang, _, dict_path in pair_parts}
    aligned = fit_files(args.method, (args.ref, ref_lang),
                        [(vec_path, lang) for lang, vec_path, _ in pair_parts], dictionaries,
                        steps, args.max_words, args.lowercase,
                        args.sources.split(",") if args.sources else [],
                        all_combinations=args.all_combinations)
    os.makedirs(args.out_dir, exist_ok=True)
    write_spaces([(aligned[lang], os.path.join(args.out_dir, f"{lang}.aligned.vec"), None)
                  for lang in aligned.languages()])
    return EXIT_OK


def cmd_meemi(args) -> int:
    from .embeddings import language_of
    from .pipeline import fit_files, read_dictionary, write_spaces
    src_lang, hub = language_of(args.src, args.src_lang), language_of(args.tgt, args.tgt_lang)
    dictionaries = {src_lang: read_dictionary(args.dict, hub, src_lang, "other2ref")}
    # the two spaces share coordinates already: only the midpoint refit runs
    result = fit_files(MEEMI, (args.tgt, hub), [(args.src, src_lang)], dictionaries,
                       prealigned=True)
    write_spaces([(result[src_lang], args.out_src, None), (result[hub], args.out_tgt, None)])
    return EXIT_OK


def cmd_induce(args) -> int:
    from .induction import induce
    from .pipeline import load_spaces
    files = [(args.space, args.lang), (args.query_space, args.query_lang)]
    spaces = load_spaces(files if args.query_space is not None else files[:1])
    for word, score in induce(spaces[-1].vector(args.word), spaces[0], args.k):  # query, target
        print(f"{word}\t{score:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .induction import precision_at_k, render_report
    from .pipeline import load_spaces
    src, tgt = load_spaces([(args.src, args.src_lang), (args.tgt, args.tgt_lang)])
    test = load_dictionary(args.test, src.language, tgt.language)
    # nothing reads tgt after this call, so it is divided in place
    report = precision_at_k(src, tgt, test, ks=_parse_ks(args.ks),
                            oov_policy=args.oov_policy, method_label=args.label,
                            in_place=True)
    text = render_report([report], args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_dict_build(args) -> int:
    if not args.endpoint and not args.cache:
        raise _UsageError("dict-build needs --endpoint or --cache")
    words = [line.strip() for _, line in read_lines(args.words) if line.strip()]
    with contextlib.ExitStack() as stack:
        if args.endpoint:
            client = stack.enter_context(HttpTranslationClient(
                args.endpoint, rps=args.rps, cache_path=args.cache,
                max_retries=args.retries))
        else:
            client = ReplayClient(args.cache)
        pairs, forward = translate_wordlist(client, words, args.src_lang, args.tgt_lang,
                                            workers=args.workers)
        summary = {"requested": forward.requested, "translated": forward.kept,
                   "dropped_multi_token": forward.dropped_multi_token,
                   "dropped_empty": forward.dropped_empty,
                   "failed": len(forward.failed)}
        if forward.requested and len(forward.failed) == forward.requested:
            raise TranslationError(f"all {forward.requested} translation requests failed")
        if not args.no_reverse:
            pairs, backward = reverse_filter(client, pairs, fold_case=args.fold_case,
                                             workers=args.workers)
            summary.update({"round_trip_checked": backward.checked,
                            "round_trip_kept": backward.kept,
                            "round_trip_mismatched": backward.mismatched,
                            "round_trip_failed": len(backward.failed)})
    save_dictionary(pairs, args.out)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_dict_clean(args) -> int:
    pairs = load_dictionary(args.infile, on_bad_lines=args.on_bad_lines)
    cleaned = clean_dictionary(pairs)
    save_dictionary(cleaned, args.out)
    print(json.dumps({"read": len(pairs), "kept": len(cleaned)}, sort_keys=True))
    return EXIT_OK


def cmd_dict_merge(args) -> int:
    dicts = [load_dictionary(path) for path in args.infile]
    merged = dicts[0]
    for other in dicts[1:]:
        merged = merge_dictionaries(merged, other,
                                    reapply_token_filter=args.reapply_token_filter)
    save_dictionary(merged, args.out)
    print(json.dumps({"read": sum(len(d) for d in dicts), "kept": len(merged)},
                     sort_keys=True))
    return EXIT_OK


def cmd_dict_split(args) -> int:
    pairs = load_dictionary(args.infile)
    train, test = split_dictionary(pairs, args.test_size, args.seed)
    save_dictionary(train, args.out_train)
    save_dictionary(test, args.out_test)
    print(json.dumps({"train": len(train), "test": len(test)}, sort_keys=True))
    return EXIT_OK


def cmd_run(args) -> int:
    from .pipeline import PipelineConfig
    try:
        raw = json.loads("".join(line for _, line in read_lines(args.config)))
    except json.JSONDecodeError as exc:
        raise LocatedError(f"{exc.msg} at column {exc.colno}", exc.lineno,
                           args.config) from None
    if not isinstance(raw, dict):
        raise DataError(f"{args.config}: the config must be a JSON object, "
                        f"got {type(raw).__name__}")
    for override in args.set or []:
        if "=" not in override:
            raise _UsageError(f"bad --set {override!r}, expected KEY=VALUE")
        key, _, value = override.partition("=")
        try:
            raw[key] = json.loads(value)
        except ValueError:
            raw[key] = value
    manifest = run_pipeline(PipelineConfig.from_dict(raw))
    print(json.dumps({"out_dir": raw["out_dir"],
                      "artifacts": sorted(manifest["artifacts"])}, sort_keys=True))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lexalign", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common_space_args(p):
        p.add_argument("--normalize", default=",".join(DEFAULT_NORMALIZE),
                       help="comma-separated steps (unit, center) or 'none'")
        p.add_argument("--max-words", type=int, default=None)
        p.add_argument("--lowercase", action="store_true")

    p = sub.add_parser("align", help="align one space onto a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True, help="aligned other-language vectors")
    p.add_argument("--out-ref", default=None,
                   help="where to write the reference when the method moves it")
    p.add_argument("--method", choices=(ORTHOGONAL, *ONE_PAIR_METHODS), default=ORTHOGONAL)
    p.add_argument("--ref-lang", default=None)
    p.add_argument("--other-lang", default=None)
    p.add_argument("--dict-direction", choices=DICT_DIRECTIONS, default="ref2other")
    p.add_argument("--reweight-p", type=float, default=0.5)
    p.add_argument("--reduce-dim", type=int, default=None)
    common_space_args(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("align-multi", help="align several spaces onto one reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--ref-lang", default=None)
    p.add_argument("--pair", action="append", required=True, metavar="LANG:VEC:DICT")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=[m for m in METHODS if m not in ONE_PAIR_METHODS],
                   default=ORTHOGONAL)
    p.add_argument("--sources", default="",
                   help="comma-separated languages whose dictionary coverage is required")
    p.add_argument("--all-combinations", action="store_true")
    common_space_args(p)
    p.set_defaults(func=cmd_align_multi)

    p = sub.add_parser("meemi", help="midpoint refit of two already-aligned spaces")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.add_argument("--src-lang", default=None)
    p.add_argument("--tgt-lang", default=None)
    p.set_defaults(func=cmd_meemi)

    p = sub.add_parser("induce", help="nearest neighbors of one word")
    p.add_argument("--space", required=True, help="target vectors")
    p.add_argument("--lang", default=None)
    p.add_argument("--query-space", default=None,
                   help="where the query word lives (default: the target space)")
    p.add_argument("--query-lang", default=None)
    p.add_argument("--word", required=True)
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("eval", help="precision at k over a test dictionary")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--src-lang", default=None)
    p.add_argument("--tgt-lang", default=None)
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--oov-policy", choices=OOV_POLICIES, default="skip")
    p.add_argument("--format", choices=["json", "tsv", "table"], default="table")
    p.add_argument("--label", default="")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dict-build", help="build a dictionary by round-trip translation")
    p.add_argument("--words", required=True, help="one word per line")
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--cache", default=None,
                   help="translation cache file (replayed when no endpoint is given)")
    p.add_argument("--rps", type=_rate, default=None)
    p.add_argument("--retries", type=_retry_count, default=3)
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--no-reverse", action="store_true",
                   help="skip the round-trip filter")
    p.add_argument("--fold-case", action="store_true")
    p.set_defaults(func=cmd_dict_build)

    p = sub.add_parser("dict-clean", help="drop duplicate and multi-token pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--on-bad-lines", choices=["error", "skip"], default="error")
    p.set_defaults(func=cmd_dict_clean)

    p = sub.add_parser("dict-merge", help="merge dictionaries, first occurrence wins")
    p.add_argument("--in", dest="infile", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reapply-token-filter", action="store_true")
    p.set_defaults(func=cmd_dict_merge)

    p = sub.add_parser("dict-split", help="hold out test source words")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--test-size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_dict_split)

    p = sub.add_parser("run", help="execute a configured pipeline")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a top-level config key; flags win over the file")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s",
                            level=logging.DEBUG if args.verbose else logging.INFO)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (LexalignError, OSError) as exc:
        logger.error("%s", describe(exc))
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        return EXIT_SERVICE if isinstance(cause, ExternalServiceError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
