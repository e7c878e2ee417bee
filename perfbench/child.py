"""Child process that runs one ontoembed command the way the console script does.

    python3 perfbench/child.py STAMP [--trace OUT.json] -- ARGV...
    python3 perfbench/child.py STAMP --tokenize TEXTS.json OUT.json

The first form imports ``ontoembed.cli``, writes ``time.monotonic()`` to
STAMP just before entering ``cli.main`` (so the parent can measure set-up
time), then exits with ``cli.main(ARGV)``'s return code.  With ``--trace``
the package's public functions are wrapped by ``tracer.Tracer`` first and
the spans are written to OUT.json when the command ends.

The second form times ``encoder.tokenize`` over the texts in TEXTS.json
(``{"<vocab_buckets>:<hash_seed>": [text, ...]}``) in this fresh process, so
the tokenizer cache starts cold, and writes the timings to OUT.json.
"""

from __future__ import annotations

import json
import sys
import time


def _stamp(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))


def _tokenize(stamp: str, texts_path: str, out_path: str) -> int:
    from ontoembed import encoder

    with open(texts_path, encoding="utf-8") as fh:
        groups = json.load(fh)
    _stamp(stamp)
    calls, total = 0, 0.0
    for key, texts in sorted(groups.items()):
        buckets, hash_seed = (int(x) for x in key.split(":"))
        config = encoder.EncoderConfig(vocab_buckets=buckets, hash_seed=hash_seed)
        start = time.perf_counter()
        for text in texts:
            encoder.tokenize(config, text)
        total += time.perf_counter() - start
        calls += len(texts)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "total_s": total}, fh)
    return 0


def main(argv: list[str]) -> int:
    stamp = argv[0]
    if argv[1] == "--tokenize":
        return _tokenize(stamp, argv[2], argv[3])
    trace_out = argv[2] if argv[1] == "--trace" else None
    command = argv[argv.index("--") + 1:]

    from ontoembed import cli

    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _stamp(stamp)
    try:
        return cli.main(command)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
