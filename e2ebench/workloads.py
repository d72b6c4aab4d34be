"""The three workloads: ``parse_stream``, ``parse_bulk`` and ``train``.

Each drives the shipped system through its public API on documents made
from the workload seed.  One process, one thread: the load is a single
closed-loop client, so no ``repro.parallel`` workers run.

Every timed interval (a call, a set-up, a training repetition) is divided
by the host's speed around it, sampled with a fixed reference kernel
(:class:`measure.HostSpeed`), so the reported times are those of a host at
nominal speed: the shared host's own phases drop out, the program's speed
stays in.

The timed streams hold no blank resumes (pages, no sentences): the parser
raises on them today, a known defect, and every timed operation must
complete.  Each run instead parses ``BLANK_PROBES`` blank resumes once,
untimed, after measuring, and reports what happened to them.

Quality is scored on the first documents of the seeded stream only (a
fixed count per workload), so ``block_f1`` and ``entity_f1`` depend on
the seed and the code, never on how fast the machine ran.  Timing keeps
going on fresh documents until ``--seconds`` of wall time have passed and
the scored prefix is done.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro import persistence
from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    Pretrainer,
    ResuFormerConfig,
)
from repro.corpus import ContentConfig, ResumeGenerator, extract_block_examples
from repro.docmodel import ResumeDocument
from repro.nn import AdamW
from repro.pipeline import ResumeParser

import prepare
import quality
from measure import CallLog, HostSpeed, samples_for, timed_call

BLANK_PROBES = 3
SETUP_REPEATS = 7
#: Train's set-up (model and trainer construction) takes milliseconds, so
#: its median needs more of them to be steady.
TRAIN_SETUP_REPEATS = 25
#: Documents generated (untimed) between stretches of timed calls.
CHUNK = 10

STREAM_QUALITY_DOCS = 200
BULK_CALL_DOCS = 8
BULK_QUALITY_CALLS = 40
TRAIN_CORPUS_SEED = 7919
TRAIN_DOCS = 24
PRETRAIN_EPOCHS = 2
FINETUNE_EPOCHS = 10
BATCH_SIZE = 4
HELDOUT_DOCS = 300
#: Held-out documents parsed after each training repetition.
HELDOUT_SLICE = 30


@dataclass
class Outcome:
    """What one workload run measured, before it is turned into metrics."""

    log: CallLog = field(default_factory=CallLog)
    scores: quality.Scores = field(default_factory=quality.Scores)
    setup_seconds: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    scored: int = 0
    scored_failed: int = 0
    #: Traffic profiles; ``"scored"`` accumulates the scored documents.
    traffic: Dict[str, quality.Traffic] = field(default_factory=dict)
    #: Traced runs only: docs_per_s of the untraced and the traced half.
    phase_rates: List[float] = field(default_factory=list)
    #: Train only: document-epochs and seconds of training.
    trained_docs: int = 0
    train_seconds: float = 0.0
    host: HostSpeed = field(default_factory=HostSpeed)
    #: Untimed blank-resume probe: error name (or "parsed") -> count.
    blank_probe: Counter = field(default_factory=Counter)


def document_stream(seed: int, profiles, block: int = 1) -> Iterator[ResumeDocument]:
    """Fresh documents from ``seed``, their profiles drawn from ``profiles``.

    Each run of ``block`` documents holds every profile equally often, in
    shuffled order, so a bulk call of ``block`` documents always carries the
    same mix: the cost of a call then varies with the documents, not with a
    coin toss over their profiles.
    """
    generators = [
        ResumeGenerator(seed=seed * 31 + k, content_config=config)
        for k, config in enumerate(profiles)
    ]
    per_profile, rest = divmod(max(block, len(generators)), len(generators))
    assert rest == 0, "block must be a multiple of the number of profiles"
    mix = np.random.default_rng(seed)
    order: List[int] = []
    for index in itertools.count():
        if not order:
            order = list(mix.permutation(np.repeat(np.arange(len(generators)),
                                                   per_profile)))
        yield generators[order.pop()].generate_at(index, prefix=f"s{seed}")


def probe_blanks(parser_fn, seed: int, outcome: Outcome) -> None:
    """Parse ``BLANK_PROBES`` blank resumes, untimed; record what each did."""
    generator = ResumeGenerator(seed=seed * 31 + 17, content_config=ContentConfig.tiny())
    for index in range(BLANK_PROBES):
        source = generator.generate_at(index, prefix=f"blank{seed}")
        blank = ResumeDocument(source.doc_id, source.pages, [])
        _, result = timed_call(parser_fn, [blank])
        parsed = result if isinstance(result, Exception) else result[0]
        if isinstance(parsed, Exception):
            outcome.blank_probe[type(parsed).__name__] += 1
            continue
        outcome.blank_probe["parsed"] += 1
        outcome.problems.extend(
            f"{blank.doc_id}: {p}" for p in quality.violations(blank, parsed)
        )


class Harness:
    """Shared plumbing: root spans, outcome checks, set-up timing."""

    def __init__(self, outcome: Outcome, tracer=None):
        self.outcome = outcome
        self.tracer = tracer
        self.host = outcome.host

    def root(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def set_up(self, build: Callable):
        since = self.host.mark()
        with self.root("bench.setup"):
            seconds, system = timed_call(build)
        if isinstance(system, Exception):
            raise system
        self.outcome.setup_seconds.append(self.host.normalise(seconds, since))
        return system

    def call(self, fn: Callable, documents, log: CallLog, score: bool) -> None:
        """One timed call carrying ``documents``; checks and scores the results."""
        since = self.host.mark()
        with self.root("bench.call"):
            seconds, result = timed_call(fn, documents)
        seconds = self.host.normalise(seconds, since)
        outcomes = [result] * len(documents) if isinstance(result, Exception) else result
        if len(outcomes) != len(documents):
            self.outcome.problems.append(
                f"{len(outcomes)} results for {len(documents)} documents"
            )
        log.record(seconds, outcomes)
        for document, parsed in zip(documents, outcomes):
            failed = isinstance(parsed, Exception)
            if failed:
                self.outcome.problems.append(
                    f"{document.doc_id}: {type(parsed).__name__}: {parsed}"
                )
            else:
                self.outcome.problems.extend(
                    f"{document.doc_id}: {p}" for p in quality.violations(document, parsed)
                )
            if score:
                self.outcome.scores.add(document, None if failed else parsed)
                self.outcome.scored += 1
                self.outcome.scored_failed += failed
                if "scored" in self.outcome.traffic:
                    self.outcome.traffic["scored"].add(document)


def parse_one(parser: ResumeParser):
    return lambda documents: [parser.parse(documents[0])]


def parse_many(parser: ResumeParser):
    """The parser's bulk entry: ``parse_batch`` when it has one, else a loop."""
    parse_batch = getattr(parser, "parse_batch", None)
    if parse_batch is not None:
        return parse_batch

    def loop(documents):
        outcomes = []
        for document in documents:
            try:
                outcomes.append(parser.parse(document))
            except Exception as error:  # a failed document, not a failed call
                outcomes.append(error)
        return outcomes

    return loop


def _measure_parse(harness, parser_fn, stream, per_call, seconds, quality_calls,
                   min_calls, min_docs, log, between=lambda elapsed: None) -> None:
    start = time.perf_counter()

    def done():
        return (time.perf_counter() - start >= seconds and log.calls >= min_calls
                and log.sent >= min_docs)

    while not done():
        chunk = [next(stream) for _ in range(CHUNK * per_call)]
        for first in range(0, len(chunk), per_call):
            harness.call(parser_fn, chunk[first:first + per_call], log,
                         score=log.calls < quality_calls)
            between(time.perf_counter() - start)
            if done():
                break


def _set_ups(harness, build, seconds):
    """The first set-up now; the rest spread over the measured phase.

    Set-ups taken back to back all see the machine in the same state; spread
    over the run, their median is as steady as the run's other medians.
    Traced runs take them all up front, under the tracer.
    """
    if harness.tracer is not None:
        with harness.tracer:
            systems = [harness.set_up(build) for _ in range(SETUP_REPEATS)]
        return systems[-1], lambda elapsed: None
    marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

    def between(elapsed):
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            harness.set_up(build)

    return harness.set_up(build), between


def _traffic(classifier) -> quality.Traffic:
    return quality.Traffic(classifier.featurizer.tokenizer, classifier.encoder.config)


def _phases(harness, run_phase, seconds) -> None:
    """Untraced: one phase.  Traced: an untraced half, then a traced half."""
    outcome = harness.outcome
    if harness.tracer is None:
        run_phase(seconds, measured=outcome.log)
        return
    tracer, harness.tracer = harness.tracer, None
    first = CallLog()
    run_phase(seconds / 2, measured=first)
    harness.tracer = tracer
    with tracer:
        second = CallLog()
        run_phase(seconds / 2, measured=second)
    outcome.phase_rates = [first.docs_per_s, second.docs_per_s]
    for log in (first, second):
        outcome.log.merge(log)


def parse_stream(prepared: str, seed: int, seconds: float, tracer=None) -> Outcome:
    """One resume per ``ResumeParser.parse`` call, paper profile, float64."""
    outcome = Outcome()
    harness = Harness(outcome, tracer)
    tiny, paper = prepare.prep_corpus()
    warmup = prepare.warmup_documents(tiny, paper)[-1]

    def build():
        parser = persistence.load_parser(prepared)
        parser.parse(warmup)
        return parser

    parser, between = _set_ups(harness, build, seconds)
    outcome.traffic["scored"] = _traffic(parser.block_classifier)
    stream = document_stream(seed, [ContentConfig.paper()])
    trace = tracer is not None

    def run_phase(limit, measured):
        _measure_parse(
            harness, parse_one(parser), stream, 1, limit,
            quality_calls=STREAM_QUALITY_DOCS,
            min_calls=1 if trace else max(STREAM_QUALITY_DOCS, samples_for(90)),
            min_docs=1, log=measured, between=between,
        )

    _phases(harness, run_phase, seconds)
    probe_blanks(parse_one(parser), seed, outcome)
    return outcome


def parse_bulk(prepared: str, seed: int, seconds: float, tracer=None) -> Outcome:
    """Bulk calls of ``BULK_CALL_DOCS`` mixed resumes, both models int8."""
    outcome = Outcome()
    harness = Harness(outcome, tracer)
    tiny, paper = prepare.prep_corpus()
    calibration = prepare.calibration_documents(tiny, paper)
    calibration_blocks = extract_block_examples(calibration)
    warmup = prepare.warmup_documents(tiny, paper)

    def build():
        parser = persistence.load_parser(prepared)
        parser.block_classifier.quantize_for_inference(calibration)
        parser.ner_tagger.quantize_for_inference(calibration_blocks)
        parse_many(parser)(warmup)
        return parser

    parser, between = _set_ups(harness, build, seconds)
    outcome.traffic["scored"] = _traffic(parser.block_classifier)
    stream = document_stream(seed, [ContentConfig.tiny(), ContentConfig.paper()],
                             block=BULK_CALL_DOCS)
    trace = tracer is not None

    def run_phase(limit, measured):
        _measure_parse(
            harness, parse_many(parser), stream, BULK_CALL_DOCS, limit,
            quality_calls=BULK_QUALITY_CALLS,
            min_calls=1 if trace else BULK_QUALITY_CALLS,
            min_docs=1 if trace else samples_for(90), log=measured, between=between,
        )

    _phases(harness, run_phase, seconds)
    probe_blanks(parse_many(parser), seed, outcome)
    return outcome


def _state_digest(module) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(module.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def train(prepared: str, seed: int, seconds: float, tracer=None) -> Outcome:
    """The two-stage recipe, repeated from scratch for ``seconds`` of wall time.

    Every repetition must end in bit-identical parameters.  After each one,
    the trained classifier parses held-out documents through
    ``ResumeParser`` with the prepared NER tagger; the first
    ``HELDOUT_DOCS`` are scored.
    """
    outcome = Outcome()
    harness = Harness(outcome, tracer)
    reference = persistence.load_parser(prepared)
    tokenizer = reference.block_classifier.featurizer.tokenizer
    corpus = ResumeGenerator(TRAIN_CORPUS_SEED, ContentConfig.tiny()).batch(
        TRAIN_DOCS, "train"
    )
    labeled = [LabeledDocument.from_gold(d) for d in corpus]
    outcome.traffic["train corpus"] = _traffic(reference.block_classifier)
    for document in corpus:
        outcome.traffic["train corpus"].add(document)
    per_rep = TRAIN_DOCS * (PRETRAIN_EPOCHS + FINETUNE_EPOCHS)

    def build():
        config = ResuFormerConfig(vocab_size=len(tokenizer.vocab), **prepare.MODEL)
        featurizer = Featurizer(tokenizer, config)
        encoder = HierarchicalEncoder(config, rng=np.random.default_rng(1))
        pretrainer = Pretrainer(encoder, featurizer, seed=2)
        classifier = BlockClassifier(
            encoder, featurizer, lstm_hidden=prepare.LSTM_HIDDEN,
            rng=np.random.default_rng(3),
        )
        return pretrainer, classifier, BlockTrainer(classifier, head_lr=1e-2, seed=4)

    def fit(system):
        pretrainer, classifier, trainer = system
        pretrainer.fit(corpus, epochs=PRETRAIN_EPOCHS, batch_size=BATCH_SIZE)
        trainer.fit(labeled, epochs=FINETUNE_EPOCHS, batch_size=BATCH_SIZE,
                    num_workers=0)
        return classifier

    digests = set()
    classifier = None
    trace = tracer is not None
    heldout = document_stream(seed, [ContentConfig.paper()])
    scoring = CallLog()
    outcome.traffic["scored"] = _traffic(reference.block_classifier)

    def score(count):
        # Held-out parses follow each repetition, so their latencies sample
        # the whole run; only the first HELDOUT_DOCS are scored.
        parser = ResumeParser(classifier, reference.ner_tagger)
        for _ in range(count):
            harness.call(parse_one(parser), [next(heldout)], scoring,
                         score=scoring.calls < HELDOUT_DOCS)

    def run_phase(limit, measured):
        nonlocal classifier
        host = harness.host
        start = time.perf_counter()
        while time.perf_counter() - start < limit:
            system = harness.set_up(build)
            # A repetition lasts seconds, so the host is also sampled after
            # every optimizer step inside it (not under the tracer, whose
            # root span would count the samples as unattributed time).
            pulse = (host.sampling_after(AdamW, "step") if harness.tracer is None
                     else contextlib.nullcontext())
            since, overhead = host.mark(), host.overhead
            with pulse, harness.root("bench.call"):
                elapsed, classifier = timed_call(fit, system)
            if isinstance(classifier, Exception):
                raise classifier
            elapsed = host.normalise(elapsed - (host.overhead - overhead), since)
            measured.record(elapsed, [None] * per_rep)
            digests.add(_state_digest(classifier))
            if not trace:
                score(HELDOUT_SLICE)

    _phases(harness, run_phase, seconds)
    outcome.trained_docs = outcome.log.sent
    outcome.train_seconds = outcome.log.seconds
    if len(digests) != 1:
        outcome.problems.append(
            f"{len(digests)} different parameter sets from identical training runs"
        )
    if not trace:
        while len(outcome.setup_seconds) < TRAIN_SETUP_REPEATS:
            harness.set_up(build)
        score(max(0, HELDOUT_DOCS - scoring.calls))
        outcome.log = scoring
    probe_blanks(parse_one(reference), seed, outcome)
    return outcome


WORKLOADS = {"parse_stream": parse_stream, "parse_bulk": parse_bulk, "train": train}
