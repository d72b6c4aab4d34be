"""The concurrency lint tier (RN007–RN012): every rule fires on its
violation shape, stays quiet on the sanctioned idiom, and honours
inline suppressions."""

from repro.analysis.lint import lint_source

LIB_PATH = "src/repro/core/example.py"
SERVER_PATH = "src/repro/obs/server.py"
OBS_PATH = "src/repro/obs/example.py"


def codes(findings):
    return sorted({finding.code for finding in findings})


# ----------------------------------------------------------------------
# RN007 — module state read in worker functions without a fork guard
# ----------------------------------------------------------------------
RN007_BAD = """
_CACHE = {}

def _mutate(key, value):
    _CACHE[key] = value

def task_featurize(payload):
    return _CACHE.get(payload)
"""

RN007_HELPER = """
_CACHE = {}

def _mutate(key, value):
    _CACHE[key] = value

def _warm(payload):
    return _CACHE.get(payload)

def task_featurize(payload):
    return _warm(payload)
"""

RN007_GUARDED = """
import os

_CACHE = {}

def _clear():
    _CACHE.clear()

def _mutate(key, value):
    _CACHE[key] = value

os.register_at_fork(after_in_child=_clear)

def task_featurize(payload):
    return _CACHE.get(payload)
"""

RN007_REINIT = """
_CACHE = {}

def _mutate(key, value):
    _CACHE[key] = value

def init_worker(payload):
    global _CACHE
    _CACHE = {}
    return _CACHE
"""

RN007_CONSTANT = """
_HEADERS = ["education", "experience"]

def task_segment(payload):
    return [h for h in _HEADERS if h in payload]
"""


class TestRN007:
    def test_worker_read_of_mutable_global_flagged(self):
        assert codes(lint_source(RN007_BAD, path=LIB_PATH)) == ["RN007"]

    def test_one_level_helper_indirection_flagged(self):
        findings = lint_source(RN007_HELPER, path=LIB_PATH)
        assert codes(findings) == ["RN007"]
        assert "helper" in findings[0].message

    def test_register_at_fork_guard_clean(self):
        assert lint_source(RN007_GUARDED, path=LIB_PATH) == []

    def test_in_function_reinit_clean(self):
        assert lint_source(RN007_REINIT, path=LIB_PATH) == []

    def test_readonly_constant_table_clean(self):
        # Never mutated anywhere in the module: a constant, not state.
        assert lint_source(RN007_CONSTANT, path=LIB_PATH) == []

    def test_non_worker_function_out_of_scope(self):
        source = RN007_BAD.replace("task_featurize", "featurize")
        assert lint_source(source, path=LIB_PATH) == []

    def test_worker_context_methods_in_scope(self):
        source = (
            "_STATE = {}\n"
            "def _mutate(k):\n"
            "    _STATE[k] = 1\n"
            "class NerWorkerContext:\n"
            "    def run(self, payload):\n"
            "        return _STATE.get(payload)\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN007"]

    def test_suppressed(self):
        source = RN007_BAD.replace(
            "    return _CACHE.get(payload)",
            "    return _CACHE.get(payload)  # repro-lint: disable=RN007",
        )
        assert lint_source(source, path=LIB_PATH) == []


# ----------------------------------------------------------------------
# RN008 — shared-structure mutation outside the owning lock
# ----------------------------------------------------------------------
RN008_BAD = """
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._series = {}
        self.count = 0

    def record(self, name, value):
        self._series[name] = value
        self.count += 1
"""

RN008_GOOD = """
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._series = {}
        self.count = 0

    def record(self, name, value):
        with self._lock:
            self._series[name] = value
            self.count += 1

    def _flush_unlocked(self):
        self._series.clear()
"""


class TestRN008:
    def test_unlocked_mutations_flagged(self):
        findings = lint_source(RN008_BAD, path=OBS_PATH)
        assert [f.code for f in findings] == ["RN008", "RN008"]

    def test_mutations_under_lock_clean(self):
        assert lint_source(RN008_GOOD, path=OBS_PATH) == []

    def test_unlocked_suffix_convention_exempt(self):
        # *_unlocked helpers document "caller holds the lock".
        source = RN008_GOOD.replace("def record", "def record_unlocked")
        assert lint_source(source, path=OBS_PATH) == []

    def test_init_exempt(self):
        source = (
            "import threading\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "        self._items.append(0)\n"
        )
        assert lint_source(source, path=OBS_PATH) == []

    def test_lockless_class_out_of_scope(self):
        source = (
            "class Plain:\n"
            "    def record(self, name, value):\n"
            "        self._series[name] = value\n"
        )
        assert lint_source(source, path=OBS_PATH) == []

    def test_plain_attribute_rebind_clean(self):
        # Rebinding a scalar attribute is not a structural mutation.
        source = (
            "import threading\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def mark(self):\n"
            "        self._started = True\n"
        )
        assert lint_source(source, path=OBS_PATH) == []

    def test_suppressed(self):
        source = RN008_BAD.replace(
            "        self._series[name] = value",
            "        self._series[name] = value  # repro-lint: disable=RN008",
        ).replace(
            "        self.count += 1",
            "        self.count += 1  # repro-lint: disable=RN008",
        )
        assert lint_source(source, path=OBS_PATH) == []


# ----------------------------------------------------------------------
# RN009 — array payloads through control queues
# ----------------------------------------------------------------------
class TestRN009:
    def test_grad_payload_flagged(self):
        source = (
            "def publish(result_queue, grads):\n"
            "    result_queue.put(('grads', grads))\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN009"]

    def test_tensor_data_payload_flagged(self):
        source = (
            "def publish(task_queue, model):\n"
            "    task_queue.put(model.params.data)\n"
        )
        # RN001 also fires (`put` on a `.data` payload looks like numpy
        # in-place mutation to the autograd tier) — both tiers object.
        assert "RN009" in codes(lint_source(source, path=LIB_PATH))

    def test_numpy_constructor_payload_flagged(self):
        source = (
            "def publish(q):\n"
            "    q.put(np.zeros(8))\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN009"]

    def test_control_payload_clean(self):
        source = (
            "def dispatch(task_queue, indices):\n"
            "    task_queue.put(('featurize', {'indices': indices}))\n"
            "    task_queue.put(None)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_non_queue_receiver_out_of_scope(self):
        source = (
            "def stash(store, grads):\n"
            "    store.put('grads', grads)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_suppressed(self):
        source = (
            "def publish(result_queue, grads):\n"
            "    result_queue.put(grads)  # repro-lint: disable=RN009\n"
        )
        assert lint_source(source, path=LIB_PATH) == []


# ----------------------------------------------------------------------
# RN010 — blocking get/join without timeout or liveness loop
# ----------------------------------------------------------------------
class TestRN010:
    def test_bare_queue_get_flagged(self):
        source = (
            "def wait(task_queue):\n"
            "    return task_queue.get()\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN010"]

    def test_bare_worker_join_flagged(self):
        source = (
            "def stop(worker_process):\n"
            "    worker_process.join()\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN010"]

    def test_get_with_timeout_clean(self):
        source = (
            "def wait(task_queue):\n"
            "    return task_queue.get(timeout=1.0)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_join_with_timeout_clean(self):
        source = (
            "def stop(worker_process):\n"
            "    worker_process.join(timeout=5.0)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_contextvar_get_out_of_scope(self):
        source = (
            "def current():\n"
            "    return _ACTIVE.get()\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_dict_get_out_of_scope(self):
        source = (
            "def fetch(table, key):\n"
            "    return table.get(key)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_suppressed(self):
        source = (
            "def wait(task_queue):\n"
            "    return task_queue.get()  # repro-lint: disable=RN010\n"
        )
        assert lint_source(source, path=LIB_PATH) == []


# ----------------------------------------------------------------------
# RN011 — execution lanes only in the sanctioned modules
# ----------------------------------------------------------------------
class TestRN011:
    def test_stray_thread_flagged(self):
        source = (
            "import threading\n"
            "def watch(fn):\n"
            "    threading.Thread(target=fn, daemon=True).start()\n"
        )
        assert codes(lint_source(source, path=OBS_PATH)) == ["RN011"]

    def test_stray_process_flagged(self):
        source = (
            "def launch(ctx, fn):\n"
            "    return ctx.Process(target=fn)\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN011"]

    def test_server_module_sanctioned(self):
        source = (
            "def launch(ctx, fn):\n"
            "    return ctx.Process(target=fn)\n"
        )
        assert lint_source(source, path=SERVER_PATH) == []

    def test_pool_module_no_longer_sanctioned(self):
        source = (
            "def launch(ctx, fn):\n"
            "    return ctx.Process(target=fn)\n"
        )
        assert codes(lint_source(source, path="src/repro/core/pool.py")) == ["RN011"]

    def test_tests_out_of_scope(self):
        source = (
            "import threading\n"
            "def drive(fn):\n"
            "    threading.Thread(target=fn).start()\n"
        )
        assert lint_source(source, path="tests/obs/test_example.py") == []

    def test_unrelated_local_class_clean(self):
        source = (
            "def build(document):\n"
            "    return Process(document)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_suppressed(self):
        source = (
            "import threading\n"
            "def watch(fn):\n"
            "    # repro-lint: disable=RN011\n"
            "    threading.Thread(target=fn, daemon=True).start()\n"
        )
        assert lint_source(source, path=OBS_PATH) == []


# ----------------------------------------------------------------------
# RN012 — unbounded telemetry label cardinality
# ----------------------------------------------------------------------
class TestRN012:
    def test_loop_variable_label_flagged(self):
        source = (
            "def publish(telemetry, documents):\n"
            "    for document in documents:\n"
            "        telemetry.metrics.counter('seen').inc(doc=document)\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN012"]

    def test_document_id_attribute_flagged(self):
        source = (
            "def publish(gauge, document):\n"
            "    gauge.set(1.0, doc=document.doc_id)\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN012"]

    def test_id_through_str_wrapper_flagged(self):
        source = (
            "def publish(gauge, document):\n"
            "    gauge.set(1.0, doc=str(document.doc_id))\n"
        )
        assert codes(lint_source(source, path=LIB_PATH)) == ["RN012"]

    def test_worker_id_over_bounded_iterable_clean(self):
        # One series per enumerated item, bounded by design.
        source = (
            "def publish(timer, durations):\n"
            "    for worker_id, seconds in enumerate(durations):\n"
            "        timer.observe(seconds, worker=str(worker_id))\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_range_loop_clean(self):
        source = (
            "def publish(gauge, shards):\n"
            "    for worker in range(shards):\n"
            "        gauge.set(0.0, worker=str(worker))\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_constant_label_clean(self):
        source = (
            "def publish(telemetry):\n"
            "    telemetry.metrics.counter('steps').inc(phase='pretrain')\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_non_metric_call_out_of_scope(self):
        source = (
            "def log(writer, documents):\n"
            "    for document in documents:\n"
            "        writer.emit('seen', doc=document)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []

    def test_suppressed(self):
        source = (
            "def publish(gauge, document):\n"
            "    # repro-lint: disable=RN012\n"
            "    gauge.set(1.0, doc=document.doc_id)\n"
        )
        assert lint_source(source, path=LIB_PATH) == []


# ----------------------------------------------------------------------
# RN012 — stack identity in metric labels (profiler discipline)
# ----------------------------------------------------------------------
class TestRN012StackIdentity:
    def test_stack_label_key_flagged(self):
        source = (
            "def publish(counter, collapsed):\n"
            "    counter.inc(1, stack=collapsed)\n"
        )
        assert codes(lint_source(source, path=OBS_PATH)) == ["RN012"]

    def test_function_label_key_flagged(self):
        source = (
            "def publish(counter, leaf):\n"
            "    counter.inc(1, function=leaf)\n"
        )
        assert codes(lint_source(source, path=OBS_PATH)) == ["RN012"]

    def test_frame_attribute_flagged(self):
        source = (
            "def publish(counter, frame):\n"
            "    counter.inc(1, site=frame.f_code.co_name)\n"
        )
        assert codes(lint_source(source, path=OBS_PATH)) == ["RN012"]

    def test_lineno_attribute_through_str_flagged(self):
        source = (
            "def publish(gauge, frame):\n"
            "    gauge.set(1.0, at=str(frame.f_lineno))\n"
        )
        assert codes(lint_source(source, path=OBS_PATH)) == ["RN012"]

    def test_thread_name_over_thread_dict_clean(self):
        # The profiler's own idiom: one series per live thread, bounded
        # by the process's thread count.
        source = (
            "def flush(counter, samples_by_thread):\n"
            "    for thread_name, count in samples_by_thread.items():\n"
            "        counter.inc(count, thread=thread_name)\n"
        )
        assert lint_source(source, path=OBS_PATH) == []

    def test_stack_in_event_payload_out_of_scope(self):
        # stacks belong in event payloads; session.event is not a metric
        source = (
            "def flush(session, collapsed):\n"
            "    session.event('profile', stack=collapsed)\n"
        )
        assert lint_source(source, path=OBS_PATH) == []

    def test_suppressed(self):
        source = (
            "def publish(counter, collapsed):\n"
            "    # repro-lint: disable=RN012\n"
            "    counter.inc(1, stack=collapsed)\n"
        )
        assert lint_source(source, path=OBS_PATH) == []


class TestProfilerModuleDiscipline:
    """The shipped profiler module must itself lint clean."""

    def test_profiler_source_lints_clean(self):
        import pathlib

        source = pathlib.Path("src/repro/obs/profiler.py").read_text()
        assert lint_source(source, path="src/repro/obs/profiler.py") == []

    def test_profiler_thread_is_sanctioned_but_copies_are_not(self):
        # the same daemon-thread idiom outside profiler.py stays flagged
        source = (
            "import threading\n"
            "def start(fn):\n"
            "    threading.Thread(target=fn, daemon=True).start()\n"
        )
        assert lint_source(source, path="src/repro/obs/profiler.py") == []
        assert codes(lint_source(source, path=OBS_PATH)) == ["RN011"]
