"""Times scaled to a host of fixed speed.

The host this benchmark was written on, a shared 2-vCPU VM, changes speed
by up to about 1.7x within seconds, and CPU time changes with it, so
neither wall nor CPU time of a pass repeats from one set of runs to the
next.  A fixed pure-Python loop, timed often, tracks the speed: a
measured interval's scaled time is its measured time times REFERENCE_S
over the loop's time around it.  The loop runs no program code, so a
change to the program moves the scaled time as much as the measured one.

Set-up, mostly imports into a fresh interpreter, gains less than a hot
loop when the host speeds up, so scaling it by the loop over-corrects.
It is scaled by a second reference instead: unmarshalling and running a
fixed compiled module, which is the work an import does.  In two sets of
50 fresh interpreters, that cut the quartile spread of set-up time to
about 0.09 of the median, from 0.13 and 0.36 as measured; scaled by the
loop it was 0.22.

This module imports only `gc`, `marshal` and `time`, all built into the
interpreter, so the worker can time set-up with it before anything else is
loaded.
"""

import gc
import marshal
import time

REFERENCE_S = 0.008  # the loop's time on the host scaled times refer to
LOAD_REFERENCE_S = 0.005  # the module load's time on that host
SAMPLE_PERIOD_S = 0.2  # how often ScaledClock times the loop
WORDS = ("the quick brown fox jumps over the lazy dog while masks and tests "
         "keep the lockdown news flowing every single week of the year").split()


def _reference_loop() -> None:
    """Fixed work of the kinds the pipeline does most: string building and
    splitting, dict counting, float arithmetic.  Uses no module that
    set-up would import."""
    counts = {}
    total = 0.0
    for i in range(8000):
        word = WORDS[i % len(WORDS)]
        key = word.lower() + str(i & 63)
        counts[key] = counts.get(key, 0) + 1
        total += (i % 7) * i ** 0.5
        if word.startswith("t"):
            total -= len(" ".join(WORDS[:i % 9]).split())
    sorted(counts.items())


# One part per function/class pair, compiled one at a time: compiling the
# whole module at once would raise the worker's peak RSS by about 10 MB.
_MODULE_PARTS = [
    f"def f{i}(x, y={i}):\n"
    f"    return {{'a{i}': x + y, 'b': [x, y, {i}], 'c': str(x) + 's{i}'}}\n"
    f"class C{i}:\n"
    f"    k = {i}\n"
    f"    def m(self, v):\n"
    f"        return f{i}(v) if v else None\n"
    f"T{i} = tuple(range({i} % 17))\n"
    for i in range(300)
]


def load_reference_s() -> float:
    """Seconds it takes now to unmarshal and run a fixed compiled module
    of 300 functions and classes: the fastest of three tries."""
    blob = marshal.dumps([compile(part, "<reference>", "exec") for part in _MODULE_PARTS])
    best = float("inf")
    for _ in range(3):
        namespace = {}
        start = time.perf_counter()
        for code in marshal.loads(blob):
            exec(code, namespace)
        best = min(best, time.perf_counter() - start)
        namespace.clear()
    gc.collect()  # free the classes' reference cycles now, not during the timed work
    return best


def scale(seconds: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """A measured interval in seconds of the reference host, given the
    reference's times just before and just after it."""
    return seconds * reference * 2 / (before + after)


class ScaledClock:
    """Measured and scaled program time, sampled every SAMPLE_PERIOD_S.

    While started, SIGALRM interrupts the program every SAMPLE_PERIOD_S
    and times the reference loop once.  The program time between two
    samples is scaled by the mean of the two; the samples' own time is in
    neither total.  `read` takes a sample and returns both totals, so the
    difference of two reads times what ran between them.  A stage of
    several seconds thus gets tens of speed samples, not two; Python runs
    the handler between bytecodes, so a long call into C delays a sample
    but never loses program time.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._last_end = None
        self._last_ref = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        ref = end - start
        if self._last_end is not None:
            interval = start - self._last_end
            self.raw += interval
            self.scaled += scale(interval, self._last_ref, ref)
        self._last_end, self._last_ref = end, ref

    def read(self) -> tuple[float, float]:
        import signal

        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self.raw, self.scaled

    def start(self) -> None:
        import signal

        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
