"""One workload iteration in a fresh process: set-up probe, then `ns1d.cli.main`.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds `src` (the directory that contains the ns1d package),
`argvs` (the command lines passed to `ns1d.cli.main`, in order),
`overrides` (the `--set` values the set-up probe loads) and `spans` (a path
to write the trace to, or null for an untraced iteration).

The set-up probe times `import ns1d` plus config load, `make_model`,
`build_grid`, `make_initial_data` and `DiagnosticsCollector(...)`.  The
wall time runs from the first `ns1d.cli.main` call to the last return.
"""

import json
import resource
import signal
import sys
import time


class HostSpeed:
    """Times a fixed kernel every INTERVAL_S of wall time.

    The host's speed drifts by tens of percent within seconds; the kernel
    times sampled during a window measure that drift, so that a window's
    wall time can be scaled to a fixed reference speed.  The set-up window
    (mostly imports) samples a pure-Python kernel.  Once numpy is loaded,
    `use_mixed_kernel` switches to interpreter work plus small-array numpy
    exp/log, whose slow-down tracked that of all three workloads best.
    """

    INTERVAL_S = 0.04

    def __init__(self):
        self.samples = []             # (start, kernel seconds)
        self.kernel = self.python_kernel

    @staticmethod
    def python_kernel(n=5000):
        s = 0
        for i in range(n):
            s += i * i
        return s

    def use_mixed_kernel(self):
        import numpy as np
        x0 = np.linspace(0.5, 1.5, 516)

        def mixed_kernel():
            self.python_kernel(2500)
            x = x0
            for _ in range(10):
                x = np.exp(0.5 * np.log(x * 1.0000001 + 1e-9))
            return x

        self.kernel = mixed_kernel

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, t0, t1):
        """(kernel seconds spent in [t0, t1], mean kernel time there).

        A window shorter than the sampling interval takes the mean over the
        whole process.
        """
        times = [d for t, d in self.samples if t0 <= t < t1]
        pool = times or [d for _, d in self.samples]
        return sum(times), sum(pool) / len(pool)


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    speed = HostSpeed()
    speed.start()
    t0 = time.perf_counter()
    import ns1d
    from ns1d import cli, harness
    from ns1d.diagnostics import DiagnosticsCollector
    from ns1d.errors import Ns1dError
    from ns1d.grid import build_grid
    try:
        config = harness.apply_overrides(harness.default_config(), spec["overrides"])
        model = harness.make_model(config)
        grid = build_grid(config.grid_L, config.grid_N, config.grid_ghost_depth)
        harness.make_initial_data(config, grid)
        DiagnosticsCollector(model, grid)
        setup_end = time.perf_counter()
    except Ns1dError:
        setup_end = None

    speed.use_mixed_kernel()
    tracer = None
    entry = cli.main
    if spec["spans"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, "cli.main")

    codes = []
    t1 = time.perf_counter()
    for run_id, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.run_id = run_id
        try:
            codes.append(entry(argv))
        except SystemExit as exc:     # argparse refusing the command line
            codes.append(exc.code)
    t2 = time.perf_counter()
    speed.stop()

    if tracer is not None:
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.spans, fh)
    import numpy
    import scipy
    setup = speed.window(t0, setup_end) if setup_end is not None else None
    wall = speed.window(t1, t2)
    result = {
        "codes": codes,
        # raw seconds, minus the time the speed kernel took inside the window
        "setup_s": setup_end - t0 - setup[0] if setup else None,
        "wall_s": t2 - t1 - wall[0],
        "setup_kernel_s": setup[1] if setup else None,
        "wall_kernel_s": wall[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ns1d_file": ns1d.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
