"""The compiled System (1) kernel and the Python loop it falls back to.

The contract under test (see ``repro.numerics.system1``):

* without a C compiler the loader logs one warning, and System (1)
  integrates in ``ode.dopri45``'s Python loop on (S, I, R), one row at a
  time, with the kernel's step counts and answers within ``rtol=1e-5,
  atol=1e-10``, solo, stacked, and under every solver option; there a
  stacked row equals the solo run bit for bit, as on the kernel;
* a second process loads the cached library without compiling, and no
  process reads or writes a cache directory others can write;
* a build into the package's ``__pycache__`` deletes the libraries of
  other sources or flags there, and never touches the user's cache;
* the shipped flags change no bit: an unoptimised build answers the
  same, solo and stacked;
* the solvers call ``f`` once, at ``t0``, and refuse constants whose
  slope there is not ``f``'s;
* the kernel's failures raise the Python loop's messages, naming the
  batch row, and trip and heal the integration alarm, solo and stacked;
* ``max_steps`` is a budget of attempts on either engine: a solve that
  needs K attempts finishes with ``max_steps=K``;
* concurrent solves, which run with the GIL released, equal serial ones;
* a stacked call solves its rows on ``min(B, CPUs)`` threads, one below
  ``THREADED_GROUPS`` groups, and its answers, step counts and failure
  report are those of the one-thread call; no helper outlives its call.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.batched import BatchedHeterogeneousSIR
from repro.core.model import HeterogeneousSIRModel
from repro.core.parameters import RumorModelParameters
from repro.core.state import SIRState
from repro.exceptions import IntegrationError, ParameterError
from repro.networks.degree import power_law_distribution
from repro.numerics import system1
from repro.numerics.ode import integrate
from repro.numerics.ode_batched import integrate_batched
from repro.obs.trace import observing

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

kernel_required = pytest.mark.skipif(
    system1.library() is None,
    reason="no C compiler: the System (1) kernel is unavailable")

#: The fallback's accuracy contract against the kernel.
RTOL, ATOL = 1e-5, 1e-10

POLICIES = [(0.2, 0.05), (0.05, 0.01), (0.35, 0.15)]


def params_of(n_groups: int) -> RumorModelParameters:
    return RumorModelParameters(power_law_distribution(1, n_groups, 2.0),
                                alpha=0.01)


@pytest.fixture
def no_kernel(monkeypatch, tmp_path):
    """Make the loader find no library and no compiler."""
    monkeypatch.setattr(system1, "_loaded", [])
    monkeypatch.setattr(system1, "_cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(system1, "_compiler",
                        lambda: [str(tmp_path / "no-such-cc")])


def solve(params, grid, **options):
    """Solo and stacked runs of POLICIES: (values, step counts) each."""
    model = HeterogeneousSIRModel(params)
    initial = SIRState.initial(params.n_groups, 0.05)
    with observing() as observer:
        solo = [model.simulate(initial, t_final=grid[-1], t_eval=grid,
                               eps1=e1, eps2=e2, **options)
                for e1, e2 in POLICIES]
    solo_steps = [(e["accepted"], e["rejected"])
                  for e in observer.sink.of_type("solver")]
    eps1, eps2 = zip(*POLICIES)
    stacked = BatchedHeterogeneousSIR(params, eps1=eps1, eps2=eps2).simulate(
        initial, t_eval=grid, **options)
    stacked_steps = list(zip(stacked.stats.accepted_rows.tolist(),
                             stacked.stats.rejected_rows.tolist()))
    solo_y = np.stack([np.hstack([t.susceptible, t.infected, t.recovered])
                       for t in solo], axis=1)
    return solo_y, solo_steps, stacked.y, stacked_steps, observer


@kernel_required
class TestFallback:
    """Forced unavailable, the loader warns once; answers hold."""

    CASES = [
        (20, {}),
        (30, {"rtol": 1e-6, "atol": 1e-9}),
        (100, {"h_init": 0.01, "h_max": 0.5, "max_steps": 5000}),
    ]

    @pytest.mark.parametrize("n_groups, options", CASES)
    def test_same_steps_and_answers_as_the_kernel(self, request, n_groups,
                                                  options):
        params = params_of(n_groups)
        grid = np.linspace(0.0, 30.0, 31)
        kernel = solve(params, grid, **options)
        request.getfixturevalue("no_kernel")
        generic = solve(params, grid, **options)
        assert generic[1] == kernel[1]          # solo step counts
        assert generic[3] == kernel[3]          # stacked step counts
        assert np.allclose(generic[0], kernel[0], rtol=RTOL, atol=ATOL)
        assert np.allclose(generic[2], kernel[2], rtol=RTOL, atol=ATOL)
        assert np.array_equal(generic[2], generic[0])  # stacked is solo

    def test_one_warning(self, no_kernel):
        grid = np.linspace(0.0, 10.0, 11)
        *_, observer = solve(params_of(10), grid)
        BatchedHeterogeneousSIR(params_of(10), eps1=[0.1, 0.2],
                                eps2=0.05).simulate(
            SIRState.initial(10, 0.05), t_eval=grid)
        assert system1.library() is None
        warnings = [e for e in observer.sink.of_type("log")
                    if e["event"] == "numerics.kernel_unavailable"]
        assert len(warnings) == 1
        assert warnings[0]["level"] == "warning"
        assert "no-such-cc" in warnings[0]["fields"]["reason"]

    def test_digg_steps_match(self, request):
        from repro.datasets import synthesize_digg2009
        params = RumorModelParameters(synthesize_digg2009().distribution)
        grid = np.linspace(0.0, 60.0, 61)
        initial = SIRState.initial(params.n_groups, 0.01)
        runs = []
        for forced in (False, True):
            if forced:
                request.getfixturevalue("no_kernel")
            batch = BatchedHeterogeneousSIR(params, eps1=[0.2, 0.1],
                                            eps2=[0.05, 0.03])
            runs.append(batch.simulate(initial, t_eval=grid))
        kernel, generic = runs
        assert np.array_equal(generic.stats.accepted_rows,
                              kernel.stats.accepted_rows)
        assert np.array_equal(generic.stats.rejected_rows,
                              kernel.stats.rejected_rows)
        assert np.allclose(generic.y, kernel.y, rtol=RTOL, atol=ATOL)


@kernel_required
def test_second_process_loads_without_compiling(tmp_path):
    script = textwrap.dedent(f"""
        from pathlib import Path
        from repro.numerics import system1
        calls = []
        compiler = system1._compiler
        system1._compiler = lambda: calls.append(1) or compiler()
        system1._cache_dirs = lambda: [Path({str(tmp_path)!r})]
        assert system1.library() is not None
        print(len(calls))
    """)
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    compiled = [subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=300).stdout.split()
                for _ in range(2)]
    assert compiled == [["1"], ["0"]]
    assert len(list(tmp_path.glob("system1-*.so"))) == 1
    assert not list(tmp_path.glob("*.tmp"))


@kernel_required
class TestCacheTrust:
    """A library is loaded from, and built into, only a directory that
    no one but its owner, this user or root, can write."""

    def plant(self, directory: Path) -> Path:
        """A working copy of the library under the name the loader seeks."""
        directory.mkdir(mode=0o700, exist_ok=True)
        target = directory / system1._library_name()
        shutil.copy(system1.library().path, target)
        return target

    def load(self, monkeypatch, directory: Path):
        compiled = []
        monkeypatch.setattr(system1, "_loaded", [])
        monkeypatch.setattr(system1, "_cache_dirs", lambda: [directory])
        monkeypatch.setattr(system1, "_compiler",
                            lambda: compiled.append(1) or ["cc"])
        with observing() as observer:
            routine = system1.library()
        warnings = [e["fields"]["reason"]
                    for e in observer.sink.of_type("log")
                    if e["event"] == "numerics.kernel_unavailable"]
        return routine, compiled, warnings

    def test_an_owner_only_directory_is_used(self, monkeypatch, tmp_path):
        planted = self.plant(tmp_path / "cache")
        routine, compiled, warnings = self.load(monkeypatch,
                                                tmp_path / "cache")
        assert routine is not None and routine.path == str(planted)
        assert compiled == [] and warnings == []

    @pytest.mark.parametrize("flaw", ["group-writable", "world-writable",
                                      "symlink", "other owner"])
    def test_an_untrusted_directory_is_skipped(self, monkeypatch, tmp_path,
                                               flaw):
        directory = tmp_path / "cache"
        self.plant(directory)
        if flaw == "group-writable":
            directory.chmod(0o770)
        elif flaw == "world-writable":
            directory.chmod(0o1777)
        elif flaw == "symlink":
            (tmp_path / "link").symlink_to(directory)
            directory = tmp_path / "link"
        else:
            if os.getuid() != 0:
                pytest.skip("changing a directory's owner needs root")
            os.chown(directory, 54321, -1)
        routine, compiled, warnings = self.load(monkeypatch, directory)
        assert routine is None
        assert compiled == []           # nothing built there either
        assert len(warnings) == 1 and "no one else" in warnings[0]


@kernel_required
class TestPrune:
    """A build into ``__pycache__`` deletes that directory's stale
    libraries and locks; the user's cache is shared, so never pruned."""

    STALE = ("system1-00000000.so", "system1-00000000.so.lock")
    UNRELATED = ("system1-00000000.so.x1y2.tmp", "other-00000000.so",
                 "notes.txt")

    def build(self, monkeypatch, package: Path, user: Path) -> str:
        monkeypatch.setattr(system1, "_loaded", [])
        monkeypatch.setattr(system1, "_cache_dirs", lambda: [package, user])
        routine = system1.library()
        assert routine is not None
        return routine.path

    def plant(self, directory: Path, names) -> None:
        directory.mkdir(mode=0o700, exist_ok=True)
        for name in names:
            (directory / name).write_bytes(b"stale")

    def test_a_build_prunes_the_package_cache(self, monkeypatch, tmp_path):
        package, user = tmp_path / "pycache", tmp_path / "user"
        self.plant(package, self.STALE + self.UNRELATED)
        self.plant(user, self.STALE)
        path = self.build(monkeypatch, package, user)
        name = system1._library_name()
        assert path == str(package / name)
        assert sorted(p.name for p in package.iterdir()) == sorted(
            (name, f"{name}.lock") + self.UNRELATED)
        assert sorted(p.name for p in user.iterdir()) == sorted(self.STALE)

    def test_the_user_cache_is_never_pruned(self, monkeypatch, tmp_path):
        package, user = tmp_path / "pycache", tmp_path / "user"
        self.plant(package, self.STALE)
        package.chmod(0o770)            # untrusted: skipped
        self.plant(user, self.STALE)
        path = self.build(monkeypatch, package, user)
        assert path == str(user / system1._library_name())
        assert set(self.STALE) <= {p.name for p in user.iterdir()}
        assert sorted(p.name for p in package.iterdir()) == sorted(self.STALE)


@kernel_required
def test_answers_do_not_depend_on_the_optimisation_level(monkeypatch,
                                                         tmp_path):
    """The shipped flags move no bit: an -O0 build answers the same."""
    flags = set(system1.FLAGS)
    assert "-ffp-contract=off" in flags
    assert not flags & {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                        "-fassociative-math"}
    assert not any(flag.startswith("-march") for flag in flags)
    unoptimised = tmp_path / "system1-O0.so"
    subprocess.run([*system1._compiler(),
                    *("-O0" if flag == "-O3" else flag
                      for flag in system1.FLAGS),
                    "-o", str(unoptimised), str(system1.SOURCE), "-lm"],
                   check=True, capture_output=True, timeout=300)
    from repro.datasets import synthesize_digg2009
    networks = [params_of(30),
                RumorModelParameters(synthesize_digg2009().distribution)]
    grid = np.linspace(0.0, 60.0, 61)
    runs = []
    for routine in (system1.library(), system1._bind(unoptimised)):
        monkeypatch.setattr(system1, "_loaded", [routine])
        runs.append([solve(params, grid)[:4] for params in networks])
    for shipped, reference in zip(*runs):
        assert shipped[1] == reference[1] and shipped[3] == reference[3]
        assert np.array_equal(shipped[0], reference[0])     # solo
        assert np.array_equal(shipped[2], reference[2])     # stacked


@kernel_required
class TestSlopeCheck:
    """``f`` is called once, at t0, and must be what the kernel solves."""

    N = 8

    def setup_method(self):
        params = params_of(self.N)
        self.model = HeterogeneousSIRModel(params)
        self.batch = BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2],
                                             eps2=0.05)
        self.y0 = SIRState.initial(self.N, 0.05).pack()
        self.grid = np.linspace(0.0, 10.0, 11)

    def constants(self, eps1) -> system1.System1:
        model = self.model
        eps1 = np.asarray(eps1, dtype=float)
        return system1.System1(model._phi, model._mean_degree, model._lam,
                               np.full(eps1.size, model._alpha), eps1,
                               np.full(eps1.size, 0.05))

    @staticmethod
    def counted(f, calls):
        def rhs(*args):
            calls.append(args[0])
            return f(*args)
        return rhs

    def test_f_is_called_once_at_t0(self):
        calls = []
        solo = integrate(self.counted(self.model.rhs_constant(0.1, 0.05),
                                      calls),
                         self.y0, self.grid, system1=self.constants([0.1]))
        stacked = integrate_batched(
            self.counted(self.batch.rhs, calls), np.stack([self.y0] * 2),
            self.grid, system1=self.constants([0.1, 0.2]))
        assert [np.ravel(t).tolist() for t in calls] == [[0.0], [0.0, 0.0]]
        assert solo.stats.accepted > 0
        assert np.array_equal(stacked.y[:, 0], solo.y)

    def test_solo_constants_that_do_not_describe_f(self):
        with pytest.raises(ParameterError, match="does not describe f"):
            integrate(self.model.rhs_constant(0.1, 0.05), self.y0,
                      self.grid, system1=self.constants([0.11]))

    def test_stacked_row_that_does_not_describe_f(self):
        with pytest.raises(ParameterError,
                           match="does not describe f.*batch row 1"):
            integrate_batched(self.batch.rhs, np.stack([self.y0] * 2),
                              self.grid,
                              system1=self.constants([0.1, 0.21]))


@kernel_required
class TestErrorPaths:
    """Kernel failures: the Python loop's messages, the row named."""

    N = 8

    def initial_rows(self, s0: float) -> np.ndarray:
        good = SIRState.initial(self.N, 0.05).pack()
        bad = good.copy()
        bad[:self.N] = s0
        bad[self.N:2 * self.N] = 0.5 * s0
        return np.stack([good, bad])

    def both_paths(self, request, run) -> list[str]:
        messages = []
        for forced in (False, True):
            if forced:
                request.getfixturevalue("no_kernel")
            with pytest.raises(IntegrationError) as error:
                run()
            messages.append(str(error.value))
        return messages

    def test_stacked_nonfinite_names_row(self, request):
        batch = BatchedHeterogeneousSIR(params_of(self.N), eps1=[0.1, 0.1],
                                        eps2=0.05)
        y0 = self.initial_rows(1e100)
        messages = self.both_paths(request, lambda: batch.simulate(
            y0, t_final=10.0, h_init=1.0))
        assert messages[0] == messages[1] == (
            "dopri45-batched produced non-finite state for batch row 1 "
            "at t=0")

    def test_stacked_underflow_names_row(self, request):
        batch = BatchedHeterogeneousSIR(params_of(self.N), eps1=[0.1, 0.1],
                                        eps2=0.05)
        y0 = self.initial_rows(1e150)
        messages = self.both_paths(request, lambda: batch.simulate(
            y0, t_final=10.0))
        assert messages[0] == messages[1] == (
            "dopri45-batched step size underflow for batch row 1 at t=0 "
            "(h=0)")

    def test_solo_nonfinite(self, request):
        model = HeterogeneousSIRModel(params_of(self.N))
        bad = self.initial_rows(1e100)[1]
        state = SIRState(bad[:self.N], bad[self.N:2 * self.N],
                         bad[2 * self.N:])
        messages = self.both_paths(request, lambda: model.simulate(
            state, t_final=10.0, eps1=0.1, eps2=0.05, h_init=1.0))
        assert messages[0] == messages[1] == (
            "dopri45 produced non-finite state at t=0")

    def test_solo_exhaustion(self, request):
        model = HeterogeneousSIRModel(params_of(self.N))
        initial = SIRState.initial(self.N, 0.05)
        messages = self.both_paths(request, lambda: model.simulate(
            initial, t_final=10.0, eps1=0.1, eps2=0.05, max_steps=3))
        assert messages[0] == messages[1] == (
            "dopri45 exhausted 3 steps before reaching t=10.0")

    @pytest.mark.parametrize("eps, max_steps, prefix", [
        ([0.1, 0.2], 3, "exhausted 3 steps with 2 of 2 rows unfinished"),
        # Row 0 takes 79 attempts and row 1 67: only row 0 is stuck.
        ([0.01, 0.6], 67, "exhausted 67 steps with 1 of 2 rows unfinished"),
    ], ids=["every-row-stuck", "later-row-finishes"])
    def test_stacked_exhaustion(self, request, eps, max_steps, prefix):
        batch = BatchedHeterogeneousSIR(params_of(self.N), eps1=eps,
                                        eps2=np.multiply(eps, 0.5))
        initial = SIRState.initial(self.N, 0.05)
        messages = self.both_paths(request, lambda: batch.simulate(
            initial, t_final=10.0, max_steps=max_steps))
        prefix = f"dopri45-batched {prefix} (first stuck row 0 at t="
        assert all(message.startswith(prefix) for message in messages)

    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_max_steps_is_a_budget_of_attempts(self, request, engine):
        """A solve that needs K attempts finishes with ``max_steps=K``
        and is exhausted with ``max_steps=K - 1``.  (Stacked rows: see
        ``test_stacked_exhaustion[later-row-finishes]``.)"""
        if engine == "numpy":
            request.getfixturevalue("no_kernel")
        model = HeterogeneousSIRModel(params_of(self.N))
        initial = SIRState.initial(self.N, 0.05)

        def attempts(**options) -> int:
            with observing() as observer:
                model.simulate(initial, t_final=10.0, eps1=0.1, eps2=0.05,
                               **options)
            (event,) = observer.sink.of_type("solver")
            return event["accepted"] + event["rejected"]
        needed = attempts()
        assert attempts(max_steps=needed) == needed
        with pytest.raises(IntegrationError,
                           match=f"exhausted {needed - 1} steps"):
            attempts(max_steps=needed - 1)

    @pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stacked"])
    def test_nan_first_step_fails_at_once(self, request, stacked):
        """From S = I = 1e160 R's slope is inf − inf: no step budget spent."""
        y0 = self.initial_rows(1e160)
        if stacked:
            batch = BatchedHeterogeneousSIR(params_of(self.N),
                                            eps1=[0.1, 0.1], eps2=0.05)

            def run():
                batch.simulate(y0, t_final=10.0)
            prefix = "dopri45-batched step size underflow for batch row 1 "
        else:
            model = HeterogeneousSIRModel(params_of(self.N))
            bad = y0[1]

            def run():
                model.simulate(SIRState(bad[:self.N], bad[self.N:2 * self.N],
                                        bad[2 * self.N:]),
                               t_final=10.0, eps1=0.1, eps2=0.05)
            prefix = "dopri45 step size underflow "
        kernel, generic = self.both_paths(request, run)
        assert kernel == prefix + "at t=0 (h=nan)"
        assert generic == prefix + "at t=0 (h=0)"

    @pytest.mark.parametrize("stacked", [False, True])
    def test_alarm_trips_and_heals(self, stacked):
        params = params_of(self.N)
        initial = SIRState.initial(self.N, 0.05)
        if stacked:
            batch = BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2],
                                            eps2=0.05)

            def run(**options):
                batch.simulate(initial, t_final=10.0, **options)
        else:
            model = HeterogeneousSIRModel(params)

            def run(**options):
                model.simulate(initial, t_final=10.0, eps1=0.1, eps2=0.05,
                               **options)
        with observing() as observer:
            with pytest.raises(IntegrationError, match="exhausted 3 steps"):
                run(max_steps=3)
            alarm = observer.health.status()["alarms"]["integration"]
            assert alarm["severity"] == "critical"
            assert "dopri45" in alarm["detail"]
            run()
            alarm = observer.health.status()["alarms"]["integration"]
            assert alarm["severity"] == "ok"
            assert alarm["worst"] == "critical"


@kernel_required
def test_concurrent_solves_equal_serial_ones():
    from repro.datasets import synthesize_digg2009
    params = RumorModelParameters(synthesize_digg2009().distribution)
    initial = SIRState.initial(params.n_groups, 0.01)
    model = HeterogeneousSIRModel(params)
    batch = BatchedHeterogeneousSIR(params, eps1=[0.2, 0.1],
                                    eps2=[0.05, 0.03])
    jobs = [lambda: model.simulate(initial, t_final=60.0, eps1=0.3,
                                   eps2=0.1, n_samples=61).infected,
            lambda: batch.simulate(initial, t_final=60.0, n_samples=61).y]
    serial = [job() for job in jobs]
    results: list[object] = [None] * len(jobs)

    def work(index):
        for _ in range(3):
            results[index] = jobs[index]()

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)


def digg2009_params() -> RumorModelParameters:
    from repro.datasets import synthesize_digg2009
    return RumorModelParameters(synthesize_digg2009().distribution)


@kernel_required
class TestThreads:
    """A stacked call's rows on several threads: the one-thread call's
    answers, step counts and failure report."""

    @staticmethod
    def force_cpus(monkeypatch, count: int) -> None:
        monkeypatch.setattr(system1, "_cpus", lambda: count)

    @pytest.mark.parametrize("rows", [2, 3, 5])
    @pytest.mark.parametrize("network", ["digg2009", "30-groups"])
    def test_rows_on_threads_equal_one_thread(self, monkeypatch, network,
                                              rows):
        if network == "digg2009":
            params = digg2009_params()
        else:
            params = params_of(30)
            monkeypatch.setattr(system1, "THREADED_GROUPS", 30)
        batch = BatchedHeterogeneousSIR(params,
                                        eps1=np.linspace(0.05, 0.4, rows),
                                        eps2=np.linspace(0.2, 0.01, rows))
        initial = SIRState.initial(params.n_groups, 0.01)
        grid = np.linspace(0.0, 60.0, 61)
        runs = []
        for threads in (1, 2, 3):
            self.force_cpus(monkeypatch, threads)
            runs.append(batch.simulate(initial, t_eval=grid))
        one = runs[0]
        attempts = one.stats.accepted_rows + one.stats.rejected_rows
        assert len(set(attempts.tolist())) > 1     # rows of unequal cost
        for many in runs[1:]:
            assert np.array_equal(many.y, one.y)
            assert np.array_equal(many.stats.accepted_rows,
                                  one.stats.accepted_rows)
            assert np.array_equal(many.stats.rejected_rows,
                                  one.stats.rejected_rows)

    @pytest.mark.parametrize("groups, rows, cpus, threads", [
        (64, 5, 2, 2), (64, 2, 3, 2), (64, 1, 2, 1), (63, 3, 2, 1)])
    def test_thread_count(self, monkeypatch, groups, rows, cpus, threads):
        """``min(rows, CPUs)`` threads, one below ``THREADED_GROUPS``."""
        assert system1.THREADED_GROUPS == 64
        routine, passed = system1.library(), []

        def spy(*args):
            passed.append(args[-1])
            return routine(*args)
        monkeypatch.setattr(system1, "_loaded", [spy])
        self.force_cpus(monkeypatch, cpus)
        BatchedHeterogeneousSIR(params_of(groups),
                                eps1=np.linspace(0.1, 0.3, rows),
                                eps2=0.05).simulate(
            SIRState.initial(groups, 0.05), t_final=10.0)
        assert passed == [threads]

    def test_the_mask_bounds_the_threads(self):
        if hasattr(os, "sched_getaffinity"):
            assert system1._cpus() == len(os.sched_getaffinity(0))
        else:
            assert system1._cpus() == os.cpu_count()

    N = 8
    GOOD = SIRState.initial(N, 0.05).pack()
    BAD = np.concatenate([np.full(N, 1e100), np.full(N, 0.5e100),
                          GOOD[2 * N:]])     # non-finite at t = 0

    #: rows, their eps1, the step budget and the one-thread report:
    #: (status, row, stuck rows).
    FAILURES = {
        "nonfinite-before-stuck": ([BAD, GOOD], [0.1, 0.01], 40,
                                   (system1.NONFINITE, 0, 0)),
        "stuck-before-failing": ([GOOD, BAD], [0.01, 0.1], 40,
                                 (system1.NONFINITE, 1, 1)),
        "every-row-stuck": ([GOOD, GOOD, GOOD], [0.1, 0.2, 0.01], 3,
                            (system1.EXHAUSTED, 0, 3)),
        "failing-first-good-later": ([BAD, GOOD], [0.1, 0.1], 10**6,
                                     (system1.NONFINITE, 0, 0)),
    }

    @pytest.mark.parametrize("case", list(FAILURES))
    def test_failures_merge_as_on_one_thread(self, monkeypatch, case):
        """Every field but ``y``, which a failed call leaves partly
        written and never returns."""
        y0, eps1, budget, report = self.FAILURES[case]
        model = HeterogeneousSIRModel(params_of(self.N))
        rows = len(y0)
        constants = system1.System1(
            model._phi, model._mean_degree, model._lam,
            np.full(rows, model._alpha), np.asarray(eps1), np.full(rows, 0.05))
        monkeypatch.setattr(system1, "THREADED_GROUPS", self.N)
        runs = []
        for threads in (1, 2, 3):
            self.force_cpus(monkeypatch, threads)
            run = system1.run(constants, np.stack(y0),
                              np.linspace(0.0, 10.0, 11), slope=None,
                              rtol=1e-8, atol=1e-10, h_init=1.0, h_max=10.0,
                              max_attempts=budget)
            runs.append(run._replace(y=None))
        assert (runs[0].status, runs[0].row, runs[0].stuck) == report
        for many in runs[1:]:
            for field, want, got in zip(runs[0]._fields, runs[0], many):
                assert np.array_equal(got, want), field

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs Linux's /proc/self/task")
    def test_no_helper_outlives_its_call(self, monkeypatch):
        params = digg2009_params()
        batch = BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2, 0.3],
                                        eps2=0.05)
        self.force_cpus(monkeypatch, 3)
        before = len(os.listdir("/proc/self/task"))
        batch.simulate(SIRState.initial(params.n_groups, 0.01),
                       t_final=60.0, n_samples=61)
        assert len(os.listdir("/proc/self/task")) == before
