"""The three workloads: end-to-end runs, output checks and traced runs.

Each workload has `end_to_end(run)` (drives `fc_sweep` / `fc_sweep
serve` as a user would, tracing off) and `traced(run)` (the same
end-to-end run, then perfbench-tracer's decomposition of it). Both
return `{metric name: value}`; failed output checks are counted on the
`Run`.
"""

import contextlib
import fcntl
import hashlib
import json
import os
import random
import re
import subprocess
import threading
import time

import layers
import stats
from layers import CACHING, FAMILIES



class RunError(Exception):
    """The run cannot produce a result (a process failed to start,
    died, or the time budget ran out)."""


def derive(seed, tag, i=0):
    """A 52-bit input seed derived from the run seed: same seed, same
    inputs. Serve requests carry seeds as JSON numbers, exact only below
    2^53; a larger seed would reach the server rounded, as another seed."""
    return int(hashlib.sha256(f"{seed}/{tag}/{i}".encode()).hexdigest()[:13], 16)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def batch_client():
    """Runs the block with the calling thread under SCHED_BATCH. The
    server shares the client's CPU and writes its answer one line at a
    time; under SCHED_OTHER each line woke the client, which preempted
    the server, two context switches per line (80 for a 42-point memo
    answer), and the client's own CPU was 19% of the memo latency. A
    SCHED_BATCH thread does not preempt on wake-up, so the client runs
    when the server blocks for its next request and reads the answer in
    one go. Start processes before the block: children inherit the
    policy."""
    os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    try:
        yield
    finally:
        os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))


@contextlib.contextmanager
def one_cpu():
    """Runs the block, and every process it starts, on one CPU. A client
    and the server it waits on then hand off by a local context switch
    rather than a cross-CPU wake-up, whose cost on a shared virtual
    machine is the host's, not the program's: with the two on separate
    CPUs the serve memo tail doubled from one run to the next."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Proc:
    """A child process; its stderr lines are timestamped as they arrive."""

    def __init__(self, run, argv, stdin=False, stdout_path=None):
        self.run = run
        self.stdout_file = open(stdout_path, "wb") if stdout_path else None
        self.t0 = time.perf_counter()
        try:
            self.p = subprocess.Popen(
                argv, cwd=run.work,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=self.stdout_file or subprocess.PIPE,
                stderr=subprocess.PIPE)
        except OSError as e:
            raise RunError(f"cannot start {argv[0]}: {e}")
        run.children.append(self)
        self.lines = []
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rss_mb = 0.0
        self.t_end = None

    def _read(self):
        for raw in iter(self.p.stderr.readline, b""):
            self.lines.append((time.perf_counter(), raw.decode(errors="replace").rstrip("\n")))

    def finish(self):
        """Waits for exit (killing the process at the run deadline);
        returns the exit code. Records the exit time and peak RSS."""
        timer = threading.Timer(max(0.0, self.run.deadline - time.monotonic()), self.p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.t_end = time.perf_counter()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.reader.join()
        if self.stdout_file:
            self.stdout_file.close()
        if time.monotonic() >= self.run.deadline:
            raise RunError("time budget exhausted")
        return self.p.returncode

    def stderr_text(self):
        return "\n".join(line for _, line in self.lines)

    def stop(self):
        if self.p.returncode is None and self.p.poll() is None:
            self.p.kill()
            self.p.wait()
        self.reader.join(timeout=5)


class Run:
    """One benchmark run: paths, seed, time budget, children, checks."""

    def __init__(self, bin_dir, work, seed, seconds, deadline):
        self.fc_sweep = os.path.join(bin_dir, "fc_sweep")
        self.tracer = os.path.join(bin_dir, "perfbench-tracer")
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.threads = nproc()
        self.children = []
        self.attempted = 0
        self.failed = 0

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def op(self, ok, what):
        """Counts one operation; a broken output check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.say(f"FAILED: {what}")
        return ok

    def say(self, line):
        print(line, flush=True)

    def stop_all(self):
        for child in self.children:
            child.stop()

    def remaining(self):
        return self.deadline - time.monotonic()


# Samples per tail window: with ten samples beyond it, a window's tail
# is its p95.
TAIL_WINDOW = 200


def latency_tail(values):
    return stats.windowed_tail(values, TAIL_WINDOW)[0]


def covered_insts(point):
    """Instructions of every record a point record covers (warm-up +
    measured): the measured region's instructions per record times the
    records the point covers."""
    total = point["warmup_records"] + point.get("measured_records_total", point["measured_records"])
    return point["insts"] / point["measured_records"] * total


def check_traced_digest(run, traced, untraced):
    """The traced run must decompose the same program: equal digests."""
    same = traced == untraced
    run.op(same, f"traced stats_digest {traced} != untraced {untraced}")
    run.say(f"  traced stats_digest {traced} "
            f"({'equal to' if same else 'DIFFERENT from'} the untraced run)")


def summary_stats(run, name, values, unit="ms"):
    value, pct, n, windows = stats.windowed_tail(values, TAIL_WINDOW)
    run.say(f"  {name}: p50 {stats.median(values):.4f} {unit}, "
            f"mean {sum(values) / len(values):.4f} {unit}, tail p{pct:.1f} "
            f"{value:.4f} {unit} (median over {windows} window(s)) over {n} samples")


# ---------------------------------------------------------------------------
# Batch workloads: the fc_sweep CLI


class Batch:
    """A batch workload: fresh grid invocations of the CLI, then memo
    requests read back through `fc_sweep serve`."""

    name = ""

    def grid_args(self, run, seed, i):
        raise NotImplementedError

    @staticmethod
    def timed_span(proc):
        """The CLI prints one line right before its timed grid run and
        one ("N simulations in Xs") right after it. Returns (start, end,
        the end line) as this process saw the lines arrive."""
        for i, (t, line) in enumerate(proc.lines):
            if re.search(r"\] \d+ (sampled )?simulations in ", line):
                if i == 0:
                    break
                return proc.lines[i - 1][0], t, line
        raise RunError(f"no timed-run markers on fc_sweep stderr: {proc.stderr_text()[-2000:]}")

    # Memo requests per run: thirty tail windows, 5-8 s. The host's speed
    # shifts by up to 40% for a second or more at a time, so a short
    # read-back catches one state: over ten seeds the p50 spread 0.31
    # with 1000 requests and 0.18 with 3000.
    MEMO_REQUESTS = 30 * TAIL_WINDOW

    def read_back(self, run, store, request, expected):
        """Memo requests: `request` (a grid whose every point is already
        in `store`) sent MEMO_REQUESTS times to `fc_sweep serve`, served
        the way serve-mixed serves (one CPU, one closed-loop client).
        Each answer must recall every point, bit-identical to `expected`
        (the point records' text). Returns the latencies (s), the serve
        spawns' set-up times and the session wall (s)."""
        line = json.dumps(dict(request, id=MEMO_ID))
        answers, walls = [], []
        with one_cpu():
            server, setups = start_server(run, store, line, answers)
            with batch_client():
                started = time.perf_counter()
                for _ in range(self.MEMO_REQUESTS):
                    latency, _, lines = server.ask(line, memo=True)
                    walls.append(latency)
                    answers.append(lines)
                session = time.perf_counter() - started
            server.close()
        for lines in answers:
            summary = json.loads(lines[-1])
            points = [point_text(raw) for raw in lines if raw.startswith(POINT)]
            run.op(summary.get("fresh") == 0 and points == expected,
                   f"memo answer differs from the fresh answer of the same keys: {summary}")
        return walls, setups, session

    def end_to_end(self, run):
        return self.measure(run)[0]

    def grids(self, run):
        """Fresh grids per run: a fixed count for --seconds, so the number
        of samples (and the maxima over them) does not follow the host's
        speed."""
        return max(1, int(run.seconds // self.GRID_SECONDS))

    def measure(self, run):
        fresh, seeds, setups = [], [], []
        for i in range(self.grids(run)):
            seed = derive(run.seed, self.name, i)
            argv = self.grid_args(run, seed, i) + ["--json", run.path(f"grid{i}.json")]
            proc = Proc(run, [run.fc_sweep] + argv, stdout_path=run.path(f"grid{i}.out"))
            if proc.finish() != 0:
                raise RunError(f"fc_sweep exited {proc.p.returncode}: {proc.stderr_text()[-2000:]}")
            t_start, t_end, marker = self.timed_span(proc)
            setups.append(t_start - proc.t0)
            fresh.append({"rss_mb": proc.rss_mb, "wall": proc.t_end - proc.t0, "work": t_end - t_start,
                          "marker": marker, "seed": seed, "json": run.path(f"grid{i}.json")})
            seeds.append(seed)
        memo, setups, memo_session = self.memo_requests(run, fresh[0], setups)
        records = self.check(run, fresh)
        points = sum(len(r) for r in records)
        work = sum(f["work"] for f in fresh)
        wall = sum(f["wall"] for f in fresh)
        fresh_ms = [f["wall"] * 1000 for f in fresh]
        memo_ms = [m * 1000 for m in memo]
        covered = sum(covered_insts(p) for r in records for p in r)
        run.say(f"{self.name}: {len(fresh)} fresh grid(s), {points} points in {wall:.3f} s "
                f"(the CLI's own timed run {work:.3f} s), {len(memo)} memo requests")
        summary_stats(run, "fresh request", fresh_ms)
        summary_stats(run, "memo request", memo_ms)
        run.say(f"  memo read-back session: {len(memo)} requests in {memo_session:.3f} s "
                f"({len(memo) / memo_session:.1f} requests/s)")
        summary_stats(run, "setup", setups, "s")
        digest = stats.digest(self.digest_records(run, fresh))
        run.say(f"  stats_digest {digest} (seeds {','.join(map(str, seeds))}; the model is not "
                f"validated against hardware, so no error figure is given)")
        metrics = {
            "setup_s": stats.median(setups),
            "points_per_s": points / wall,
            "sim_mips": covered / wall / 1e6,
            "peak_rss_mb": max(f["rss_mb"] for f in fresh),
            # One sample per grid, and a 25 s run makes one grid: this is
            # its wall, 1000 x points / points_per_s, nothing beyond it.
            "req_fresh_tail_ms": latency_tail(fresh_ms),
            "req_memo_tail_ms": latency_tail(memo_ms),
        }
        return metrics, {"seeds": seeds, "digest": digest, "fresh": fresh}


    def traced(self, run):
        _, e2e = self.measure(run)
        out = run.path("tracer")
        probe_reqs, memo_req, probe_classes = probe_requests(run)
        argv = [run.tracer, self.tracer_mode, "--out", out, "--threads", str(run.threads),
                "--seeds", ",".join(map(str, e2e["seeds"])),
                "--workloads", ",".join(self.workloads),
                "--probe-requests", probe_reqs, "--memo-request", memo_req]
        tracer = Proc(run, argv)
        if tracer.finish() != 0:
            raise RunError(f"perfbench-tracer failed: {tracer.stderr_text()[-2000:]}")
        check_traced_digest(run, stats.digest(self.tracer_digest_records(out)), e2e["digest"])
        trace = layers.load(out)
        probe = layers.serve_figures(
            trace, [response_facts(r) for r in tracer_responses(out, "probe_responses.jsonl")],
            probe_classes)
        return layers.metrics(run, trace, workload=self.name, threads=run.threads, serve=probe)


def read_results(path):
    with open(path) as f:
        return json.load(f)["results"]


def result_lines(path):
    """The raw text of each point record in a CLI JSON artifact."""
    with open(path) as f:
        return [line.strip().rstrip(",") for line in f if line.startswith("  {")]


class SweepFull(Batch):
    name = "sweep-full"
    # One grid's wall on 2 cores, spawn to exit.
    GRID_SECONDS = 25
    workloads = ["web search", "data serving"]
    tracer_mode = "sweep"

    def grid_args(self, run, seed, i):
        return ["--grid", "designspace", "--capacities", "64",
                "--workloads", ",".join(self.workloads), "--scale", "full",
                "--threads", str(run.threads), "--quiet", "--seed", str(seed),
                "--store", run.path(f"store{i}")]

    def memo_requests(self, run, first, _grid_setups):
        """The grid read back through `fc_sweep serve` over the store the
        first fresh grid filled. Set-up is the serve spawns' (store open
        and shard load of the full-scale records included)."""
        request = {"grid": "designspace", "capacities": [64], "workloads": self.workloads,
                   "scale": "full", "seed": first["seed"]}
        return self.read_back(run, run.path("store0"), request, result_lines(first["json"]))

    def check(self, run, fresh):
        out = []
        for g, f in enumerate(fresh):
            results = read_results(f["json"])
            run.op(len(results) == 24 and re.search(r"\] 24 simulations in .*\(0 memo hits\)", f["marker"]),
                   f"grid seed {f['seed']}: expected 24 fresh points, got {len(results)} ({f['marker']})")
            store = {r["h"]: r["v"] for r in store_records(run.path(f"store{g}"))}
            for i, point in enumerate(results):
                family = FAMILIES[i % len(FAMILIES)]
                report = store.get(point["key"])
                run.op(report is not None, f"{point['design']}: point missing from the store")
                if report is None:
                    continue
                if family in CACHING:
                    run.op(report["cache"]["evictions"] > 0,
                           f"{point['workload']} / {point['design']}: no evictions, cache never turned over")
                if family == "footprint":
                    pred = report["prediction"] or {}
                    run.op(all(pred.get(k, 0) > 0 for k in
                               ("covered", "overpredicted", "underpredicted", "singleton_bypasses")),
                           f"{point['workload']} / Footprint: an FHT counter or singleton bypasses is zero: {pred}")
            out.append(results)
        return out

    def digest_records(self, run, fresh):
        rows = [{"k": r["k"], "v": r["v"]}
                for g, _ in enumerate(fresh) for r in store_records(run.path(f"store{g}"))]
        rows.sort(key=lambda r: r["k"])
        return rows

    def tracer_digest_records(self, out):
        with open(os.path.join(out, "digest.txt")) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        rows.sort(key=lambda r: r["k"])
        return rows


def store_records(store_dir):
    """Every record (`h` key hash, `k` canonical key, `v` report) in a
    durable store's shard files."""
    records = []
    for name in sorted(os.listdir(store_dir)):
        if name.startswith("shard-") and name.endswith(".jsonl"):
            with open(os.path.join(store_dir, name)) as f:
                records.extend(json.loads(line) for line in f if line.strip())
    return records


class SampledLong(Batch):
    name = "sampled-long"
    # One grid's wall on 2 cores, spawn to exit (synthesis included).
    GRID_SECONDS = 23
    workloads = ["web search", "data serving", "mapreduce"]
    tracer_mode = "sampled"

    def grid_args(self, run, seed, i):
        return ["--grid", "sampled", "--workloads", ",".join(self.workloads),
                "--threads", str(run.threads), "--quiet", "--seed", str(seed)]

    def memo_requests(self, run, first, grid_setups):
        """Sampled reports have no store, so the memo requests read back
        the grid's shape (the same 36 designs x workloads at 8 MB and the
        same seed) at tiny scale: one request fills a store through
        `fc_sweep serve`, then it is read back. Set-up stays the CLI's
        (its up-front trace synthesis)."""
        request = {"grid": "designspace", "capacities": [8], "workloads": self.workloads,
                   "scale": "tiny", "seed": first["seed"]}
        store = run.path("memo-store")
        filler = Server(run, store, run.threads)
        _, _, lines = filler.ask(json.dumps(dict(request, id="fill")))
        filler.close()
        run.op(json.loads(lines[-1]).get("fresh") == 36,
               f"memo store fill answered {lines[-1]!r} instead of 36 fresh points")
        expected = [point_text(raw) for raw in lines if raw.startswith(POINT)]
        walls, _, session = self.read_back(run, store, request, expected)
        return walls, grid_setups, session

    def check(self, run, fresh):
        out = []
        for f in fresh:
            results = read_results(f["json"])
            run.op(len(results) == 36 and re.search(r"\] 36 sampled simulations in ", f["marker"]),
                   f"grid seed {f['seed']}: expected 36 fresh sampled points, got {len(results)}")
            for point in results:
                run.op(point["intervals"] > 0 and point["measured_records"] > 0,
                       f"{point['workload']} / {point['design']}: no measured interval")
            out.append(results)
        return out

    def digest_records(self, run, fresh):
        rows = []
        for f in fresh:
            rows.extend(sorted(read_results(f["json"]), key=lambda r: r["key"]))
        return rows

    def tracer_digest_records(self, out):
        with open(os.path.join(out, "digest.txt")) as f:
            text = f.read()
        rows = []
        # One JSON array per grid, concatenated.
        decoder = json.JSONDecoder()
        pos = 0
        while pos < len(text):
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            grid, pos = decoder.raw_decode(text, pos)
            rows.extend(sorted(grid, key=lambda r: r["key"]))
        return rows


# ---------------------------------------------------------------------------
# serve-mixed: fc_sweep serve over a durable store


def memo_request(seed, scale="quick", rid="memo"):
    """The memo request: a designspace grid the store was built with."""
    return {"id": rid, "grid": "designspace", "capacities": [64, 128],
            "workloads": ["web search", "data serving"], "scale": scale, "seed": seed}


MEMO_POINTS = 42  # (9 scaled families x 2 capacities + 3 fixed) x 2 workloads
FRESH_POINTS = 4  # fig5: baseline, page, footprint, block at 64 MB

# Malformed or invalid requests and the error kind each must get.
INVALID = [
    ("parse", lambda rid: "this is not json {"),
    ("spec", lambda rid: json.dumps({"id": rid, "scale": "galactic"})),
    ("spec", lambda rid: json.dumps({"id": rid, "workloads": ["no such workload"]})),
    ("spec", lambda rid: json.dumps({"id": rid, "capacities": [0]})),
    ("spec", lambda rid: json.dumps({"id": rid, "grid": "fig99"})),
]

# One cycle of the request mix, shuffled per cycle by the seed. The
# shares are an assumption, not taken from recorded traffic (the
# repository has none): reads are the majority, as a result cache
# exists to answer repeats, writes are a large minority so that appends
# and simulation keep running beside them, and invalid lines are rare.
# Fresh requests take most of the session wall, so the session's request
# rate (printed, not a metric) is this mix's, not the service's
# throughput under real traffic.
MIX = ["memo"] * 6 + ["fresh"] * 3 + ["invalid"]


class Schedule:
    """The request sequence of a serve session, a pure function of the seed."""

    def __init__(self, seed, scale="quick", fresh_tag="fresh"):
        self.rng = random.Random(derive(seed, "mix"))
        self.seed = seed
        self.memo_seed = derive(seed, "build")
        self.scale = scale
        self.fresh_tag = fresh_tag
        self.cycle = []
        self.counts = {"memo": 0, "fresh": 0, "invalid": 0}

    def build_line(self):
        return json.dumps(memo_request(self.memo_seed, self.scale, "build"))

    def memo_line(self):
        return json.dumps(memo_request(self.memo_seed, self.scale, MEMO_ID))

    def next(self):
        """Returns (class, request id, line, expected error kind)."""
        if not self.cycle:
            self.cycle = MIX[:]
            self.rng.shuffle(self.cycle)
        cls = self.cycle.pop()
        k = self.counts[cls]
        self.counts[cls] += 1
        rid = f"{cls}-{k}"
        if cls == "memo":
            return cls, rid, self.memo_line(), None
        if cls == "fresh":
            # A seed never used before in this run: simulation + append.
            line = json.dumps({"id": rid, "grid": "fig5", "capacities": [64],
                               "workloads": ["web search"], "scale": "tiny",
                               "seed": derive(self.seed, self.fresh_tag, k)})
            return cls, rid, line, None
        kind, make = INVALID[k % len(INVALID)]
        return cls, rid, make(rid), kind


# The session server's worker threads: it shares one CPU with the client.
SERVER_THREADS = 1
# Servers started one after another per run, each timed from spawn to
# its first answer (set-up); the last one serves the session. A spawn
# takes 5-10 ms; with 9 the median of sweep-full's set-up spread 0.33
# over ten seeds.
SETUP_SPAWNS = 31
POINT = b'{"type": "point"'
# The client's read buffer, and the capacity of the server's stdout pipe
# (at most /proc/sys/fs/pipe-max-size, 1 MB by default): a whole
# 42-point answer fits in either.
READ_BYTES = 1 << 20
PIPE_BYTES = 1 << 18
# The id of every memo request (see Server.answer_lines).
MEMO_ID = "memo"
# Largest client CPU per memo request, as a share of the memo latency.
CLIENT_BOUND = 0.10
TERMINAL = (b'{"type": "summary"', b'{"type": "error"')


class Server:
    """`fc_sweep serve` over a durable store, one closed-loop client."""

    def __init__(self, run, store, threads):
        self.proc = Proc(run, [run.fc_sweep, "serve", "--store", store, "--threads", str(threads)],
                         stdin=True)
        self.fd = self.proc.p.stdout.fileno()
        # A pipe that holds a whole memo answer (about 120 KB): the server
        # writes it without blocking and the client reads it in one or
        # two calls.
        fcntl.fcntl(self.fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        self.buf = bytearray(READ_BYTES)
        # The last memo answer: (its bytes before the summary, its lines).
        self.reference = None

    def ask(self, line, memo=False):
        """Sends one request; returns (latency s, client s, response lines).
        The client reads the server's stdout into a buffer kept across
        requests (a fresh 1 MB buffer per read costs more than the read),
        and the response ends at the first read that ends in a summary
        or error line: the server writes nothing more until it gets the
        next request. Client time is this thread's CPU time over the
        whole exchange: the write, every read syscall and the handling
        of the answer count, time blocked on the server does not."""
        p = self.proc.p
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        p.stdin.write(line.encode() + b"\n")
        p.stdin.flush()
        buf, pos = self.buf, 0
        while True:
            if pos == len(buf):
                buf.extend(bytes(len(buf)))
            n = os.readv(self.fd, [memoryview(buf)[pos:]])
            if n == 0:
                raise RunError(f"fc_sweep serve closed its output: {self.proc.stderr_text()[-2000:]}")
            pos += n
            if buf[pos - 1] != 10:
                continue
            last = buf.rfind(b"\n", 0, pos - 1) + 1
            if buf.startswith(TERMINAL, last, pos):
                t = time.perf_counter()
                self.answered_at = t
                lines = self.answer_lines(last, pos, memo)
                return t - t0, time.thread_time() - cpu0, lines

    def answer_lines(self, last, end, memo):
        """The lines of the answer in `buf[:end]`, whose last line starts
        at `last`. Every memo request carries the same id, so memo
        answers repeat their point lines byte for byte: one that matches
        the previous memo answer shares its line objects, and only its
        summary line is copied. Keeping a copy of every 120 KB answer
        cost page faults, 0.2 ms of client CPU per memo request on a
        virtual machine."""
        buf, ref = self.buf, self.reference
        if memo and ref is not None and last == len(ref[0]) and buf.startswith(ref[0]):
            return ref[1] + [bytes(buf[last:end])]
        lines = split_lines(buf, end)
        if memo:
            self.reference = (bytes(buf[:last]), lines[:-1])
        return lines

    def close(self):
        self.proc.p.stdin.close()
        if self.proc.finish() != 0:
            raise RunError(f"fc_sweep serve exited {self.proc.p.returncode}")
        return self.proc


def split_lines(buf, end):
    """The lines of `buf[:end]`, each with its newline."""
    lines, start = [], 0
    with memoryview(buf) as view:
        while start < end:
            stop = buf.find(b"\n", start, end) + 1 or end
            lines.append(bytes(view[start:stop]))
            start = stop
    return lines


def start_server(run, store, memo_line, answers):
    """Starts SETUP_SPAWNS servers over `store` in turn, each timed from
    spawn until its first memo request (store open and shard load
    included) is answered. Returns the last server, still serving, and
    the set-up times; the answers are appended to `answers`. Call it
    inside `one_cpu()`."""
    setups = []
    for k in range(SETUP_SPAWNS):
        server = Server(run, store, SERVER_THREADS)
        _, _, lines = server.ask(memo_line, memo=True)
        setups.append(server.answered_at - server.proc.t0)
        answers.append(lines)
        if k < SETUP_SPAWNS - 1:
            server.close()
    return server, setups


def point_text(raw):
    """The raw text of a point line's `point` object (the line's last
    character closes the line's own object)."""
    return raw.decode().split('"point": ', 1)[1].rstrip()[:-1]


def is_fresh(raw):
    """Whether a point line reports a freshly simulated point (the flag
    precedes the point object)."""
    return b'"fresh": true' in raw.split(b'"point": ', 1)[0]


def response_facts(lines):
    """What a response's raw lines say, parsing only what is needed (a
    memo answer is 42 long lines): the last line's object (summary or
    error), the point lines, and the parsed records of the fresh ones."""
    points = [raw for raw in lines if raw.startswith(POINT)]
    fresh = [json.loads(point_text(raw)) for raw in points if is_fresh(raw)]
    return json.loads(lines[-1]), points, fresh


def check_response(run, cls, rid, kind, lines, build_texts):
    """Output checks of one answered request; returns its facts."""
    facts = last, points, fresh = response_facts(lines)
    if cls == "invalid":
        ok = len(lines) == 1 and last["type"] == "error"
        if ok and kind == "parse":
            ok = last["id"] == "" and last["error"].startswith("bad request JSON")
        elif ok:
            ok = last["id"] == rid and not last["error"].startswith("bad request JSON")
        run.op(ok, f"{rid}: expected a `{kind}` error, got {lines}")
        return facts
    want = MEMO_POINTS if cls == "memo" else FRESH_POINTS
    ok = (last["type"] == "summary" and len(points) == len(lines) - 1 == want == last["points"]
          and last["fresh"] == len(fresh) == (0 if cls == "memo" else want))
    if ok and cls == "memo":
        # Bit-identical to the fresh answer the build request got.
        ok = [point_text(raw) for raw in points] == build_texts
    run.op(ok, f"{rid}: bad {cls} response ({len(points)} points, summary {last})")
    return facts


def digest_rows(responses):
    """Every simulated statistic the responses carry, in request order:
    point lines as the server wrote them, errors, and summary counts
    (their wall_secs, a timing, left out)."""
    rows = []
    for lines in responses:
        rows.extend(raw.decode().rstrip() for raw in lines if raw.startswith(POINT))
        last = json.loads(lines[-1])
        if last["type"] == "error":
            rows.append({"id": last["id"], "error": last["error"]})
        else:
            rows.append({"id": last["id"], "points": last["points"], "fresh": last["fresh"]})
    return rows


class ServeMixed:
    name = "serve-mixed"
    # Requests per second of --seconds: a fixed count per run (so sample
    # counts and the store's growth do not follow the host's speed),
    # sized to take about --seconds on 2 cores.
    REQUESTS_PER_S = 140

    def end_to_end(self, run):
        return self.measure(run)[0]

    def measure(self, run):
        store = run.path("store")
        schedule = Schedule(run.seed)

        # The store, rebuilt every run: one fresh designspace request.
        filler = Server(run, store, run.threads)
        _, _, build_lines = filler.ask(schedule.build_line())
        filler.close()
        build_summary, build_points, _ = response_facts(build_lines)
        run.op(build_summary.get("fresh") == MEMO_POINTS,
               f"store build answered {build_summary} instead of {MEMO_POINTS} fresh points")
        build_texts = [point_text(raw) for raw in build_points]

        sent, answered = [], []
        lat = {"memo": [], "fresh": [], "invalid": []}
        client, summaries = {"memo": [], "fresh": [], "invalid": []}, {"memo": [], "fresh": []}
        warm = []
        # The session: one server worker thread and the client, on one CPU.
        with one_cpu():
            server, setups = start_server(run, store, schedule.memo_line(), warm)
            with batch_client():
                started = time.perf_counter()
                for _ in range(max(len(MIX), round(run.seconds * self.REQUESTS_PER_S))):
                    if run.remaining() < 90:
                        raise RunError("serve session too slow for the time budget")
                    cls, rid, line, kind = schedule.next()
                    latency, own, lines = server.ask(line, memo=cls == "memo")
                    sent.append((cls, rid, line, kind))
                    answered.append(lines)
                    lat[cls].append(latency * 1000)
                    client[cls].append(own * 1000)
                session = time.perf_counter() - started
            server_proc = server.close()

        for k, lines in enumerate(warm):
            check_response(run, "memo", f"warm-{k}", None, lines, build_texts)
        points = 0
        fresh_inst = 0.0
        for (cls, rid, _, kind), lines in zip(sent, answered):
            last, point_lines, fresh = check_response(run, cls, rid, kind, lines, build_texts)
            points += len(point_lines)
            fresh_inst += sum(covered_insts(p) for p in fresh)
            if cls in summaries and last["type"] == "summary":
                summaries[cls].append(last["wall_secs"] * 1000)
        totals = re.search(r"serve: (\d+) request\(s\), (\d+) point\(s\) \((\d+) fresh\), (\d+) error",
                           server_proc.stderr_text())
        run.op(totals is not None and int(totals.group(1)) == len(sent) + 1
               and int(totals.group(4)) == len(lat["invalid"]),
               f"serve totals disagree with the client: {totals and totals.group(0)}")

        n = len(sent)
        run.say(f"serve-mixed: {n} requests in {session:.3f} s ({n / session:.1f} requests/s; "
                f"{len(lat['memo'])} memo, {len(lat['fresh'])} fresh, {len(lat['invalid'])} invalid), "
                f"1 closed-loop client and {SERVER_THREADS} server thread on one CPU")
        summary_stats(run, "memo request", lat["memo"])
        summary_stats(run, "fresh request", lat["fresh"])
        summary_stats(run, "invalid request", lat["invalid"])
        summary_stats(run, "client's own CPU per memo request", client["memo"])
        shares = ", ".join(f"{cls} {sum(lat[cls]) / 10 / session:.1f}%" for cls in lat)
        run.say(f"  share of the session wall by class (assumed mix 6:3:1): {shares}")
        summary_stats(run, "setup", setups, "s")
        memo_p50 = stats.median(lat["memo"])
        client_p50 = stats.median(client["memo"])
        # The client must not be what is measured. Reading and comparing a
        # 120 KB memo answer costs about 5% of its latency; with per-byte
        # reads the client was 97% of it.
        run.op(client_p50 <= CLIENT_BOUND * memo_p50,
               f"client CPU p50 {client_p50:.4f} ms per memo request exceeds "
               f"{CLIENT_BOUND:.0%} of memo p50 {memo_p50:.4f} ms")
        run.say(f"  client CPU p50 per memo request {client_p50:.4f} ms = "
                f"{100 * client_p50 / memo_p50:.2f}% of the memo p50 (bound {CLIENT_BOUND:.0%})")
        digest = stats.digest(digest_rows([build_lines] + answered))
        run.say(f"  stats_digest {digest} (the model is not validated against hardware, "
                f"so no error figure is given)")
        metrics = {
            "setup_s": stats.median(setups),
            "points_per_s": points / session,
            "sim_mips": fresh_inst / session / 1e6,
            "peak_rss_mb": server_proc.rss_mb,
            "req_memo_tail_ms": latency_tail(lat["memo"]),
            "req_fresh_tail_ms": latency_tail(lat["fresh"]),
        }
        lines = [schedule.build_line()] + [line for _, _, line, _ in sent]
        classes = ["build"] + [cls for cls, _, _, _ in sent]
        outside = [c - s for c, s in zip(lat["memo"], summaries["memo"])]
        return metrics, {"digest": digest, "lines": lines, "classes": classes,
                         "outside_ms": outside, "memo_seed": schedule.memo_seed,
                         "threads": SERVER_THREADS}

    def traced(self, run):
        _, e2e = self.measure(run)
        out = run.path("tracer")
        os.makedirs(out, exist_ok=True)
        reqs = os.path.join(out, "requests.jsonl")
        with open(reqs, "w") as f:
            f.write("\n".join(e2e["lines"]) + "\n")
        memo = os.path.join(out, "memo.json")
        with open(memo, "w") as f:
            json.dump(memo_request(e2e["memo_seed"]), f)
        tracer = Proc(run, [run.tracer, "serve", "--out", out, "--threads", str(e2e["threads"]),
                            "--seeds", str(e2e["memo_seed"]), "--workloads", "web search",
                            "--requests", reqs, "--memo-request", memo])
        if tracer.finish() != 0:
            raise RunError(f"perfbench-tracer failed: {tracer.stderr_text()[-2000:]}")
        responses = tracer_responses(out)
        check_traced_digest(run, stats.digest(digest_rows(responses)), e2e["digest"])
        trace = layers.load(out)
        serve = layers.serve_figures(trace, [response_facts(r) for r in responses], e2e["classes"])
        # Client-side: what the client waited beyond the server's run_spec.
        serve["outside_ms"] = stats.median(e2e["outside_ms"])
        return layers.metrics(run, trace, workload=self.name, threads=e2e["threads"], serve=serve)


def tracer_responses(out, name="digest.txt"):
    """The tracer's serve responses: the raw lines of each request."""
    responses, current = [], []
    with open(os.path.join(out, name), "rb") as f:
        for raw in f:
            if not raw.strip():
                continue
            current.append(raw)
            if raw.startswith(TERMINAL):
                responses.append(current)
                current = []
    return responses


def probe_requests(run):
    """The small serve session batch workloads' traced runs replay
    in-process to time the store, emit and serve layers (tiny scale)."""
    schedule = Schedule(run.seed, scale="tiny", fresh_tag="probe-fresh")
    lines, classes = [schedule.build_line()], ["build"]
    while len(lines) < 16:
        cls, _, line, _ = schedule.next()
        lines.append(line)
        classes.append(cls)
    path = run.path("probe-requests.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    memo = run.path("probe-memo.json")
    with open(memo, "w") as f:
        json.dump(memo_request(schedule.memo_seed, "tiny"), f)
    return path, memo, classes


WORKLOADS = {
    "sweep-full": SweepFull(),
    "sampled-long": SampledLong(),
    "serve-mixed": ServeMixed(),
}
