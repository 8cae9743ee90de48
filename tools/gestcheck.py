"""Shared plumbing for the gest artifact validators in tools/.

The check_*.py scripts and lineage_to_dot.py keep their own schema,
physics and consistency checks; everything they have in common lives
here:

  * fail() prints `<script>: FAIL: <message>` and exits 1. Inside a
    scratch() directory, with GEST_CHECK_ARTIFACT_DIR set, it first
    copies the directory to $GEST_CHECK_ARTIFACT_DIR/<name> so CI can
    upload it for post-mortem;
  * run() and run_gest() run gest (or a bench binary) to completion;
    live_run() starts `gest run` in the background, waits for the
    listen address in status.json and kills the process on exit;
  * get() and get_json() share one contract for the end-of-run race,
    and SseReader drains the /events stream;
  * read_framed() reads the `# gest-<name> vN` CSV framing: tag line,
    comment preamble, column header, numbered rows.

Unit tests: python3 tools/test_gestcheck.py
"""

import contextlib
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

PROG = os.path.splitext(os.path.basename(sys.argv[0]))[0]
ARTIFACT_ENV = "GEST_CHECK_ARTIFACT_DIR"

_scratch = None  # (directory, artifact name) while scratch() is active


def fail(message):
    if _scratch is not None:
        dest = os.environ.get(ARTIFACT_ENV)
        if dest:
            target = os.path.join(dest, _scratch[1])
            shutil.copytree(_scratch[0], target, dirs_exist_ok=True)
            print(f"{PROG}: scratch copied to {target}", file=sys.stderr)
    print(f"{PROG}: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def ok(message):
    print(f"{PROG}: OK: {message}")


@contextlib.contextmanager
def scratch(name):
    """A temporary working directory that fail() copies out as `name`."""
    global _scratch
    previous = _scratch
    with tempfile.TemporaryDirectory(prefix=f"gest-{name}-") as work:
        _scratch = (work, name)
        try:
            yield work
        finally:
            _scratch = previous


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path} is unreadable or not valid JSON: {err}")


def number(text, where, kind=float):
    try:
        return kind(text)
    except ValueError:
        fail(f"{where}: {text!r} is not {kind.__name__}")


# ------------------------------------------------------------ processes

def run(args, cwd, expect=0):
    """Run args to completion; fail() unless it exits `expect`."""
    args = [os.path.abspath(args[0])] + list(args[1:])
    result = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    if result.returncode != expect:
        fail(f"{os.path.basename(args[0])} {' '.join(args[1:])} exited "
             f"{result.returncode}, expected {expect}:\n"
             f"{result.stdout}{result.stderr}")
    return result


def _write_config(work, config):
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "config.xml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config)
    return path


def run_gest(gest, work, config, *flags):
    """`gest run` the XML text `config` in `work`; return work/out."""
    run([gest, "run", _write_config(work, config), "--quiet", *flags], work)
    return os.path.join(work, "out")


class LiveRun:
    """A background `gest run` started by live_run()."""

    def __init__(self, process):
        self.process = process
        self.listen = None

    def alive(self):
        return self.process.poll() is None

    def get_json(self, path):
        return get_json(f"http://{self.listen}{path}", self.process)

    def events(self, last_event_id=None):
        """Start draining /events; see SseReader."""
        return SseReader(self.listen, last_event_id)

    def finish(self):
        """Wait for the run to exit, and fail() unless it exits 0."""
        out, err = self.process.communicate(timeout=300)
        if self.process.returncode != 0:
            fail(f"gest run exited {self.process.returncode}:\n{out}{err}")


@contextlib.contextmanager
def live_run(gest, work, config, listen=True):
    """Start `gest run` on the XML text `config` in `work` (its output
    directory must be "out") and yield a LiveRun. With `listen`, first
    wait for the server's address to appear in out/status.json. A
    process still running on exit is killed."""
    process = subprocess.Popen(
        [os.path.abspath(gest), "run", _write_config(work, config),
         "--quiet"], cwd=work, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    live = LiveRun(process)
    try:
        if listen:
            live.listen = _wait_listen(
                process, os.path.join(work, "out", "status.json"))
        yield live
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def _wait_listen(process, status_path):
    # The bound (ephemeral) port surfaces in the status.json heartbeat
    # after the first generation.
    for _ in range(600):
        if process.poll() is not None:
            break
        try:
            with open(status_path, encoding="utf-8") as handle:
                listen = json.load(handle).get("listen")
        except (OSError, json.JSONDecodeError):
            listen = None
        if listen:
            return listen
        time.sleep(0.05)
    out, err = process.communicate(timeout=60)
    fail("no listen address appeared in status.json; gest exited "
         f"{process.returncode}:\n{out}{err}")


# ----------------------------------------------------------------- HTTP

class RunEnded(Exception):
    """A GET failed because the run serving it has exited."""


def get(url, process=None):
    """GET `url` and return (HTTP status, body text).

    A transport failure (refused, reset, timeout) fails the check while
    `process`, the run serving `url`, is alive. Once it has exited the
    failure is the normal end-of-run race (the run completed between
    the caller's aliveness check and the GET), so RunEnded is raised
    for the caller's polling loop to stop on."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8", "replace")
    except OSError as err:  # URLError, connection errors, timeouts
        if process is not None:
            time.sleep(0.5)  # grace for the exit to land
            if process.poll() is not None:
                raise RunEnded(str(err)) from err
        fail(f"GET {url} failed while the server should be up: {err}")


def get_json(url, process=None):
    """GET `url`, require HTTP 200 and return the parsed JSON body."""
    status, body = get(url, process)
    if status != 200:
        fail(f"GET {url} answered {status}: {body[:400]}")
    try:
        return json.loads(body)
    except json.JSONDecodeError as err:
        fail(f"GET {url} is not valid JSON: {err}\n{body[:400]}")


def parse_sse(raw):
    """Split a raw /events HTTP response into its event blocks.

    Checks the head (header/body separator, text/event-stream) and the
    framing (opens with a retry line, every line `field: value`) and
    returns one {field: value} dict per blank-line separated block,
    retry blocks dropped."""
    head, sep, body = raw.partition("\r\n\r\n")
    if not sep:
        fail(f"SSE response has no header/body separator: {raw[:200]!r}")
    if "text/event-stream" not in head:
        fail(f"SSE response is not text/event-stream: {head!r}")
    if not body.startswith("retry:"):
        fail(f"SSE stream does not open with a retry line: {body[:80]!r}")
    blocks = []
    for block in body.split("\n\n"):
        block = block.strip("\n")
        if not block or block.startswith("retry:"):
            continue
        fields = {}
        for line in block.split("\n"):
            if ":" not in line:
                fail(f"SSE block line without a colon: {line!r}")
            key, _, value = line.partition(":")
            fields[key] = value.strip()
        blocks.append(fields)
    return blocks


class SseReader(threading.Thread):
    """Drains /events from `listen` (host:port) over a raw socket until
    the server closes it; starts on construction."""

    def __init__(self, listen, last_event_id=None):
        super().__init__(daemon=True)
        self.host, port = listen.rsplit(":", 1)
        self.port = int(port)
        self.last_event_id = last_event_id
        self.raw = b""
        self.error = None
        self.start()

    def run(self):
        request = (f"GET /events HTTP/1.1\r\nHost: {self.host}\r\n"
                   "Connection: close\r\n")
        if self.last_event_id is not None:
            request += f"Last-Event-ID: {self.last_event_id}\r\n"
        try:
            with socket.create_connection(
                    (self.host, self.port), timeout=120) as conn:
                conn.sendall((request + "\r\n").encode())
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    self.raw += chunk
        except OSError as err:
            self.error = str(err)

    def blocks(self):
        """Wait for the stream to close, then parse_sse() it."""
        self.join(60)
        if self.error:
            fail(f"SSE read failed: {self.error}")
        return parse_sse(self.raw.decode("utf-8", errors="replace"))


# ------------------------------------------------------ `# gest-*` files

class Row(dict):
    """One data row: column -> cell text, with typed access."""

    def __init__(self, where, header, cells):
        super().__init__(zip(header, cells))
        self.where = where  # "path:lineno" for messages

    def int(self, column):
        return number(self[column], f"{self.where}: {column}", int)

    def float(self, column):
        return number(self[column], f"{self.where}: {column}")


class Framed:
    """A parsed `# gest-<name> vN` file; see read_framed()."""

    def __init__(self):
        self.annotations = {}  # `# annotation <key> <value>` as floats
        self.comments = []     # other preamble lines: (where, keyword, args)
        self.header = []
        self.rows = []

    def comment(self, keyword):
        """(where, args) of each preamble line with `keyword`."""
        return [(where, args) for where, key, args in self.comments
                if key == keyword]


def read_framed(path, name, columns=None, required=(), preamble=None,
                version=1):
    """Read and frame-check a `# gest-<name> v<version>` file.

    Line 1 must be exactly that tag. Then come comment lines, each
    `# <keyword> <args...>` with a keyword from `preamble` (a dict of
    keyword -> argument count; any other comment fails), then the column
    header: exactly `columns` when given, else containing every column
    in `required`. Every later line is a row with one cell per header
    column."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    tag = f"# gest-{name} v{version}"
    if not lines or lines[0] != tag:
        fail(f"{path}: line 1 is {lines[0] if lines else ''!r}, "
             f"expected {tag!r}")
    framed = Framed()
    preamble = preamble or {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            break
        keyword, *args = line[2:].split(" ")
        if not line.startswith("# ") or keyword not in preamble:
            fail(f"{path}:{lineno}: unexpected comment: {line}")
        if len(args) != preamble[keyword]:
            fail(f"{path}:{lineno}: malformed {keyword} line: {line}")
        if keyword == "annotation":
            framed.annotations[args[0]] = number(
                args[1], f"{path}:{lineno}: annotation {args[0]}")
        else:
            framed.comments.append((f"{path}:{lineno}", keyword, args))
    else:
        fail(f"{path} has no column header row")

    framed.header = line.split(",")
    if columns is not None and framed.header != list(columns):
        fail(f"{path}:{lineno}: expected the column header "
             f"{','.join(columns)!r}, got {line!r}")
    missing = [c for c in required if c not in framed.header]
    if missing:
        fail(f"{path}:{lineno}: header lacks columns {missing}")
    width, body = len(framed.header), lineno
    for lineno, line in enumerate(lines[body:], start=body + 1):
        cells = line.split(",")
        if len(cells) != width:
            fail(f"{path}:{lineno}: {len(cells)} cells, expected {width}: "
                 f"{line!r}")
        framed.rows.append(Row(f"{path}:{lineno}", framed.header, cells))
    return framed
