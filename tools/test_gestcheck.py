#!/usr/bin/env python3
"""Unit tests for gestcheck.py, the validators' shared module.

Needs no gest binary:  python3 tools/test_gestcheck.py
"""

import contextlib
import io
import os
import unittest
from unittest import mock

import gestcheck
from gestcheck import parse_sse, read_framed, scratch

GOOD = ("# gest-demo v1\n"
        "# annotation gain 2.5\n"
        "# class mem cells 4\n"
        "a,b,c\n"
        "1,2,3\n"
        "4,5,6\n")

PREAMBLE = {"annotation": 2, "class": 3}

STREAM_HEAD = ("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
               "Connection: close\r\n\r\n")

STREAM_BODY = ("retry: 1000\n\n"
               "event: generation\nid: 0\ndata: {\"generation\": 0}\n\n"
               "event: alert\ndata: {\"rule\": \"fitness_plateau\"}\n\n"
               "event: end\ndata: {\"state\": \"completed\"}\n\n")


def expect_fail(call, *args, **kwargs):
    """Run a call that must fail(); return what it printed."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            call(*args, **kwargs)
        except SystemExit as exit_:
            if exit_.code == 1:
                return stderr.getvalue()
    raise AssertionError(f"{call.__name__} did not fail()")


class CheckTest(unittest.TestCase):
    def setUp(self):
        # Expected failures must not copy anything out.
        env = mock.patch.dict(os.environ)
        env.start()
        self.addCleanup(env.stop)
        os.environ.pop(gestcheck.ARTIFACT_ENV, None)
        work = scratch("test_gestcheck")
        self.work = work.__enter__()
        self.addCleanup(work.__exit__, None, None, None)

    def write(self, text, name="demo.csv"):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


class FramingTest(CheckTest):
    def read(self, text, **kwargs):
        kwargs.setdefault("preamble", PREAMBLE)
        return read_framed(self.write(text), "demo", **kwargs)

    def rejects(self, text, **kwargs):
        return expect_fail(self.read, text, **kwargs)

    def test_good_file(self):
        framed = self.read(GOOD, columns=("a", "b", "c"))
        self.assertEqual(framed.header, ["a", "b", "c"])
        self.assertEqual(framed.annotations, {"gain": 2.5})
        (where, args), = framed.comment("class")
        self.assertEqual(args, ["mem", "cells", "4"])
        self.assertTrue(where.endswith("demo.csv:3"))
        self.assertEqual(len(framed.rows), 2)
        self.assertEqual(framed.rows[1]["c"], "6")
        self.assertEqual(framed.rows[1].int("b"), 5)
        self.assertEqual(framed.rows[0].float("a"), 1.0)
        self.assertTrue(framed.rows[1].where.endswith("demo.csv:6"))

    def test_wrong_tag(self):
        message = self.rejects(GOOD.replace("gest-demo", "gest-other"))
        self.assertIn("'# gest-demo v1'", message)

    def test_newer_version(self):
        self.rejects(GOOD.replace("v1", "v2"))

    def test_v10_is_not_v1(self):
        self.rejects(GOOD.replace("v1", "v10"))

    def test_declared_version(self):
        v2 = GOOD.replace("v1", "v2")
        self.assertEqual(len(self.read(v2, version=2).rows), 2)
        message = self.rejects(GOOD, version=2)
        self.assertIn("'# gest-demo v2'", message)

    def test_renamed_column_fails_exact_header(self):
        renamed = GOOD.replace("a,b,c", "a,bb,c")
        self.assertIn("column header",
                      self.rejects(renamed, columns=("a", "b", "c")))

    def test_required_columns_mode(self):
        renamed = GOOD.replace("a,b,c", "a,bb,c")
        framed = self.read(renamed, required=("a", "c"))
        self.assertEqual(framed.rows[0]["bb"], "2")
        self.assertIn("['b']", self.rejects(renamed, required=("a", "b")))

    def test_short_row(self):
        short = GOOD.replace("4,5,6", "4,5")
        for kwargs in ({"columns": ("a", "b", "c")}, {"required": ("a",)}):
            self.assertIn("2 cells, expected 3",
                          self.rejects(short, **kwargs))

    def test_non_numeric_cell(self):
        framed = self.read(GOOD.replace("4,5,6", "4,x,6"))
        self.assertIn("'x' is not int",
                      expect_fail(framed.rows[1].int, "b"))

    def test_preamble_is_checked(self):
        self.rejects(GOOD, preamble={"annotation": 2})  # class unknown
        self.rejects(GOOD.replace("cells 4", "cells"))  # wrong arity
        self.rejects(GOOD.replace("gain 2.5", "gain high"))

    def test_missing_header(self):
        self.assertIn("no column header", self.rejects(
            "# gest-demo v1\n# annotation gain 2.5\n"))
        self.rejects("")


class SseTest(unittest.TestCase):
    def test_blocks(self):
        blocks = parse_sse(STREAM_HEAD + STREAM_BODY)
        self.assertEqual([b["event"] for b in blocks],
                         ["generation", "alert", "end"])
        self.assertEqual(blocks[0]["id"], "0")
        self.assertEqual(blocks[0]["data"], '{"generation": 0}')
        self.assertNotIn("id", blocks[1])

    def test_requires_event_stream(self):
        head = STREAM_HEAD.replace("text/event-stream", "text/plain")
        self.assertIn("text/event-stream",
                      expect_fail(parse_sse, head + STREAM_BODY))

    def test_framing(self):
        expect_fail(parse_sse, STREAM_BODY)  # no HTTP head
        no_retry = STREAM_BODY[len("retry: 1000\n\n"):]
        expect_fail(parse_sse, STREAM_HEAD + no_retry)
        expect_fail(parse_sse, STREAM_HEAD + STREAM_BODY + "garbage\n\n")


class GetTest(unittest.TestCase):
    URL = "http://127.0.0.1:1/status"  # nothing listens on port 1

    def run_state(self, returncode):
        process = mock.Mock()
        process.poll.return_value = returncode
        return process

    def test_transport_failure_after_exit_ends_the_run(self):
        with self.assertRaises(gestcheck.RunEnded):
            gestcheck.get(self.URL, self.run_state(0))

    def test_transport_failure_while_alive_fails(self):
        expect_fail(gestcheck.get, self.URL, self.run_state(None))
        expect_fail(gestcheck.get, self.URL)


class FailTest(CheckTest):
    def test_copies_scratch_to_artifact_dir(self):
        os.environ[gestcheck.ARTIFACT_ENV] = self.work
        with scratch("check_demo") as inner:
            with open(os.path.join(inner, "history.csv"), "w",
                      encoding="utf-8") as handle:
                handle.write("kept\n")
            message = expect_fail(gestcheck.fail, "boom")
        copied = os.path.join(self.work, "check_demo", "history.csv")
        with open(copied, encoding="utf-8") as handle:
            self.assertEqual(handle.read(), "kept\n")
        self.assertIn("scratch copied to", message)
        self.assertIn("FAIL: boom", message)


if __name__ == "__main__":
    unittest.main()
