"""The study's outputs against the record of what it computes (see
tests/study_record.py, which also rewrites the record)."""

import json

from study_record import RECORD, differences, run_studies


def test_study_outputs_match_the_record(tmp_path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    found = differences(recorded, run_studies(tmp_path))
    assert not found, (f"{len(found)} difference(s) from {RECORD.name}; if the "
                       "change is by design, rewrite it with tests/study_record.py:\n"
                       + "\n".join(found[:40]))
