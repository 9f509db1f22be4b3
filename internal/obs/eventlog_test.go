package obs

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The event log's line format: ts, level and event lead, then the
// attributes in the order the call passed them (not sorted), one JSON
// object per line, Debug records included.
func TestEventLoggerLineFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := EventLogger(&buf)
	lg.Info("job_queued", "job", "j-000001", "app", "CG", "ranks", 8, "key", "abc")
	lg.Debug("phase", "job", "j-000001", "phase", "resume")

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	shape := regexp.MustCompile(`^\{"ts":"([^"]+)","level":"INFO","event":"job_queued","job":"j-000001","app":"CG","ranks":8,"key":"abc"\}$`)
	m := shape.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("line 1 = %s", lines[0])
	}
	ts, err := time.Parse(time.RFC3339Nano, m[1])
	if err != nil || ts.Location() != time.UTC {
		t.Errorf("ts %q is not RFC 3339 UTC: %v", m[1], err)
	}
	if want := `"level":"DEBUG","event":"phase","job":"j-000001","phase":"resume"}`; !strings.HasSuffix(lines[1], want) {
		t.Errorf("line 2 = %s, want suffix %s", lines[1], want)
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Errorf("invalid JSON line: %s", l)
		}
	}
}
