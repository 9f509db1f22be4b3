package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"strings"
	"testing"

	"siesta/internal/trace"
)

// A call name is length-prefixed in every codec, so renaming CG's
// MPI_Allreduce terminals to MPI_Win_lock, a call outside the table,
// rewrites the one-byte length too.
var (
	allreduceName = []byte("\x0dMPI_Allreduce")
	winLockName   = []byte("\x0cMPI_Win_lock")
)

// reframeChunks rewrites every frame of a chunk stream with allreduceName
// renamed in its payload, under a fresh length and CRC, so the stream
// stays well-framed and only the call name is wrong.
func reframeChunks(t *testing.T, stream []byte) []byte {
	t.Helper()
	var out []byte
	renamed := false
	for len(stream) > 0 {
		n := binary.BigEndian.Uint32(stream)
		payload := bytes.ReplaceAll(stream[8:8+n], allreduceName, winLockName)
		renamed = renamed || len(payload) != int(n)
		out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
		stream = stream[8+n:]
	}
	if !renamed {
		t.Fatal("stream records no MPI_Allreduce")
	}
	return out
}

// TestUnknownCallRefused: a trace naming a call outside the table is a
// 400 on both upload surfaces, a one-shot trace_base64 POST and a chunk
// PUT, and the error names the call.
func TestUnknownCallRefused(t *testing.T) {
	tr := recordedTrace(t, 8)
	_, ts := newTestServer(t, Config{Workers: 1})

	enc := tr.Encode()
	if bytes.Count(enc, allreduceName) == 0 {
		t.Fatal("CG trace records no MPI_Allreduce")
	}
	bad := base64.StdEncoding.EncodeToString(bytes.ReplaceAll(enc, allreduceName, winLockName))
	resp, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{TraceBase64: bad})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "MPI_Win_lock") {
		t.Errorf("POST trace naming MPI_Win_lock = %d, want 400 naming the call: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/traces", TraceOpenRequest{NumRanks: len(tr.Ranks)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open = %d: %s", resp.StatusCode, body)
	}
	var open TraceOpenResponse
	json.Unmarshal(body, &open)
	stream := reframeChunks(t, trace.ChunkEncodeRank(tr.Ranks[0]))
	code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/traces/"+open.ID+"/ranks/0", stream, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "MPI_Win_lock") {
		t.Errorf("PUT chunk naming MPI_Win_lock = %d, want 400 naming the call: %s", code, body)
	}
}
