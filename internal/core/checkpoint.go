package core

import (
	"bytes"
	"fmt"
	"slices"

	"siesta/internal/codegen"
	"siesta/internal/merge"
	"siesta/internal/trace"
)

// Pipeline phase markers a Checkpoint can carry, in pipeline order. Each
// names the *last completed* boundary: a PhaseTrace checkpoint lets a
// restarted run skip both simulated executions, PhaseMerge additionally
// skips grammar merging and static verification, and PhaseSearch carries
// the solved computation-proxy searches so code generation replays them
// from cache instead of re-solving the QPs.
const (
	PhaseTrace  = "trace"
	PhaseMerge  = "merge"
	PhaseSearch = "search"
)

// phaseRank orders phase markers; unknown phases rank lowest so a
// checkpoint from a newer build degrades to a full recompute.
func phaseRank(p string) int {
	switch p {
	case PhaseTrace:
		return 1
	case PhaseMerge:
		return 2
	case PhaseSearch:
		return 3
	}
	return 0
}

// Checkpoint is the canonical state of a synthesis at a completed phase
// boundary — the DMTCP-via-proxies idea (PAPERS.md) applied to the
// pipeline: rather than imaging a process, persist only the replayable
// essence (encoded trace, encoded program, solved searches, communication
// timings) plus the options fingerprint that proves which synthesis it
// belongs to. The payloads reuse the existing canonical codecs
// (trace.Trace.Encode, merge.Program.Encode, blocks.Memo.Export), so
// checkpointed and uninterrupted runs flow through byte-identical
// representations.
type Checkpoint struct {
	// Fingerprint is OptionsFingerprint of the run that wrote the
	// checkpoint. Resume compares it against the current options and
	// forces a clean recompute on mismatch — a checkpoint must never leak
	// state into a different synthesis.
	Fingerprint string
	// Phase is the last completed boundary (PhaseTrace, PhaseMerge or
	// PhaseSearch).
	Phase string
	// Overhead is Result.Overhead, which only the simulated runs can
	// measure; it rides along so resumed results report it faithfully.
	Overhead float64
	// TraceBytes is the encoded trace (set from PhaseTrace on).
	TraceBytes []byte
	// ProgramBytes is the encoded merged program (set from PhaseMerge on).
	ProgramBytes []byte
	// MemoBytes is a blocks.Memo snapshot of solved computation-proxy
	// searches (set at PhaseSearch).
	MemoBytes []byte
	// CommSamples are the communication timings a scaled synthesis fits
	// its shrink regression on (codegen.CollectCommSamples, set at every
	// boundary when Scale > 1). The trace encoding keeps no per-event
	// durations, so without them a resumed scaled run would shrink
	// nothing and serve different bytes.
	CommSamples []codegen.CommSample
}

const checkpointMagic = "SIESTA-CKPT3"

// Encode serializes the checkpoint in the compact binary currency shared
// with the trace and program codecs.
func (cp *Checkpoint) Encode() []byte {
	var e trace.Enc
	e.Str(checkpointMagic)
	e.Str(cp.Fingerprint)
	e.Str(cp.Phase)
	e.Float(cp.Overhead)
	e.Str(string(cp.TraceBytes))
	e.Str(string(cp.ProgramBytes))
	e.Str(string(cp.MemoBytes))
	e.Int(len(cp.CommSamples))
	for _, cs := range cp.CommSamples {
		e.Str(cs.Func.String())
		e.Int(cs.Bytes)
		e.Float(cs.Dur)
	}
	return e.Bytes()
}

// DecodeCheckpoint parses a checkpoint written by Encode. The string codec
// length-checks every section against the remaining input, so a truncated
// blob fails cleanly rather than aliasing fields.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	d := trace.NewDec(data)
	magic, err := d.Str()
	if err != nil || magic != checkpointMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q: %v", magic, err)
	}
	cp := &Checkpoint{}
	if cp.Fingerprint, err = d.Str(); err != nil {
		return nil, fmt.Errorf("core: checkpoint fingerprint: %w", err)
	}
	if cp.Phase, err = d.Str(); err != nil {
		return nil, fmt.Errorf("core: checkpoint phase: %w", err)
	}
	if cp.Overhead, err = d.Float(); err != nil {
		return nil, fmt.Errorf("core: checkpoint overhead: %w", err)
	}
	var s string
	if s, err = d.Str(); err != nil {
		return nil, fmt.Errorf("core: checkpoint trace: %w", err)
	}
	cp.TraceBytes = []byte(s)
	if s, err = d.Str(); err != nil {
		return nil, fmt.Errorf("core: checkpoint program: %w", err)
	}
	cp.ProgramBytes = []byte(s)
	if s, err = d.Str(); err != nil {
		return nil, fmt.Errorf("core: checkpoint memo: %w", err)
	}
	cp.MemoBytes = []byte(s)
	n, err := d.Int()
	// Each sample takes at least 10 bytes (two one-byte lengths, a float).
	if err != nil || n < 0 || n > d.Remaining()/10 {
		return nil, fmt.Errorf("core: checkpoint comm samples: count %d: %v", n, err)
	}
	if n > 0 {
		cp.CommSamples = make([]codegen.CommSample, n)
	}
	for i := range cp.CommSamples {
		cs := &cp.CommSamples[i]
		cs.Func, err = d.Func()
		if err == nil {
			cs.Bytes, err = d.Int()
		}
		if err == nil {
			cs.Dur, err = d.Float()
		}
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint comm sample %d: %w", i, err)
		}
	}
	if r := phaseRank(cp.Phase); r == 0 {
		return nil, fmt.Errorf("core: checkpoint has unknown phase %q", cp.Phase)
	}
	return cp, nil
}

// covers reports whether the checkpoint has completed at least the given
// boundary.
func (cp *Checkpoint) covers(phase string) bool {
	return cp != nil && phaseRank(cp.Phase) >= phaseRank(phase)
}

// Equal reports whether two checkpoints carry identical state — used by
// tests to prove checkpointing is deterministic.
func (cp *Checkpoint) Equal(o *Checkpoint) bool {
	if cp == nil || o == nil {
		return cp == o
	}
	return cp.Fingerprint == o.Fingerprint &&
		cp.Phase == o.Phase &&
		cp.Overhead == o.Overhead &&
		bytes.Equal(cp.TraceBytes, o.TraceBytes) &&
		bytes.Equal(cp.ProgramBytes, o.ProgramBytes) &&
		slices.Equal(cp.CommSamples, o.CommSamples)
}

// resumeTrace returns the trace a resume checkpoint restores for a run
// whose options fingerprint is fp, or nil — a fingerprint mismatch, a
// checkpoint short of PhaseTrace, or an undecodable trace all mean a clean
// recompute. Corruption is discovered here, not mid-pipeline.
func resumeTrace(cp *Checkpoint, fp string) *trace.Trace {
	if cp == nil || cp.Fingerprint != fp || !cp.covers(PhaseTrace) {
		return nil
	}
	t, err := trace.Decode(cp.TraceBytes)
	if err != nil {
		return nil
	}
	return t
}

// resumeProgram returns the merged program a resume checkpoint restores,
// or nil. It needs no trace: the program alone lets a run skip merging, so
// a program-only merge checkpoint resumes as well as Synthesize's. An
// undecodable program under an intact trace leaves Synthesize resuming
// from PhaseTrace.
func resumeProgram(cp *Checkpoint, fp string) *merge.Program {
	if cp == nil || cp.Fingerprint != fp || !cp.covers(PhaseMerge) {
		return nil
	}
	p, err := merge.Decode(cp.ProgramBytes)
	if err != nil {
		return nil
	}
	return p
}

// Checkpointer persists checkpoints at phase boundaries. Save is called on
// the synthesis goroutine with a fully built checkpoint; when it returns
// an error the pipeline aborts with a *CheckpointError, which the service
// layer classifies as transient (the job retries and resumes from the
// previous checkpoint). Implementations must not retain cp past the call
// unless they treat it as immutable.
type Checkpointer interface {
	Save(cp *Checkpoint) error
}

// CheckpointError wraps a Checkpointer.Save failure: the synthesis itself
// was healthy, only durability failed, so callers should treat the error
// as transient and retry rather than declaring the input bad.
type CheckpointError struct {
	Phase string
	Err   error
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("core: checkpoint at %s boundary: %v", e.Phase, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }
