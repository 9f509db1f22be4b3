// Package check implements Siesta's static communication verifier: an
// abstract interpretation of a merged program (merge.Program) that finds MPI
// usage errors — unmatched point-to-point traffic, collective sequence
// mismatches, handle-lifecycle violations and potential deadlocks — without
// replaying anything. The approach follows MPISE's observation that MPI
// communication correctness is decidable over the per-rank call structure:
// the merged grammar already encodes exactly that structure, so each rank's
// symbol sequence is expanded per rank-interval branch and executed over an
// abstract machine with buffered-send semantics. Because buffered sends
// never block, any deadlock the abstraction reports would also occur under
// an eager-protocol run: the checker trades false negatives (rendezvous-only
// deadlocks) for zero-execution cost, the same trade the runtime detector of
// DESIGN.md §5 makes in the opposite direction.
package check

import (
	"fmt"
	"strings"
	"sync/atomic"

	"siesta/internal/merge"
)

// Severity classifies a diagnostic.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity by name, so `siesta check -json` output
// reads "error", not 2.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON produces.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"info"`:
		*s = Info
	case `"warning"`:
		*s = Warning
	case `"error"`:
		*s = Error
	default:
		return fmt.Errorf("check: unknown severity %s", b)
	}
	return nil
}

// Rule identifiers. Every diagnostic carries one, so tests and tooling can
// filter without parsing messages.
const (
	RuleP2PUnmatchedSend = "p2p-unmatched-send" // sent message never received
	RuleP2PUnmatchedRecv = "p2p-unmatched-recv" // posted receive never matched
	RuleP2PBytes         = "p2p-bytes"          // matched pair with incompatible sizes
	RuleCollMismatch     = "coll-mismatch"      // ranks disagree on a collective step
	RuleCollLength       = "coll-length"        // ranks issue different collective counts
	RuleHandleComm       = "handle-comm"        // communicator pool lifecycle violation
	RuleHandleFile       = "handle-file"        // file pool lifecycle violation
	RuleHandleRequest    = "handle-request"     // request pool lifecycle violation
	RuleRequestLeak      = "request-leak"       // nonblocking op escapes without a wait
	RuleDeadlock         = "static-deadlock"    // blocking-dependency cycle / stuck ranks
)

// Diagnostic is one structured finding. Rank sets, the grammar-symbol path
// and the terminal (trace record) index anchor the finding back to both the
// merged program and the original trace.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Ranks    []int    `json:"ranks"`          // ranks involved, sorted
	Record   int      `json:"record"`         // global terminal id the finding anchors to, -1 if none
	Event    int      `json:"event"`          // event index in Ranks[0]'s expansion, -1 if none
	Path     string   `json:"path,omitempty"` // grammar-symbol path of (Ranks[0], Event), "" if none
	Message  string   `json:"message"`
}

// String formats the diagnostic on one line.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", d.Severity, d.Rule)
	if len(d.Ranks) > 0 {
		fmt.Fprintf(&b, " ranks=%s", rankList(d.Ranks))
	}
	if d.Path != "" {
		fmt.Fprintf(&b, " at=%s", d.Path)
	}
	if d.Record >= 0 {
		fmt.Fprintf(&b, " record=%d", d.Record)
	}
	b.WriteString(": ")
	b.WriteString(d.Message)
	return b.String()
}

func rankList(ranks []int) string {
	var b strings.Builder
	for i, r := range ranks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	return b.String()
}

// Options configures a verification pass.
type Options struct {
	// ExactBytes requires matched send/receive pairs to carry identical
	// byte counts. Traced programs record the actually-transferred size on
	// both sides, so the post-merge gate enables this; shrunk or
	// extrapolated programs scale the two sides through different
	// regressions and only the zero/nonzero compatibility check applies.
	ExactBytes bool
	// AbsoluteRanks declares that the program's partner fields carry
	// comm-local absolute ranks (trace.Config.AbsoluteRanks) instead of
	// the default §2.2 relative encoding.
	AbsoluteRanks bool
	// MaxDiagnostics caps the report (0 selects the default of 100);
	// findings beyond the cap are counted in Report.Truncated.
	MaxDiagnostics int
	// Hooks, when non-nil, receives the machine's event stream (see the
	// Hooks interface). Verification semantics are unaffected.
	Hooks Hooks
}

func (o Options) withDefaults() Options {
	if o.MaxDiagnostics == 0 {
		o.MaxDiagnostics = 100
	}
	return o
}

// Report is the result of one verification pass.
type Report struct {
	NumRanks  int          `json:"num_ranks"`
	Events    int          `json:"events"` // total expanded events across all ranks
	Diags     []Diagnostic `json:"diagnostics"`
	Truncated int          `json:"truncated,omitempty"` // diagnostics dropped beyond Options.MaxDiagnostics
}

// Errors counts error-severity diagnostics.
func (r *Report) Errors() int { return r.count(Error) }

// Warnings counts warning-severity diagnostics.
func (r *Report) Warnings() int { return r.count(Warning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic has error severity.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// Summary is the one-line form stamped into generated C source and printed
// by the CLI.
func (r *Report) Summary() string {
	if len(r.Diags) == 0 {
		return fmt.Sprintf("clean: %d ranks, %d events, 0 diagnostics", r.NumRanks, r.Events)
	}
	s := fmt.Sprintf("%d error(s), %d warning(s) over %d ranks, %d events",
		r.Errors(), r.Warnings(), r.NumRanks, r.Events)
	if r.Truncated > 0 {
		s += fmt.Sprintf(" (+%d truncated)", r.Truncated)
	}
	return s
}

// String renders the summary plus every diagnostic, one per line.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Summary())
	for _, d := range r.Diags {
		b.WriteByte('\n')
		b.WriteString(d.String())
	}
	return b.String()
}

// machineRuns counts Verify calls, so tests can pin how often a pipeline
// runs the machine.
var machineRuns atomic.Int64

// Verify statically checks the program and returns the structured report.
// The error return is reserved for structurally broken programs (a rank
// without a main rule, dangling grammar references); semantic findings are
// diagnostics, never errors.
func Verify(p *merge.Program, opts Options) (*Report, error) {
	machineRuns.Add(1)
	m, err := newMachine(p, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	m.run()
	return m.rep, nil
}
