package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"siesta/internal/core"
	"siesta/internal/durable"
	"siesta/internal/trace"
)

// maxRecoveries bounds how many process incarnations may start the same
// job. A job that keeps being in flight when the service dies is most
// likely *causing* the death (a synthesis that OOMs, a platform bug);
// after this many attempts recovery journals it failed instead of
// re-admitting it, breaking the crash loop.
const maxRecoveries = 3

// openState brings up the durability layer under cfg.StateDir: the disk
// artifact tier, the checkpoint store, and the write-ahead job journal.
// It replays the journal, compacts away settled jobs, and re-admits every
// pending job (workers are already running). Called once from New.
func (s *Server) openState() error {
	dir := s.cfg.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	if err := s.store.AttachDisk(filepath.Join(dir, "artifacts")); err != nil {
		return err
	}
	if err := sweepSpill(spillDir(dir)); err != nil {
		return err
	}
	ck, err := durable.NewCheckpointStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return err
	}
	s.ckpts = ck
	j, recs, err := durable.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return err
	}
	s.journal = j
	// Startup is the compaction point: settled jobs' records are dropped,
	// pending jobs keep their enqueued/attempt/checkpoint records. Doing it
	// before recovery means the terminal records recovery appends land in
	// the compacted journal instead of being rewritten away.
	if err := j.Compact(durable.LiveRecords(recs)); err != nil {
		return err
	}
	s.recoverJobs(recs)
	return nil
}

// spillDir is where upload sessions under stateDir put their spill files.
func spillDir(stateDir string) string { return filepath.Join(stateDir, "spill") }

// sweepSpill creates the spill directory and removes the spill files a
// killed process left in it. Uploads are not durable, so no restart can
// reattach them; like journal compaction, this assumes one server per
// state directory.
func sweepSpill(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: spill dir: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, trace.SpillFilePattern))
	if err != nil {
		return err
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("server: sweep spill: %w", err)
		}
	}
	return nil
}

// closeState flushes and closes the journal; called after the worker pool
// has drained.
func (s *Server) closeState() {
	if s.journal != nil {
		s.journal.Close()
	}
}

// journalRec appends one record to the journal (no-op without a state
// directory). Failures are logged and returned; callers on the job path
// decide whether the record was load-bearing.
func (s *Server) journalRec(rec *durable.Record) error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Append(rec); err != nil {
		s.logEvent("journal_error",
			"job", rec.Job, "type", string(rec.Type), "error", err.Error())
		return err
	}
	return nil
}

// dropCheckpoint removes a settled job's checkpoint blob.
func (s *Server) dropCheckpoint(id string) {
	if s.ckpts != nil {
		s.ckpts.Delete(id)
	}
}

// recoverJobs folds the replayed journal and re-admits every pending job
// through the normal preparation path, restoring its original id, attempt
// count, and latest checkpoint. Jobs whose artifact already sits in the
// disk cache settle as done without re-running (the crash lost only the
// settle record, not the work); jobs over the recovery budget or with an
// unusable request settle as failed.
func (s *Server) recoverJobs(recs []durable.Record) {
	states, order := durable.Reduce(recs)
	for _, id := range order {
		st := states[id]
		if !st.Pending() || len(st.Request) == 0 {
			continue
		}
		if st.Attempts >= maxRecoveries {
			s.journalRec(&durable.Record{
				Type: durable.TypeFailed, Job: id, Attempt: st.Attempts,
				Error: fmt.Sprintf("abandoned after %d interrupted attempts", st.Attempts),
			})
			s.dropCheckpoint(id)
			s.logEvent("job_abandoned", "job", id, "attempts", st.Attempts)
			continue
		}
		var req SynthesizeRequest
		if err := json.Unmarshal(st.Request, &req); err != nil {
			s.journalRec(&durable.Record{Type: durable.TypeFailed, Job: id,
				Error: fmt.Sprintf("journaled request is unusable: %v", err)})
			s.dropCheckpoint(id)
			continue
		}
		jb, _, err := s.prepare(&req)
		if err != nil {
			s.journalRec(&durable.Record{Type: durable.TypeFailed, Job: id,
				Error: fmt.Sprintf("journaled request no longer prepares: %v", err)})
			s.dropCheckpoint(id)
			continue
		}
		jb.id = id
		jb.recovered = true
		jb.attempts = st.Attempts
		if art, ok := s.store.Get(jb.key); ok && art != nil {
			s.journalRec(&durable.Record{Type: durable.TypeDone, Job: id, Key: string(jb.key)})
			s.dropCheckpoint(id)
			s.registerRecoveredDone(jb, st.Enqueued)
			s.logEvent("job_recovered", "job", id, "app", jb.app, "outcome", "artifact already on disk")
			continue
		}
		if st.CheckpointFile != "" {
			if blob, lerr := s.ckpts.Load(id); lerr == nil {
				if cp, derr := core.DecodeCheckpoint(blob); derr == nil {
					jb.resume = cp
				}
				// An unreadable or undecodable blob simply means a cold
				// re-run; the fingerprint check downstream guards the rest.
			}
		}
		s.admitRecovered(jb, st.Enqueued)
		s.mRecovered.Inc()
		s.logEvent("job_recovered",
			"job", id, "app", jb.app, "attempts", st.Attempts, "resume", st.CheckpointPhase)
	}
}

// registerRecoveredDone records a job that finished before the crash (its
// artifact survived on disk) as done under its original id.
func (s *Server) registerRecoveredDone(jb *job, enqueued time.Time) {
	now := time.Now()
	jb.status = StatusDone
	jb.cached = true
	jb.work = nil // never runs; see runJob
	jb.created, jb.started, jb.finished = enqueued, now, now
	if jb.created.IsZero() {
		jb.created = now
	}
	s.mu.Lock()
	s.bumpNextIDLocked(jb.id)
	s.jobs[jb.id] = jb
	s.jobOrder = append(s.jobOrder, jb.id)
	s.pruneLocked()
	s.mu.Unlock()
}

// admitRecovered puts a recovered job back on the queue under its original
// id. The send may block when the backlog exceeds the queue depth; the
// worker pool is already running, so it drains.
func (s *Server) admitRecovered(jb *job, enqueued time.Time) {
	jb.status = StatusQueued
	jb.created = enqueued
	if jb.created.IsZero() {
		jb.created = time.Now()
	}
	s.mu.Lock()
	s.bumpNextIDLocked(jb.id)
	s.jobs[jb.id] = jb
	s.jobOrder = append(s.jobOrder, jb.id)
	s.pruneLocked()
	s.mAccepted.Inc()
	s.mu.Unlock()
	s.gQueued.Add(1)
	s.queue <- jb
}

// bumpNextIDLocked keeps fresh admissions from colliding with recovered
// ids. Caller holds s.mu.
func (s *Server) bumpNextIDLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// jobCheckpointer adapts the durable layer to core.Checkpointer for one
// job: the blob is written atomically, then the checkpoint record is
// journaled. Either failure surfaces as an error, which core wraps in a
// *CheckpointError — the transient class the retry loop acts on.
type jobCheckpointer struct {
	s  *Server
	jb *job
}

func (c jobCheckpointer) Save(cp *core.Checkpoint) error {
	blob := cp.Encode()
	name, err := c.s.ckpts.Save(c.jb.id, blob)
	if err != nil {
		return err
	}
	if err := c.s.journalRec(&durable.Record{
		Type: durable.TypeCheckpoint, Job: c.jb.id, Phase: cp.Phase, File: name,
	}); err != nil {
		return err
	}
	c.s.mCkptW.Inc()
	c.jb.setResume(cp)
	if sink := c.s.cfg.CheckpointSink; sink != nil {
		sink(c.jb.key, blob)
	}
	return nil
}

// sinkCheckpointer is the stateless-node variant of jobCheckpointer: no
// journal or blob store, but checkpoints still publish to the in-memory
// resume (for in-process retries) and to the fleet's replication sink (for
// cross-node failover). It never fails — there is no durability to fail.
type sinkCheckpointer struct {
	s  *Server
	jb *job
}

func (c sinkCheckpointer) Save(cp *core.Checkpoint) error {
	c.s.mCkptW.Inc()
	c.jb.setResume(cp)
	c.s.cfg.CheckpointSink(c.jb.key, cp.Encode())
	return nil
}

// transientErr classifies an attempt failure: only durability failures
// (checkpoint blob or journal I/O) are worth an in-process retry — the
// synthesis itself was healthy. Cancellation and timeouts settle (or, for
// a drain, stay pending in the journal for the next incarnation); input
// errors are deterministic and retrying them is futile.
func transientErr(err error) bool {
	var ce *core.CheckpointError
	return errors.As(err, &ce)
}

// retryDelay is the exponential backoff before retry number `attempt`:
// base·2^(attempt-1) capped at 5s, with ±half jitter so a batch of jobs
// hitting the same sick disk does not retry in lockstep.
func (s *Server) retryDelay(attempt int) time.Duration {
	base := s.retryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := 5 * time.Second
	if attempt < 10 {
		if b := base << uint(attempt-1); b < d {
			d = b
		}
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
