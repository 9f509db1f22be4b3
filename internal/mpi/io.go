package mpi

import (
	"siesta/internal/mpicall"
	"siesta/internal/netmodel"
	"siesta/internal/vtime"
)

// This file implements the MPI-IO subset the paper's §2.1 points at when it
// notes that "the process of I/O trace is similar to that of communication
// trace" and can be handled "via further engineering efforts": collective
// file open/close, independent read/write at explicit offsets, and
// collective write_at_all/read_at_all, priced by a shared parallel-
// filesystem model.

// Parallel filesystem model: a single shared store per job. Independent
// operations get one client stream's bandwidth; collective operations
// aggregate into the full filesystem bandwidth (the two-phase I/O effect).
const (
	fsLatencySec     = 100e-6 // per-operation latency
	fsStreamBwBps    = 1.2e9  // one client stream
	fsAggregateBwBps = 6.0e9  // whole filesystem, collective access
)

// File is an open simulated MPI file handle.
type File struct {
	id     int
	name   string
	comm   *Comm
	closed bool
}

// ID reports the runtime file handle id (dense per communicator creation
// order, like communicator ids, so the trace layer's pool renaming can
// reproduce it).
func (f *File) ID() int { return f.id }

// Name reports the file's name.
func (f *File) Name() string { return f.name }

// FileOpen opens a file collectively on the communicator.
func (r *Rank) FileOpen(c *Comm, name string) *File {
	call := r.beginCall(&Call{Func: mpicall.FileOpen, Comm: c, FileName: name})
	slot := r.arrive(c, netmodel.Barrier, 0, nil, nil)
	// The first rank past the barrier allocates the group's handle; file
	// ids are dense in open order, so the trace layer's pool renaming
	// reproduces them.
	w := r.world
	if slot.sharedFile == nil {
		slot.sharedFile = &File{id: w.nextFileID, name: name, comm: c}
		w.nextFileID++
	}
	f := slot.sharedFile
	w.leave(slot)
	r.clock.Advance(vtime.Duration(fsLatencySec)) // open round trip
	call.File = f
	r.endCall(call)
	return f
}

// checkOpen raises an MPI_ERR_FILE error (as a typed panic absorbed by
// World.Run) if the file is nil or already closed.
func (r *Rank) checkOpen(fn mpicall.Func, f *File) {
	if f == nil {
		panic(mpiErrorf(ErrFile, r.rank, fn.String(), "operation on nil file"))
	}
	if f.closed {
		panic(mpiErrorf(ErrFile, r.rank, fn.String(), "operation on closed file %q", f.name))
	}
}

// FileClose closes the file collectively.
func (r *Rank) FileClose(f *File) {
	call := r.beginCall(&Call{Func: mpicall.FileClose, Comm: f.comm, File: f})
	r.world.leave(r.arrive(f.comm, netmodel.Barrier, 0, nil, nil))
	r.clock.Advance(vtime.Duration(fsLatencySec / 2))
	// Every rank of the collective marks the shared handle closed.
	f.closed = true
	r.endCall(call)
}

// FileWriteAt writes bytes at an explicit offset, independently.
func (r *Rank) FileWriteAt(f *File, offset, bytes int) {
	r.fileIndependent(mpicall.FileWriteAt, f, offset, bytes)
}

// FileReadAt reads bytes at an explicit offset, independently.
func (r *Rank) FileReadAt(f *File, offset, bytes int) {
	r.fileIndependent(mpicall.FileReadAt, f, offset, bytes)
}

func (r *Rank) fileIndependent(fn mpicall.Func, f *File, offset, bytes int) {
	r.checkOpen(fn, f)
	call := r.beginCall(&Call{Func: fn, Comm: f.comm, File: f, Offset: offset, Bytes: bytes})
	// An independent stream contends with every other rank of the job for
	// the filesystem's aggregate bandwidth.
	bw := fsStreamBwBps
	if shared := fsAggregateBwBps / float64(r.world.cfg.Size); shared < bw {
		bw = shared
	}
	cost := fsLatencySec + float64(bytes)/bw
	r.clock.Advance(vtime.Duration(cost * r.world.commJitter))
	r.endCall(call)
}

// FileWriteAtAll writes collectively: all ranks of the file's communicator
// participate, and the aggregated transfer uses the filesystem's full
// bandwidth (two-phase collective I/O).
func (r *Rank) FileWriteAtAll(f *File, offset, bytes int) {
	r.fileCollective(mpicall.FileWriteAtAll, f, offset, bytes)
}

// FileReadAtAll reads collectively.
func (r *Rank) FileReadAtAll(f *File, offset, bytes int) {
	r.fileCollective(mpicall.FileReadAtAll, f, offset, bytes)
}

func (r *Rank) fileCollective(fn mpicall.Func, f *File, offset, bytes int) {
	r.checkOpen(fn, f)
	r.collective(&Call{Func: fn, Comm: f.comm, File: f, Offset: offset, Bytes: bytes}, fileIO, bytes)
}
