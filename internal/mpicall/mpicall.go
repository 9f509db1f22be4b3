// Package mpicall is the one table of the MPI calls the simulated runtime
// issues, plus the virtual MPI_Compute call that stands for a computation
// region. Every layer names a call by its Func constant and reads what the
// call is from its descriptor; only the codecs and reports spell the name,
// through String, and decoding parses it back through Parse, which refuses
// a name outside the table.
package mpicall

import "strconv"

// Func names one call of the table. The zero Func names no call.
type Func uint8

// The calls, by kind.
const (
	_ Func = iota
	Send
	Ssend
	Recv
	Isend
	Irecv
	Sendrecv
	Probe
	Iprobe
	SendInit
	RecvInit
	Start
	Wait
	Waitall
	Waitany
	Test
	Testall
	RequestFree
	Barrier
	Bcast
	Reduce
	Allreduce
	Gather
	Gatherv
	Scatter
	Allgather
	Allgatherv
	Alltoall
	Alltoallv
	Scan
	Exscan
	ReduceScatter
	Ibarrier
	Ibcast
	Iallreduce
	CommSplit
	CommDup
	CommFree
	FileOpen
	FileClose
	FileWriteAt
	FileReadAt
	FileWriteAtAll
	FileReadAtAll
	Compute
	numFuncs
)

// Kind is the family a call belongs to; the zero Kind is no call's.
type Kind uint8

// The kinds.
const (
	_              Kind = iota
	KindP2P             // sends, receives, probes, persistent setup and start
	KindCompletion      // waits, tests and request release
	KindCollective      // every member of the communicator takes part
	KindComm            // communicator creation and release
	KindFile            // MPI-IO
	KindCompute         // the virtual computation call
)

// Desc describes one call: its name, its kind, and each property some
// layer reads.
type Desc struct {
	Name         string
	Kind         Kind
	Dest         bool // names a destination rank and a send tag
	Source       bool // names a source rank and a receive tag
	Root         bool // names a root rank
	Op           bool // names a reduction operator
	Request      bool // creates a request
	NewComm      bool // creates a communicator
	BlockingColl bool // the caller blocks until every member of the communicator arrives
	Shrunk       bool // communication shrinking (paper §2.7) rewrites the volume
	Sampled      bool // the traced durations feed the shrink regression
}

var table = [numFuncs]Desc{
	Send:           {Name: "MPI_Send", Kind: KindP2P, Dest: true, Shrunk: true, Sampled: true},
	Ssend:          {Name: "MPI_Ssend", Kind: KindP2P, Dest: true},
	Recv:           {Name: "MPI_Recv", Kind: KindP2P, Source: true, Shrunk: true, Sampled: true},
	Isend:          {Name: "MPI_Isend", Kind: KindP2P, Dest: true, Request: true, Shrunk: true},
	Irecv:          {Name: "MPI_Irecv", Kind: KindP2P, Source: true, Request: true},
	Sendrecv:       {Name: "MPI_Sendrecv", Kind: KindP2P, Dest: true, Source: true, Shrunk: true, Sampled: true},
	Probe:          {Name: "MPI_Probe", Kind: KindP2P, Source: true},
	Iprobe:         {Name: "MPI_Iprobe", Kind: KindP2P, Source: true},
	SendInit:       {Name: "MPI_Send_init", Kind: KindP2P, Dest: true, Request: true},
	RecvInit:       {Name: "MPI_Recv_init", Kind: KindP2P, Source: true, Request: true},
	Start:          {Name: "MPI_Start", Kind: KindP2P},
	Wait:           {Name: "MPI_Wait", Kind: KindCompletion},
	Waitall:        {Name: "MPI_Waitall", Kind: KindCompletion},
	Waitany:        {Name: "MPI_Waitany", Kind: KindCompletion},
	Test:           {Name: "MPI_Test", Kind: KindCompletion},
	Testall:        {Name: "MPI_Testall", Kind: KindCompletion},
	RequestFree:    {Name: "MPI_Request_free", Kind: KindCompletion},
	Barrier:        {Name: "MPI_Barrier", Kind: KindCollective, BlockingColl: true},
	Bcast:          {Name: "MPI_Bcast", Kind: KindCollective, Root: true, BlockingColl: true, Shrunk: true, Sampled: true},
	Reduce:         {Name: "MPI_Reduce", Kind: KindCollective, Root: true, Op: true, BlockingColl: true, Shrunk: true, Sampled: true},
	Allreduce:      {Name: "MPI_Allreduce", Kind: KindCollective, Op: true, BlockingColl: true, Shrunk: true, Sampled: true},
	Gather:         {Name: "MPI_Gather", Kind: KindCollective, Root: true, BlockingColl: true, Shrunk: true, Sampled: true},
	Gatherv:        {Name: "MPI_Gatherv", Kind: KindCollective, Root: true, BlockingColl: true, Shrunk: true, Sampled: true},
	Scatter:        {Name: "MPI_Scatter", Kind: KindCollective, Root: true, BlockingColl: true, Shrunk: true, Sampled: true},
	Allgather:      {Name: "MPI_Allgather", Kind: KindCollective, BlockingColl: true, Shrunk: true, Sampled: true},
	Allgatherv:     {Name: "MPI_Allgatherv", Kind: KindCollective, BlockingColl: true, Shrunk: true, Sampled: true},
	Alltoall:       {Name: "MPI_Alltoall", Kind: KindCollective, BlockingColl: true, Shrunk: true, Sampled: true},
	Alltoallv:      {Name: "MPI_Alltoallv", Kind: KindCollective, BlockingColl: true, Shrunk: true, Sampled: true},
	Scan:           {Name: "MPI_Scan", Kind: KindCollective, Op: true, BlockingColl: true},
	Exscan:         {Name: "MPI_Exscan", Kind: KindCollective, Op: true, BlockingColl: true},
	ReduceScatter:  {Name: "MPI_Reduce_scatter", Kind: KindCollective, Op: true, BlockingColl: true},
	Ibarrier:       {Name: "MPI_Ibarrier", Kind: KindCollective, Request: true},
	Ibcast:         {Name: "MPI_Ibcast", Kind: KindCollective, Root: true, Request: true},
	Iallreduce:     {Name: "MPI_Iallreduce", Kind: KindCollective, Op: true, Request: true},
	CommSplit:      {Name: "MPI_Comm_split", Kind: KindComm, NewComm: true, BlockingColl: true},
	CommDup:        {Name: "MPI_Comm_dup", Kind: KindComm, NewComm: true, BlockingColl: true},
	CommFree:       {Name: "MPI_Comm_free", Kind: KindComm},
	FileOpen:       {Name: "MPI_File_open", Kind: KindFile, BlockingColl: true},
	FileClose:      {Name: "MPI_File_close", Kind: KindFile, BlockingColl: true},
	FileWriteAt:    {Name: "MPI_File_write_at", Kind: KindFile},
	FileReadAt:     {Name: "MPI_File_read_at", Kind: KindFile},
	FileWriteAtAll: {Name: "MPI_File_write_at_all", Kind: KindFile, BlockingColl: true},
	FileReadAtAll:  {Name: "MPI_File_read_at_all", Kind: KindFile, BlockingColl: true},
	Compute:        {Name: "MPI_Compute", Kind: KindCompute},
}

var byName = func() map[string]Func {
	m := make(map[string]Func, numFuncs)
	for _, f := range All() {
		m[table[f].Name] = f
	}
	return m
}()

// All lists every call of the table, in constant order.
func All() []Func {
	out := make([]Func, 0, numFuncs-1)
	for f := Func(1); f < numFuncs; f++ {
		out = append(out, f)
	}
	return out
}

// Parse returns the call an MPI name denotes, false for a name outside the
// table.
func Parse(name string) (Func, bool) {
	f, ok := byName[name]
	return f, ok
}

// UnknownError reports a decoded call name outside the table.
type UnknownError struct{ Name string }

func (e *UnknownError) Error() string { return "mpicall: unknown MPI call " + strconv.Quote(e.Name) }

// Desc returns the call's descriptor, the zero Desc for a Func outside
// the table.
func (f Func) Desc() Desc {
	if f < numFuncs {
		return table[f]
	}
	return Desc{}
}

// String returns the call's MPI name ("MPI_Send"); a Func outside the table
// renders as "mpicall.Func(n)".
func (f Func) String() string {
	if name := f.Desc().Name; name != "" {
		return name
	}
	return "mpicall.Func(" + strconv.Itoa(int(f)) + ")"
}
