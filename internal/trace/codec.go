package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
)

// Enc is a compact varint-based binary encoder shared by the trace and
// grammar serializations, so that the paper's size comparisons (raw trace
// bytes vs exported grammar bytes) are measured in one consistent currency.
type Enc struct {
	buf bytes.Buffer
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

// Varint appends a signed varint.
func (e *Enc) Varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

// Int appends a signed int as a varint.
func (e *Enc) Int(v int) { e.Varint(int64(v)) }

// Float appends a float64 as 8 raw bytes.
func (e *Enc) Float(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	e.buf.Write(tmp[:])
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

// Ints appends a length-prefixed int slice.
func (e *Enc) Ints(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Len reports the encoded size so far.
func (e *Enc) Len() int { return e.buf.Len() }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf.Bytes() }

// Grow preallocates capacity for n more bytes, so a caller that knows the
// exact encoded size up front (see Trace.Encode) pays one allocation total.
func (e *Enc) Grow(n int) { e.buf.Grow(n) }

// uvarintLen is the encoded size of an unsigned varint: one byte per
// started 7-bit group.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the encoded size of a signed varint (zig-zag, like
// binary.PutVarint).
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

func intLen(v int) int { return varintLen(int64(v)) }

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func intsLen(v []int) int {
	n := uvarintLen(uint64(len(v)))
	for _, x := range v {
		n += intLen(x)
	}
	return n
}

// Dec decodes what Enc produced. It reads straight from the byte slice it
// wraps; its errors are those of encoding/binary's stream readers: io.EOF
// when the input ends before a value starts, io.ErrUnexpectedEOF when it
// ends inside one, and errVarintOverflow for a varint longer than 64 bits.
type Dec struct {
	buf []byte
	off int
}

// errVarintOverflow reports a varint that does not fit 64 bits, in the
// words of binary.ReadUvarint.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// NewDec wraps encoded bytes for reading.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// Remaining reports the unread byte count — the upper bound any sane length
// prefix must respect. Decoders check prefixes against it before allocating,
// so corrupted or hostile inputs fail with an error instead of exhausting
// memory.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// boundedLen validates a length prefix against the remaining input (each
// encoded element consumes at least one byte).
func (d *Dec) boundedLen(n int) error {
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("trace: length prefix %d exceeds remaining input %d", n, d.Remaining())
	}
	return nil
}

// varintErr turns binary.Uvarint's failure count n (0: no complete
// varint in the input, negative: overflow) into the stream readers' error,
// consuming what a stream reader would have read: a varint still open
// after MaxVarintLen64 bytes overflows there too.
func (d *Dec) varintErr(n int) error {
	switch rem := d.Remaining(); {
	case n < 0 || rem >= binary.MaxVarintLen64:
		d.off += binary.MaxVarintLen64
		return errVarintOverflow
	case rem == 0:
		return io.EOF
	default:
		d.off = len(d.buf)
		return io.ErrUnexpectedEOF
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.varintErr(n)
	}
	d.off += n
	return v, nil
}

// Varint reads a signed varint.
func (d *Dec) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.varintErr(n)
	}
	d.off += n
	return v, nil
}

// Int reads a signed int.
func (d *Dec) Int() (int, error) {
	v, err := d.Varint()
	return int(v), err
}

// Float reads a float64.
func (d *Dec) Float() (float64, error) {
	if d.Remaining() < 8 {
		if d.Remaining() == 0 {
			return 0, io.EOF
		}
		d.off = len(d.buf)
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

// Str reads a length-prefixed string, copying its bytes once.
func (d *Dec) Str() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if err := d.boundedLen(int(n)); err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Func reads a call name Enc.Str wrote, refusing one outside the mpicall
// table with an *mpicall.UnknownError.
func (d *Dec) Func() (mpicall.Func, error) {
	name, err := d.Str()
	f, ok := mpicall.Parse(name)
	if err == nil && !ok {
		err = &mpicall.UnknownError{Name: name}
	}
	return f, err
}

// Ints reads a length-prefixed int slice.
func (d *Dec) Ints() ([]int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if err := d.boundedLen(int(n)); err != nil {
		return nil, err
	}
	v := make([]int, n)
	for i := range v {
		if v[i], err = d.Int(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// EncodeRecord appends one record's full parameter set. The trace, chunk
// and spill codecs and merge's program encoding all write records with it.
func EncodeRecord(e *Enc, r *Record) {
	e.Str(r.Func.String())
	e.Int(r.DestRel)
	e.Int(r.SrcRel)
	e.Int(r.Tag)
	e.Int(r.Bytes)
	e.Int(r.RecvTag)
	e.Int(r.Root)
	e.Str(r.Op)
	e.Int(r.CommPool)
	e.Int(r.NewCommPool)
	e.Int(r.ReqPool)
	e.Ints(r.ReqPools)
	e.Ints(r.Counts)
	e.Int(r.Color)
	e.Int(r.Key)
	e.Int(r.ComputeCluster)
	e.Int(r.FilePool)
	e.Int(r.OffsetRel)
	e.Str(r.FileName)
}

// recordSize mirrors EncodeRecord byte for byte, so Encode can compute the
// exact output size in a first pass instead of growing a buffer as it goes.
// Pinned against EncodeRecord by TestRecordSizeExact.
func recordSize(r *Record) int {
	return strLen(r.Func.String()) +
		intLen(r.DestRel) +
		intLen(r.SrcRel) +
		intLen(r.Tag) +
		intLen(r.Bytes) +
		intLen(r.RecvTag) +
		intLen(r.Root) +
		strLen(r.Op) +
		intLen(r.CommPool) +
		intLen(r.NewCommPool) +
		intLen(r.ReqPool) +
		intsLen(r.ReqPools) +
		intsLen(r.Counts) +
		intLen(r.Color) +
		intLen(r.Key) +
		intLen(r.ComputeCluster) +
		intLen(r.FilePool) +
		intLen(r.OffsetRel) +
		strLen(r.FileName)
}

// DecodeRecord reads one record EncodeRecord wrote into r.
func DecodeRecord(d *Dec, r *Record) error {
	var err error
	read := func(dst *int) {
		if err == nil {
			*dst, err = d.Int()
		}
	}
	if r.Func, err = d.Func(); err != nil {
		return err
	}
	read(&r.DestRel)
	read(&r.SrcRel)
	read(&r.Tag)
	read(&r.Bytes)
	read(&r.RecvTag)
	read(&r.Root)
	if err == nil {
		r.Op, err = d.Str()
	}
	read(&r.CommPool)
	read(&r.NewCommPool)
	read(&r.ReqPool)
	if err == nil {
		r.ReqPools, err = d.Ints()
	}
	if err == nil {
		r.Counts, err = d.Ints()
	}
	read(&r.Color)
	read(&r.Key)
	read(&r.ComputeCluster)
	read(&r.FilePool)
	read(&r.OffsetRel)
	if err == nil {
		r.FileName, err = d.Str()
	}
	return err
}

// RawSize reports the byte size of the trace written in the uncompressed
// per-event format a conventional tracer emits: every event instance carries
// its full parameter record plus an 8-byte timestamp. This is the "Trace
// size" column of the paper's Table 3.
func (t *Trace) RawSize() int {
	total := 0
	for _, rt := range t.Ranks {
		sizes := GetInts(len(rt.Table))
		for id, r := range rt.Table {
			sizes.S[id] = recordSize(r)
		}
		for _, id := range rt.Events {
			total += sizes.S[id] + 8 // record + timestamp
		}
		sizes.Unref()
		// Per-cluster counter vectors appear once per *instance* in a
		// raw trace (the raw tracer has no clustering).
		for _, cl := range rt.Clusters {
			total += cl.N * int(perfmodel.NumMetrics) * 8
		}
	}
	return total
}

// Encode serializes the trace (tables, cluster statistics, and event
// sequences) in the compact binary format. The encoded size is computed
// exactly in a first pass, so the output buffer is allocated once and
// filled without ever growing (pinned by TestTraceEncodeAllocs).
func (t *Trace) Encode() []byte {
	total := strLen("SIESTA-TRACE1") + intLen(t.NumRanks) +
		strLen(t.Platform) + strLen(t.Impl)
	clusterSize := 2*int(perfmodel.NumMetrics)*8 + 8 // Rep+Sum floats, TimeSum
	for _, rt := range t.Ranks {
		total += intLen(rt.Rank) + intLen(len(rt.Table))
		for _, r := range rt.Table {
			total += recordSize(r)
		}
		total += intLen(len(rt.Clusters))
		for _, cl := range rt.Clusters {
			total += clusterSize + intLen(cl.N)
		}
		total += intLen(len(rt.Events))
		for _, id := range rt.Events {
			total += uvarintLen(uint64(id))
		}
	}
	var e Enc
	e.Grow(total)
	e.Str("SIESTA-TRACE1")
	e.Int(t.NumRanks)
	e.Str(t.Platform)
	e.Str(t.Impl)
	for _, rt := range t.Ranks {
		e.Int(rt.Rank)
		e.Int(len(rt.Table))
		for _, r := range rt.Table {
			EncodeRecord(&e, r)
		}
		e.Int(len(rt.Clusters))
		for _, cl := range rt.Clusters {
			for i := 0; i < int(perfmodel.NumMetrics); i++ {
				e.Float(cl.Rep[i])
				e.Float(cl.Sum[i])
			}
			e.Int(cl.N)
			e.Float(cl.TimeSum)
		}
		e.Int(len(rt.Events))
		for _, id := range rt.Events {
			e.Uvarint(uint64(id))
		}
	}
	return e.Bytes()
}

// DecodeNumRanks reads the rank count from the header of a trace produced
// by Encode, with Decode's magic and bound checks, and decodes nothing
// else: a trace corrupt past its header passes here and fails Decode.
func DecodeNumRanks(data []byte) (int, error) {
	return decodeHeader(NewDec(data))
}

// decodeHeader reads a trace's magic and rank count.
func decodeHeader(d *Dec) (int, error) {
	magic, err := d.Str()
	if err != nil || magic != "SIESTA-TRACE1" {
		return 0, fmt.Errorf("trace: bad magic %q: %v", magic, err)
	}
	n, err := d.Int()
	if err != nil {
		return 0, err
	}
	if err := d.boundedLen(n); err != nil {
		return 0, err
	}
	return n, nil
}

// Decode parses a trace produced by Encode.
func Decode(data []byte) (*Trace, error) {
	d := NewDec(data)
	t := &Trace{}
	var err error
	if t.NumRanks, err = decodeHeader(d); err != nil {
		return nil, err
	}
	if t.Platform, err = d.Str(); err != nil {
		return nil, err
	}
	if t.Impl, err = d.Str(); err != nil {
		return nil, err
	}
	t.Ranks = make([]*RankTrace, t.NumRanks)
	for i := 0; i < t.NumRanks; i++ {
		rt := &RankTrace{}
		if rt.Rank, err = d.Int(); err != nil {
			return nil, err
		}
		nrec, err := d.Int()
		if err != nil {
			return nil, err
		}
		if err := d.boundedLen(nrec); err != nil {
			return nil, err
		}
		// Records land in one slab per rank: the table's pointers then
		// share a single allocation instead of one per record.
		records := make([]Record, nrec)
		rt.Table = make([]*Record, nrec)
		for j := 0; j < nrec; j++ {
			r := &records[j]
			if err := DecodeRecord(d, r); err != nil {
				return nil, err
			}
			rt.Table[j] = r
		}
		ncl, err := d.Int()
		if err != nil {
			return nil, err
		}
		if err := d.boundedLen(ncl); err != nil {
			return nil, err
		}
		clusters := make([]Cluster, ncl)
		rt.Clusters = make([]*Cluster, ncl)
		for j := 0; j < ncl; j++ {
			cl := &clusters[j]
			for m := 0; m < int(perfmodel.NumMetrics); m++ {
				if cl.Rep[m], err = d.Float(); err != nil {
					return nil, err
				}
				if cl.Sum[m], err = d.Float(); err != nil {
					return nil, err
				}
			}
			if cl.N, err = d.Int(); err != nil {
				return nil, err
			}
			if cl.TimeSum, err = d.Float(); err != nil {
				return nil, err
			}
			rt.Clusters[j] = cl
		}
		nev, err := d.Int()
		if err != nil {
			return nil, err
		}
		if err := d.boundedLen(nev); err != nil {
			return nil, err
		}
		rt.Events = make([]int, nev)
		for j := 0; j < nev; j++ {
			v, err := d.Uvarint()
			if err != nil {
				return nil, err
			}
			if int(v) >= len(rt.Table) {
				return nil, fmt.Errorf("trace: event id %d out of table range %d", v, len(rt.Table))
			}
			rt.Events[j] = int(v)
		}
		// Cross-references must stay in range for downstream consumers.
		for j, r := range rt.Table {
			if r.IsCompute() && (r.ComputeCluster < 0 || r.ComputeCluster >= len(rt.Clusters)) {
				return nil, fmt.Errorf("trace: record %d references missing cluster %d", j, r.ComputeCluster)
			}
		}
		t.Ranks[i] = rt
	}
	return t, nil
}
