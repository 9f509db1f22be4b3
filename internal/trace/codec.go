package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// Dec decodes what Enc produced.
type Dec struct {
	r *bytes.Reader
}

// NewDec wraps encoded bytes for reading.
func NewDec(data []byte) *Dec { return &Dec{r: bytes.NewReader(data)} }

// Remaining reports the unread byte count — the upper bound any sane length
// prefix must respect. Decoders check prefixes against it before allocating,
// so corrupted or hostile inputs fail with an error instead of exhausting
// memory.
func (d *Dec) Remaining() int { return d.r.Len() }

// boundedLen validates a length prefix against the remaining input (each
// encoded element consumes at least one byte).
func (d *Dec) boundedLen(n int) error {
	if n < 0 || n > d.r.Len() {
		return fmt.Errorf("trace: length prefix %d exceeds remaining input %d", n, d.r.Len())
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

// Varint reads a signed varint.
func (d *Dec) Varint() (int64, error) { return binary.ReadVarint(d.r) }

// Int reads a signed int.
func (d *Dec) Int() (int, error) {
	v, err := d.Varint()
	return int(v), err
}

// Float reads a float64.
func (d *Dec) Float() (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(d.r, tmp[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}

// Str reads a length-prefixed string.
func (d *Dec) Str() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if err := d.boundedLen(int(n)); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	return string(b), nil
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
	e.Str(r.Func)
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
	return strLen(r.Func) +
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
	if r.Func, err = d.Str(); err != nil {
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

// Decode parses a trace produced by Encode.
func Decode(data []byte) (*Trace, error) {
	d := NewDec(data)
	magic, err := d.Str()
	if err != nil || magic != "SIESTA-TRACE1" {
		return nil, fmt.Errorf("trace: bad magic %q: %v", magic, err)
	}
	t := &Trace{}
	if t.NumRanks, err = d.Int(); err != nil {
		return nil, err
	}
	if err := d.boundedLen(t.NumRanks); err != nil {
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
