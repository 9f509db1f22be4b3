package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// TestDecMatchesStreamReaders: Dec reads varints and floats straight from
// its slice, and each read returns what encoding/binary's stream readers
// return over a bytes.Reader — the value, the error text (io.EOF,
// io.ErrUnexpectedEOF or the overflow error) and the bytes consumed — on
// sound, empty, truncated and overflowing input.
func TestDecMatchesStreamReaders(t *testing.T) {
	var e Enc
	e.Uvarint(math.MaxUint64)
	e.Varint(math.MinInt64)
	e.Float(math.Pi)
	full := append([]byte(nil), e.Bytes()...)
	inputs := [][]byte{
		nil, {0}, {0x7f}, {0x80}, {0x80, 0x80}, {0xff, 0x01},
		bytes.Repeat([]byte{0xff}, 10), bytes.Repeat([]byte{0xff}, 11),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02), full,
	}
	for i := 0; i < len(full); i++ {
		inputs = append(inputs, full[:i])
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, in := range inputs {
		reads := []struct {
			name   string
			dec    func(*Dec) (any, error)
			stream func(*bytes.Reader) (any, error)
		}{
			{"Uvarint", func(d *Dec) (any, error) { return d.Uvarint() },
				func(r *bytes.Reader) (any, error) { return binary.ReadUvarint(r) }},
			{"Varint", func(d *Dec) (any, error) { return d.Varint() },
				func(r *bytes.Reader) (any, error) { return binary.ReadVarint(r) }},
			{"Float", func(d *Dec) (any, error) { // as bits: NaN != NaN
				v, err := d.Float()
				return math.Float64bits(v), err
			}, func(r *bytes.Reader) (any, error) {
				var b [8]byte
				_, err := io.ReadFull(r, b[:])
				return binary.LittleEndian.Uint64(b[:]), err
			}},
		}
		for _, rd := range reads {
			d, r := NewDec(in), bytes.NewReader(in)
			for step := 0; step < 4; step++ {
				gv, gerr := rd.dec(d)
				wv, werr := rd.stream(r)
				if errText(gerr) != errText(werr) || (werr == nil && gv != wv) || d.Remaining() != r.Len() {
					t.Fatalf("%s on % x, read %d: got (%v, %v, %d left), want (%v, %v, %d left)",
						rd.name, in, step, gv, gerr, d.Remaining(), wv, werr, r.Len())
				}
				if werr != nil {
					break
				}
			}
		}
	}
}
