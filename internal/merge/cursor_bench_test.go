package merge_test

import (
	"testing"

	"siesta/internal/merge"
)

// BenchmarkCursorWalk walks every rank of every recorded app with the
// cursor and with the frozen recursive expansion it replaced; the ratio of
// the two is the cursor's per-event overhead.
func BenchmarkCursorWalk(b *testing.B) {
	cases, err := appCases()
	if err != nil {
		b.Fatal(err)
	}
	var progs []*merge.Program
	for _, c := range cases {
		p, err := merge.Build(c.tr, merge.Options{})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.Run("cursor", func(b *testing.B) {
		var curs []*merge.Cursor
		for _, p := range progs {
			cur, err := merge.NewCursor(p)
			if err != nil {
				b.Fatal(err)
			}
			curs = append(curs, cur)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range progs {
				for r := 0; r < p.NumRanks; r++ {
					if err := curs[j].Reset(r); err != nil {
						b.Fatal(err)
					}
					for curs[j].Next() {
					}
				}
			}
		}
	})
	b.Run("recursive", func(b *testing.B) {
		var buf []int
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				for r := 0; r < p.NumRanks; r++ {
					var err error
					if buf, err = refAppendExpansion(p, r, buf[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}
