package experiments

import (
	"fmt"
	"strings"

	"siesta/internal/baselines/minime"
	"siesta/internal/blocks"
	"siesta/internal/merge"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
)

// RatesRow is one program's entry in Figures 4/5: the three MINIME metrics
// for the original program and both synthesizers, plus summary errors.
type RatesRow struct {
	Program                  string
	Origin, MINIME, Siesta   [3]float64 // IPC, CMR, BMR
	MINIMEError, SiestaError float64    // mean relative error over the 3 rates
	MINIMEError6, SiestaErr6 float64    // mean relative error over the 6 counters
}

func rates(c perfmodel.Counters) [3]float64 {
	return [3]float64{c.IPC(), c.CMR(), c.BMR()}
}

// Fig4 reproduces the single-computation-event comparison: the whole
// program's computation is aggregated into one event and mimicked once by
// each synthesizer.
func Fig4(cfg Config) ([]RatesRow, error) {
	return figRates(cfg, true)
}

// Fig5 reproduces the event-sequence comparison: every computation cluster
// is mimicked separately (weighted by its population) and the mimics are
// summed.
func Fig5(cfg Config) ([]RatesRow, error) {
	return figRates(cfg, false)
}

func figRates(cfg Config, single bool) ([]RatesRow, error) {
	cfg = cfg.withDefaults()
	p := platform.A
	bm := blocks.MeasureB(p, nil)
	var rows []RatesRow
	for _, program := range programs() {
		ranks := cfg.ladder(program)[0]
		res, err := cfg.synthesize(program, ranks, 1)
		if err != nil {
			return nil, fmt.Errorf("fig4/5 %s: %w", program, err)
		}
		glob := merge.GlobalizeParallel(res.Trace, 0.05, 1)

		var origin, mini, siesta perfmodel.Counters
		if single {
			// One event: the program's total computation.
			for _, cl := range glob.Clusters {
				origin.Add(cl.Sum)
			}
			mini = minime.Synthesize(p, origin, minime.Options{}).Counters(p)
			combo, err := blocks.Search(bm, origin)
			if err != nil {
				return nil, err
			}
			siesta = combo.Counters(p)
		} else {
			// Sequence: mimic each cluster separately, sum weighted by
			// its event population.
			for _, cl := range glob.Clusters {
				target := cl.Target()
				origin.Add(cl.Sum)
				m := minime.Synthesize(p, target, minime.Options{}).Counters(p)
				mini.Add(m.Scale(float64(cl.N)))
				combo, err := blocks.Search(bm, target)
				if err != nil {
					return nil, err
				}
				siesta.Add(combo.Counters(p).Scale(float64(cl.N)))
			}
		}
		rows = append(rows, RatesRow{
			Program:      program,
			Origin:       rates(origin),
			MINIME:       rates(mini),
			Siesta:       rates(siesta),
			MINIMEError:  minime.RateError(mini, origin),
			SiestaError:  minime.RateError(siesta, origin),
			MINIMEError6: mini.RelError(origin),
			SiestaErr6:   siesta.RelError(origin),
		})
	}
	return rows, nil
}

// FormatRates renders a Figure 4/5 table.
func FormatRates(title string, rows []RatesRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s %22s %22s %22s %9s %9s\n",
		"Program", "origin (IPC/CMR/BMR)", "MINIME", "Siesta", "errM", "errS")
	for _, r := range rows {
		f := func(v [3]float64) string {
			return fmt.Sprintf("%.2f/%.3f/%.3f", v[0], v[1], v[2])
		}
		fmt.Fprintf(&b, "%-9s %22s %22s %22s %9s %9s\n",
			r.Program, f(r.Origin), f(r.MINIME), f(r.Siesta),
			pct(r.MINIMEError), pct(r.SiestaError))
	}
	var em, es []float64
	for _, r := range rows {
		em = append(em, r.MINIMEError)
		es = append(es, r.SiestaError)
	}
	fmt.Fprintf(&b, "mean rate error: MINIME %s, Siesta %s\n", pct(mean(em)), pct(mean(es)))
	return b.String()
}
