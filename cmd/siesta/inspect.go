package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// runInspect implements the `siesta inspect` verb: it inspects an encoded
// trace (written by `siesta -trace`), printing per-rank event listings,
// function histograms, compression statistics, and with -gen the grammar
// the trace compresses to.
func runInspect(args []string) {
	fs := flag.NewFlagSet("siesta inspect", flag.ExitOnError)
	in := fs.String("in", "", "encoded trace file (required)")
	rank := fs.Int("rank", -1, "print this rank's event sequence (-1 = none)")
	head := fs.Int("head", 40, "max events to print per rank")
	summary := fs.Bool("summary", true, "print the trace summary")
	gen := fs.Bool("gen", false, "run grammar extraction and print its statistics")
	otf := fs.String("otf", "", "write an OTF-style text export to this file")
	diff := fs.String("diff", "", "compare against this second encoded trace")
	fs.Parse(args)

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta inspect: %v\n", err)
		os.Exit(1)
	}
	if *in == "" {
		die(fmt.Errorf("-in is required"))
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		die(err)
	}
	tr, err := trace.Decode(data)
	if err != nil {
		die(err)
	}

	if *summary {
		fmt.Printf("trace: %d ranks, platform %s, impl %s\n", tr.NumRanks, tr.Platform, tr.Impl)
		fmt.Printf("events: %d total, %d unique records across rank tables, raw size %d bytes\n",
			tr.TotalEvents(), tr.TotalUniqueRecords(), tr.RawSize())
		hist := tr.FuncHistogram()
		for _, f := range tr.SortedFuncs() {
			fmt.Printf("  %-16s %8d\n", f, hist[f])
		}
	}

	if *rank >= 0 {
		if *rank >= len(tr.Ranks) {
			die(fmt.Errorf("rank %d out of range (trace has %d)", *rank, tr.NumRanks))
		}
		rt := tr.Ranks[*rank]
		fmt.Printf("rank %d: %d events, %d unique records, %d computation clusters\n",
			rt.Rank, len(rt.Events), len(rt.Table), len(rt.Clusters))
		n := len(rt.Events)
		if n > *head {
			n = *head
		}
		for i := 0; i < n; i++ {
			r := rt.Table[rt.Events[i]]
			fmt.Printf("  %5d %s\n", i, describe(r))
		}
		if n < len(rt.Events) {
			fmt.Printf("  ... %d more\n", len(rt.Events)-n)
		}
	}

	if *diff != "" {
		other, err := os.ReadFile(*diff)
		if err != nil {
			die(err)
		}
		tr2, err := trace.Decode(other)
		if err != nil {
			die(err)
		}
		diffTraces(tr, tr2)
	}

	if *otf != "" {
		out, err := os.Create(*otf)
		if err != nil {
			die(err)
		}
		if err := tr.WriteText(out); err != nil {
			die(err)
		}
		if err := out.Close(); err != nil {
			die(err)
		}
		fmt.Printf("text export written to %s\n", *otf)
	}

	if *gen {
		prog, err := merge.Build(tr, merge.Options{})
		if err != nil {
			die(err)
		}
		st := prog.Stats()
		fmt.Printf("grammar: %d terminals, %d clusters, %d rules (%d symbols), %d main group(s) (%d symbols)\n",
			st.Terminals, st.Clusters, st.Rules, st.RuleSymbols, st.MainGroups, st.MainSymbols)
		fmt.Printf("encoded: %d bytes (%.1f× below raw)\n",
			st.EncodedBytes, float64(tr.RawSize())/float64(st.EncodedBytes))
	}
}

// diffTraces prints a structural comparison of two traces.
func diffTraces(a, b *trace.Trace) {
	fmt.Printf("diff: %d vs %d ranks, %d vs %d events, %d vs %d raw bytes\n",
		a.NumRanks, b.NumRanks, a.TotalEvents(), b.TotalEvents(), a.RawSize(), b.RawSize())
	ha, hb := a.FuncHistogram(), b.FuncHistogram()
	names := a.SortedFuncs()
	for f := range hb {
		if _, ok := ha[f]; !ok {
			names = append(names, f)
		}
	}
	sort.Strings(names)
	same := true
	for _, f := range names {
		if ha[f] != hb[f] {
			fmt.Printf("  %-20s %8d vs %8d\n", f, ha[f], hb[f])
			same = false
		}
	}
	if same {
		fmt.Println("  function histograms identical")
	}
	n := a.NumRanks
	if b.NumRanks < n {
		n = b.NumRanks
	}
	mismatched := 0
	for r := 0; r < n; r++ {
		ra, rb := a.Ranks[r], b.Ranks[r]
		if len(ra.Events) != len(rb.Events) {
			fmt.Printf("  rank %d: %d vs %d events\n", r, len(ra.Events), len(rb.Events))
			mismatched++
			continue
		}
		for i := range ra.Events {
			if ra.Table[ra.Events[i]].KeyString() != rb.Table[rb.Events[i]].KeyString() {
				fmt.Printf("  rank %d: first divergence at event %d (%s vs %s)\n",
					r, i, ra.Table[ra.Events[i]].Func, rb.Table[rb.Events[i]].Func)
				mismatched++
				break
			}
		}
	}
	if mismatched == 0 {
		fmt.Println("  per-rank event sequences identical")
	}
}

// describe renders one record compactly.
func describe(r *trace.Record) string {
	switch r.Func {
	case mpicall.Compute:
		return fmt.Sprintf("MPI_Compute(cluster=%d)", r.ComputeCluster)
	case mpicall.Send, mpicall.Isend:
		return fmt.Sprintf("%s(dest=me+%d, tag=%d, bytes=%d, comm=%d)", r.Func, r.DestRel, r.Tag, r.Bytes, r.CommPool)
	case mpicall.Recv, mpicall.Irecv:
		src := fmt.Sprintf("me+%d", r.SrcRel)
		if r.SrcRel == trace.Wildcard {
			src = "ANY"
		}
		return fmt.Sprintf("%s(src=%s, tag=%d, comm=%d)", r.Func, src, r.Tag, r.CommPool)
	case mpicall.Sendrecv:
		return fmt.Sprintf("MPI_Sendrecv(dest=me+%d, tag=%d, bytes=%d, src=me+%d, rtag=%d, comm=%d)",
			r.DestRel, r.Tag, r.Bytes, r.SrcRel, r.RecvTag, r.CommPool)
	case mpicall.Wait:
		return fmt.Sprintf("MPI_Wait(req=%d)", r.ReqPool)
	case mpicall.Waitall:
		return fmt.Sprintf("MPI_Waitall(reqs=%v)", r.ReqPools)
	default:
		if r.Root != trace.NoRank {
			return fmt.Sprintf("%s(bytes=%d, root=%d, comm=%d)", r.Func, r.Bytes, r.Root, r.CommPool)
		}
		return fmt.Sprintf("%s(bytes=%d, comm=%d)", r.Func, r.Bytes, r.CommPool)
	}
}
