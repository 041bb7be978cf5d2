package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// runRepeat is the -repeat mode: it runs the selected workloads n times
// (each pass over them is a set; odd sets run in reverse order, so no
// workload always follows the same neighbour), prints median and
// quartiles per metric and workload, and compares the first half of the
// sets with the second. A metric whose halves differ by more than its
// own bound makes the exit code non-zero; one whose spread is wider
// than its bound is printed as unresolved — the sets cannot tell — and
// never as unchanged.
func runRepeat(names []string, cfg config, n int, stdout, stderr io.Writer) int {
	type key struct{ workload, metric string }
	samples := map[key][]float64{}
	code := 0
	for set := 0; set < n; set++ {
		order := append([]string(nil), names...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := runWorkload(name, workloads[name], cfg)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stdout, "set %d/%d %s: attempted=%d failed=%d\n", set+1, n, name, res.Attempted, res.Failed)
			for _, e := range res.Errors {
				fmt.Fprintln(stdout, "   FAILED:", e)
			}
			if !res.correct() {
				code = 1
			}
			for _, m := range res.Metrics {
				k := key{name, m.Name}
				samples[k] = append(samples[k], m.Value)
			}
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\tspread\tbound\tfirst half\tsecond half\tverdict")
	defs := perLayer
	if !cfg.trace {
		defs = append(append([]metricDef(nil), endToEnd...), workloadEndToEnd...)
	}
	for _, name := range names {
		for _, d := range defs {
			xs := samples[key{name, d.name}]
			if len(xs) == 0 {
				continue
			}
			med, q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, math.Abs(med))
			half := (len(xs) + 1) / 2
			a, b := median(xs[:half]), median(xs[half:])
			diff := ratio(math.Abs(b-a), math.Abs(a))
			verdict := "unchanged"
			switch {
			case d.name == "failed_ops_share" && (a != 0 || b != 0):
				verdict = "DISAGREE"
			case d.bound == 0: // informational: per-layer metrics, delta_p90_ms
				verdict = "-"
			case len(xs) < 2:
				verdict = "one set"
			case diff > d.bound:
				verdict = "DISAGREE"
			case spread > d.bound:
				verdict = "unresolved"
			}
			if verdict == "DISAGREE" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\t%.1f%%\t%.0f%%\t%.6g\t%.6g\t%s\n",
				name, d.name, med, q1, q3, d.unit, 100*spread, 100*d.bound, a, b, verdict)
		}
	}
	tw.Flush()
	return code
}

// quartiles returns the median and the first and third quartile of xs.
// With fewer than four values the quartiles are the extremes, so the
// spread of two sets is their distance.
func quartiles(xs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = median(s)
	if len(s) < 4 {
		return med, s[0], s[len(s)-1]
	}
	// the "exclusive" method of Python's statistics.quantiles(n=4)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return med, at(0.25), at(0.75)
}
